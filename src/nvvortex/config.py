"""Run configuration: a single JSON file with strictly validated
sections, one per field of ``RunConfig``. ``fileio`` reads the file and
refuses a key named twice in one object; this module validates what it
reads. Every key it does not read, a section included, is refused by
its dotted name. Keys starting with '_' are comments, which
``read_json`` drops, so configs can carry inline notes."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields

from .errors import ConfigError, FileFormatError, NVVortexError
from .fileio import is_json_number, read_json
from .focal_field import OpticalConfig
from .spin import SpinParams

__all__ = [
    "RunConfig",
    "load_config",
    "config_hash",
]


@dataclass(frozen=True)
class RunConfig:
    optics: OpticalConfig = field(default_factory=OpticalConfig)
    spin: SpinParams = field(default_factory=SpinParams)


def _entries(data: dict, known, prefix: str = ""):
    """The (key, value) pairs of ``data``, each key in ``known`` or
    refused by its dotted name ``prefix + key``."""
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown config key '{prefix}{key}'")
        yield key, value


def _build_section(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"config section '{where}' must be an object")
    kwargs = {}
    for key, value in _entries(data, {f.name for f in fields(cls)}, f"{where}."):
        if not is_json_number(value):
            raise ConfigError(
                f"config key '{where}.{key}' must be a finite number, got {value!r}"
            )
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, NVVortexError) as exc:
        raise ConfigError(f"invalid config section '{where}': {exc}") from exc


def load_config(path=None) -> RunConfig:
    """Defaults when ``path`` is None, otherwise the validated file."""
    if path is None:
        return RunConfig()
    try:
        data = read_json(path)
    except FileFormatError as exc:  # a bad config is a usage error
        raise ConfigError(str(exc)) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    # each section's class is the default factory of its RunConfig field
    sections = {f.name: f.default_factory for f in fields(RunConfig)}
    return RunConfig(**{key: _build_section(sections[key], value, key)
                        for key, value in _entries(data, sections)})


def config_hash(config: RunConfig) -> str:
    """Stable digest of the effective configuration, for report
    provenance."""
    canon = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
