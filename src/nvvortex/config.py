"""Run configuration: a single JSON file with strictly validated
sections. Unknown keys are rejected by name; keys starting with '_'
are ignored so configs can carry inline notes."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields

from .errors import ConfigError, NVVortexError
from .focal_field import OpticalConfig
from .spin import SpinParams

__all__ = ["FitConfig", "PatternConfig", "RunConfig", "load_config", "config_hash"]


@dataclass(frozen=True)
class FitConfig:
    seed: int = 0


#: keys that older configs may still carry, with the reason they went
_REMOVED_KEYS = {
    "fit.n_starts": "the orientation fit is one centre search with no random starts",
    "fit.simplex": "both fits use a Levenberg-Marquardt solver with fixed tolerances",
}


@dataclass(frozen=True)
class PatternConfig:
    """Default scan raster and intensity scale for synthesis."""

    width_px: int = 31
    height_px: int = 31
    pitch_nm: float = 50.0
    amplitude: float = 10000.0
    background: float = 100.0

    def __post_init__(self):
        if self.width_px < 1 or self.height_px < 1 or self.pitch_nm <= 0:
            raise ValueError("pattern grid must have positive dimensions and pitch")
        if self.amplitude < 0 or self.background < 0:
            raise ValueError("amplitude and background must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    optics: OpticalConfig = field(default_factory=OpticalConfig)
    spin: SpinParams = field(default_factory=SpinParams)
    fit: FitConfig = field(default_factory=FitConfig)
    pattern: PatternConfig = field(default_factory=PatternConfig)


def _build_section(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"config section '{where}' must be an object")
    known = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key.startswith("_"):
            continue
        if f"{where}.{key}" in _REMOVED_KEYS:
            raise ConfigError(
                f"config key '{where}.{key}' was removed: "
                f"{_REMOVED_KEYS[f'{where}.{key}']}"
            )
        if key not in known:
            raise ConfigError(f"unknown config key '{where}.{key}'")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError, NVVortexError) as exc:
        raise ConfigError(f"invalid config section '{where}': {exc}") from exc


_SECTIONS = {
    "optics": OpticalConfig,
    "spin": SpinParams,
    "fit": FitConfig,
    "pattern": PatternConfig,
}


def load_config(path=None) -> RunConfig:
    """Defaults when ``path`` is None, otherwise the validated file."""
    if path is None:
        return RunConfig()
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    kwargs = {}
    for key, value in data.items():
        if key.startswith("_"):
            continue
        if key not in _SECTIONS:
            raise ConfigError(f"unknown config key '{key}'")
        kwargs[key] = _build_section(_SECTIONS[key], value, key)
    return RunConfig(**kwargs)


def config_hash(config: RunConfig) -> str:
    """Stable digest of the effective configuration, for report
    provenance."""
    canon = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
