"""Run configuration: a single JSON file with strictly validated
sections. ``fileio`` reads the file; this module validates what it
reads. Unknown keys are rejected by name; keys starting with '_' are
ignored so configs can carry inline notes."""

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
    "is_json_number",
]


#: keys and sections that older configs may still carry, with the reason
#: they went; a key's own entry takes precedence over its section's
_REMOVED_KEYS = {
    "fit": "no step of a run draws random numbers; simulated noise takes "
           "its seed from the --noise-seed flag",
    "fit.n_starts": "the orientation fit is one centre search with no random starts",
    "fit.simplex": "both fits use a Levenberg-Marquardt solver with fixed tolerances",
    "pattern": "the simulate-pattern flags set the scan raster and intensity scale",
    "optics.quadrature_nodes": (
        "the focal-field quadrature picks its own rule from the reach and "
        "defocus of each evaluation"
    ),
    "optics.convergence_rtol": (
        "it set the node-doubling self-check of the focal-field quadrature, "
        "which the package no longer ships"
    ),
    "optics.pupil_amplitude": (
        "it scaled the pattern by its square, which the fitted amplitude absorbs"
    ),
    **dict.fromkeys(
        ("spin.a_par", "spin.a_perp", "spin.q", "spin.gamma_n"),
        "the 14N hyperfine, quadrupole and nuclear-Zeeman constants are fixed "
        "literature values of the spectrum simulator",
    ),
}


@dataclass(frozen=True)
class RunConfig:
    optics: OpticalConfig = field(default_factory=OpticalConfig)
    spin: SpinParams = field(default_factory=SpinParams)


def _build_section(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"config section '{where}' must be an object")
    known = {f.name for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key.startswith("_"):
            continue
        if f"{where}.{key}" in _REMOVED_KEYS:
            raise _removed(f"{where}.{key}")
        if key not in known:
            raise ConfigError(f"unknown config key '{where}.{key}'")
        if not is_json_number(value):
            raise ConfigError(
                f"config key '{where}.{key}' must be a finite number, got {value!r}"
            )
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError, NVVortexError) as exc:
        raise ConfigError(f"invalid config section '{where}': {exc}") from exc


_SECTIONS = {"optics": OpticalConfig, "spin": SpinParams}


def _removed(dotted: str) -> ConfigError:
    reason = _REMOVED_KEYS.get(dotted) or _REMOVED_KEYS[dotted.split(".")[0]]
    return ConfigError(f"config key '{dotted}' was removed: {reason}")


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
    kwargs = {}
    for key, value in data.items():
        if key.startswith("_"):
            continue
        if key in _REMOVED_KEYS:  # a whole section: name its first key
            keys = value if isinstance(value, dict) else {}
            inner = [k for k in keys if not k.startswith("_")]
            raise _removed(f"{key}.{inner[0]}" if inner else key)
        if key not in _SECTIONS:
            raise ConfigError(f"unknown config key '{key}'")
        kwargs[key] = _build_section(_SECTIONS[key], value, key)
    return RunConfig(**kwargs)


def config_hash(config: RunConfig) -> str:
    """Stable digest of the effective configuration, for report
    provenance."""
    canon = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
