"""The package's public names, and the module attributes through which
the benchmark's tracer times each layer.

The tracer in ``perfbench/tracer.py`` replaces a module attribute with a
timed wrapper and reports a missing one as absent instead of failing, so
a refactor that renames or bypasses one of these names would silently
blind a per-layer span. These tests fail instead.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import nvvortex
from nvvortex import pattern
from nvvortex.focal_field import OpticalConfig

MODULES = sorted(
    f"nvvortex.{info.name}" for info in pkgutil.iter_modules(nvvortex.__path__)
)

#: (module, attribute path) of every name the tracer hooks or the
#: synthesis workload wraps
HOOKED = [
    ("nvvortex.focal_field", "j1"),
    ("nvvortex.pattern", "azimuthal_field_profile"),
    ("nvvortex.pattern", "RadialIntensityProfile.build"),
    ("nvvortex.pattern", "intensity_map"),
    ("nvvortex.pattern", "simulate_pattern"),
    ("nvvortex.cli", "fit_orientation"),
    ("nvvortex.cli", "fit_odmr_model"),
    ("nvvortex.cli", "field_estimate"),
    ("nvvortex.cli", "solve_direction"),
    ("nvvortex.cli", "read_scan_image_csv"),
    ("nvvortex.cli", "read_spectrum_csv"),
    ("nvvortex.cli", "cmd_pipeline"),
    ("nvvortex.cli", "load_config"),
    ("nvvortex.fileio", "write_scan_image_csv"),
    ("nvvortex.fileio", "write_pgm"),
    ("nvvortex.fileio", "write_spectrum_csv"),
]


@pytest.mark.parametrize("module_name", ["nvvortex", *MODULES])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert [name for name in exported if not hasattr(module, name)] == []


@pytest.mark.parametrize(
    "module_name, path", HOOKED, ids=[".".join(hook) for hook in HOOKED]
)
def test_hooked_name_exists_where_the_tracer_looks(module_name, path):
    # the tracer reads the raw attribute from the owner's __dict__, so a
    # classmethod must sit on the class itself
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    assert attr in vars(owner)


def test_synthesis_runs_through_the_wrapped_names(monkeypatch):
    # simulate_pattern must call the module-global intensity_map, and
    # intensity_map, on a cache miss, the profile build and the
    # quadrature, at call time
    pattern._cached_profile.cache_clear()
    seen = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            seen.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pattern, "intensity_map", spy("map", pattern.intensity_map))
    monkeypatch.setattr(
        pattern, "azimuthal_field_profile",
        spy("quadrature", pattern.azimuthal_field_profile),
    )
    build = vars(pattern.RadialIntensityProfile)["build"].__func__
    monkeypatch.setattr(
        pattern.RadialIntensityProfile, "build", classmethod(spy("build", build))
    )
    image = pattern.simulate_pattern(
        pattern.NVOrientation(1.0, 0.5), pattern.ScanGrid(5, 5, 50.0), OpticalConfig()
    )
    assert seen == ["map", "build", "quadrature"]
    assert np.all(np.isfinite(image.values))
