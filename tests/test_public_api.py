"""The package's public names, and the module attributes through which
the benchmark's tracer times each layer.

The tracer in ``perfbench/tracer.py`` replaces a module attribute with a
timed wrapper and reports a missing one as absent instead of failing, so
a refactor that renames or bypasses one of these names would silently
blind a per-layer span. These tests fail instead.
"""

import importlib
import pkgutil
from collections import Counter

import numpy as np
import pytest

import nvvortex
from nvvortex import cli, pattern
from nvvortex.fileio import write_scan_image_csv, write_spectrum_csv
from nvvortex.focal_field import OpticalConfig
from nvvortex.spin import SpinParams, simulate_odmr_spectrum

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


def _spy(seen: list, name: str, fn):
    """``fn``, recording ``name`` in ``seen`` at every call."""
    def wrapper(*args, **kwargs):
        seen.append(name)
        return fn(*args, **kwargs)
    return wrapper


def test_synthesis_runs_through_the_wrapped_names(monkeypatch):
    # simulate_pattern must call the module-global intensity_map, and
    # intensity_map, on a cache miss, the profile build and the
    # quadrature, at call time
    pattern._cached_profile.cache_clear()
    seen = []
    monkeypatch.setattr(
        pattern, "intensity_map", _spy(seen, "map", pattern.intensity_map)
    )
    monkeypatch.setattr(
        pattern, "azimuthal_field_profile",
        _spy(seen, "quadrature", pattern.azimuthal_field_profile),
    )
    build = vars(pattern.RadialIntensityProfile)["build"].__func__
    monkeypatch.setattr(
        pattern.RadialIntensityProfile, "build", classmethod(_spy(seen, "build", build))
    )
    image = pattern.simulate_pattern(
        pattern.NVOrientation(1.0, 0.5), pattern.ScanGrid(5, 5, 50.0), OpticalConfig()
    )
    assert seen == ["map", "build", "quadrature"]
    assert np.all(np.isfinite(image.values))


#: the layer calls of one pipeline run, all looked up in nvvortex.cli
CHAIN_HOOKS = ["read_scan_image_csv", "read_spectrum_csv", "fit_orientation",
               "fit_odmr_model", "field_estimate", "solve_direction"]


def test_pipeline_runs_through_the_hooked_names(monkeypatch, tmp_path, capsys):
    # cmd_pipeline's loaders and cli.measure must look each layer up in
    # nvvortex.cli's globals at call time, where the tracer's wrappers sit
    field = 59.5 * pattern.NVOrientation.from_degrees(8.59, 2.56).unit_axis
    for sub in ("scans", "spectra"):
        (tmp_path / sub).mkdir()
    for label, theta_deg, phi_deg in [("nv1", 70.16, 20.60), ("nv2", 70.75, 80.51),
                                      ("nv3", 70.69, 140.74)]:
        axis = pattern.NVOrientation.from_degrees(theta_deg, phi_deg)
        write_scan_image_csv(
            pattern.simulate_pattern(axis, pattern.ScanGrid(31, 31, 50.0),
                                     OpticalConfig()),
            tmp_path / "scans" / f"{label}.csv",
        )
        write_spectrum_csv(simulate_odmr_spectrum(field, axis, SpinParams()),
                           tmp_path / "spectra" / f"{label}.csv")
    seen = []
    for name in CHAIN_HOOKS:
        monkeypatch.setattr(cli, name, _spy(seen, name, getattr(cli, name)))
    code = cli.main(["pipeline", "--scans", str(tmp_path / "scans"),
                     "--spectra", str(tmp_path / "spectra")])
    assert code == 0, capsys.readouterr().err
    assert Counter(seen) == {**dict.fromkeys(CHAIN_HOOKS, 3), "solve_direction": 1}
