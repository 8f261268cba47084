"""Working set of the focal-field chain, the fit and the files: the
quadrature, the profile build and a map each need their output plus one
block, a fit the same whatever its number of trials, a scan or spectrum
write one block and a scan read little beyond the image, not
temporaries the size of their input. Peaks are traced allocations
above the call's start, so they do not depend on the interpreter's own
footprint; the bounds are ratios to the output and to one block, so
that they hold across numpy versions."""

import tracemalloc

import numpy as np
import pytest

import nvvortex.fileio as fileio
import nvvortex.focal_field as focal_field
import nvvortex.pattern as pattern
from nvvortex.fileio import (
    read_scan_image_csv, write_pgm, write_scan_image_csv, write_spectrum_csv,
)
from nvvortex.orient_fit import fit_orientation
from nvvortex.focal_field import azimuthal_field_profile
from nvvortex.pattern import NVOrientation, RadialIntensityProfile, ScanGrid
from nvvortex.spin import Spectrum

#: bytes of one float64 array the size of a block
J1_BLOCK_BYTES = 8 * focal_field._J1_BLOCK
PIXEL_BLOCK_BYTES = 8 * pattern._PIXEL_BLOCK
SPECTRUM_BLOCK_BYTES = 8 * fileio._SPECTRUM_BLOCK
#: bytes of one real panel block's Taylor values at its nodes
PANEL_BLOCK_BYTES = (
    8 * pattern._PANEL_BLOCK * (pattern._NODES_PER_PANEL + 1) * (pattern._TAYLOR_DEGREE + 1)
)


@pytest.fixture
def traced_peak():
    """Calls a function under tracemalloc and returns (peak bytes above
    the call's start, its result)."""
    tracemalloc.start()

    def peak(fn):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        return tracemalloc.get_traced_memory()[1] - start, out

    yield peak
    tracemalloc.stop()


def test_noisy_map_needs_its_two_maps_plus_one_block(optics, traced_peak):
    # the noiseless mean and the Poisson draws are the two full-size
    # arrays; one row block is the rest (a full-size evaluation needs
    # about 14 maps)
    grid = ScanGrid(512, 512, 50.0)
    cx, cy = grid.center_nm
    kw = dict(amplitude=1e4, background=100.0, center_nm=(cx + 15.5, cy - 13.5))
    orientation = NVOrientation(1.1, 0.7)
    pattern.simulate_pattern(orientation, grid, optics, noise_seed=1, **kw)  # warm
    peak, image = traced_peak(
        lambda: pattern.simulate_pattern(orientation, grid, optics, noise_seed=2, **kw)
    )
    assert peak <= 2.25 * image.values.nbytes + 16 * PIXEL_BLOCK_BYTES


def test_quadrature_needs_its_output_plus_one_block(optics, traced_peak):
    # 2,048 radii out to 18,000 nm, where the rule takes 64 nodes on
    # each of 3 sub-intervals: 3 * 2^17 J1 arguments in 25 blocks of at
    # most 85 radii (a full-size evaluation needs about 200 blocks' worth)
    r = np.linspace(0.0, 18_000.0, 2048)
    peak, field = traced_peak(lambda: azimuthal_field_profile(r, 0.0, optics))
    assert peak <= 2 * field.nbytes + 16 * J1_BLOCK_BYTES


@pytest.mark.parametrize("z_nm", [0.0, 300.0])
def test_build_needs_its_table_plus_one_block(optics, traced_peak, z_nm):
    # the 138 panels of MAX_PROFILE_PANELS, 3 blocks (a full-size build
    # needs about 7 tables)
    panels = pattern.MAX_PROFILE_PANELS
    assert panels == 138
    peak, profile = traced_peak(lambda: RadialIntensityProfile.build(optics, panels, z_nm))
    scale = profile.taylor.itemsize // 8  # a complex table holds two floats
    assert peak <= profile.taylor.nbytes + scale * 4 * PANEL_BLOCK_BYTES


def test_fit_needs_the_same_working_set_whatever_its_trials(optics, traced_peak):
    # the solver keeps only the evaluation it accepted: a background with
    # no NV takes 26 evaluations and an NV1 scan 4, and both fits peak
    # at about 27 times the image (216 and 45 times when every trial's
    # solve was kept)
    grid = ScanGrid(256, 256, 50.0)
    nv = pattern.simulate_pattern(
        NVOrientation.from_degrees(109.84, 20.60), grid, optics,
        amplitude=1e4, background=100.0, noise_seed=1,
    )
    counts = np.random.default_rng(1).poisson(100.0, (256, 256)).astype(float)
    background = pattern.ScanImage(grid, counts)
    fit_orientation(nv, optics)  # warm: the profile cache
    nv_peak, nv_fit = traced_peak(lambda: fit_orientation(nv, optics))
    background_peak, background_fit = traced_peak(
        lambda: fit_orientation(background, optics)
    )
    assert background_fit.center_iterations >= 5 * nv_fit.center_iterations
    assert background_peak <= 1.25 * nv_peak


def _poisson_scans():
    for n in (512, 1024):
        values = np.random.default_rng(3).poisson(100.0, (n, n)).astype(float)
        yield pattern.ScanImage(ScanGrid(n, n, 50.0), values)


def test_scan_csv_needs_one_block(tmp_path, traced_peak):
    # a row block's unique table, inverse and text, the same bound at
    # both sizes (about 5 blocks here); formatting the whole image at
    # once needs 5 times the image, 164 blocks at 512^2
    for image in _poisson_scans():
        write_scan_image_csv(image, tmp_path / "warm.csv")
        peak, _ = traced_peak(lambda: write_scan_image_csv(image, tmp_path / "scan.csv"))
        assert peak <= 12 * PIXEL_BLOCK_BYTES, image.grid


def test_pgm_needs_one_block(tmp_path, traced_peak):
    # a row block's float buffer and its 16-bit pixels, the same bound at
    # both sizes; scaling the whole image at once needs 1.25 times the
    # image, 40 blocks at 512^2
    for image in _poisson_scans():
        write_pgm(image, tmp_path / "warm.pgm")
        peak, _ = traced_peak(lambda: write_pgm(image, tmp_path / "scan.pgm"))
        assert peak <= 3 * PIXEL_BLOCK_BYTES, image.grid


def test_spectrum_csv_needs_one_block(tmp_path, traced_peak):
    # a block's two lists of floats, their rows and its text and bytes,
    # the same bound at both sizes (about 20 blocks of floats here);
    # formatting the whole spectrum at once needs about 170 bytes a point
    for n in (1 << 16, 1 << 18):
        contrast = 1.0 - 0.01 * np.random.default_rng(3).random(n)
        spectrum = Spectrum(np.linspace(2780.0, 2980.0, n), contrast)
        write_spectrum_csv(spectrum, tmp_path / "warm.csv")
        peak, _ = traced_peak(lambda: write_spectrum_csv(spectrum, tmp_path / "s.csv"))
        assert peak <= 32 * SPECTRUM_BLOCK_BYTES, n


def test_scan_read_needs_little_beyond_the_image(tmp_path, traced_peak):
    # the reader parses rows from the open file, without the file's text
    # or its list of lines (1.8 times the image when it held them)
    grid = ScanGrid(1024, 1024, 20.0)
    values = np.random.default_rng(3).poisson(300.0, (1024, 1024)).astype(float)
    path = tmp_path / "scan.csv"
    write_scan_image_csv(pattern.ScanImage(grid=grid, values=values), path)
    read_scan_image_csv(path)  # warm
    peak, image = traced_peak(lambda: read_scan_image_csv(path))
    assert np.array_equal(image.values, values)
    assert peak <= 1.25 * values.nbytes
