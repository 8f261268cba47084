"""Symmetries of the measurement chain, ``cli.measure``, that hold today:
the sign of an NV axis, the order of the NVs, the scale of the scan
counts and the stage origin of the scans, synthesized there or moved
there. The inputs are the fig-2 axes in their physical form and the
fig-2 field on a sweep wide enough for NV0's lines, built in memory,
noiseless and with Poisson and contrast noise. Turning the scene about
the beam is pinned as a strict xfail, and mirroring it is left out: the
chain follows neither while each fit reports its own member of the axis
twin {+-n, +-M n} (ROADMAP item 1)."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from nvvortex import cli
from nvvortex.config import RunConfig
from nvvortex.focal_field import OpticalConfig
from nvvortex.pattern import NVOrientation, ScanGrid, ScanImage, simulate_pattern
from nvvortex.spin import (
    SpinParams,
    SweepSettings,
    add_contrast_noise,
    simulate_odmr_spectrum,
)

#: fig-2 axes, physical orientation
AXES = {
    label: NVOrientation.from_degrees(*deg) for label, deg in {
        "NV0": (0.37, 153.68),
        "NV1": (109.84, 20.60),
        "NV2": (109.25, 260.51),
        "NV3": (109.31, 140.74),
    }.items()
}
FIELD = 59.5 * NVOrientation.from_degrees(8.59, 182.56).unit_axis
#: 2680-3060 MHz at 0.1 MHz, which holds NV0's lines near 2704 and 3036 MHz
SWEEP = SweepSettings(2680.0, 3060.0, 3801)
GRID = ScanGrid(31, 31, 50.0)

NEGATED = {
    "from-vector": lambda n: NVOrientation.from_vector(-n.unit_axis),
    "from-angles": lambda n: NVOrientation(math.pi - n.theta, n.phi + math.pi),
}


def _scan(axis, i: int, noisy: bool, scale: float = 1.0, grid=GRID) -> ScanImage:
    return simulate_pattern(axis, grid, OpticalConfig(), amplitude=scale * 10000.0,
                            background=scale * 100.0,
                            noise_seed=10 + i if noisy else None)


def _inputs(axes: dict, noisy: bool) -> dict:
    """label -> (scan, spectrum) per axis; the i-th NV draws its noise
    from seeds set by i, so every label keeps its noise in any order."""
    out = {}
    for i, (label, axis) in enumerate(axes.items()):
        spectrum = simulate_odmr_spectrum(FIELD, axis, SpinParams(), sweep=SWEEP)
        if noisy:
            spectrum = add_contrast_noise(spectrum, 0.002, 20 + i)
        out[label] = _scan(axis, i, noisy), spectrum
    return out


def _measure(inputs: dict, order=None) -> cli.ChainResult:
    order = list(inputs) if order is None else order
    return cli.measure([(label, lambda d=inputs[label]: d) for label in order],
                       RunConfig())


def _chord(a: cli.ChainResult, b: cli.ChainResult) -> float:
    """Distance between the two reconstructed field directions."""
    return float(np.linalg.norm(a.reconstruction.direction
                                - b.reconstruction.direction))


@pytest.fixture(scope="module", params=["noiseless", "noisy"])
def noisy(request):
    return request.param == "noisy"


@pytest.fixture(scope="module")
def fig2(noisy):
    """The fig-2 inputs and their chain result, which reconstructs."""
    inputs = _inputs(AXES, noisy)
    result = _measure(inputs)
    assert result.errors == {} and result.reconstruction is not None
    return inputs, result


@pytest.mark.parametrize("negate", NEGATED.values(), ids=NEGATED.keys())
def test_sign_of_an_axis_changes_the_inputs_only_by_rounding(fig2, noisy, negate):
    inputs, result = fig2
    negated = _inputs({label: negate(n) for label, n in AXES.items()}, noisy)
    for label, (scan, spectrum) in inputs.items():
        other_scan, other_spectrum = negated[label]
        if noisy:  # the Poisson draws absorb the rounding
            assert np.array_equal(other_scan.values, scan.values), label
        else:  # sin(pi - theta) rounds apart from sin(theta)
            peak = scan.values.max()
            assert np.max(np.abs(other_scan.values - scan.values)) <= 1e-15 * peak
        assert np.max(np.abs(other_spectrum.contrast - spectrum.contrast)) <= 1e-12
    other = _measure(negated)
    for label, nv in result.measurements.items():
        axis = other.measurements[label].constraint.axis.unit_axis
        assert np.linalg.norm(axis - nv.constraint.axis.unit_axis) <= 1e-12, label
    assert _chord(other, result) <= 1e-12


@pytest.mark.parametrize("labels", [["NV1", "NV2", "NV3"], list(AXES)],
                         ids=["NV1-NV3", "NV0-NV3"])
def test_order_of_the_nvs_permutes_the_per_nv_results(fig2, labels):
    inputs, _ = fig2
    first = None
    for order in itertools.permutations(labels):
        result = _measure(inputs, order)
        assert list(result.measurements) == list(order)
        first = first or result
        for label in labels:
            assert result.measurements[label] == first.measurements[label], order
        assert _chord(result, first) <= 1e-12, order


@pytest.mark.parametrize("scale, tolerance_deg", [
    (0.5, 0.0), (1024.0, 0.0), (1000.0, 1e-8),
])
def test_scale_of_the_counts_leaves_the_axes(fig2, noisy, scale, tolerance_deg):
    inputs, result = fig2
    scaled = {}
    for i, (label, (scan, spectrum)) in enumerate(inputs.items()):
        if noisy:  # Poisson draws do not scale: scale the drawn counts
            scan = ScanImage(GRID, scale * scan.values)
        else:  # amplitude and background together
            scan = _scan(AXES[label], i, False, scale)
        scaled[label] = scan, spectrum
    other = _measure(scaled)
    for label, nv in result.measurements.items():
        fit = other.measurements[label].fit
        assert math.degrees(abs(fit.theta - nv.fit.theta)) <= tolerance_deg, label
        assert math.degrees(abs(fit.phi - nv.fit.phi)) <= tolerance_deg, label


@pytest.mark.parametrize("origin", [(12345.6, -7890.1), (-9e4, 5e4)])
def test_origin_of_the_scans_moves_only_the_centres(fig2, origin):
    inputs, result = fig2
    grid = ScanGrid(GRID.width_px, GRID.height_px, GRID.pitch_nm, origin_nm=origin)
    other = _measure({label: (ScanImage(grid, scan.values), spectrum)
                      for label, (scan, spectrum) in inputs.items()})
    assert other.errors == {}
    for label, nv in result.measurements.items():
        moved = other.measurements[label]
        cx, cy = moved.fit.center_nm
        assert (cx - origin[0], cy - origin[1]) == pytest.approx(
            nv.fit.center_nm, rel=0.0, abs=1e-9
        ), label
        fit = dataclasses.replace(moved.fit, center_nm=nv.fit.center_nm)
        assert moved._replace(fit=fit) == nv, label
    for f in dataclasses.fields(result.reconstruction):
        assert np.array_equal(getattr(other.reconstruction, f.name),
                              getattr(result.reconstruction, f.name)), f.name


@pytest.mark.parametrize("origin", [(123.4, -987.6), (0.1, 0.2), (10000 / 3, 7.7),
                                    (-9e4, 5e4)])
def test_origin_of_a_synthesized_scan_moves_only_the_centres(fig2, noisy, origin):
    # synthesis places pixels and the default NV in nm from the scan
    # origin, as the fit does: the same counts at any origin, so the
    # chain's results move only by their centres
    inputs, _ = fig2
    grid = ScanGrid(GRID.width_px, GRID.height_px, GRID.pitch_nm, origin_nm=origin)
    for i, (label, (scan, _)) in enumerate(inputs.items()):
        assert np.array_equal(_scan(AXES[label], i, noisy, grid=grid).values,
                              scan.values), label
    test_origin_of_the_scans_moves_only_the_centres(fig2, origin)


#: a field off the fig-2 one, on a sweep that holds the lines of NV1-NV3
#: at every turn
TURNED_FIELD = 59.5 * NVOrientation.from_degrees(45.0, 30.0).unit_axis
TURNED_SWEEP = SweepSettings(2600.0, 3140.0, 5401)
MIRROR = np.diag([1.0, 1.0, -1.0])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: each fit reports its own "
                   "member of the axis twin {+-n, +-M n}, which does not turn")
def test_turning_the_scene_about_the_beam_turns_the_answer():
    failed = []
    for beta_deg in range(0, 360, 15):
        beta = math.radians(beta_deg)
        c, s = math.cos(beta), math.sin(beta)
        turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        field = turn @ TURNED_FIELD
        inputs = {}
        for i, label in enumerate(("NV1", "NV2", "NV3")):
            axis = NVOrientation(AXES[label].theta, AXES[label].phi + beta)
            spectrum = simulate_odmr_spectrum(field, axis, SpinParams(),
                                              sweep=TURNED_SWEEP)
            inputs[label] = _scan(axis, i, False), spectrum
        result = _measure(inputs).reconstruction
        if result is None:
            failed.append(beta_deg)
            continue
        # the nearer of R_z(beta) B and M R_z(beta) B, up to sign
        cosine = max(abs(float(result.direction @ want)) / 59.5
                     for want in (field, MIRROR @ field))
        if math.degrees(math.acos(min(1.0, cosine))) > 1.0:
            failed.append(beta_deg)
    assert failed == [], f"the answer does not follow the turns {failed} (deg)"
