"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured figure once its assertions hold. Run with

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    REFERENCE_B_GAUSS,
    REFERENCE_CONE_ANGLES_DEG,
    REFERENCE_FIELD_DIRECTION_DEG,
    REFERENCE_ORIENTATIONS_DEG,
    axis_angle_deg,
    axis_from_degrees,
    azimuthal_field,
    dipole_projection_factor,
    node_doubling_error,
)
from nvvortex.fileio import load_constraints_json
from nvvortex.focal_field import azimuthal_field_profile
from nvvortex.orient_fit import fit_orientation
from nvvortex.pattern import NVOrientation, ScanGrid, simulate_pattern
from nvvortex.spin import (
    add_contrast_noise,
    field_estimate,
    fit_odmr_model,
    simulate_odmr_spectrum,
    transition_frequencies,
)
from nvvortex.vector_recon import (
    ConeConstraint,
    aggregate_magnitude,
    solve_direction,
)


def _passed(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS  ({detail})")


def test_criterion_1_reference_vector_reconstruction():
    """Cone angles + axes of the bundled reconstruction fixture land
    within 1 degree of the reference direction, triangle spread within
    1.3 degrees, in under a second."""
    from nvvortex.cli import bundled_fixture_path

    constraints = load_constraints_json(bundled_fixture_path("paper_fig4"))
    start = time.perf_counter()
    result = solve_direction(constraints)
    elapsed = time.perf_counter() - start

    target = axis_from_degrees(*REFERENCE_FIELD_DIRECTION_DEG)
    primary = math.degrees(
        math.acos(float(np.clip(result.direction @ target, -1.0, 1.0)))
    )
    error_deg = min(primary, 180.0 - primary)  # antipodal mirror allowed
    spread_deg = math.degrees(result.triangle_spread)

    assert error_deg < 1.0
    assert spread_deg < 1.3
    assert elapsed < 1.0
    _passed(
        1,
        f"direction off by {error_deg:.4f} deg, triangle spread "
        f"{spread_deg:.3f} deg, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_2_magnitude_aggregation():
    """Arithmetic aggregation of the three per-NV magnitudes."""
    constraints = [
        ConeConstraint(
            axis=NVOrientation.from_degrees(t, p), alpha=math.radians(a), b=b
        )
        for (t, p), a, b in zip(
            REFERENCE_ORIENTATIONS_DEG[1:], REFERENCE_CONE_ANGLES_DEG, REFERENCE_B_GAUSS
        )
    ]
    mean, std = aggregate_magnitude(constraints)
    assert mean == pytest.approx(59.52, abs=0.01)
    assert std <= 0.05
    _passed(2, f"mean {mean:.4f} G, std {std:.4f} G")


def test_criterion_3_inversion_round_trip_1000():
    """Closed-form inversion against exact diagonalization: 1000
    random (B, alpha) recovered to 1e-6 relative / 1e-6 rad in < 5 s."""
    from nvvortex.spin import SpinParams

    params = SpinParams()
    rng = np.random.default_rng(20240801)
    start = time.perf_counter()
    worst_b = 0.0
    worst_alpha = 0.0
    for _ in range(1000):
        b = rng.uniform(1.0, 100.0)
        alpha = rng.uniform(0.01, math.pi - 0.01)
        est = field_estimate(transition_frequencies(b, alpha, params), params)
        worst_b = max(worst_b, abs(est.b - b) / b)
        worst_alpha = max(
            worst_alpha, min(abs(a - alpha) for a in est.alpha_candidates)
        )
    elapsed = time.perf_counter() - start
    assert worst_b < 1e-6
    assert worst_alpha < 1e-6
    assert elapsed < 5.0
    _passed(
        3,
        f"worst rel B {worst_b:.2e}, worst alpha {worst_alpha:.2e} rad, "
        f"{elapsed:.2f} s",
    )


def test_criterion_4_focal_field_quadrature(optics):
    """On-axis null, node-doubling convergence, and agreement with an
    independent composite-Simpson oracle on a 20 x 20 grid (errors
    normalized by the field peak on the grid)."""
    from scipy.special import j1 as scipy_j1

    for z in np.linspace(-5 * optics.wavelength_nm, 5 * optics.wavelength_nm, 7):
        assert azimuthal_field(0.0, float(z), optics) == 0.0 + 0.0j

    rs = np.linspace(0.0, 5 * optics.wavelength_nm, 20)
    zs = np.linspace(-5 * optics.wavelength_nm, 5 * optics.wavelength_nm, 20)
    doubling = node_doubling_error(optics, rs, zs)
    assert doubling < 1e-9

    alpha = math.asin(optics.numerical_aperture / optics.immersion_index)
    k = 2.0 * math.pi * optics.immersion_index / optics.wavelength_nm
    panels = 100_000
    theta = np.linspace(0.0, alpha, panels + 1)
    st, ct = np.sin(theta), np.cos(theta)
    simpson_w = np.ones(panels + 1)
    simpson_w[1:-1:2] = 4.0
    simpson_w[2:-1:2] = 2.0
    simpson_w *= alpha / panels / 3.0
    base = 2.0 * np.sqrt(ct) * st

    worst = 0.0
    peak = 0.0
    for z in zs:
        phase = np.exp(1j * k * z * ct)
        mine = azimuthal_field_profile(rs, float(z), optics)
        for i, r in enumerate(rs):
            oracle = np.sum(base * scipy_j1(k * r * st) * phase * simpson_w)
            worst = max(worst, abs(mine[i] - oracle))
            peak = max(peak, abs(oracle))
    assert worst / peak < 1e-9
    _passed(
        4,
        f"node doubling {doubling:.2e}, Simpson mismatch {worst / peak:.2e} "
        f"(peak-normalized)",
    )


def test_criterion_5_pattern_symmetries(optics):
    """Doughnut ring uniformity, exact azimuth-ambiguity equality, and
    the on-axis background pixel."""
    grid = ScanGrid(31, 31, 50.0)

    # ring uniformity of the theta = 0 pattern, sampled on an exact
    # circle through the doughnut maximum
    ring_r = 144.0
    factors = [
        dipole_projection_factor(
            [0.0, 0.0, 1.0],
            [-math.sin(psi), math.cos(psi), 0.0],
        )
        for psi in np.linspace(0.0, 2 * math.pi, 73)
    ]
    amp2 = abs(azimuthal_field(ring_r, 0.0, optics)) ** 2
    ring = [1.0 + amp2 * f for f in factors]  # background 1, amplitude 1
    assert max(ring) / min(ring) < 1.001

    # the discrete image of a theta = 0 NV is azimuth independent too
    img0 = simulate_pattern(NVOrientation(0.0, 0.3), grid, optics)
    img0b = simulate_pattern(NVOrientation(0.0, 4.1), grid, optics)
    assert np.array_equal(img0.values, img0b.values)

    # azimuth ambiguity: phi and phi + pi produce the same image,
    # bitwise, whenever phi + pi is exactly representable
    for phi in (0.5, 1.0, 2.0):
        a = simulate_pattern(NVOrientation(1.23, phi), grid, optics)
        b = simulate_pattern(NVOrientation(1.23, phi + math.pi), grid, optics)
        assert np.array_equal(a.values, b.values)

    img = simulate_pattern(
        NVOrientation(1.0, 0.7), grid, optics, amplitude=5e3, background=250.0
    )
    assert img.values[15, 15] == 250.0
    _passed(
        5,
        f"ring max/min {max(ring) / min(ring):.6f}, ambiguity bitwise, "
        f"center pixel exact",
    )


def test_criterion_6_orientation_fit_round_trips(optics):
    """Noiseless synthetic patterns at the four reference orientations
    recovered within 0.5 degrees; Poisson noise at 1e4 peak counts
    recovered within 2 degrees over 20 seeds."""
    grid = ScanGrid(31, 31, 50.0)
    worst_clean = 0.0
    for theta_deg, phi_deg in REFERENCE_ORIENTATIONS_DEG:
        o = NVOrientation.from_degrees(theta_deg, phi_deg)
        img = simulate_pattern(o, grid, optics)
        fit = fit_orientation(img, optics)
        err = axis_angle_deg(fit.theta, fit.phi, o.theta, o.phi)
        worst_clean = max(worst_clean, err)
        assert err < 0.5

    o = NVOrientation.from_degrees(109.84, 20.60)
    clean = simulate_pattern(o, grid, optics)
    scale = 1e4 / clean.values.max()
    worst_noisy = 0.0
    for seed in range(20):
        img = simulate_pattern(
            o, grid, optics, amplitude=scale, background=50.0, noise_seed=seed
        )
        fit = fit_orientation(img, optics)
        err = axis_angle_deg(fit.theta, fit.phi, o.theta, o.phi)
        worst_noisy = max(worst_noisy, err)
        assert err < 2.0
    _passed(
        6,
        f"noiseless worst {worst_clean:.4f} deg, Poisson worst "
        f"{worst_noisy:.4f} deg over 20 seeds",
    )


def test_criterion_7_odmr_end_to_end(spin_params):
    """Simulate at 59.5 G (generic tilt), fit, invert: B within 0.1 G
    and alpha within 0.1 degrees noiseless; errors within 3 fitted
    sigma under 0.2% contrast noise over 20 seeds."""
    nv = NVOrientation.from_degrees(109.84, 20.60)
    b_dir = NVOrientation.from_degrees(8.59, 182.56)
    b_true = 59.5
    alpha_true = math.degrees(
        math.acos(float(np.clip(b_dir.unit_axis @ nv.unit_axis, -1, 1)))
    )
    spec = simulate_odmr_spectrum(
        b_true * b_dir.unit_axis, nv, spin_params,
        linewidth_mhz=0.8, contrast_depth=0.03,
    )
    est = field_estimate(fit_odmr_model(spec).pair, spin_params)
    b_err = abs(est.b - b_true)
    alpha_err = min(
        abs(math.degrees(a) - alpha_true) for a in est.alpha_candidates
    )
    assert b_err < 0.1
    assert alpha_err < 0.1

    for seed in range(20):
        noisy = add_contrast_noise(spec, 0.002, seed)
        est_n = field_estimate(fit_odmr_model(noisy).pair, spin_params)
        assert est_n.b_sigma > 0.0
        assert abs(est_n.b - b_true) <= 3.0 * est_n.b_sigma + 0.02
        alpha_err_n = min(
            abs(math.degrees(a) - alpha_true) for a in est_n.alpha_candidates
        )
        assert alpha_err_n <= math.degrees(3.0 * est_n.alpha_sigma) + 0.02
    _passed(
        7,
        f"noiseless B err {b_err:.4f} G, alpha err {alpha_err:.4f} deg; "
        f"20 noisy seeds within 3 sigma",
    )


def test_criterion_8_exact_reconstruction_and_antipodes():
    """Synthetic cones over the tetrahedral axes recover the field to
    1e-8 rad, branch bookkeeping is consistent, and flipping every cone
    returns exactly the mirror solution."""
    tet_polar = math.acos(-1.0 / 3.0)
    axes = [np.array([0.0, 0.0, 1.0])] + [
        np.array(
            [
                math.sin(tet_polar) * math.cos(k * 2 * math.pi / 3),
                math.sin(tet_polar) * math.sin(k * 2 * math.pi / 3),
                math.cos(tet_polar),
            ]
        )
        for k in range(3)
    ]
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(25):
        b_hat = rng.normal(size=3)
        b_hat /= np.linalg.norm(b_hat)
        cons = [
            ConeConstraint(
                axis=NVOrientation.from_vector(a),
                alpha=math.acos(float(np.clip(a @ b_hat, -1, 1))),
                b=50.0,
            )
            for a in axes
        ]
        result = solve_direction(cons)
        err = min(
            np.linalg.norm(result.direction - b_hat),
            np.linalg.norm(result.direction + b_hat),
        )
        worst = max(worst, err)
        assert err < 1e-8
        assert result.residual < 1e-14
        # as-given cones are consistent: no flips selected
        assert result.branch_flipped == (False, False, False, False)

        mirrored = solve_direction(
            [
                ConeConstraint(axis=c.axis, alpha=math.pi - c.alpha, b=c.b)
                for c in cons
            ]
        )
        assert np.allclose(mirrored.direction, -result.direction, atol=1e-8)
        assert mirrored.theta_b == pytest.approx(result.mirror[0], abs=1e-8)
        assert mirrored.phi_b == pytest.approx(result.mirror[1], abs=1e-6)
    _passed(8, f"worst direction error {worst:.2e} rad over 25 random fields")
