import math

import numpy as np
import pytest

from conftest import axis_angle_deg
from nvvortex import least_squares
from nvvortex.errors import DegenerateTemplate, NoConvergence
from nvvortex.orient_fit import (
    canonical_angles,
    fit_orientation,
    nearest_tetrahedral_axis,
    pattern_residual,
    TETRAHEDRAL_POLAR,
)
from nvvortex.pattern import NVOrientation, ScanGrid, ScanImage, simulate_pattern


def make_image(theta_deg, phi_deg, grid, optics, amplitude=1.0, background=0.0,
               noise_seed=None):
    return simulate_pattern(
        NVOrientation.from_degrees(theta_deg, phi_deg),
        grid,
        optics,
        amplitude=amplitude,
        background=background,
        noise_seed=noise_seed,
    )


class TestCanonicalAngles:
    def test_identity_on_canonical_patch(self):
        t, p, m = canonical_angles(0.7, 1.2)
        assert t == pytest.approx(0.7, abs=1e-12)
        assert p == pytest.approx(1.2, abs=1e-12)
        assert m == pytest.approx(1.2 + math.pi, abs=1e-12)

    @pytest.mark.parametrize("member", range(4))
    def test_equivalence_class_collapses(self, member):
        theta0, phi0 = 0.6, 0.9
        variants = [
            (theta0, phi0),
            (theta0, phi0 + math.pi),
            (math.pi - theta0, phi0),
            (math.pi - theta0, phi0 + math.pi),
        ]
        t, p, _ = canonical_angles(*variants[member])
        assert t == pytest.approx(theta0, abs=1e-12)
        assert p == pytest.approx(phi0, abs=1e-12)

    def test_canonical_ranges(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            t, p, m = canonical_angles(rng.uniform(0, math.pi),
                                       rng.uniform(0, 2 * math.pi))
            assert 0.0 <= t <= math.pi / 2 + 1e-15
            assert 0.0 <= p < math.pi
            assert m == pytest.approx(p + math.pi)


class TestPatternResidual:
    def test_self_consistency_below_1e12(self, grid31, optics):
        img = make_image(70.16, 20.60, grid31, optics)
        cx, cy = grid31.center_nm
        res, amp, bg = pattern_residual(
            math.radians(70.16), math.radians(20.60), (cx, cy), img, optics
        )
        assert res < 1e-12
        assert amp == pytest.approx(1.0, rel=1e-5)
        assert bg == pytest.approx(0.0, abs=1e-7)

    def test_constant_image_is_degenerate(self, grid31, optics):
        img = ScanImage(grid=grid31, values=np.full((31, 31), 5.0))
        with pytest.raises(DegenerateTemplate):
            pattern_residual(0.7, 0.3, grid31.center_nm, img, optics)
        with pytest.raises(DegenerateTemplate, match="image is constant"):
            fit_orientation(img, optics)

    def test_azimuth_ambiguity_gives_identical_residual(self, grid31, optics):
        img = make_image(70.16, 20.60, grid31, optics)
        cx, cy = grid31.center_nm
        phi = 0.5  # exactly representable partner angle
        r1 = pattern_residual(1.1, phi, (cx, cy), img, optics)
        r2 = pattern_residual(1.1, phi + math.pi, (cx, cy), img, optics)
        assert r1 == r2

    def test_amplitude_clamped_nonnegative(self, grid31, optics):
        # inverted contrast would want a < 0; the fit clamps to zero
        img_vals = 10.0 - make_image(70.0, 0.5, grid31, optics).values * 5.0
        img = ScanImage(grid=grid31, values=np.clip(img_vals, 0.0, None))
        res, amp, bg = pattern_residual(
            math.radians(70.0), 0.5, grid31.center_nm, img, optics
        )
        assert amp == 0.0
        assert res >= 1.0 - 1e-9  # no better than the mean-only model


class TestFitOrientation:
    def test_round_trip_generic_orientation(self, grid31, optics):
        img = make_image(109.84, 20.60, grid31, optics, amplitude=2.3, background=0.4)
        fit = fit_orientation(img, optics)
        err = axis_angle_deg(
            fit.theta, fit.phi, math.radians(109.84), math.radians(20.60)
        )
        assert err < 0.5
        assert fit.residual < 1e-9
        assert fit.converged
        assert fit.phi_identifiable
        assert fit.mirror_phi == pytest.approx(fit.phi + math.pi)
        assert fit.amplitude == pytest.approx(2.3, rel=1e-3)
        assert fit.background == pytest.approx(0.4, abs=2e-3)

    def test_doughnut_theta_small_and_azimuth_flagged(self, grid31, optics):
        img = make_image(0.0, 0.0, grid31, optics)
        fit = fit_orientation(img, optics)
        assert math.degrees(fit.theta) < 2.0
        assert not fit.phi_identifiable

    def test_fit_is_bitwise_deterministic(self, grid31, optics):
        img = make_image(70.0, 100.0, grid31, optics)
        a = fit_orientation(img, optics)
        b = fit_orientation(img, optics)
        assert a == b

    def test_residual_certificate(self, grid31, optics):
        # the fit is the exact optimum over (theta, phi, amplitude,
        # background) at its centre, and no worse than the truth
        true_theta, true_phi = math.radians(70.0), math.radians(100.0)
        clean = make_image(70.0, 100.0, grid31, optics)
        img = make_image(
            70.0, 100.0, grid31, optics, amplitude=1e4 / clean.values.max(),
            background=50.0, noise_seed=7,
        )
        fit = fit_orientation(img, optics)
        for center in (grid31.center_nm, fit.center_nm):
            res, _, _ = pattern_residual(true_theta, true_phi, center, img, optics)
            assert fit.residual <= res + 1e-12
        rng = np.random.default_rng(0)
        for theta, phi in zip(rng.uniform(0.0, math.pi, 500),
                              rng.uniform(0.0, 2.0 * math.pi, 500)):
            res, _, _ = pattern_residual(theta, phi, fit.center_nm, img, optics)
            assert fit.residual <= res + 1e-12

    @pytest.mark.parametrize("theta_deg", [10.0, 45.0, 70.16, 109.84, 135.0])
    @pytest.mark.parametrize("phi_deg", [20.6, 110.0, 200.0, 290.0])
    def test_eigenvector_convention(self, grid31, optics, theta_deg, phi_deg):
        # a slip in the sign or order of the eigenvector components maps
        # phi to 90 - phi or -phi; every quadrant must come back
        img = make_image(theta_deg, phi_deg, grid31, optics)
        fit = fit_orientation(img, optics)
        err = axis_angle_deg(
            fit.theta, fit.phi, math.radians(theta_deg), math.radians(phi_deg)
        )
        assert err < 1e-3

    def test_in_plane_axis_under_noise_is_clamped(self, grid31, optics):
        # at theta = 90 deg noise can push sin^2(theta) past 1, as it
        # does with this seed
        clean = make_image(90.0, 30.0, grid31, optics)
        img = make_image(
            90.0, 30.0, grid31, optics, amplitude=1e4 / clean.values.max(),
            background=50.0, noise_seed=0,
        )
        fit = fit_orientation(img, optics)
        assert math.isfinite(fit.theta)
        assert axis_angle_deg(fit.theta, fit.phi, math.pi / 2, math.radians(30.0)) < 2.0

    def test_inverted_contrast_is_degenerate(self, grid31, optics):
        img_vals = 10.0 - make_image(70.0, 0.5, grid31, optics).values * 5.0
        img = ScanImage(grid=grid31, values=np.clip(img_vals, 0.0, None))
        with pytest.raises(DegenerateTemplate):
            fit_orientation(img, optics)

    def test_half_turn_rotated_image_fits_same_axis(self, grid31, optics):
        img = make_image(70.16, 20.60, grid31, optics)
        rotated = ScanImage(grid=grid31, values=img.values[::-1, ::-1].copy())
        a = fit_orientation(img, optics)
        b = fit_orientation(rotated, optics)
        assert axis_angle_deg(a.theta, a.phi, b.theta, b.phi) < 0.1

    def test_poisson_noise_round_trip(self, grid31, optics):
        clean = make_image(109.84, 20.60, grid31, optics)
        scale = 1e4 / clean.values.max()
        img = make_image(
            109.84, 20.60, grid31, optics, amplitude=scale, background=50.0,
            noise_seed=4,
        )
        fit = fit_orientation(img, optics)
        err = axis_angle_deg(
            fit.theta, fit.phi, math.radians(109.84), math.radians(20.60)
        )
        assert err < 2.0

    def test_off_center_nv_is_recovered(self, optics):
        grid = ScanGrid(31, 31, 50.0)
        cx, cy = grid.center_nm
        img = simulate_pattern(
            NVOrientation.from_degrees(70.0, 60.0), grid, optics,
            center_nm=(cx + 70.0, cy - 45.0),
        )
        fit = fit_orientation(img, optics)
        assert fit.center_nm[0] == pytest.approx(cx + 70.0, abs=2.0)
        assert fit.center_nm[1] == pytest.approx(cy - 45.0, abs=2.0)

    def test_exhausted_budget_raises(self, optics, monkeypatch):
        grid = ScanGrid(31, 31, 50.0)
        cx, cy = grid.center_nm
        img = simulate_pattern(
            NVOrientation.from_degrees(70.0, 60.0), grid, optics,
            center_nm=(cx + 70.0, cy - 45.0),
        )
        monkeypatch.setattr(least_squares, "MAX_ITERATIONS", 1)
        with pytest.raises(NoConvergence):
            fit_orientation(img, optics)


class TestCrystalLabeling:
    def test_fitted_paper_axes_map_to_distinct_tetrahedral_axes(self):
        # the four fitted orientations, canonicalized, then unfolded
        # against a tetrad anchored at the first NV azimuth
        offset = math.radians(20.60)
        seen = set()
        for theta_deg, phi_deg in [
            (0.37, 153.68),
            (109.84, 20.60),
            (109.25, 260.51),
            (109.31, 140.74),
        ]:
            t, p, _ = canonical_angles(
                math.radians(theta_deg), math.radians(phi_deg)
            )
            index, mismatch, _ = nearest_tetrahedral_axis(t, p, offset)
            assert math.degrees(mismatch) < 1.0
            seen.add(index)
        assert seen == {0, 1, 2, 3}

    def test_exact_tetrahedral_axis_has_zero_mismatch(self):
        index, mismatch, rep = nearest_tetrahedral_axis(TETRAHEDRAL_POLAR, 0.0, 0.0)
        assert index == 1
        assert mismatch < 1e-12
        assert rep[0] == pytest.approx(TETRAHEDRAL_POLAR)
