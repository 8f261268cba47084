import itertools
import math

import numpy as np
import pytest

from conftest import (
    axis_angle_deg,
    nearest_tetrahedral_axis_reference,
    pattern_residual,
)
from nvvortex import least_squares, pattern
from nvvortex.errors import DegenerateTemplate, NoConvergence, NVVortexError
from nvvortex.orient_fit import (
    _pattern_model,
    fit_orientation,
    nearest_tetrahedral_axis,
    TETRAHEDRAL_POLAR,
)
from nvvortex.pattern import (
    NVOrientation,
    ScanGrid,
    ScanImage,
    intensity_map,
    radial_profile_for_grid,
    simulate_pattern,
)


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
        assert fit.mirror_phi == pytest.approx(fit.phi + math.pi)
        assert fit.amplitude == pytest.approx(2.3, rel=1e-3)
        assert fit.background == pytest.approx(0.4, abs=2e-3)

    def test_doughnut_theta_small(self, grid31, optics):
        img = make_image(0.0, 0.0, grid31, optics)
        fit = fit_orientation(img, optics)
        assert math.degrees(fit.theta) < 2.0

    @pytest.mark.parametrize("width, height", [(2, 2), (3, 2)])
    def test_scan_with_no_more_pixels_than_unknowns_is_refused(
        self, optics, width, height
    ):
        # a ramp is not constant, and with 4 or 6 pixels the six unknowns
        # (p, q, s, background, centre x and y) fit it exactly
        ramp = np.arange(width * height, dtype=float).reshape(height, width)
        img = ScanImage(grid=ScanGrid(width, height, 50.0), values=ramp)
        with pytest.raises(DegenerateTemplate, match=f"{width * height} pixels"):
            fit_orientation(img, optics)

    def test_fit_is_bitwise_deterministic(self, grid31, optics):
        img = make_image(70.0, 100.0, grid31, optics)
        a = fit_orientation(img, optics)
        b = fit_orientation(img, optics)
        assert a == b

    def test_fit_is_bit_identical_from_a_cold_and_a_warm_cache(self, grid31, optics):
        # the warm fit reads the profile a larger synthesis needing the
        # same 3 panels cached first
        img = make_image(70.0, 100.0, grid31, optics, noise_seed=3,
                         amplitude=1e4, background=100.0)
        pattern._cached_profile.cache_clear()
        cold = fit_orientation(img, optics)
        pattern._cached_profile.cache_clear()
        make_image(70.0, 100.0, ScanGrid(43, 43, 50.0), optics)
        assert fit_orientation(img, optics) == cold
        assert pattern._cached_profile.cache_info().currsize == 1

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
        xs, ys = (a.ravel() for a in np.meshgrid(*grid31.pixel_axes()))
        basis, _ = _pattern_model(
            fit.center_nm, xs, ys, radial_profile_for_grid(grid31, optics)
        )
        p, q, s = np.linalg.lstsq(basis, img.values.ravel(), rcond=None)[0][:3]
        evals = np.linalg.eigvalsh([[p, 0.5 * s], [0.5 * s, q]])
        assert 1.0 - evals[0] / evals[1] > 1.0  # the unclamped sin^2(theta)
        assert math.isfinite(fit.theta)
        assert axis_angle_deg(fit.theta, fit.phi, math.pi / 2, math.radians(30.0)) < 2.0
        # the report is the unclamped solve's, no worse than the pattern
        # at the clamped angles
        res, _, _ = pattern_residual(fit.theta, fit.phi, fit.center_nm, img, optics)
        assert fit.residual <= res

    @pytest.mark.parametrize(
        "theta_deg, phi_deg, offset_nm, seed",
        [(70.0, 100.0, (0.0, 0.0), 7), (109.84, 20.6, (0.0, 0.0), 4),
         (45.0, 200.0, (70.0, -45.0), 1), (135.0, 290.0, (-30.0, 20.0), 2)],
    )
    def test_report_matches_reference_pattern(
        self, grid31, optics, theta_deg, phi_deg, offset_nm, seed
    ):
        # the report comes from the linear solve at the returned centre;
        # where sin^2(theta) needs no clamp it must equal the misfit of
        # the pattern at the reported angles, built by intensity_map
        cx, cy = grid31.center_nm
        center = (cx + offset_nm[0], cy + offset_nm[1])
        orientation = NVOrientation.from_degrees(theta_deg, phi_deg)
        clean = simulate_pattern(orientation, grid31, optics, center_nm=center)
        img = simulate_pattern(
            orientation, grid31, optics, amplitude=1e4 / clean.values.max(),
            background=50.0, noise_seed=seed, center_nm=center,
        )
        fit = fit_orientation(img, optics)
        res, amp, bg = pattern_residual(fit.theta, fit.phi, fit.center_nm, img, optics)
        assert fit.residual == pytest.approx(res, rel=1e-9)
        assert fit.amplitude == pytest.approx(amp, rel=1e-9)
        assert fit.background == pytest.approx(bg, rel=1e-9)

    def test_centre_jacobian_is_projected_central_difference(self, grid31, optics):
        # off the optimum the leftover r is not 0, and Kaufman's Jacobian
        # leaves out the part of dr/dc in the span of the basis; what
        # remains must match central differences projected off that span
        clean = make_image(70.0, 60.0, grid31, optics)
        img = make_image(
            70.0, 60.0, grid31, optics, amplitude=1e4 / clean.values.max(),
            background=50.0, noise_seed=3,
        )
        xs, ys = (a.ravel() for a in np.meshgrid(*grid31.pixel_axes()))
        d = img.values.ravel()
        profile = radial_profile_for_grid(grid31, optics)
        cx, cy = grid31.center_nm

        def model(center):
            return _pattern_model(center, xs, ys, profile)

        center = np.array([cx + 31.0, cy - 22.0])
        leftover, jac, _, _, _ = least_squares._project(model, d, center)
        h = 1e-3
        central = np.column_stack([
            (least_squares._project(model, d, center + e)[0]
             - least_squares._project(model, d, center - e)[0]) / (2.0 * h)
            for e in h * np.eye(2)
        ])
        dx, dy = xs - center[0], ys - center[1]
        rho2 = dx * dx + dy * dy
        w = profile(np.sqrt(rho2)) / rho2
        basis = np.column_stack(
            (w * dx * dx, w * dy * dy, w * dx * dy, np.ones_like(w))
        )
        projected = central - basis @ np.linalg.lstsq(basis, central, rcond=None)[0]
        assert np.linalg.norm(leftover) > 0.1 * np.linalg.norm(d - d.mean())
        assert np.abs(projected - jac).max() < 1e-8 * np.abs(jac).max()
        # the left-out part lies in the span of the basis, so the
        # gradient J^T r is the exact one
        assert np.allclose(jac.T @ leftover, central.T @ leftover, rtol=1e-8)

    @pytest.mark.parametrize("width, height", [(50, 1), (1, 50)])
    def test_scan_of_one_row_or_column_is_degenerate(self, optics, width, height):
        # one row leaves B_yy and B_xy at 0, one column B_xx and B_xy:
        # the basis is rank-deficient, and the scan's shape is named
        # instead of an axis (90, 0) deg being reported
        grid = ScanGrid(width, height, 50.0)
        img = simulate_pattern(
            NVOrientation.from_degrees(70.0, 20.0), grid, optics,
            amplitude=1e4, background=100.0, noise_seed=1,
        )
        shape = f"scan of {width} x {height} pixels"
        with pytest.raises(DegenerateTemplate, match=f"{shape} .* rank-deficient"):
            fit_orientation(img, optics)

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

    @pytest.mark.parametrize("offset_px", [16, 20, 24])
    def test_far_off_centre_nv_reads_no_clamped_pixel(self, optics, offset_px):
        # with the NV near a corner the farthest pixel lies almost a
        # diagonal away; a profile clamped short of it leaves a residual
        # of 5e-8 to 3e-7 and biases the axis by up to 1.4e-3 degrees
        grid = ScanGrid(64, 64, 50.0)
        cx, cy = grid.center_nm
        center = (cx - 50.0 * offset_px, cy + 50.0 * offset_px)
        img = simulate_pattern(
            NVOrientation.from_degrees(70.0, 100.0), grid, optics,
            amplitude=1e4, background=100.0, center_nm=center,
        )
        fit = fit_orientation(img, optics)
        assert fit.residual <= 1e-15
        err = axis_angle_deg(fit.theta, fit.phi, math.radians(70.0), math.radians(100.0))
        assert err <= 1e-5
        assert np.allclose(fit.center_nm, center, rtol=0.0, atol=1e-6)

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 19: a scan with no NV is fitted, at theta = 90 deg "
               "and a residual near 1, instead of refused",
    )
    def test_scan_with_no_nv_is_refused(self, grid31, optics):
        accepted = []
        for seed in range(3):
            counts = np.random.default_rng(seed).poisson(100.0, (31, 31))
            try:
                fit = fit_orientation(ScanImage(grid31, counts.astype(float)), optics)
            except NVVortexError:
                continue
            accepted.append((seed, math.degrees(fit.theta), fit.residual))
        assert not accepted, accepted

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


class TestTranslation:
    """The same counts at any stage origin fit to the same bits; only the
    centre moves, by the origin."""

    ORIGINS = [(12345.6, -7890.1), (-9e4, 5e4), (0.1, 0.3)]

    @pytest.mark.parametrize("pitch_nm", [20.0, 50.0, 75.0])
    @pytest.mark.parametrize(
        "theta_deg, phi_deg",
        [(109.84, 20.60), (45.0, 60.0), (3.0, 10.0), (0.37, 153.68)],
        ids=["NV1", "45-60", "3-10", "NV0"],
    )
    def test_same_counts_fit_the_same_at_any_origin(
        self, optics, pitch_nm, theta_deg, phi_deg
    ):
        grid = ScanGrid(31, 31, pitch_nm)
        cx, cy = grid.center_nm
        center = (cx + 0.37 * pitch_nm, cy - 0.21 * pitch_nm)
        orientation = NVOrientation.from_degrees(theta_deg, phi_deg)
        clean = simulate_pattern(orientation, grid, optics, center_nm=center)
        img = simulate_pattern(
            orientation, grid, optics, amplitude=1e4 / clean.values.max(),
            background=50.0, noise_seed=5, center_nm=center,
        )
        ref = fit_orientation(img, optics)
        for origin in self.ORIGINS:
            moved = ScanImage(ScanGrid(31, 31, pitch_nm, origin_nm=origin), img.values)
            fit = fit_orientation(moved, optics)
            assert (fit.theta, fit.phi, fit.amplitude, fit.background, fit.residual,
                    fit.center_iterations) == (
                ref.theta, ref.phi, ref.amplitude, ref.background, ref.residual,
                ref.center_iterations,
            ), origin
            shifted = (fit.center_nm[0] - origin[0], fit.center_nm[1] - origin[1])
            assert shifted == pytest.approx(ref.center_nm, rel=0.0, abs=1e-9), origin


class TestCramerRaoBound:
    """Over 100 Poisson scans the fitted axis reaches its Cramér–Rao
    bound to within the unweighted fit's loss (Ober, Ram & Ward 2004,
    Biophys. J. 86, 1185): the Fisher information of a Poisson scan is
    J^T W J with W = 1/mu, J the derivatives of the mean counts mu over
    (theta, phi, centre x, centre y, amplitude, background)."""

    AMPLITUDE, BACKGROUND = 1e4, 100.0
    #: central-difference steps of the six parameters
    STEPS = np.array([1e-6, 1e-6, 1e-4, 1e-4, 1e-2, 1e-4])

    def bound_deg(self, theta, phi, grid, optics):
        """The great-circle sigma sqrt(C_tt + sin^2(theta) C_pp) of the
        axis, C the inverse Fisher information at the truth."""

        def mean(p):
            return intensity_map(
                NVOrientation(p[0], p[1]), grid, optics, p[4], p[5], (p[2], p[3])
            ).ravel()

        truth = np.array([theta, phi, *grid.center_nm, self.AMPLITUDE, self.BACKGROUND])
        jac = np.column_stack([
            (mean(truth + h * e) - mean(truth - h * e)) / (2.0 * h)
            for h, e in zip(self.STEPS, np.eye(6))
        ])
        cov = np.linalg.inv(jac.T @ (jac / mean(truth)[:, None]))
        return math.degrees(math.sqrt(cov[0, 0] + math.sin(theta) ** 2 * cov[1, 1]))

    @pytest.mark.parametrize("width", [15, 21, 31])
    @pytest.mark.parametrize(
        "theta_deg, phi_deg", [(109.84, 20.60), (45.0, 60.0)], ids=["NV1", "45-60"]
    )
    def test_axis_rms_error_is_near_the_bound(self, optics, width, theta_deg, phi_deg):
        # NV1 reads 1.16-1.18 and (45, 60) 1.06-1.07; subsets of 40 seeds
        # range 1.05-1.31, so fewer seeds cannot resolve the ratio
        grid = ScanGrid(width, width, 50.0)
        orientation = NVOrientation.from_degrees(theta_deg, phi_deg)
        errors = []
        for seed in range(100):
            img = simulate_pattern(orientation, grid, optics, self.AMPLITUDE,
                                   self.BACKGROUND, noise_seed=seed)
            fit = fit_orientation(img, optics)
            # the distance to the nearest of +-n and +-M n
            errors.append(axis_angle_deg(fit.theta, fit.phi, orientation.theta,
                                         orientation.phi))
        rms = math.sqrt(np.mean(np.square(errors)))
        bound = self.bound_deg(orientation.theta, orientation.phi, grid, optics)
        assert 0.9 <= rms / bound <= 1.3, (rms, bound)


class TestCrystalLabeling:
    def test_fitted_paper_axes_map_to_distinct_tetrahedral_axes(self):
        # the four fitted orientations as measured, against a tetrad
        # anchored at the first NV azimuth
        offset = math.radians(20.60)
        seen = set()
        for theta_deg, phi_deg in [
            (0.37, 153.68),
            (109.84, 20.60),
            (109.25, 260.51),
            (109.31, 140.74),
        ]:
            index, mismatch, _ = nearest_tetrahedral_axis(
                math.radians(theta_deg), math.radians(phi_deg), offset
            )
            assert math.degrees(mismatch) < 1.0
            seen.add(index)
        assert seen == {0, 1, 2, 3}

    def test_table_matches_the_double_loop_bit_for_bit(self):
        rng = np.random.default_rng(23)
        n = 20_000
        cases = list(zip(
            rng.uniform(0.0, math.pi, n).tolist(),
            rng.uniform(-2.0 * math.pi, 4.0 * math.pi, n).tolist(),
            rng.uniform(-math.pi, math.pi, n).tolist(),
        ))
        # in-plane axes and exact tetrahedral directions tie entries of
        # the table exactly (58 of these 144 cases); both forms keep the
        # first of them
        cases += itertools.product(
            [0.0, math.pi / 2, TETRAHEDRAL_POLAR, math.pi - TETRAHEDRAL_POLAR],
            [k * math.pi / 6 for k in range(12)],
            [0.0, math.pi / 3, -math.pi / 6],
        )
        for args in cases:
            assert nearest_tetrahedral_axis(*args) == (
                nearest_tetrahedral_axis_reference(*args)
            ), args

    def test_exact_tetrahedral_axis_has_zero_mismatch(self):
        index, mismatch, rep = nearest_tetrahedral_axis(TETRAHEDRAL_POLAR, 0.0, 0.0)
        assert index == 1
        assert mismatch < 1e-12
        assert rep[0] == pytest.approx(TETRAHEDRAL_POLAR)
