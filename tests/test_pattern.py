import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    NonUnitVector,
    azimuthal_field,
    dipole_projection_factor,
    field_vector_at,
)
import nvvortex.pattern as pattern_module
from nvvortex.focal_field import azimuthal_field_profile
from nvvortex.pattern import (
    _NODE_DERIVATIVE,
    _NODE_VANDER,
    _NODES_PER_PANEL,
    _PANEL_BLOCK,
    _PANEL_NODES,
    _PIXEL_BLOCK,
    _TAYLOR_DEGREE,
    MAX_PIXELS,
    MAX_PROFILE_RADIUS_NM,
    NOISE_TILE_PX,
    POISSON_MAX_MEAN,
    NVOrientation,
    RadialIntensityProfile,
    ScanGrid,
    ScanImage,
    _angles_from_coefficients,
    _basis_images,
    _chebyshev_vander,
    _coefficients_from_angles,
    _nodes_per_nm,
    _profile_covering,
    intensity_map,
    radial_profile_for_grid,
    simulate_pattern,
)

RNG = np.random.default_rng(20240917)


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestNVOrientation:
    def test_unit_axis_norm(self):
        for theta, phi in [(0.0, 0.0), (1.1, 4.2), (math.pi, 0.3)]:
            assert abs(np.linalg.norm(NVOrientation(theta, phi).unit_axis) - 1.0) < 1e-12

    def test_phi_folds_into_two_pi(self):
        assert NVOrientation(1.0, 7.0).phi == pytest.approx(7.0 - 2 * math.pi)
        assert NVOrientation(1.0, -1.0).phi == pytest.approx(2 * math.pi - 1.0)

    def test_theta_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            NVOrientation(-0.1, 0.0)
        with pytest.raises(ValueError):
            NVOrientation(math.pi + 0.1, 0.0)

    def test_from_vector_round_trip(self):
        o = NVOrientation(1.234, 2.345)
        o2 = NVOrientation.from_vector(o.unit_axis)
        assert o2.theta == pytest.approx(o.theta, abs=1e-12)
        assert o2.phi == pytest.approx(o.phi, abs=1e-12)


class TestScanTypes:
    def test_grid_guards(self):
        with pytest.raises(ValueError):
            ScanGrid(0, 10, 50.0)
        with pytest.raises(ValueError):
            ScanGrid(10, 10, -1.0)
        with pytest.raises(ValueError):
            ScanGrid(4096, MAX_PIXELS // 4096 + 1, 50.0)

    def test_grid_diagonal_is_bounded(self):
        # a fit reads the profile over the grid's diagonal, so a grid
        # whose diagonal lies past the profile bound is refused when made
        edge = ScanGrid(2, 1, MAX_PROFILE_RADIUS_NM)
        assert edge.diagonal_nm == MAX_PROFILE_RADIUS_NM
        with pytest.raises(ValueError, match="MAX_PROFILE_RADIUS_NM"):
            ScanGrid(2, 1, math.nextafter(MAX_PROFILE_RADIUS_NM, math.inf))
        with pytest.raises(ValueError, match="MAX_PROFILE_RADIUS_NM"):
            ScanGrid(2, 2, 1e7)

    @pytest.mark.parametrize("pitch, origin", [
        (math.inf, (0.0, 0.0)), (math.nan, (0.0, 0.0)),
        (50.0, (math.nan, 0.0)), (50.0, (0.0, -math.inf)),
    ])
    def test_grid_rejects_non_finite_geometry(self, pitch, origin):
        with pytest.raises(ValueError, match="finite"):
            ScanGrid(31, 31, pitch, origin_nm=origin)

    def test_center_of_odd_grid_is_middle_pixel(self):
        g = ScanGrid(31, 31, 50.0, origin_nm=(100.0, -50.0))
        assert g.center_nm == (100.0 + 15 * 50.0, -50.0 + 15 * 50.0)

    def test_image_validation(self, grid31):
        good = np.ones((31, 31))
        ScanImage(grid=grid31, values=good)
        with pytest.raises(ValueError):
            ScanImage(grid=grid31, values=np.ones((30, 31)))
        bad = good.copy()
        bad[0, 0] = -1.0
        with pytest.raises(ValueError):
            ScanImage(grid=grid31, values=bad)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            ScanImage(grid=grid31, values=bad)


class TestDipoleProjection:
    def test_axis_along_beam_gives_unity(self):
        for psi in np.linspace(0, 2 * math.pi, 7):
            phat = np.array([-math.sin(psi), math.cos(psi), 0.0])
            assert dipole_projection_factor([0, 0, 1], phat) == 1.0

    def test_field_parallel_to_axis_gives_zero(self):
        assert dipole_projection_factor([1, 0, 0], [1, 0, 0]) == 0.0

    def test_non_unit_inputs_rejected(self):
        with pytest.raises(NonUnitVector):
            dipole_projection_factor([0, 0, 1.001], [1, 0, 0])
        with pytest.raises(NonUnitVector):
            dipole_projection_factor([0, 0, 1], [0.5, 0, 0])

    def test_matches_explicit_dipole_pair_oracle(self):
        # sum over an orthonormal dipole pair spanning the plane
        # perpendicular to the axis, for 100 rotations of the pair
        rng = np.random.default_rng(7)
        for _ in range(20):
            axis = random_unit(rng)
            e = random_unit(rng)
            helper = random_unit(rng)
            u = np.cross(axis, helper)
            while np.linalg.norm(u) < 1e-6:
                u = np.cross(axis, random_unit(rng))
            u /= np.linalg.norm(u)
            v = np.cross(axis, u)
            expected = dipole_projection_factor(axis, e)
            for psi in rng.uniform(0, 2 * math.pi, size=100):
                mu1 = u * math.cos(psi) + v * math.sin(psi)
                mu2 = -u * math.sin(psi) + v * math.cos(psi)
                brute = (e @ mu1) ** 2 + (e @ mu2) ** 2
                assert brute == pytest.approx(expected, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_range_is_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        value = dipole_projection_factor(random_unit(rng), random_unit(rng))
        assert 0.0 <= value <= 1.0


class TestQuadraticForm:
    @pytest.mark.parametrize(
        "theta_deg", [0.0, 10.0, 45.0, 70.16, 90.0, 109.84, 135.0, 180.0]
    )
    @pytest.mark.parametrize("phi_deg", [20.6, 110.0, 200.0, 290.0])
    def test_angles_round_trip_through_coefficients(self, theta_deg, phi_deg):
        # the axis comes back as a line: sign and phi + pi do not count,
        # and at theta = 0 phi is free. theta from sin^2(theta) keeps
        # only half its digits near 0 and 90 deg, hence the bound
        orientation = NVOrientation.from_degrees(theta_deg, phi_deg)
        p, q, s = _coefficients_from_angles(orientation.theta, orientation.phi)
        theta, phi, amplitude = _angles_from_coefficients(p, q, s)
        a = orientation.unit_axis
        angle = min(
            math.atan2(np.linalg.norm(np.cross(a, b)), abs(a @ b))
            for b in (NVOrientation(theta, phi + k * math.pi).unit_axis for k in (0, 1))
        )
        assert angle < 1e-7
        assert 0.0 <= theta <= math.pi / 2 and 0.0 <= phi < math.pi
        assert amplitude == pytest.approx(1.0, rel=1e-14)


class TestSimulatePattern:
    def test_zero_amplitude_gives_flat_background(self, grid31, optics):
        img = simulate_pattern(
            NVOrientation(1.0, 0.5), grid31, optics, amplitude=0.0, background=7.5
        )
        assert np.all(img.values == 7.5)

    def test_center_pixel_equals_background_exactly(self, grid31, optics):
        img = simulate_pattern(
            NVOrientation(1.2, 0.8), grid31, optics, amplitude=1e4, background=123.25
        )
        assert img.values[15, 15] == 123.25

    def test_azimuth_plus_pi_is_bitwise_identical(self, grid31, optics):
        # phi chosen so phi + pi is exactly representable; the internal
        # fold then reduces both to the same double
        for phi in (0.5, 1.0, 0.75, 2.0):
            a = simulate_pattern(NVOrientation(1.2, phi), grid31, optics)
            b = simulate_pattern(NVOrientation(1.2, phi + math.pi), grid31, optics)
            assert np.array_equal(a.values, b.values)

    @given(st.floats(min_value=0.05, max_value=math.pi / 2),
           st.floats(min_value=0.0, max_value=2 * math.pi))
    @settings(max_examples=10)
    def test_azimuth_plus_pi_close_for_arbitrary_angles(self, optics, theta, phi):
        grid = ScanGrid(9, 9, 120.0)
        a = simulate_pattern(NVOrientation(theta, phi), grid, optics)
        b = simulate_pattern(
            NVOrientation(theta, (phi + math.pi) % (2 * math.pi)), grid, optics
        )
        assert np.allclose(a.values, b.values, rtol=1e-10, atol=1e-13)

    def test_polar_axis_pattern_ignores_azimuth_bitwise(self, grid31, optics):
        a = simulate_pattern(NVOrientation(0.0, 0.3), grid31, optics)
        b = simulate_pattern(NVOrientation(0.0, 5.1), grid31, optics)
        assert np.array_equal(a.values, b.values)

    def test_quarter_turn_of_azimuth_rotates_pattern_rigidly(self, optics):
        # rotation by exactly 90 degrees maps the square grid onto
        # itself, so no resampling is needed
        grid = ScanGrid(21, 21, 60.0)
        base = simulate_pattern(NVOrientation(1.2, 0.5), grid, optics).values
        turned = simulate_pattern(
            NVOrientation(1.2, 0.5 + math.pi / 2), grid, optics
        ).values
        assert np.allclose(np.rot90(base, 1), turned, rtol=0, atol=1e-15)

    def test_generic_rotation_on_resampled_grid(self, optics):
        # bilinear resampling of a finely pitched pattern; interpolation
        # tolerance 1e-3 relative to the peak
        n, half = 81, 40.0
        grid = ScanGrid(n, n, 4.0)
        delta = 0.7
        base = simulate_pattern(NVOrientation(1.1, 0.4), grid, optics).values
        turned = simulate_pattern(NVOrientation(1.1, 0.4 + delta), grid, optics).values
        xs, ys = np.meshgrid(np.arange(n, dtype=float), np.arange(n, dtype=float))
        dx, dy = xs - half, ys - half
        c, s = math.cos(delta), math.sin(delta)
        # sample the base pattern at the back-rotated pixel position
        sx, sy = half + c * dx + s * dy, half - s * dx + c * dy
        inside = (sx >= 1) & (sx <= n - 2) & (sy >= 1) & (sy <= n - 2)
        ix, iy = np.floor(sx).astype(int), np.floor(sy).astype(int)
        fx, fy = sx - ix, sy - iy
        resampled = (
            base[iy % n, ix % n] * (1 - fx) * (1 - fy)
            + base[iy % n, (ix + 1) % n] * fx * (1 - fy)
            + base[(iy + 1) % n, ix % n] * (1 - fx) * fy
            + base[(iy + 1) % n, (ix + 1) % n] * fx * fy
        )
        err = np.abs(resampled - turned)[inside].max() / base.max()
        assert err < 1e-3

    def test_two_lobe_pattern_matches_dipole_oracle_per_pixel(self, optics):
        # axis in the focal plane: every pixel must equal the explicit
        # two-dipole excitation sum built on the vector field
        grid = ScanGrid(15, 15, 80.0)
        orientation = NVOrientation(math.pi / 2, 0.0)  # axis along lab x
        amp, bg = 3.0, 0.5
        img = simulate_pattern(orientation, grid, optics, amplitude=amp, background=bg)
        axis = orientation.unit_axis
        mu1 = np.array([0.0, 1.0, 0.0])  # orthonormal pair spanning plane
        mu2 = np.array([0.0, 0.0, 1.0])  # perpendicular to the x axis
        cx, cy = grid.center_nm
        for iy in range(15):
            for ix in range(15):
                p = (grid.origin_nm[0] + ix * 80.0, grid.origin_nm[1] + iy * 80.0, 0.0)
                e = field_vector_at(p, (cx, cy), 0.0, optics)
                brute = bg + amp * (abs(e @ mu1) ** 2 + abs(e @ mu2) ** 2)
                assert img.values[iy, ix] == pytest.approx(brute, rel=1e-10, abs=1e-12)
        # node line: the lobes vanish along the axis perpendicular to
        # the NV azimuth (here the lab y axis through the center)
        col = img.values[:, 7]
        assert np.all(col == pytest.approx(bg, abs=1e-12))
        # and the lab x row through the center carries the lobes
        assert img.values[7, 0] > bg + 0.1 * amp * 0.01

    def test_poisson_noise_is_bitwise_reproducible(self, optics):
        grid = ScanGrid(13, 13, 80.0)
        kw = dict(amplitude=3e4, background=50.0)
        a = simulate_pattern(NVOrientation(1.0, 0.5), grid, optics, noise_seed=9, **kw)
        b = simulate_pattern(NVOrientation(1.0, 0.5), grid, optics, noise_seed=9, **kw)
        c = simulate_pattern(NVOrientation(1.0, 0.5), grid, optics, noise_seed=10, **kw)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_poisson_tiles_are_independent_draws(self, optics):
        # constant mean over 2.5 tiles: every tile has its own generator
        grid = ScanGrid(64, 160, 50.0)
        assert grid.width_px * grid.height_px > 2 * NOISE_TILE_PX
        img = simulate_pattern(
            NVOrientation(1.0, 0.5), grid, optics, amplitude=0.0, background=50.0,
            noise_seed=3,
        )
        flat = img.values.ravel()
        tile0, tile1 = flat[:NOISE_TILE_PX], flat[NOISE_TILE_PX:2 * NOISE_TILE_PX]
        assert not np.array_equal(tile0, tile1)

    def test_poisson_chi2_per_pixel_is_plausible(self, optics):
        # the same 8-standard-error bound as the benchmark's check
        grid = ScanGrid(128, 96, 50.0)
        kw = dict(amplitude=1e4, background=100.0)
        mean = intensity_map(NVOrientation(1.2, 0.4), grid, optics, **kw)
        noisy = simulate_pattern(
            NVOrientation(1.2, 0.4), grid, optics, noise_seed=11, **kw
        ).values
        assert np.array_equal(noisy, np.round(noisy))
        chi2 = float(np.mean((noisy - mean) ** 2 / mean))
        assert abs(chi2 - 1.0) < 8.0 * math.sqrt(2.0 / noisy.size)

    def test_poisson_mean_beyond_numpy_limit_is_refused_by_name(
        self, optics, monkeypatch
    ):
        # numpy refuses a mean above int64 max - 10 sqrt(int64 max) with
        # "lam value too large", which names no argument
        grid = ScanGrid(5, 5, 50.0)
        orientation = NVOrientation(1.0, 0.5)
        at_limit = simulate_pattern(orientation, grid, optics, amplitude=0.0,
                                    background=POISSON_MAX_MEAN, noise_seed=1)
        assert np.all(np.isfinite(at_limit.values))
        monkeypatch.setattr(np.random, "default_rng", None)  # nothing is drawn
        beyond = math.nextafter(POISSON_MAX_MEAN, math.inf)
        for kwargs in (dict(amplitude=0.0, background=beyond),
                       dict(amplitude=1e300, background=100.0)):
            with pytest.raises(ValueError, match="^amplitude=.* and background="):
                simulate_pattern(orientation, grid, optics, noise_seed=1, **kwargs)

    def test_noiseless_is_deterministic(self, grid31, optics):
        a = simulate_pattern(NVOrientation(0.9, 0.4), grid31, optics)
        b = simulate_pattern(NVOrientation(0.9, 0.4), grid31, optics)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("make, kwargs, name", [
        *((make, kwargs, name) for make in (intensity_map, simulate_pattern)
          for kwargs, name in [
              ({"amplitude": math.nan}, "amplitude"),
              ({"amplitude": math.inf}, "amplitude"),
              ({"amplitude": -1.0}, "amplitude"),
              ({"background": math.nan}, "background"),
              ({"background": -math.inf}, "background"),
              ({"background": -0.5}, "background"),
          ]),
        (simulate_pattern, {"noise_seed": -1}, "noise_seed"),
        (simulate_pattern, {"noise_seed": 1.5}, "noise_seed"),
        (simulate_pattern, {"noise_seed": 2.0}, "noise_seed"),
        # the defocus, named by the quadrature, before any profile is built
        *((make, {"z_nm": z}, "defocus z") for make in (intensity_map, simulate_pattern)
          for z in (math.nan, math.inf, -math.inf)),
    ])
    def test_bad_argument_is_refused_by_name(self, optics, make, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} "):
            make(NVOrientation(1.0, 0.5), ScanGrid(5, 5, 50.0), optics, **kwargs)


@pytest.fixture
def counted_quadrature(monkeypatch):
    """The number of radii of every quadrature call the pattern module
    makes while the test runs."""
    requested = []

    def counting(r, *args, **kwargs):
        requested.append(np.size(r))
        return azimuthal_field_profile(r, *args, **kwargs)

    monkeypatch.setattr(pattern_module, "azimuthal_field_profile", counting)
    return requested


def quadrature_map(orientation, grid, optics, center, z_nm=0.0, pixels=None,
                   nodes=None):
    """Unit-amplitude pattern, flattened, with the quadrature run at each
    pixel's own radius; only at the flat indices ``pixels`` if given,
    and by the single rule of ``nodes`` nodes if given."""
    xs, ys = np.meshgrid(*grid.pixel_axes())
    dx, dy = (xs - center[0]).ravel(), (ys - center[1]).ravel()
    if pixels is not None:
        dx, dy = dx[pixels], dy[pixels]
    rho = np.hypot(dx, dy)
    e = azimuthal_field_profile(rho, z_nm, optics, nodes=nodes)
    n = orientation.unit_axis
    safe = np.where(rho > 0.0, rho, 1.0)
    proj = np.where(rho > 0.0, 1.0 - ((n[1] * dx - n[0] * dy) / safe) ** 2, 1.0)
    return np.abs(e) ** 2 * proj


class TestIntensityMap:
    @pytest.mark.parametrize("offset_px", [(0.0, 0.0), (0.31, -0.27)])
    def test_matches_per_pixel_quadrature(self, optics, offset_px):
        # the map reads every pixel from a Chebyshev expansion of the
        # quadrature; every pixel must match the quadrature at its own
        # radius
        grid = ScanGrid(64, 64, 50.0)
        cx, cy = grid.center_nm
        center = (cx + 50.0 * offset_px[0], cy + 50.0 * offset_px[1])
        orientation = NVOrientation(1.1, 0.7)
        vals = intensity_map(orientation, grid, optics, center_nm=center).ravel()
        ref = quadrature_map(orientation, grid, optics, center)
        assert np.abs(vals - ref).max() / ref.max() < 1e-14

    @pytest.mark.parametrize(
        "width, offset_px, z_nm, subset",
        [
            (256, (0.31, -0.27), 0.0, 2048),
            (64, (0.31, -0.27), 300.0, None),
            (400, (0.31, -0.27), 0.0, 2048),
            (1, (0.0, 0.0), 0.0, None),
            (16, (-30.0, 12.5), 0.0, None),
        ],
        ids=["256-off-centre", "defocus-300nm", "400-off-centre", "1x1-on-axis",
             "nv-outside"],
    )
    def test_matches_configured_quadrature(self, optics, width, offset_px, z_nm, subset):
        # the map's profile and the per-pixel quadrature each take the
        # rule of their own reach (two sub-intervals at 256 and 400)
        grid = ScanGrid(width, width, 50.0)
        cx, cy = grid.center_nm
        center = (cx + 50.0 * offset_px[0], cy + 50.0 * offset_px[1])
        orientation = NVOrientation(1.1, 0.7)
        pixels = None
        if subset is not None:
            pixels = np.random.default_rng(20240917).choice(
                width * width, subset, replace=False
            )
        vals = intensity_map(orientation, grid, optics, center_nm=center, z_nm=z_nm)
        vals = vals.ravel() if pixels is None else vals.ravel()[pixels]
        ref = quadrature_map(orientation, grid, optics, center, z_nm, pixels)
        # on axis the field and the reference vanish, and so must the map
        assert np.abs(vals - ref).max() <= 1e-13 * ref.max()

    def test_farthest_pixel_just_past_a_panel_end(self, optics):
        # the corner radius, 1451.83 nm, lies 0.34 nm past the end of the
        # second panel, nearer that end's node than the next one: the
        # cached profile must reach it, not clamp it to the panel end
        grid = ScanGrid(31, 31, 68.44)
        orientation = NVOrientation(1.1, 0.7)
        vals = intensity_map(orientation, grid, optics).ravel()
        ref = quadrature_map(orientation, grid, optics, grid.center_nm)
        assert np.abs(vals - ref).max() <= 1e-13 * ref.max()

    @pytest.mark.parametrize("width, z_nm", [(400, 0.0), (512, 0.0), (256, 5000.0)])
    def test_map_agrees_with_the_1024_node_rule(self, optics, width, z_nm):
        # past k rho sin(alpha) = 150 (9.1 um) and under defocus the
        # 64-node rule alone was off by up to 1.2e-3 of the peak at 400
        # and 2.1e-3 at 512; the rule of the map's reach is not. Checked
        # at 2,048 pixels and the four corners, the farthest radii
        grid = ScanGrid(width, width, 50.0)
        orientation = NVOrientation.from_degrees(109.84, 20.60)  # NV1
        center = grid.center_nm
        pixels = np.random.default_rng(width).choice(width * width, 2048, replace=False)
        pixels[:4] = [0, width - 1, width * (width - 1), width * width - 1]
        got = intensity_map(orientation, grid, optics, 1e4, 100.0, center, z_nm)
        want = 100.0 + 1e4 * quadrature_map(
            orientation, grid, optics, center, z_nm, pixels, nodes=1024
        )
        assert np.abs(got.ravel()[pixels] - want).max() <= 1e-11 * 1e4

    def test_quadrature_runs_at_the_panel_points_only(self, optics, counted_quadrature):
        # off centre every one of the 65,536 pixels has its own radius;
        # from a cold cache the expansion needs 25 points on each of 13
        # panels
        pattern_module._cached_profile.cache_clear()
        grid = ScanGrid(256, 256, 50.0)
        cx, cy = grid.center_nm
        center = (cx + 50.0 * 0.31, cy - 50.0 * 0.27)
        intensity_map(NVOrientation(1.1, 0.7), grid, optics, center_nm=center)
        assert counted_quadrature == [25 * 13]

    def test_second_map_of_a_grid_runs_no_quadrature(self, optics, counted_quadrature):
        # the centred and the off-centre 256x256 scan share one profile
        grid = ScanGrid(256, 256, 50.0)
        cx, cy = grid.center_nm
        intensity_map(NVOrientation(1.1, 0.7), grid, optics)
        counted_quadrature.clear()
        intensity_map(NVOrientation(0.4, 2.0), grid, optics)
        intensity_map(
            NVOrientation(1.1, 0.7), grid, optics, center_nm=(cx + 15.5, cy - 13.5)
        )
        assert counted_quadrature == []

    @pytest.mark.parametrize("cx", [1e9, math.inf, math.nan])
    def test_nv_beyond_the_profile_bound_is_refused(self, optics, cx,
                                                    bounded_quadrature):
        with pytest.raises(ValueError, match="MAX_PROFILE_RADIUS_NM"):
            intensity_map(NVOrientation(1.1, 0.7), ScanGrid(3, 3, 50.0), optics,
                          center_nm=(cx, 0.0))

    def test_map_is_bit_identical_from_a_cold_and_a_warm_cache(self, optics):
        # the warm map reads the profile a smaller scan needing the same
        # 4 panels cached first: it must be the one the map builds itself
        grid = ScanGrid(64, 64, 50.0)
        cx, cy = grid.center_nm
        kw = dict(center_nm=(cx + 15.5, cy - 13.5), z_nm=120.0)
        pattern_module._cached_profile.cache_clear()
        cold = intensity_map(NVOrientation(1.1, 0.7), grid, optics, **kw)
        pattern_module._cached_profile.cache_clear()
        intensity_map(NVOrientation(0.3, 2.0), ScanGrid(63, 63, 50.0), optics, z_nm=120.0)
        warm = intensity_map(NVOrientation(1.1, 0.7), grid, optics, **kw)
        assert pattern_module._cached_profile.cache_info().currsize == 1
        assert np.array_equal(cold, warm)


def full_array_map(orientation, grid, optics, amplitude, background, center, z_nm):
    """intensity_map as one evaluation over the whole grid, in the
    expressions it used before it ran over row blocks."""
    xs, ys = np.meshgrid(*grid.pixel_axes())
    dx = xs - center[0]
    dy = ys - center[1]
    rho = np.hypot(dx, dy)
    e2 = _profile_covering(optics, float(rho.max()), z_nm)(rho)
    basis, _ = _basis_images(dx, dy, e2)
    coef = _coefficients_from_angles(orientation.theta, orientation.phi)
    return background + amplitude * (basis @ coef)


def full_array_taylor(optics, panels, z_nm):
    """RadialIntensityProfile.build's table as one evaluation over all
    panels, in the expressions it used before it ran over panel
    blocks."""
    width = _NODES_PER_PANEL / _nodes_per_nm(optics)
    start = np.arange(panels)[:, None]
    r = (start + _PANEL_NODES) * width
    samples = azimuthal_field_profile(r, z_nm, optics)
    if not np.any(samples.imag):
        samples = samples.real
    u = 2.0 * (r / width - start) - 1.0
    series = [np.linalg.solve(_chebyshev_vander(u), samples[..., None])]
    for m in range(1, _TAYLOR_DEGREE + 1):
        series.append(_NODE_DERIVATIVE @ series[-1] / m)
    at_nodes = _NODE_VANDER @ np.concatenate(series, axis=-1)
    taylor = np.concatenate(
        (at_nodes[:, :-1].reshape(-1, _TAYLOR_DEGREE + 1), at_nodes[-1, -1:])
    ).T.copy()
    taylor[0, 0] = 0.0
    return taylor


class TestBlocks:
    """Maps run over row blocks and the profile build over panel
    blocks; every result must be the bits of one evaluation over the
    whole grid or all panels."""

    @pytest.mark.parametrize(
        "width, height, pitch, offset_px, z_nm",
        [
            (256, 100, 50.0, (0.31, -0.27), 0.0),
            (100, 83, 40.0, (0.0, 0.0), 0.0),
            (9000, 3, 2.0, (0.31, -0.27), 0.0),
            (1, 1, 50.0, (0.0, 0.0), 0.0),
            (64, 200, 50.0, (-30.0, 12.5), 300.0),
        ],
        # _PIXEL_BLOCK // width rows a block: 32 rows into 100, 81 into 83,
        # one row of 9,000 pixels at a time, and 128 rows into 200
        ids=["rows-not-a-multiple", "centred", "row-wider-than-a-block",
             "1x1", "defocused"],
    )
    def test_map_matches_one_full_array_evaluation(
        self, optics, width, height, pitch, offset_px, z_nm
    ):
        assert _PIXEL_BLOCK == 8192
        grid = ScanGrid(width, height, pitch)
        cx, cy = grid.center_nm
        center = (cx + pitch * offset_px[0], cy + pitch * offset_px[1])
        orientation = NVOrientation(1.1, 0.7)
        got = intensity_map(orientation, grid, optics, 1e4, 100.0, center, z_nm)
        want = full_array_map(orientation, grid, optics, 1e4, 100.0, center, z_nm)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("width, height", [(256, 100), (100, 83), (9000, 3),
                                               (1, 1), (1, 300), (8192, 2)])
    def test_row_blocks_cut_the_rows_in_order(self, width, height):
        blocks = [range(height)[rows] for rows in ScanGrid(width, height, 1.0).row_blocks()]
        assert [row for block in blocks for row in block] == list(range(height))
        sizes = [len(block) for block in blocks]
        # at most _PIXEL_BLOCK pixels or one row, and full but for the last
        assert all(n * width <= _PIXEL_BLOCK or n == 1 for n in sizes)
        assert all((n + 1) * width > _PIXEL_BLOCK for n in sizes[:-1])

    @pytest.mark.parametrize("panels", [1, _PANEL_BLOCK, _PANEL_BLOCK + 1, 130])
    @pytest.mark.parametrize("z_nm", [0.0, 300.0])
    def test_table_matches_one_full_array_evaluation(self, optics, panels, z_nm):
        got = RadialIntensityProfile.build(optics, panels, z_nm).taylor
        want = full_array_taylor(optics, panels, z_nm)
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestRadialProfile:
    @pytest.mark.parametrize("z_nm", [math.nan, math.inf, -math.inf])
    def test_build_refuses_a_non_finite_defocus(self, optics, z_nm):
        with pytest.raises(ValueError, match="defocus z must be finite"):
            RadialIntensityProfile.build(optics, 3, z_nm)

    def test_interpolation_error_small_against_exact(self, optics):
        profile = RadialIntensityProfile.build(optics, 3)
        rng = np.random.default_rng(3)
        rs = rng.uniform(0.0, 1500.0, 300)
        exact = np.array([abs(azimuthal_field(float(r), 0.0, optics)) ** 2 for r in rs])
        assert np.abs(profile(rs) - exact).max() / exact.max() < 1e-6

    def test_interpolation_no_worse_than_dense_linear_table(self, optics):
        # the 65,536-sample linear table of the first fits was within
        # 1.6e-8; the Chebyshev panels reproduce the quadrature to rounding
        profile = RadialIntensityProfile.build(optics, 3)
        rs = np.linspace(0.0, 1500.0, 20001)
        e = azimuthal_field_profile(rs, 0.0, optics)
        exact = e.real**2 + e.imag**2
        assert np.abs(profile(rs) - exact).max() / exact.max() < 1e-14

    def test_slope_matches_central_difference_of_quadrature(self, optics):
        profile = RadialIntensityProfile.build(optics, 3)
        h = 1e-3
        rs = np.linspace(h, 1500.0 - h, 3001)
        plus = azimuthal_field_profile(rs + h, 0.0, optics)
        minus = azimuthal_field_profile(rs - h, 0.0, optics)
        central = (plus.real**2 - minus.real**2) / (2.0 * h)
        value, slope = profile.value_and_slope(rs)
        assert np.array_equal(value, profile(rs))
        assert np.abs(slope - central).max() / np.abs(central).max() < 1e-9
        # |E_phi|^2 is even on the axis and clamped beyond r_max
        r_max = profile.r_max_nm
        _, slope = profile.value_and_slope(np.array([0.0, r_max + 0.5, 1e6]))
        assert slope.tolist() == [0.0, 0.0, 0.0]

    def test_defocused_slope_matches_central_difference_of_quadrature(self, optics):
        # at z = 300 nm the table is complex: the slope is 2 Re(E* E')
        profile = RadialIntensityProfile.build(optics, 3, 300.0)
        h = 1e-3
        rs = np.linspace(h, 1500.0 - h, 3001)
        e = azimuthal_field_profile(rs, 300.0, optics)
        plus = np.abs(azimuthal_field_profile(rs + h, 300.0, optics)) ** 2
        minus = np.abs(azimuthal_field_profile(rs - h, 300.0, optics)) ** 2
        central = (plus - minus) / (2.0 * h)
        value, slope = profile.value_and_slope(rs)
        exact = e.real**2 + e.imag**2
        assert np.abs(value - exact).max() / exact.max() < 1e-14
        assert np.abs(slope - central).max() / np.abs(central).max() < 1e-9

    def test_on_axis_null_is_exact(self, optics):
        profile = RadialIntensityProfile.build(optics, 3)
        assert profile(0.0) == 0.0
        assert profile(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
        # a negative radius reads the axis, not the far end of the table
        assert profile(np.array([-1.0, -1e6])).tolist() == [0.0, 0.0]

    def test_lookup_beyond_r_max_clamps(self, optics):
        profile = RadialIntensityProfile.build(optics, 3)
        r_max = profile.r_max_nm
        at_edge = profile(r_max)
        assert at_edge > 0.0
        beyond = [r_max + 0.5, r_max + 500.0, 1e6]
        assert np.array_equal(profile(beyond), np.full(3, at_edge))

    def test_build_tabulates_whole_panels(self, optics):
        # r_max is the end of the last panel, and the table holds every
        # node up to it, the end node included
        profile = RadialIntensityProfile.build(optics, 3)
        assert profile.r_max_nm == 3 * 400 / profile.nodes_per_nm
        assert profile.taylor.shape == (7, 3 * 400 + 1)

    def test_cache_returns_same_object(self, grid31, optics):
        assert radial_profile_for_grid(grid31, optics) is radial_profile_for_grid(
            grid31, optics
        )

    def test_map_matches_simulate(self, grid31, optics):
        vals = intensity_map(NVOrientation(1.0, 1.0), grid31, optics, 2.0, 0.25)
        img = simulate_pattern(
            NVOrientation(1.0, 1.0), grid31, optics, amplitude=2.0, background=0.25
        )
        assert np.array_equal(vals, img.values)
