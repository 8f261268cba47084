import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    QuadratureNotConverged,
    azimuthal_field,
    field_vector_at,
    node_doubling_error,
)
import nvvortex.focal_field as focal_field_module
from nvvortex.bessel import j1
from nvvortex.errors import InvalidOptics
from nvvortex.focal_field import (
    _INTERVAL_REACH,
    MAX_QUADRATURE_NODES,
    OpticalConfig,
    _aperture_rule,
    azimuthal_field_profile,
    max_aperture_angle,
    wavenumber,
)
from nvvortex.pattern import _PANEL_WIDTH, MAX_PROFILE_PANELS

# arcsin(1.40 / 1.518), evaluated with a reference arithmetic tool
APERTURE_NA140_N1518 = 1.1739024744345716


def simpson_field(r, z, config, panels=20_000):
    """Independent brute-force oracle: composite Simpson over the
    aperture, scipy's J1 for the kernel."""
    from scipy.special import j1 as scipy_j1

    alpha = math.asin(config.numerical_aperture / config.immersion_index)
    k = 2.0 * math.pi * config.immersion_index / config.wavelength_nm
    theta = np.linspace(0.0, alpha, panels + 1)
    st_, ct = np.sin(theta), np.cos(theta)
    f = 2.0 * np.sqrt(ct) * st_ * scipy_j1(k * r * st_) * np.exp(1j * k * z * ct)
    h = alpha / panels
    return complex((f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum()) * h / 3.0)


class TestOpticalConfig:
    def test_defaults_valid(self):
        OpticalConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"numerical_aperture": 1.6},           # NA >= n
            {"numerical_aperture": 0.0},
            {"numerical_aperture": -0.5},
            {"wavelength_nm": 0.0},
            {"wavelength_nm": -532.0},
            {"immersion_index": math.nan},
            # NA / n rounds to 0: an aperture of no angle
            {"numerical_aperture": 5e-324, "immersion_index": 2.5},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(InvalidOptics):
            OpticalConfig(**kwargs)

    def test_quadrature_nodes_is_not_a_setting(self):
        # the rule follows each call's reach; the per-sub-interval node
        # count is a class constant, outside the fields and the hash
        assert OpticalConfig.quadrature_nodes == 64
        with pytest.raises(TypeError):
            OpticalConfig(quadrature_nodes=64)


class TestApertureAngle:
    def test_half_ratio_gives_30_degrees(self):
        cfg = OpticalConfig(numerical_aperture=1.0, immersion_index=2.0)
        assert max_aperture_angle(cfg) == pytest.approx(math.pi / 6, rel=1e-15)

    def test_ratio_near_one_approaches_90_degrees(self):
        cfg = OpticalConfig(numerical_aperture=1.517999, immersion_index=1.518)
        assert max_aperture_angle(cfg) > math.radians(89.8)
        assert max_aperture_angle(cfg) < math.pi / 2

    def test_oil_objective_value(self, optics):
        assert max_aperture_angle(optics) == pytest.approx(
            APERTURE_NA140_N1518, abs=1e-15
        )

    def test_wavenumber_uses_immersion_index(self, optics):
        assert wavenumber(optics) == pytest.approx(
            2.0 * math.pi * 1.518 / 532.0, rel=1e-15
        )


class TestAzimuthalField:
    def test_on_axis_null_is_exact(self, optics):
        for z in (0.0, -500.0, 321.0):
            assert azimuthal_field(0.0, z, optics) == 0.0 + 0.0j

    def test_focal_plane_is_purely_real(self, optics):
        for r in (10.0, 144.0, 600.0, 2500.0):
            assert azimuthal_field(r, 0.0, optics).imag == 0.0

    def test_negative_radius_rejected(self, optics):
        # and a NaN or infinite one, anywhere in r, before any block runs
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="radial offset"):
                azimuthal_field(bad, 0.0, optics)
            with pytest.raises(ValueError, match="radial offset"):
                azimuthal_field_profile(np.array([[10.0, 20.0], [30.0, bad]]), 0.0, optics)

    def test_against_simpson_oracle(self, optics):
        rs = np.linspace(0.0, 5 * optics.wavelength_nm, 7)
        zs = np.linspace(-5 * optics.wavelength_nm, 5 * optics.wavelength_nm, 5)
        worst = 0.0
        peak = 0.0
        for r in rs:
            for z in zs:
                ref = simpson_field(r, z, optics)
                val = azimuthal_field(float(r), float(z), optics)
                worst = max(worst, abs(val - ref))
                peak = max(peak, abs(ref))
        assert worst / peak < 1e-9

    def test_same_rule_on_scipy_j1_out_to_9000_nm(self, optics):
        # a 256x256 scan at 50 nm pitch reaches rho ~ 9,050 nm and J1
        # arguments ~ 149, where the rule takes 64 nodes on each of two
        # halves of the aperture; the same Gauss-Legendre sum built on
        # scipy's J1 leaves only the error of the package's J1
        from scipy.special import j1 as scipy_j1

        half = 0.5 * max_aperture_angle(optics)
        x, w = np.polynomial.legendre.leggauss(64)
        theta = np.concatenate([0.5 * half * (x + 1.0), half + 0.5 * half * (x + 1.0)])
        weights = np.concatenate([0.5 * half * w] * 2)
        st_ = np.sin(theta)
        base = 2.0 * np.sqrt(np.cos(theta)) * st_ * weights
        rs = np.linspace(0.0, 9000.0, 3001)
        ref = scipy_j1(wavenumber(optics) * rs[:, None] * st_) @ base
        val = azimuthal_field_profile(rs, 0.0, optics)
        assert np.abs(val - ref).max() / np.abs(ref).max() < 1e-12

    def test_default_rule_is_resolved_past_a_256_scan(self, optics):
        # the farthest pixel of a 256x256 scan at 50 nm is 9,051 nm from
        # the NV, k r sin(alpha) = 149.7, past the reach of one
        # sub-interval: the rule takes two
        rs = np.linspace(0.0, 9060.0, 907)
        got = azimuthal_field_profile(rs, 0.0, optics)
        want = azimuthal_field_profile(rs, 0.0, optics, nodes=MAX_QUADRATURE_NODES)
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()

    def test_mirror_symmetry_in_defocus(self, optics):
        # integrand phase reverses under z -> -z, so E(r,-z) = conj(E(r,z));
        # the separated cos/sin accumulation makes this exact
        for r, z in [(100.0, 250.0), (430.0, -800.0), (1500.0, 1234.5)]:
            assert azimuthal_field(r, -z, optics) == azimuthal_field(r, z, optics).conjugate()

    def test_node_doubling_is_converged_at_default(self, optics):
        rs = np.linspace(0.0, 5 * optics.wavelength_nm, 9)
        zs = np.linspace(-5 * optics.wavelength_nm, 5 * optics.wavelength_nm, 5)
        assert node_doubling_error(optics, rs, zs) < 1e-9

    def test_unconverged_quadrature_raises(self, optics):
        with pytest.raises(QuadratureNotConverged):
            azimuthal_field(5 * 532.0, 2000.0, optics, check=True, rtol=1e-12, nodes=8)

    def test_check_passes_for_default_nodes(self, optics):
        azimuthal_field(500.0, 500.0, optics, check=True)

    def test_profile_matches_scalar_calls(self, optics):
        # TestBlocks holds the exact per-radius property
        rs = np.array([0.0, 50.0, 144.0, 980.0])
        prof = azimuthal_field_profile(rs, 77.0, optics)
        for i, r in enumerate(rs):
            assert prof[i] == pytest.approx(
                azimuthal_field(float(r), 77.0, optics), rel=1e-13, abs=1e-16
            )


def full_array_profile(r, z, config, nodes=64, intervals=1):
    """azimuthal_field_profile as one evaluation over the whole of r,
    in the expressions of its blocks, with ``nodes`` nodes on each of
    ``intervals`` sub-intervals."""
    theta, weights = _aperture_rule(nodes, max_aperture_angle(config), intervals)
    st_ = np.sin(theta)
    ct = np.cos(theta)
    k = wavenumber(config)
    base = 2.0 * np.sqrt(ct) * st_ * weights
    bess = j1(k * np.asarray(r, dtype=float)[..., None] * st_)
    phase = k * z * ct
    parts = base * np.stack([np.cos(phase), np.sin(phase)])
    re, im = np.einsum("...n,cn->c...", bess, parts)
    return re + 1j * im


class TestBlocks:
    """The quadrature sums each radius over the nodes on its own and
    runs the radii in blocks: every result must be the bits of one
    evaluation over the whole of r, and a radius's E_phi must not
    depend on the other radii of the call, their order, the shape of r
    or the block size."""

    @pytest.mark.parametrize("z", [0.0, 300.0])
    def test_scalar_radius(self, optics, z):
        got = azimuthal_field_profile(1234.5, z, optics)
        assert np.ndim(got) == 0
        assert np.array_equal(got, full_array_profile(1234.5, z, optics))

    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 18, 47, 48, 49, 130])
    @pytest.mark.parametrize("nodes", [64, 100])
    def test_1d_radii_across_block_edges(self, optics, monkeypatch, n, nodes):
        # room for 18 radii a block: n runs from part of one block to
        # several, with a full, a partial and a lone last block
        monkeypatch.setattr(focal_field_module, "_J1_BLOCK", 18 * nodes)
        r = np.random.default_rng(n).uniform(0.0, 9000.0, n)
        for z in (0.0, 300.0):
            got = azimuthal_field_profile(r, z, optics, nodes=nodes)
            assert np.array_equal(got, full_array_profile(r, z, optics, nodes))

    @pytest.mark.parametrize("shape", [(40, 25), (41, 25), (9, 2, 25), (0, 25)])
    def test_nd_radii_with_the_module_block(self, optics, shape):
        # 256 radii a block at 64 nodes, one sub-interval within
        # 8,000 nm: the blocks cut across rows of 25 radii
        assert focal_field_module._J1_BLOCK // (25 * 64) == 10
        r = np.random.default_rng(7).uniform(0.0, 8000.0, shape)
        for z in (0.0, 300.0):
            got = azimuthal_field_profile(r, z, optics)
            assert got.shape == shape
            assert np.array_equal(got, full_array_profile(r, z, optics))

    @pytest.mark.parametrize("shape", [(40, 25), (41, 25), (9, 2, 25)])
    def test_nd_radii_with_a_composite_rule(self, optics, shape):
        # out to 20,000 nm the rule takes three sub-intervals, 192 nodes:
        # 85 radii a block, cutting across rows of 25 radii
        r = np.random.default_rng(7).uniform(0.0, 20_000.0, shape)
        r.flat[0] = 20_000.0
        for z in (0.0, 300.0):
            got = azimuthal_field_profile(r, z, optics)
            assert np.array_equal(got, full_array_profile(r, z, optics, intervals=3))

    @pytest.mark.parametrize(
        "nodes, z, r_range",
        [
            (64, 0.0, (0.0, 9000.0)),
            (64, 300.0, (0.0, 9000.0)),
            (192, 0.0, (0.0, 9000.0)),
            # the automatic rule: three sub-intervals for every radius
            # alone and for all of them, 192 nodes
            (None, 0.0, (17_000.0, 25_000.0)),
        ],
    )
    def test_each_radius_is_summed_on_its_own(
        self, optics, monkeypatch, nodes, z, r_range
    ):
        r = np.random.default_rng(150).uniform(*r_range, 150)
        want = azimuthal_field_profile(r, z, optics, nodes=nodes)

        def profile(radii):
            return azimuthal_field_profile(radii, z, optics, nodes=nodes)

        for i in range(r.size):
            assert np.array_equal(profile(r[i : i + 1]), want[i : i + 1]), i
            assert np.array_equal(profile(r[i]), want[i]), i
        assert np.array_equal(profile(r[::-1])[::-1], want)
        for shape in [(10, 15), (5, 6, 5)]:
            assert np.array_equal(profile(r.reshape(shape)).ravel(), want), shape
        # one radius a block, 7 radii and a part of one, and all of r
        for block in [1, 7 * 192 + 5, 10**6]:
            monkeypatch.setattr(focal_field_module, "_J1_BLOCK", block)
            assert np.array_equal(profile(r), want), block


def composite_reference(r, z, config):
    """E_phi by 128 nodes on each of 32 sub-intervals, 4,096 nodes: at
    least twice the nodes of any automatic rule, and each sub-interval
    far inside the reach of its 128 nodes."""
    return full_array_profile(r, z, config, nodes=128, intervals=32)


@pytest.fixture
def chosen_rules(monkeypatch):
    """(nodes, intervals) of every rule azimuthal_field_profile asks
    for while the test runs."""
    rules = []
    real = focal_field_module._aperture_rule

    def spy(nodes, alpha, intervals=1):
        rules.append((nodes, intervals))
        return real(nodes, alpha, intervals)

    monkeypatch.setattr(focal_field_module, "_aperture_rule", spy)
    return rules


def panel_ends(optics, panels, samples=1001):
    """Radii from the axis to the end of the profile's last panel, the
    farthest radius its build evaluates."""
    width = _PANEL_WIDTH / (wavenumber(optics) * math.sin(max_aperture_angle(optics)))
    return np.linspace(0.0, panels * width, min(samples, 25 * panels + 1))


class TestAutomaticRule:
    """The rule takes 64 nodes on each of s = max(1, ceil(x / 140))
    sub-intervals, x = k sin(alpha) max r + k |z|."""

    @pytest.mark.parametrize("z", [0.0, 300.0])
    def test_one_sub_interval_is_the_64_node_rule(self, optics, chosen_rules, z):
        # out to 8,000 nm, x = 132 in focus and 138 at 300 nm
        r = np.linspace(0.0, 8000.0, 1001)
        assert np.array_equal(
            azimuthal_field_profile(r, z, optics),
            azimuthal_field_profile(r, z, optics, nodes=64),
        )
        assert np.array_equal(
            azimuthal_field_profile(8000.0, z, optics),
            azimuthal_field_profile(8000.0, z, optics, nodes=64),
        )
        assert chosen_rules == [(64, 1), (64, 1)] * 2

    @pytest.mark.parametrize("panels, z, intervals", [
        (3, 0.0, 1),        # a 31x31 scan at 50 nm
        (13, 0.0, 2),       # a 256x256 scan at 50 nm
        (13, 10_000.0, 3),
        (MAX_PROFILE_PANELS, 0.0, 12),
        (MAX_PROFILE_PANELS, 10_000.0, 14),
    ])
    def test_sub_intervals_follow_the_reach(self, optics, chosen_rules, panels, z,
                                            intervals):
        azimuthal_field_profile(panel_ends(optics, panels, samples=2), z, optics)
        assert chosen_rules == [(64, intervals)]

    @pytest.mark.parametrize("panels", [1, 13, MAX_PROFILE_PANELS])
    @pytest.mark.parametrize("z", [0.0, 300.0, 1000.0, 2000.0, 5000.0, 10_000.0])
    def test_rule_holds_1e_12_out_to_the_panel_ends(self, optics, panels, z):
        r = panel_ends(optics, panels)
        peak = np.abs(azimuthal_field_profile(np.linspace(0.0, 600.0, 601), 0.0,
                                              optics)).max()
        err = np.abs(azimuthal_field_profile(r, z, optics) - composite_reference(r, z, optics))
        assert err.max() <= 1e-12 * peak

    def test_node_bound_is_refused_before_any_evaluation(self, optics, chosen_rules,
                                                         monkeypatch):
        # 16 sub-intervals of 64 nodes reach x = 2,240
        assert MAX_QUADRATURE_NODES // 64 * _INTERVAL_REACH == 2240.0
        k = wavenumber(optics)
        band = k * math.sin(max_aperture_angle(optics))

        def refuse(*args):
            raise AssertionError("the quadrature ran")

        real_j1 = focal_field_module.j1
        monkeypatch.setattr(focal_field_module, "j1", refuse)
        for r, z in [(0.0, 2240.5 / k), (0.0, -1e6), (2240.5 / band, 0.0),
                     (2000.0 / band, 300.0 / k)]:
            with pytest.raises(ValueError, match="MAX_QUADRATURE_NODES=1024"):
                azimuthal_field_profile(np.array([10.0, r]), z, optics)
        assert chosen_rules == []
        monkeypatch.setattr(focal_field_module, "j1", real_j1)
        azimuthal_field_profile(np.array([10.0, 0.0]), 2239.5 / k, optics)
        assert chosen_rules == [(64, 16)]

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_defocus_is_refused(self, optics, z):
        with pytest.raises(ValueError, match="defocus z must be finite"):
            azimuthal_field_profile(np.array([10.0, 20.0]), z, optics)


class TestFieldVector:
    def test_zero_vector_at_beam_center(self, optics):
        v = field_vector_at((120.0, -40.0, 0.0), (120.0, -40.0), 0.0, optics)
        assert np.array_equal(v, np.zeros(3, dtype=complex))

    def test_equal_magnitude_around_ring(self, optics):
        mags = []
        for psi in np.linspace(0.0, 2 * math.pi, 13):
            p = (144.0 * math.cos(psi), 144.0 * math.sin(psi), 0.0)
            mags.append(np.linalg.norm(field_vector_at(p, (0.0, 0.0), 0.0, optics)))
        assert np.ptp(mags) < 1e-12 * max(mags)

    @given(
        st.floats(min_value=1.0, max_value=2000.0),
        st.floats(min_value=0.0, max_value=2 * math.pi),
        st.floats(min_value=-1000.0, max_value=1000.0),
    )
    def test_output_is_azimuthal(self, rho, psi, z):
        optics = OpticalConfig()
        p = np.array([rho * math.cos(psi), rho * math.sin(psi), z])
        v = field_vector_at(p, (0.0, 0.0), 0.0, optics)
        assert v[2] == 0.0  # no longitudinal component
        radial = np.array([math.cos(psi), math.sin(psi), 0.0])
        assert abs(v @ radial) <= 1e-12 * (np.linalg.norm(v) + 1e-30)

    def test_axial_offset_is_relative_to_beam_plane(self, optics):
        a = field_vector_at((100.0, 0.0, 500.0), (0.0, 0.0), 500.0, optics)
        b = field_vector_at((100.0, 0.0, 0.0), (0.0, 0.0), 0.0, optics)
        assert np.allclose(a, b, rtol=0, atol=1e-15)
