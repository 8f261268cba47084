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
    MAX_QUADRATURE_NODES,
    OpticalConfig,
    _aperture_rule,
    azimuthal_field_profile,
    max_aperture_angle,
    wavenumber,
)

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
            {"quadrature_nodes": 4},
            {"quadrature_nodes": MAX_QUADRATURE_NODES + 1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(InvalidOptics):
            OpticalConfig(**kwargs)


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
        # arguments ~ 149; the same Gauss-Legendre sum built on scipy's J1
        # leaves only the error of the package's J1
        from scipy.special import j1 as scipy_j1

        alpha = max_aperture_angle(optics)
        x, w = np.polynomial.legendre.leggauss(optics.quadrature_nodes)
        theta, weights = 0.5 * alpha * (x + 1.0), 0.5 * alpha * w
        st_ = np.sin(theta)
        base = 2.0 * np.sqrt(np.cos(theta)) * st_ * weights
        rs = np.linspace(0.0, 9000.0, 3001)
        ref = scipy_j1(wavenumber(optics) * rs[:, None] * st_) @ base
        val = azimuthal_field_profile(rs, 0.0, optics)
        assert np.abs(val - ref).max() / np.abs(ref).max() < 1e-12

    def test_default_rule_is_resolved_past_a_256_scan(self, optics):
        # the farthest pixel of a 256x256 scan at 50 nm is 9,051 nm from
        # the NV; the 64-node rule holds 1e-12 of the peak out to k r
        # sin(alpha) = 150.4, r = 9,096 nm at these optics
        assert optics.quadrature_nodes == 64
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

    def test_unconverged_quadrature_raises(self):
        coarse = OpticalConfig(quadrature_nodes=8)
        with pytest.raises(QuadratureNotConverged):
            azimuthal_field(5 * 532.0, 2000.0, coarse, check=True, rtol=1e-12)

    def test_check_passes_for_default_nodes(self, optics):
        azimuthal_field(500.0, 500.0, optics, check=True)

    def test_profile_matches_scalar_calls(self, optics):
        # batched and scalar paths may differ by a BLAS reduction ulp
        rs = np.array([0.0, 50.0, 144.0, 980.0])
        prof = azimuthal_field_profile(rs, 77.0, optics)
        for i, r in enumerate(rs):
            assert prof[i] == pytest.approx(
                azimuthal_field(float(r), 77.0, optics), rel=1e-13, abs=1e-16
            )


def full_array_profile(r, z, config, nodes=None):
    """azimuthal_field_profile as one evaluation over the whole of r,
    in the expressions it used before it ran over blocks of r."""
    theta, weights = _aperture_rule(
        nodes if nodes is not None else config.quadrature_nodes,
        max_aperture_angle(config),
    )
    st_ = np.sin(theta)
    ct = np.cos(theta)
    k = wavenumber(config)
    base = 2.0 * np.sqrt(ct) * st_ * weights
    bess = j1(k * np.asarray(r, dtype=float)[..., None] * st_)
    phase = k * z * ct
    re = bess @ (base * np.cos(phase))
    im = bess @ (base * np.sin(phase))
    return re + 1j * im


class TestBlocks:
    """The quadrature runs over blocks of r's leading axis; every result
    must be the bits of one evaluation over the whole of r."""

    @pytest.mark.parametrize("z", [0.0, 300.0])
    def test_scalar_radius(self, optics, z):
        got = azimuthal_field_profile(1234.5, z, optics)
        assert np.ndim(got) == 0
        assert np.array_equal(got, full_array_profile(1234.5, z, optics))

    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 18, 47, 48, 49, 130])
    @pytest.mark.parametrize("nodes", [64, 100])
    def test_1d_radii_across_block_edges(self, optics, monkeypatch, n, nodes):
        # room for 18 radii a block, of which a power of two, 16, are
        # taken: small enough that the whole-r reference stays one
        # single-threaded BLAS call. A lone last radius joins the block
        # before it
        monkeypatch.setattr(focal_field_module, "_J1_BLOCK", 18 * nodes)
        r = np.random.default_rng(n).uniform(0.0, 9000.0, n)
        for z in (0.0, 300.0):
            got = azimuthal_field_profile(r, z, optics, nodes=nodes)
            assert np.array_equal(got, full_array_profile(r, z, optics, nodes))

    @pytest.mark.parametrize("shape", [(40, 25), (41, 25), (9, 2, 25), (0, 25)])
    def test_nd_radii_with_the_module_block(self, optics, shape):
        # 25 radii a row at 64 nodes: 8 rows a block
        assert focal_field_module._J1_BLOCK // (25 * 64) == 10
        r = np.random.default_rng(7).uniform(0.0, 9000.0, shape)
        for z in (0.0, 300.0):
            got = azimuthal_field_profile(r, z, optics)
            assert got.shape == shape
            assert np.array_equal(got, full_array_profile(r, z, optics))


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
