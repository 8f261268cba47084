import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvvortex import least_squares
from nvvortex.errors import (
    DegenerateField,
    FitFailed,
    InconsistentFrequencies,
    TripletsOverlap,
)
from nvvortex.pattern import NVOrientation
from nvvortex.spin import (
    FieldEstimate,
    SpinParams,
    Spectrum,
    SweepSettings,
    TransitionPair,
    _lorentz,
    _triplet_model,
    add_contrast_noise,
    electron_hamiltonian,
    field_estimate,
    fit_odmr_model,
    fit_odmr_spectrum,
    full_hamiltonian,
    invert_magnitude,
    invert_polar_angle,
    lab_field_in_nv_frame,
    simulate_odmr_spectrum,
    six_transition_frequencies,
    transition_frequencies,
)

# mI = 0 pair at B = 59.53 G, alpha = 117.62 deg (D = 2870, gamma_e =
# 2.8025), frozen from the 3x3 eigen-oracle evaluated before the build
TABLE1_PAIR = (2804.0626729703877, 2958.734252597665)


def char_poly_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Independent 3x3 eigenvalue oracle: roots of the characteristic
    cubic built from trace/minor/determinant, no eigensolver."""
    a = -np.trace(h).real
    minors = 0.0
    for i in range(3):
        idx = [j for j in range(3) if j != i]
        sub = h[np.ix_(idx, idx)]
        minors += (sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0]).real
    c = -np.linalg.det(h).real
    roots = np.roots([1.0, a, minors, c])
    return np.sort(roots.real)


class TestElectronHamiltonian:
    def test_zero_field(self, spin_params):
        h = electron_hamiltonian(0.0, 0.0, spin_params)
        assert np.allclose(h, np.diag([2870.0, 0.0, 2870.0]), atol=0)

    def test_aligned_field_exact(self, spin_params):
        h = electron_hamiltonian(100.0, 0.0, spin_params)
        g = spin_params.gamma_e
        assert np.allclose(
            h, np.diag([2870.0 + 100 * g, 0.0, 2870.0 - 100 * g]), atol=0
        )

    def test_hermitian(self, spin_params):
        h = electron_hamiltonian(37.0, 81.0, spin_params)
        assert np.allclose(h, h.conj().T, rtol=1e-12, atol=0)

    def test_eigenvalues_match_characteristic_cubic(self, spin_params):
        rng = np.random.default_rng(8)
        for _ in range(50):
            h = electron_hamiltonian(rng.uniform(0, 300), rng.uniform(0, 300),
                                     spin_params)
            mine = np.sort(np.linalg.eigvalsh(h))
            assert np.allclose(mine, char_poly_eigenvalues(h), rtol=1e-9, atol=1e-6)


class TestTransitionFrequencies:
    def test_zero_field_degenerate_at_d(self, spin_params):
        pair = transition_frequencies(0.0, 0.5, spin_params)
        assert pair.omega1 == pytest.approx(2870.0, abs=1e-9)
        assert pair.omega2 == pytest.approx(2870.0, abs=1e-9)

    def test_aligned_field_analytic(self, spin_params):
        pair = transition_frequencies(100.0, 0.0, spin_params)
        g = spin_params.gamma_e
        assert pair.omega1 == pytest.approx(2870.0 - 100 * g, abs=1e-9)
        assert pair.omega2 == pytest.approx(2870.0 + 100 * g, abs=1e-9)

    def test_table1_fixture(self, spin_params):
        pair = transition_frequencies(59.53, math.radians(117.62), spin_params)
        assert pair.omega1 == pytest.approx(TABLE1_PAIR[0], abs=1e-6)
        assert pair.omega2 == pytest.approx(TABLE1_PAIR[1], abs=1e-6)

    @given(st.floats(1.0, 100.0), st.floats(0.01, math.pi - 0.01))
    @settings(max_examples=50)
    def test_cone_degeneracy(self, b, alpha):
        params = SpinParams()
        p1 = transition_frequencies(b, alpha, params)
        p2 = transition_frequencies(b, math.pi - alpha, params)
        assert p1.omega1 == pytest.approx(p2.omega1, abs=1e-8)
        assert p1.omega2 == pytest.approx(p2.omega2, abs=1e-8)

    def test_pair_ordering_enforced(self):
        with pytest.raises(ValueError):
            TransitionPair(omega1=2900.0, omega2=2800.0)


class TestInversion:
    def test_degenerate_pair_gives_zero_field(self):
        assert invert_magnitude(TransitionPair(2870.0, 2870.0)) == 0.0

    def test_aligned_identity(self):
        g = 2.8025
        pair = TransitionPair(2870.0 - 50 * g, 2870.0 + 50 * g)
        assert invert_magnitude(pair) == pytest.approx(50.0, abs=1e-9)

    def test_magnitude_round_trip_table1(self, spin_params):
        pair = transition_frequencies(59.53, math.radians(117.62), spin_params)
        assert invert_magnitude(pair) == pytest.approx(59.53, abs=1e-6)

    def test_inconsistent_pair_rejected(self):
        # omega1 = omega2 below D: radicand strongly negative
        with pytest.raises(InconsistentFrequencies):
            invert_magnitude(TransitionPair(2000.0, 2000.0))

    def test_tiny_negative_radicand_clamped(self):
        pair = TransitionPair(2870.0, 2870.0 + 1e-7)
        assert invert_magnitude(pair) >= 0.0

    def test_polar_angle_aligned_branches(self):
        g = 2.8025
        pair = TransitionPair(2870.0 - 80 * g, 2870.0 + 80 * g)
        lo, hi = invert_polar_angle(pair)
        assert lo == pytest.approx(0.0, abs=1e-6)
        assert hi == pytest.approx(math.pi, abs=1e-6)

    def test_polar_angle_degenerate_field(self):
        with pytest.raises(DegenerateField):
            invert_polar_angle(TransitionPair(2870.0, 2870.0))

    def test_polar_angle_table1_round_trip(self, spin_params):
        pair = transition_frequencies(59.53, math.radians(117.62), spin_params)
        candidates = invert_polar_angle(pair)
        best = min(abs(math.degrees(a) - 117.62) for a in candidates)
        assert best < 1e-4

    def test_candidates_sum_to_pi_exactly(self, spin_params):
        pair = transition_frequencies(42.0, 1.1, spin_params)
        lo, hi = invert_polar_angle(pair)
        assert lo + hi == pytest.approx(math.pi, abs=1e-12)

    def test_inconsistent_angle_ratio_rejected(self):
        # both transitions far above D cannot come from a real tilt
        with pytest.raises(InconsistentFrequencies):
            invert_polar_angle(TransitionPair(3100.0, 3105.0))

    @given(st.floats(1.0, 100.0), st.floats(0.01, math.pi - 0.01))
    @settings(max_examples=100)
    def test_round_trip_property(self, b, alpha):
        params = SpinParams()
        pair = transition_frequencies(b, alpha, params)
        assert invert_magnitude(pair, params.d, params.gamma_e) == pytest.approx(
            b, rel=1e-6
        )
        candidates = invert_polar_angle(pair, params.d)
        assert min(abs(a - alpha) for a in candidates) < 1e-6

    def test_swap_symmetry_of_magnitude(self):
        # radicand is symmetric in omega1 <-> omega2; the type enforces
        # ordering so compare the explicit formula on both orderings
        w1, w2, d = 2804.0, 2958.0, 2870.0
        r12 = w1 * w1 + w2 * w2 - w1 * w2 - d * d
        r21 = w2 * w2 + w1 * w1 - w2 * w1 - d * d
        assert r12 == r21


class TestFieldEstimate:
    def test_sigma_propagation(self, spin_params):
        base = transition_frequencies(59.53, math.radians(117.62), spin_params)
        pair = TransitionPair(base.omega1, base.omega2, sigma1=0.03, sigma2=0.03)
        est = field_estimate(pair, spin_params)
        assert isinstance(est, FieldEstimate)
        assert est.b == pytest.approx(59.53, abs=1e-6)
        assert est.b_sigma is not None and 0.0 < est.b_sigma < 0.1
        assert est.alpha_sigma is not None and 0.0 < est.alpha_sigma < math.radians(1)
        assert est.alpha_candidates[0] + est.alpha_candidates[1] == pytest.approx(
            math.pi, abs=1e-12
        )

    def test_no_sigma_in_gives_none_out(self, spin_params):
        pair = transition_frequencies(40.0, 0.7, spin_params)
        est = field_estimate(pair, spin_params)
        assert est.b_sigma is None and est.alpha_sigma is None


class TestFullHamiltonian:
    def test_bare_zero_field_spectrum(self):
        params = SpinParams(a_par=0.0, a_perp=0.0, q=0.0, gamma_n=0.0)
        evals = np.linalg.eigvalsh(full_hamiltonian([0.0, 0.0, 0.0], params))
        assert np.allclose(np.sort(evals), [0.0] * 3 + [2870.0] * 6, atol=1e-9)

    def test_hermitian(self, spin_params):
        h = full_hamiltonian([12.0, -7.0, 55.0], spin_params)
        assert np.allclose(h, h.conj().T, rtol=1e-12, atol=1e-12)

    def test_trace_identity_independent_of_field(self, spin_params):
        expected = 6.0 * spin_params.d + 6.0 * spin_params.q
        rng = np.random.default_rng(2)
        for _ in range(10):
            h = full_hamiltonian(rng.uniform(-200, 200, 3), spin_params)
            assert np.trace(h).real == pytest.approx(expected, rel=1e-12)

    def test_axial_field_triplet_splitting_approaches_a_par(self, spin_params):
        lines = six_transition_frequencies([0.0, 0.0, 500.0], spin_params)
        minus, plus = np.sort(lines[:3]), np.sort(lines[3:])
        for group in (minus, plus):
            gaps = np.diff(group)
            assert np.allclose(gaps, abs(spin_params.a_par), atol=0.05)

    def test_six_lines_cluster_at_d_at_zero_field(self, spin_params):
        lines = six_transition_frequencies([0.0, 0.0, 0.0], spin_params)
        assert np.all(np.abs(lines - spin_params.d) < 3 * abs(spin_params.a_par))

    def test_cone_degeneracy_of_full_hamiltonian(self, spin_params):
        # fields with equal axial/transverse split but different lab
        # azimuth about the NV axis give identical spectra
        o = NVOrientation(0.92, 0.31)
        axis = o.unit_axis
        helper = np.array([0.0, 0.0, 1.0])
        u = np.cross(axis, helper)
        u /= np.linalg.norm(u)
        v = np.cross(axis, u)
        b_par, b_perp = 41.0, 38.0
        ref = None
        for psi in (0.0, 1.1, 2.9):
            b_lab = b_par * axis + b_perp * (math.cos(psi) * u + math.sin(psi) * v)
            lines = six_transition_frequencies(
                lab_field_in_nv_frame(b_lab, o), spin_params
            )
            if ref is None:
                ref = lines
            else:
                assert np.allclose(lines, ref, atol=1e-9)


class TestLabToNVFrame:
    def test_parallel_field(self, spin_params):
        o = NVOrientation(0.3, 1.1)
        b = 42.0 * o.unit_axis
        vec = lab_field_in_nv_frame(b, o)
        assert vec[0] == pytest.approx(0.0, abs=1e-10)
        assert vec[2] == pytest.approx(42.0, rel=1e-12)

    def test_magnitude_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            o = NVOrientation(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            b = rng.normal(size=3) * 30
            vec = lab_field_in_nv_frame(b, o)
            assert np.linalg.norm(vec) == pytest.approx(np.linalg.norm(b), rel=1e-12)


class TestSimulateSpectrum:
    def test_zero_field_dips_cluster_at_d(self, spin_params):
        spec = simulate_odmr_spectrum(
            [0.0, 0.0, 0.0], NVOrientation(0.4, 0.2), spin_params,
            sweep=SweepSettings(2850.0, 2890.0, 1001),
        )
        dip = spec.frequencies[np.argmin(spec.contrast)]
        assert abs(dip - spin_params.d) < 3 * abs(spin_params.a_par)

    def test_aligned_field_triplets_near_zeeman_pair(self, spin_params):
        o = NVOrientation(0.0, 0.0)
        spec = simulate_odmr_spectrum(
            [0.0, 0.0, 59.5], o, spin_params, linewidth_mhz=0.6, contrast_depth=0.04
        )
        lines = np.array(spec.metadata["lines_mhz"])
        g = spin_params.gamma_e
        assert np.min(np.abs(lines - (2870.0 - 59.5 * g))) < 3.0
        assert np.min(np.abs(lines - (2870.0 + 59.5 * g))) < 3.0
        spacing = np.diff(np.sort(lines[:3]))
        assert np.allclose(spacing, abs(spin_params.a_par), atol=0.05)

    def test_contrast_lower_bound(self, spin_params):
        spec = simulate_odmr_spectrum(
            [5.0, 2.0, 50.0], NVOrientation(0.7, 0.1), spin_params,
            contrast_depth=0.08,
        )
        assert np.all(spec.contrast >= 1.0 - 6 * 0.08 - 1e-12)
        assert np.all(spec.contrast <= 1.0 + 1e-12)

    def test_invalid_parameters_rejected(self, spin_params):
        with pytest.raises(ValueError):
            simulate_odmr_spectrum([0, 0, 50], NVOrientation(0, 0), spin_params,
                                   linewidth_mhz=0.0)
        with pytest.raises(ValueError):
            simulate_odmr_spectrum([0, 0, 50], NVOrientation(0, 0), spin_params,
                                   contrast_depth=1.5)

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            Spectrum(frequencies=np.array([1.0, 1.0, 2.0]),
                     contrast=np.ones(3))
        with pytest.raises(ValueError):
            Spectrum(frequencies=np.array([1.0, 2.0]), contrast=np.ones(3))


def criterion7_spectrum(spin_params):
    """Noiseless spectrum of the acceptance suite's criterion 7: 59.5 G
    at a generic tilt to the NV axis."""
    nv = NVOrientation.from_degrees(109.84, 20.60)
    bdir = NVOrientation.from_degrees(8.59, 182.56)
    return simulate_odmr_spectrum(
        59.5 * bdir.unit_axis, nv, spin_params, linewidth_mhz=0.8,
        contrast_depth=0.03,
    )


class TestFitSpectrum:
    def test_recovers_model_class_centers_exactly(self):
        f = np.linspace(2780.0, 2980.0, 2001)
        c1, c2, s, w = 2804.0626, 2958.7342, 2.14, 0.8
        y = np.ones_like(f)
        for c in (c1 - s, c1, c1 + s, c2 - s, c2, c2 + s):
            y -= 0.03 * _lorentz(f, c, w)
        pair = fit_odmr_spectrum(Spectrum(f, y))
        assert pair.omega1 == pytest.approx(c1, abs=1e-3)
        assert pair.omega2 == pytest.approx(c2, abs=1e-3)

    def test_full_physics_round_trip_noiseless(self, spin_params):
        spec = criterion7_spectrum(spin_params)
        model = fit_odmr_model(spec)
        lines = sorted(spec.metadata["lines_mhz"])
        true_mid = (lines[1], lines[4])
        # the equal-spacing triplet model carries a small representation
        # bias against the full Hamiltonian's unequal spacings
        assert model.pair.omega1 == pytest.approx(true_mid[0], abs=0.02)
        assert model.pair.omega2 == pytest.approx(true_mid[1], abs=0.02)
        assert model.linewidth_mhz == pytest.approx(0.8, abs=0.02)

    def test_noisy_centers_within_tolerance_over_20_seeds(self, spin_params):
        spec = criterion7_spectrum(spin_params)
        ref = fit_odmr_model(spec).pair
        for seed in range(20):
            pair = fit_odmr_spectrum(add_contrast_noise(spec, 0.002, seed))
            assert abs(pair.omega1 - ref.omega1) < 0.05
            assert abs(pair.omega2 - ref.omega2) < 0.05
            assert pair.sigma1 is not None and pair.sigma1 > 0.0

    def test_sigma_matches_scatter_over_40_seeds(self, spin_params):
        # criterion 7 bounds each error by 3 sigma, which an inflated
        # sigma passes; the scatter of the centres must match sigma itself
        spec = criterion7_spectrum(spin_params)
        pairs = [fit_odmr_spectrum(add_contrast_noise(spec, 0.002, seed))
                 for seed in range(40)]
        for omega, sigma in (("omega1", "sigma1"), ("omega2", "sigma2")):
            scatter = np.std([getattr(p, omega) for p in pairs], ddof=1)
            ratio = scatter / np.mean([getattr(p, sigma) for p in pairs])
            assert 0.7 <= ratio <= 1.4, (omega, ratio)

    @pytest.mark.parametrize("point", [
        (2804.06, 2958.73, 2.14, 2.14, 0.8, 0.03, 0.03, 0.03, 0.03, 0.03, 0.03),
        (2850.3, 2890.1, 1.7, 2.6, 1.3, 0.01, 0.05, 0.02, 0.04, 0.03, 0.06),
        (2805.0, 2950.0, -2.2, 2.0, -0.6, 0.03, -0.01, 0.02, 0.03, 0.0, 0.025),
    ])
    def test_triplet_jacobian_matches_central_differences(self, point):
        f = np.linspace(2780.0, 2980.0, 2001)
        p = np.array(point)
        _, jac = _triplet_model(f, p)
        h = 1e-5
        for i in range(p.size):
            e = np.zeros_like(p)
            e[i] = h
            fd = (_triplet_model(f, p + e)[0] - _triplet_model(f, p - e)[0]) / (2 * h)
            assert np.linalg.norm(jac[:, i] - fd) <= 1e-6 * np.linalg.norm(jac[:, i])

    def test_exhausted_budget_raises(self, spin_params, monkeypatch):
        spec = criterion7_spectrum(spin_params)
        monkeypatch.setattr(least_squares, "MAX_ITERATIONS", 1)
        with pytest.raises(FitFailed, match="did not converge"):
            fit_odmr_model(spec)

    def test_flat_spectrum_fails(self):
        f = np.linspace(2780.0, 2980.0, 500)
        with pytest.raises(FitFailed):
            fit_odmr_spectrum(Spectrum(f, np.ones_like(f)))

    def test_zero_field_triplet_overlap(self, spin_params):
        spec = simulate_odmr_spectrum(
            [0.0, 0.0, 0.0], NVOrientation(0.4, 0.1), spin_params,
            sweep=SweepSettings(2850.0, 2890.0, 2001),
        )
        with pytest.raises(TripletsOverlap):
            fit_odmr_spectrum(spec)

    def test_small_field_triplets_not_separable(self, spin_params):
        o = NVOrientation(0.3, 0.2)
        spec = simulate_odmr_spectrum(
            0.5 * o.unit_axis, o, spin_params, linewidth_mhz=1.0,
            contrast_depth=0.05, sweep=SweepSettings(2850.0, 2890.0, 2001),
        )
        with pytest.raises((TripletsOverlap, FitFailed)):
            fit_odmr_spectrum(spec)

    def test_noise_helper_is_deterministic(self, spin_params):
        spec = simulate_odmr_spectrum(
            [0.0, 0.0, 59.5], NVOrientation(0.0, 0.0), spin_params
        )
        a = add_contrast_noise(spec, 0.002, 5)
        b = add_contrast_noise(spec, 0.002, 5)
        assert np.array_equal(a.contrast, b.contrast)
