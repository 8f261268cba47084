import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_ORIENTATIONS_DEG, levenberg_marquardt_reference
from nvvortex import least_squares, orient_fit, spin
from nvvortex.errors import ObjectiveNotFinite, RankDeficient
from nvvortex.least_squares import (
    LeastSquaresResult,
    levenberg_marquardt,
    variable_projection,
)
from nvvortex.pattern import NVOrientation, simulate_pattern


def rosenbrock(x):
    """Residual (10 (x1 - x0^2), 1 - x0) and its Jacobian."""
    r = np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
    return r, np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


class TestLevenbergMarquardt:
    def test_linear_residual_solved_exactly(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(30, 4)), rng.normal(size=30)
        result = levenberg_marquardt(lambda x: (a @ x - b, a), np.zeros(4))
        assert result.converged
        expected = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.abs(result.x - expected).max() < 1e-12

    def test_rosenbrock(self):
        result = levenberg_marquardt(rosenbrock, [-1.2, 1.0])
        assert result.converged
        assert np.abs(result.x - 1.0).max() < 1e-8

    def test_budget_exhaustion_is_flagged_not_raised(self, monkeypatch):
        monkeypatch.setattr(least_squares, "MAX_ITERATIONS", 1)
        result = levenberg_marquardt(rosenbrock, [-1.2, 1.0])
        assert isinstance(result, LeastSquaresResult)
        assert not result.converged
        assert result.iterations == 1

    def test_nan_residual_raises(self):
        with pytest.raises(ObjectiveNotFinite):
            levenberg_marquardt(
                lambda x: (np.full(2, np.nan), np.eye(2)), np.zeros(2)
            )

    def test_inf_residual_raises_mid_run(self):
        def capped(x):
            r = np.array([np.inf if x[0] > 1.0 else x[0] - 3.0])
            return r, np.ones((1, 1))

        with pytest.raises(ObjectiveNotFinite):
            levenberg_marquardt(capped, [0.0])

    def test_deterministic(self):
        a = levenberg_marquardt(rosenbrock, [-1.2, 1.0])
        b = levenberg_marquardt(rosenbrock, [-1.2, 1.0])
        assert a.x.tobytes() == b.x.tobytes() and a.iterations == b.iterations

    @given(
        st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4),
        st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
    )
    @settings(max_examples=40)
    def test_never_worse_than_start(self, start, target):
        start = np.asarray(start)
        center = np.asarray(target[: start.size])

        def cubic(x):
            return x + x**3 / 3.0 - center, np.diag(1.0 + x**2)

        result = levenberg_marquardt(cubic, start)
        r0, r1 = cubic(start)[0], cubic(result.x)[0]
        assert result.converged
        assert r1 @ r1 <= r0 @ r0

    def test_hands_back_the_accepted_evaluation_and_no_other(self):
        # what fun returns after r and J comes back untouched for the
        # returned x; while fun runs, the accepted evaluation is the only
        # other one alive, after a rejected trial too (accepted costs fall,
        # so a trial that does not beat the lowest cost so far is rejected)
        alive, most, costs = set(), [0], []

        class Token:
            pass

        def fun(x):
            most[0] = max(most[0], len(alive))
            token = Token()
            alive.add(id(token))
            weakref.finalize(token, alive.discard, id(token))
            r, jac = rosenbrock(x)
            costs.append(r @ r)
            return r, jac, token, x.copy()

        result = levenberg_marquardt(fun, [-1.2, 1.0])
        assert any(c >= min(costs[:i]) for i, c in enumerate(costs) if i)
        assert most[0] == 1
        assert result.evaluation[3].tobytes() == result.x.tobytes()

    def test_zero_jacobian_column_is_left_alone(self):
        def flat_in_x1(x):
            return np.array([x[0] - 2.0, 0.0]), np.array([[1.0, 0.0], [0.0, 0.0]])

        result = levenberg_marquardt(flat_in_x1, [0.0, 5.0])
        assert result.converged
        assert result.x[0] == pytest.approx(2.0, abs=1e-9)
        assert result.x[1] == 5.0


def exponentials(t):
    """The separable model c0 + c1 exp(-x0 t) + c2 exp(-x1 t): its basis
    and the slopes d(A c)/dx."""

    def model(x):
        decays = np.exp(-np.outer(t, x))
        basis = np.column_stack((np.ones_like(t), decays))
        return basis, lambda c: -t[:, None] * decays * c[1:]

    return model


class TestVariableProjection:
    def test_closed_form_optimum_and_covariance(self):
        # c (cos x, sin x, 0) against d = (3, 4, 2): the optimum is x =
        # atan2(4, 3), c = 5 with leftover (0, 0, 2), and J = [c (-sin x,
        # cos x, 0) | (cos x, sin x, 0)] gives J^T J = diag(25, 1) and
        # s^2 = 4 / (3 - 2)
        def model(x):
            cos, sin = math.cos(x[0]), math.sin(x[0])
            return np.array([[cos], [sin], [0.0]]), lambda c: c[0] * np.array(
                [[-sin], [cos], [0.0]]
            )

        result = variable_projection(model, [3.0, 4.0, 2.0], [0.3])
        assert result.converged
        assert result.x[0] == pytest.approx(math.atan2(4.0, 3.0), abs=1e-9)
        assert result.c[0] == pytest.approx(5.0, abs=1e-9)
        assert np.allclose(result.residual, [0.0, 0.0, 2.0], rtol=0.0, atol=1e-9)
        assert np.allclose(result.covariance, np.diag([4.0 / 25.0, 4.0]), rtol=1e-10)

    def test_exact_data_are_recovered(self):
        model = exponentials(np.linspace(0.0, 5.0, 40))
        data = model(np.array([0.4, 2.5]))[0] @ np.array([1.0, 2.0, -1.5])
        result = variable_projection(model, data, [0.2, 1.0])
        assert result.converged
        assert np.allclose(result.x, [0.4, 2.5], rtol=0.0, atol=1e-9)
        assert np.allclose(result.c, [1.0, 2.0, -1.5], rtol=0.0, atol=1e-9)
        assert np.abs(result.residual).max() < 1e-12

    def test_covariance_matches_finite_difference_jacobian(self):
        t = np.linspace(0.0, 5.0, 60)
        model = exponentials(t)
        noise = 0.01 * np.random.default_rng(5).standard_normal(t.size)
        data = model(np.array([0.4, 2.5]))[0] @ np.array([1.0, 2.0, -1.5]) + noise
        result = variable_projection(model, data, [0.3, 2.0])
        assert result.converged
        p = np.concatenate((result.x, result.c))

        def full_model(p):
            return model(p[:2])[0] @ p[2:]

        h = 1e-6
        jac = np.column_stack([
            (full_model(p + h * e) - full_model(p - h * e)) / (2.0 * h)
            for e in np.eye(p.size)
        ])
        assert np.allclose(result.residual, data - full_model(p), rtol=0.0, atol=1e-12)
        sse = float(result.residual @ result.residual)
        want = sse / (t.size - p.size) * np.linalg.inv(jac.T @ jac)
        assert np.allclose(result.covariance, want, rtol=1e-5, atol=0.0)

    def test_rank_deficient_basis_raises(self):
        t = np.linspace(0.0, 5.0, 40)

        def repeated(x):
            decay = np.exp(-x[0] * t)
            basis = np.column_stack((decay, decay))
            return basis, lambda c: -(t * decay * c.sum())[:, None]

        with pytest.raises(RankDeficient, match=r"the basis \(40 x 2\)"):
            variable_projection(repeated, t, [1.0])

    def test_rank_deficient_full_jacobian_raises(self):
        # c0 + c1 (t - x) is linear in disguise: x trades against c0, so
        # the search stops at once and the covariance is undefined
        t = np.linspace(0.0, 5.0, 40)

        def shifted(x):
            basis = np.column_stack((np.ones_like(t), t - x[0]))
            return basis, lambda c: np.full((t.size, 1), -c[1])

        with pytest.raises(RankDeficient, match=r"the full Jacobian \(40 x 3\)"):
            variable_projection(shifted, 2.0 + 3.0 * t, [1.0])

    def test_unconverged_run_has_no_covariance(self, monkeypatch):
        monkeypatch.setattr(least_squares, "MAX_ITERATIONS", 1)
        model = exponentials(np.linspace(0.0, 5.0, 40))
        data = model(np.array([0.4, 2.5]))[0] @ np.array([1.0, 2.0, -1.5])
        result = variable_projection(model, data, [0.2, 1.0])
        assert not result.converged and result.covariance is None
        assert result.iterations == 1

    def test_nan_basis_raises_objective_not_finite(self):
        def nan_basis(x):
            return np.full((5, 2), np.nan), lambda c: np.zeros((5, 1))

        with pytest.raises(ObjectiveNotFinite):
            variable_projection(nan_basis, np.ones(5), [0.0])


def assert_bitwise_equal(a: LeastSquaresResult, b: LeastSquaresResult) -> None:
    assert a.x.tobytes() == b.x.tobytes()
    assert (a.iterations, a.converged) == (b.iterations, b.converged)


def checked(fun, x0) -> LeastSquaresResult:
    """``levenberg_marquardt``, asserted bit for bit against the loop
    that formed a + mu diag(scale) and took ``np.linalg.norm``."""
    result = levenberg_marquardt(fun, x0)
    assert_bitwise_equal(result, levenberg_marquardt_reference(fun, x0))
    return result


class TestMatchesReferenceLoop:
    def test_test_problems(self, monkeypatch):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(30, 4)), rng.normal(size=30)
        checked(lambda x: (a @ x - b, a), np.zeros(4))
        checked(rosenbrock, [-1.2, 1.0])
        checked(lambda x: (x + x**3 / 3.0 - 1.5, np.diag(1.0 + x**2)),
                [4.0, -3.0, 0.5])
        checked(lambda x: (np.array([x[0] - 2.0, 0.0]),
                           np.array([[1.0, 0.0], [0.0, 0.0]])), [0.0, 5.0])
        monkeypatch.setattr(least_squares, "MAX_ITERATIONS", 3)
        assert not checked(rosenbrock, [-1.2, 1.0]).converged

    def test_odmr_fits(self, spin_params, monkeypatch):
        monkeypatch.setattr(least_squares, "levenberg_marquardt", checked)
        bdir = NVOrientation.from_degrees(8.59, 182.56)
        for theta, phi in REFERENCE_ORIENTATIONS_DEG[1:]:
            clean = spin.simulate_odmr_spectrum(
                59.5 * bdir.unit_axis, NVOrientation.from_degrees(theta, phi),
                spin_params,
            )
            for seed in (0, 1):
                spin.fit_odmr_model(spin.add_contrast_noise(clean, 0.002, seed))

    def test_orientation_fits(self, grid31, optics, monkeypatch):
        monkeypatch.setattr(least_squares, "levenberg_marquardt", checked)
        for seed, (theta, phi) in enumerate(REFERENCE_ORIENTATIONS_DEG):
            image = simulate_pattern(
                NVOrientation.from_degrees(theta, phi), grid31, optics,
                amplitude=1e4, background=100.0, noise_seed=seed,
            )
            orient_fit.fit_orientation(image, optics)
