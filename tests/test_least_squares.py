import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvvortex import least_squares
from nvvortex.errors import ObjectiveNotFinite
from nvvortex.least_squares import LeastSquaresResult, levenberg_marquardt


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

    def test_zero_jacobian_column_is_left_alone(self):
        def flat_in_x1(x):
            return np.array([x[0] - 2.0, 0.0]), np.array([[1.0, 0.0], [0.0, 0.0]])

        result = levenberg_marquardt(flat_in_x1, [0.0, 5.0])
        assert result.converged
        assert result.x[0] == pytest.approx(2.0, abs=1e-9)
        assert result.x[1] == 5.0
