"""Levenberg-Marquardt minimizer for smooth nonlinear least squares.

Minimizes ||r(x)||^2 for a residual function that also returns its
Jacobian. The damping is Marquardt's (scaled by the diagonal of J^T J,
so the step does not depend on the units of each parameter) and is
updated by Nielsen's gain-ratio rule (Madsen, Nielsen & Tingleff 2004,
"Methods for non-linear least squares problems", section 3.2). A step
is accepted only when it lowers the cost, so the returned point is
never worse than the start. The budget and the tolerance are constants,
identical for every caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ObjectiveNotFinite

__all__ = ["LeastSquaresResult", "levenberg_marquardt"]

#: trial steps allowed before the run is reported unconverged
MAX_ITERATIONS = 100
#: converged once the proposed step is below this, relative to |x|
X_TOLERANCE = 1e-10
#: initial damping, relative to the diagonal of J^T J
INITIAL_DAMPING = 1e-3


@dataclass
class LeastSquaresResult:
    x: np.ndarray
    iterations: int  # trial steps taken, accepted or not
    converged: bool  # False means the iteration budget ran out


def _evaluate(fun, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    r, jac = fun(x)
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(jac))):
        raise ObjectiveNotFinite(f"residual or Jacobian is not finite at x = {x!r}")
    return r, jac, float(r @ r)


def levenberg_marquardt(fun, x0) -> LeastSquaresResult:
    """Minimize ||r(x)||^2 from ``x0``, where ``fun(x)`` returns the
    residual vector r and its Jacobian dr/dx.

    Converged when the proposed step is shorter than X_TOLERANCE *
    (|x| + X_TOLERANCE); a step that no damping can make useful ends
    there too, because the damping grows until the step is that short.
    After MAX_ITERATIONS trial steps the last accepted point is
    returned with converged=False. Raises ObjectiveNotFinite when the
    residual or the Jacobian holds NaN or infinity.
    """
    x = np.array(x0, dtype=float).ravel()
    r, jac, cost = _evaluate(fun, x)
    mu, nu = INITIAL_DAMPING, 2.0
    for iteration in range(MAX_ITERATIONS):
        a = jac.T @ jac
        g = jac.T @ r
        scale = a.diagonal().copy()
        scale[scale == 0.0] = 1.0  # a zero column is damped like a unit one
        damped = a.copy()
        damped.flat[:: x.size + 1] += mu * scale
        step = np.linalg.solve(damped, -g)
        if math.sqrt(step @ step) <= X_TOLERANCE * (math.sqrt(x @ x) + X_TOLERANCE):
            return LeastSquaresResult(x, iteration, True)
        trial = x + step
        r_new, jac_new, cost_new = _evaluate(fun, trial)
        reduction = cost - cost_new
        if reduction > 0.0:
            # gain ratio of the actual to the predicted reduction; the
            # damping shrinks by 1/3 at a ratio of 1 or more
            predicted = float(step @ (mu * scale * step - g))
            rho = reduction / predicted if reduction < predicted else 1.0
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
            x, r, jac, cost = trial, r_new, jac_new, cost_new
        else:
            mu *= nu
            nu *= 2.0
    return LeastSquaresResult(x, MAX_ITERATIONS, False)
