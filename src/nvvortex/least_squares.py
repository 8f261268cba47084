"""The one least-squares solver of both fits, and its Levenberg-Marquardt
minimizer.

``variable_projection`` solves a separable problem, a model A(x) c that
is linear in the coefficients c: c = A^+ d at every x, and
``levenberg_marquardt`` runs on x alone with Kaufman's Jacobian (Golub &
Pereyra 1973; Kaufman 1975; O'Leary & Rust 2013, Comput. Optim. Appl.
54, 579). Its damping is Marquardt's (scaled by the diagonal of J^T J,
so the step does not depend on the units of each parameter) and is
updated by Nielsen's gain-ratio rule (Madsen, Nielsen & Tingleff 2004,
"Methods for non-linear least squares problems", section 3.2). A step
is accepted only when it lowers the cost, so the returned point is
never worse than the start. The budget and the tolerance are constants,
identical for every caller. The minimizer hands back the evaluation it
accepted, so a fit holds at most two evaluations, however many it makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ObjectiveNotFinite, RankDeficient

__all__ = [
    "LeastSquaresResult",
    "SeparableResult",
    "levenberg_marquardt",
    "variable_projection",
]

#: trial steps allowed before the run is reported unconverged
MAX_ITERATIONS = 100
#: converged once the proposed step is below this, relative to |x|
X_TOLERANCE = 1e-10
#: initial damping, relative to the diagonal of J^T J
INITIAL_DAMPING = 1e-3
_EPS = float(np.finfo(float).eps)


@dataclass
class LeastSquaresResult:
    x: np.ndarray
    iterations: int  # trial steps taken, accepted or not
    converged: bool  # False means the iteration budget ran out
    evaluation: tuple = field(default=(), kw_only=True, repr=False)


def _evaluate(fun, x: np.ndarray) -> tuple[tuple, float]:
    value = fun(x)
    r, jac = value[:2]
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(jac))):
        raise ObjectiveNotFinite(f"residual or Jacobian is not finite at x = {x!r}")
    return value, float(r @ r)


def levenberg_marquardt(fun, x0) -> LeastSquaresResult:
    """Minimize ||r(x)||^2 from ``x0``; ``fun(x)`` returns r, then dr/dx,
    then anything else, and its value at the returned x is ``evaluation``.

    Converged when the proposed step is shorter than X_TOLERANCE *
    (|x| + X_TOLERANCE); a step that no damping can make useful ends
    there too, because the damping grows until the step is that short.
    After MAX_ITERATIONS trial steps the last accepted point is
    returned with converged=False. Raises ObjectiveNotFinite when the
    residual or the Jacobian holds NaN or infinity.
    """
    x = np.array(x0, dtype=float).ravel()
    value, cost = _evaluate(fun, x)
    mu, nu = INITIAL_DAMPING, 2.0
    for iteration in range(MAX_ITERATIONS):
        r, jac = value[:2]
        a = jac.T @ jac
        g = jac.T @ r
        scale = a.diagonal().copy()
        scale[scale == 0.0] = 1.0  # a zero column is damped like a unit one
        damped = a.copy()
        damped.flat[:: x.size + 1] += mu * scale
        step = np.linalg.solve(damped, -g)
        if math.sqrt(step @ step) <= X_TOLERANCE * (math.sqrt(x @ x) + X_TOLERANCE):
            return LeastSquaresResult(x, iteration, True, evaluation=value)
        trial = x + step
        new, cost_new = _evaluate(fun, trial)
        reduction = cost - cost_new
        if reduction > 0.0:
            # gain ratio of the actual to the predicted reduction; the
            # damping shrinks by 1/3 at a ratio of 1 or more
            predicted = float(step @ (mu * scale * step - g))
            rho = reduction / predicted if reduction < predicted else 1.0
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
            x, value, cost = trial, new, cost_new
        else:
            mu *= nu
            nu *= 2.0
        del new  # a rejected trial's evaluation goes before the next is made
    return LeastSquaresResult(x, MAX_ITERATIONS, False, evaluation=value)


@dataclass
class SeparableResult(LeastSquaresResult):
    c: np.ndarray  # the linear coefficients A(x)^+ d
    residual: np.ndarray  # the leftover d - A(x) c
    covariance: np.ndarray | None  # of (x, c); None when unconverged


def _gram_inverse(a: np.ndarray, what: str) -> np.ndarray:
    """(A^T A)^-1 of the tall matrix ``a``. Raises RankDeficient, naming
    ``what``, when A^T A is singular to working precision: the product of
    its largest entry and its inverse's, within k^2 of its condition
    number, reaches 1 / eps. A NaN passes, for the finiteness check."""
    gram = a.T @ a
    try:
        inverse = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        inverse = np.full_like(gram, np.inf)
    if gram.diagonal().max() * np.abs(inverse.diagonal()).max() * _EPS >= 1.0:
        raise RankDeficient(f"{what} ({a.shape[0]} x {a.shape[1]}) is rank-deficient")
    return inverse


def _project(model, data: np.ndarray, x: np.ndarray) -> tuple:
    """At ``x``: the leftover r = d - A c with c = A^+ d, Kaufman's
    Jacobian of r, -(I - A A^+) d(A c)/dx, which leaves out only a part
    in the span of A and so keeps J^T r exact, then c, A and d(A c)/dx.
    One inverse of A^T A serves c and the projection."""
    basis, slopes = model(x)
    inverse = _gram_inverse(basis, "the basis")
    coef = inverse @ (basis.T @ data)
    dmodel = slopes(coef)
    jac = basis @ (inverse @ (basis.T @ dmodel)) - dmodel
    return data - basis @ coef, jac, coef, basis, dmodel


def variable_projection(model, data, x0) -> SeparableResult:
    """Minimize ||d - A(x) c||^2 over x and c from ``x0``, where
    ``model(x)`` returns the (n, k) basis A(x) and a function that gives
    the (n, m) derivative d(A c)/dx for coefficients c.

    Levenberg-Marquardt solves an m x m system per step whatever k is.
    The result is read from the solve at the returned x; a converged one
    carries the covariance s^2 (J^T J)^-1 of (x, c) from the full
    Jacobian J = [d(A c)/dx | A], s^2 = SSE / (n - m - k). Raises
    RankDeficient when A, or the full Jacobian at the solution, is, and
    ObjectiveNotFinite as ``levenberg_marquardt`` does."""
    data = np.asarray(data, dtype=float)
    result = levenberg_marquardt(lambda x: _project(model, data, x), x0)
    resid, _, coef, basis, dmodel = result.evaluation
    covariance = None
    if result.converged:
        full = np.hstack((dmodel, basis))
        dof = max(full.shape[0] - full.shape[1], 1)
        scale = float(resid @ resid) / dof
        covariance = scale * _gram_inverse(full, "the full Jacobian")
    return SeparableResult(
        result.x, result.iterations, result.converged, coef, resid, covariance
    )
