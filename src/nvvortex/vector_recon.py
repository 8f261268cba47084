"""Magnetic-field vector from cone constraints of several NV centers.

Each NV contributes a cone: the field direction b_hat satisfies
n_i . b_hat = cos(alpha_i) for its axis n_i and fitted cone angle
alpha_i. With three or more independent axes the cones intersect (up to
noise) in a single direction. Because a single NV cannot distinguish
alpha from pi - alpha, all sign assignments of the cosines are
searched; and because ODMR cannot distinguish B from -B, every solution
is reported together with its antipode.

For each branch combination the direction is the exact global
minimiser of sum (n_i . b_hat - cos alpha_i)^2 over unit vectors b_hat:
a least-squares problem with a quadratic constraint, solved through its
secular equation for the Lagrange multiplier (Gander 1981, "Least
squares with a quadratic constraint", Numer. Math. 36), with no
iteration budget or tolerance to tune. Only combinations keeping the
first constraint unflipped are solved; the complementary half are their
exact antipodes by construction, which keeps the antipodal bookkeeping
consistent to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateAxes, NoIntersection, NoSolution
from .pattern import NVOrientation

__all__ = [
    "ConeConstraint",
    "VectorFieldResult",
    "TriangleDiagnostic",
    "solve_direction",
    "aggregate_magnitude",
    "triangle_diagnostic",
]

#: branch search is capped at 2^6 combinations; extra constraints keep
#: their cone angle as given
BRANCH_SEARCH_CAP = 6

DEFAULT_CONDITION_BOUND = 1e6
DEFAULT_RESIDUAL_GATE = 1e-2


@dataclass(frozen=True)
class ConeConstraint:
    """One NV's contribution: axis, cone angle (rad), magnitude (G)."""

    axis: NVOrientation
    alpha: float
    b: float
    alpha_sigma: float = 0.0
    b_sigma: float = 0.0
    label: str = ""

    def __post_init__(self):
        if not (0.0 <= self.alpha <= math.pi):
            raise ValueError(f"alpha must lie in [0, pi], got {self.alpha}")
        if self.b < 0.0:
            raise ValueError(f"field magnitude must be >= 0, got {self.b}")
        if self.alpha_sigma < 0.0 or self.b_sigma < 0.0:
            raise ValueError("sigmas must be >= 0")


@dataclass
class VectorFieldResult:
    theta_b: float  # rad
    phi_b: float  # rad, in [0, 2 pi)
    mirror: tuple[float, float]  # antipodal solution (pi - theta, phi + pi)
    b_mean: float
    b_std: float
    residual: float  # sum of squared cosine misfits at the optimum
    branch_flipped: tuple[bool, ...]  # True where pi - alpha was selected
    direction: np.ndarray | None = field(repr=False, default=None)
    triangle_vertices: list[np.ndarray] | None = None
    triangle_spread: float | None = None  # rad, max pairwise vertex distance
    direction_sigma: float | None = None  # rad, bootstrap angular scatter


@dataclass
class TriangleDiagnostic:
    """Pairwise cone-intersection vertices for exactly three cones."""

    vertices: list[np.ndarray | None]
    pairs: list[tuple[int, int]]
    spread: float | None  # rad; None when fewer than 2 vertices exist
    errors: list[str]


def _unit_sphere_lstsq(
    axes: np.ndarray, cosines: np.ndarray
) -> tuple[np.ndarray, float]:
    """Global minimiser of |axes @ b - cosines|^2 over unit vectors b,
    and its residual (Gander 1981).

    With axes^T axes = V diag(e) V^T, e ascending, and g = V^T axes^T
    cosines, the minimiser is b = V y with y_i = g_i / (e_i - lam), where
    lam <= e_0 is the root of sum y_i^2 = 1. The root is bisected in the
    shift u = e_0 - lam over [0, |g|] until the bracket collapses; in u,
    y_0 = g_0 / u stays exact to rounding even when the root lies
    within rounding of e_0. A bracket collapsed onto u = 0 is the hard
    case (g_0 = 0): the e_0 component is then whatever the unit norm
    leaves of the others.
    """
    gram, rhs = axes.T @ axes, axes.T @ cosines
    e, vecs = np.linalg.eigh(gram)
    g = vecs.T @ rhs
    gap = e - e[0]
    lo, hi = 0.0, float(np.linalg.norm(g)) or 1.0  # any u > 0 brackets g = 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if np.sum(np.square(g / (gap + mid))) > 1.0:
            lo = mid
        else:
            hi = mid
    if lo > 0.0 and hi > gap[-1]:
        # the shifted Gram matrix is conditioned better than 2 here, and
        # solving in the original basis reproduces exactly consistent
        # cosines to the bit, so branches that fit equally well tie exactly
        b = np.linalg.solve(gram - (e[0] - hi) * np.eye(3), rhs)
    else:
        y = g / (gap + hi)
        if lo == 0.0:  # hard case: the root is e_0 itself
            y[0] = math.copysign(math.sqrt(max(0.0, 1.0 - y[1:] @ y[1:])), g[0])
        b = vecs @ y
    b /= np.linalg.norm(b)
    misfit = axes @ b - cosines
    return b, float(misfit @ misfit)


def solve_direction(
    constraints: list[ConeConstraint],
    condition_bound: float = DEFAULT_CONDITION_BOUND,
    residual_gate: float = DEFAULT_RESIDUAL_GATE,
    bootstrap_samples: int = 200,
    seed: int = 0,
) -> VectorFieldResult:
    """Best-fit field direction over all cone-angle branch assignments.

    Returns the minimal-residual assignment (ties broken toward the
    lexicographically first branch tuple) together with its antipodal
    mirror. Raises DegenerateAxes when the axis matrix is conditioned
    worse than ``condition_bound`` and NoSolution when even the best
    branch leaves a residual above ``residual_gate``.
    """
    n = len(constraints)
    if n < 3:
        raise ValueError(f"need at least 3 cone constraints, got {n}")
    axes = np.stack([c.axis.unit_axis for c in constraints])
    if np.linalg.cond(axes) > condition_bound:
        raise DegenerateAxes(
            f"axis matrix condition number {np.linalg.cond(axes):.3g} exceeds "
            f"{condition_bound:.3g}; axes are too close to degenerate"
        )
    base_cos = np.cos([c.alpha for c in constraints])

    n_search = min(n, BRANCH_SEARCH_CAP)
    candidates: list[tuple[tuple[bool, ...], np.ndarray, float]] = []
    for bits in range(0, 1 << n_search, 2):  # bit 0 fixed: first cone as given
        flips = np.array(
            [bool((bits >> i) & 1) for i in range(n_search)]
            + [False] * (n - n_search)
        )
        cosines = np.where(flips, -base_cos, base_cos)
        direction, residual = _unit_sphere_lstsq(axes, cosines)
        candidates.append((tuple(bool(x) for x in flips), direction, residual))
        # the complementary assignment is exactly the antipode
        candidates.append((tuple(not bool(x) for x in flips), -direction, residual))

    candidates.sort(key=lambda c: (c[2], c[0]))
    flips, direction, residual = candidates[0]
    if residual > residual_gate:
        raise NoSolution(
            f"best branch residual {residual:.3g} exceeds gate {residual_gate:.3g}"
        )

    orientation = NVOrientation.from_vector(direction)
    theta_b, phi_b = orientation.theta, orientation.phi
    b_mean, b_std = aggregate_magnitude(constraints)
    result = VectorFieldResult(
        theta_b=theta_b,
        phi_b=phi_b,
        mirror=(math.pi - theta_b, (phi_b + math.pi) % (2.0 * math.pi)),
        b_mean=b_mean,
        b_std=b_std,
        residual=residual,
        branch_flipped=flips,
        direction=direction,
    )

    if n == 3:
        cosines = np.where(np.array(flips), -base_cos, base_cos)
        verts, _, spread, _ = _triangle_vertices(axes, cosines, direction)
        result.triangle_vertices = [v for v in verts if v is not None]
        result.triangle_spread = spread

    if bootstrap_samples > 0 and any(c.alpha_sigma > 0.0 for c in constraints):
        result.direction_sigma = _bootstrap_direction_sigma(
            axes, base_cos, [c.alpha for c in constraints],
            [c.alpha_sigma for c in constraints], flips, direction,
            bootstrap_samples, seed,
        )
    return result


def _bootstrap_direction_sigma(
    axes, base_cos, alphas, sigmas, flips, direction, samples: int, seed: int
) -> float:
    """Parametric bootstrap over the cone angles, branch held fixed;
    returns the RMS great-circle deviation from the point solution."""
    rng = np.random.default_rng(seed)
    flips_arr = np.array(flips)
    devs = []
    for _ in range(samples):
        drawn = np.array(
            [rng.normal(a, s) if s > 0.0 else a for a, s in zip(alphas, sigmas)]
        )
        cosines = np.where(flips_arr, -np.cos(drawn), np.cos(drawn))
        v, _ = _unit_sphere_lstsq(axes, cosines)
        devs.append(math.acos(min(1.0, max(-1.0, float(v @ direction)))))
    return float(np.sqrt(np.mean(np.square(devs))))


def aggregate_magnitude(constraints: list[ConeConstraint]) -> tuple[float, float]:
    """(mean, sample std) of the per-NV magnitudes: inverse-variance
    weighted when every constraint carries a sigma, arithmetic
    otherwise. std is 0 for a single value."""
    if not constraints:
        raise ValueError("need at least one constraint")
    values = np.array([c.b for c in constraints])
    sigmas = np.array([c.b_sigma for c in constraints])
    if np.all(sigmas > 0.0):
        weights = 1.0 / sigmas**2
        mean = float((weights * values).sum() / weights.sum())
    else:
        mean = float(values.mean())
    std = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return mean, std


def _two_cone_points(
    n1: np.ndarray, c1: float, n2: np.ndarray, c2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors on both cones: u.n1 = c1, u.n2 = c2, |u| = 1.

    Closed form via u = a n1 + b n2 + t (n1 x n2). Raises
    NoIntersection when the circles on the sphere do not meet."""
    d = float(n1 @ n2)
    det = 1.0 - d * d
    if det < 1e-12:
        raise NoIntersection("cone axes are (anti)parallel")
    a = (c1 - c2 * d) / det
    b = (c2 - c1 * d) / det
    w = np.cross(n1, n2)
    t2 = (1.0 - a * a - b * b - 2.0 * a * b * d) / float(w @ w)
    if t2 < 0.0:
        if t2 > -1e-12:  # grazing contact within roundoff
            t2 = 0.0
        else:
            raise NoIntersection(
                f"cones at cos = {c1:.4f}, {c2:.4f} do not meet on the sphere"
            )
    t = math.sqrt(t2)
    base = a * n1 + b * n2
    return base + t * w, base - t * w


def _triangle_vertices(axes: np.ndarray, cosines: np.ndarray, reference: np.ndarray):
    pairs = [(0, 1), (0, 2), (1, 2)]
    verts: list[np.ndarray | None] = []
    errors: list[str] = []
    for i, j in pairs:
        try:
            p, q = _two_cone_points(axes[i], cosines[i], axes[j], cosines[j])
        except NoIntersection as exc:
            verts.append(None)
            errors.append(f"pair ({i}, {j}): {exc}")
            continue
        verts.append(p if p @ reference >= q @ reference else q)
    good = [v for v in verts if v is not None]
    spread = None
    if len(good) >= 2:
        spread = 0.0
        for a in range(len(good)):
            for b in range(a + 1, len(good)):
                # chord-based great-circle distance stays exact for
                # nearly coincident vertices where acos saturates
                half_chord = 0.5 * float(np.linalg.norm(good[a] - good[b]))
                spread = max(spread, 2.0 * math.asin(min(1.0, half_chord)))
    return verts, pairs, spread, errors


def triangle_diagnostic(constraints: list[ConeConstraint]) -> TriangleDiagnostic:
    """Pairwise cone intersections for exactly three constraints, using
    the branch assignment and reference direction of the least-squares
    solution. The maximum pairwise great-circle distance between
    vertices is a consistency metric: exact constraints collapse the
    triangle to a point."""
    if len(constraints) != 3:
        raise ValueError("triangle diagnostic requires exactly 3 constraints")
    solution = solve_direction(constraints, bootstrap_samples=0)
    axes = np.stack([c.axis.unit_axis for c in constraints])
    cosines = np.where(
        np.array(solution.branch_flipped),
        -np.cos([c.alpha for c in constraints]),
        np.cos([c.alpha for c in constraints]),
    )
    verts, pairs, spread, errors = _triangle_vertices(
        axes, cosines, solution.direction
    )
    return TriangleDiagnostic(vertices=verts, pairs=pairs, spread=spread, errors=errors)
