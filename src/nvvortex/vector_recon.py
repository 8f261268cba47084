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
iteration budget or tolerance to tune. Flipping every cone gives the
antipode at the same residual, so only assignments that keep the first
cone as given are searched. Every assignment is one row of a single
batched solve sharing one eigendecomposition of the axes' Gram matrix.
The direction's uncertainty carries the cone-angle sigmas through the
chosen branch's minimiser to first order, with no random draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import DegenerateAxes, NoSolution
from .pattern import NVOrientation

__all__ = [
    "ConeConstraint",
    "VectorFieldResult",
    "solve_direction",
    "aggregate_magnitude",
]

#: every one of the 2^(n-1) branch assignments is a row of one batched
#: solve: 2,048 rows at this limit
MAX_CONSTRAINTS = 12

DEFAULT_CONDITION_BOUND = 1e6
DEFAULT_RESIDUAL_GATE = 1e-2


@dataclass(frozen=True)
class ConeConstraint:
    """One NV's contribution: axis, cone angle (rad), magnitude (G).

    A sigma is 0, for none, or a positive number whose inverse variance
    1/sigma^2 is finite and positive; any other sigma, too small or too
    large for its square, raises ValueError naming the field."""

    axis: NVOrientation
    alpha: float
    b: float
    alpha_sigma: float = 0.0
    b_sigma: float = 0.0
    label: str = ""

    def __post_init__(self):
        if not (0.0 <= self.alpha <= math.pi):
            raise ValueError(f"alpha must lie in [0, pi], got {self.alpha}")
        if not all(map(math.isfinite, (self.b, self.alpha_sigma, self.b_sigma))):
            raise ValueError(
                f"b, alpha_sigma and b_sigma must be finite, got {self.b}, "
                f"{self.alpha_sigma}, {self.b_sigma}"
            )
        if self.b < 0.0:
            raise ValueError(f"field magnitude must be >= 0, got {self.b}")
        if self.alpha_sigma < 0.0 or self.b_sigma < 0.0:
            raise ValueError("sigmas must be >= 0")
        for name in ("alpha_sigma", "b_sigma"):
            sigma = getattr(self, name)
            variance = sigma * sigma
            if sigma > 0.0 and not (variance > 0.0 and 0.0 < 1.0 / variance < math.inf):
                raise ValueError(
                    f"{name} must have a finite positive inverse variance "
                    f"1/{name}^2, got {name} = {sigma}"
                )


@dataclass
class VectorFieldResult:
    theta_b: float  # rad
    phi_b: float  # rad, in [0, 2 pi)
    mirror: tuple[float, float]  # antipodal solution (pi - theta, phi + pi)
    b_mean: float
    b_std: float
    residual: float  # sum of squared cosine misfits at the optimum
    branch_flipped: tuple[bool, ...]  # True where pi - alpha was selected
    direction: np.ndarray = field(repr=False)  # unit vector at (theta_b, phi_b)
    triangle_vertices: list[np.ndarray] | None = None
    triangle_spread: float | None = None  # rad, max pairwise vertex distance
    direction_sigma: float = 0.0  # rad, first-order RMS angular error


def _rows(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``matrix @ v`` for every row v of ``vectors``: a stacked matmul
    makes the BLAS call of a single product per row, so a batched solve
    agrees with one-row solves to the bit."""
    return np.matmul(matrix, vectors[..., None])[..., 0]


def _squared_norms(vectors: np.ndarray) -> np.ndarray:
    return _rows(vectors[:, None], vectors)[:, 0]


def _unit_sphere_lstsq(
    axes: np.ndarray, cosines: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Global minimisers of |axes @ b - c|^2 over unit vectors b, one per
    row c of the (K, n) block ``cosines``, as (K, 3) directions and (K,)
    residuals (Gander 1981).

    With axes^T axes = V diag(e) V^T, e ascending, and g = V^T axes^T c,
    the minimiser is b = V y with y_i = g_i / (e_i - lam), where
    lam <= e_0 is the root of sum y_i^2 = 1. One eigendecomposition
    serves every row; the root is bisected in the shift u = e_0 - lam
    over [0, |g|] on all rows at once, each row stopping when its
    bracket collapses. In u, y_0 = g_0 / u stays exact to rounding even
    when the root lies within rounding of e_0. A bracket collapsed onto
    u = 0 is the hard case (g_0 = 0): the e_0 component is then whatever
    the unit norm leaves of the others.
    """
    gram, rhs = axes.T @ axes, _rows(axes.T, cosines)
    e, vecs = np.linalg.eigh(gram)
    g = _rows(vecs.T, rhs)
    gap = e - e[0]
    lo, hi = np.zeros(len(g)), np.sqrt(_squared_norms(g))
    hi[hi == 0.0] = 1.0  # any u > 0 brackets g = 0
    while (live := np.flatnonzero((lo < (mid := 0.5 * (lo + hi))) & (mid < hi))).size:
        u = mid[live]
        above = np.sum(np.square(g[live] / (gap + u[:, None])), axis=1) > 1.0
        lo[live[above]], hi[live[~above]] = u[above], u[~above]
    y = g / (gap + hi[:, None])
    hard = lo == 0.0  # the root is e_0 itself
    rest = 1.0 - _squared_norms(y[hard, 1:])
    y[hard, 0] = np.copysign(np.sqrt(np.maximum(0.0, rest)), g[hard, 0])
    b = _rows(vecs, y)
    # where the shifted Gram matrix is conditioned better than 2, solving
    # in the original basis reproduces exactly consistent cosines to the
    # bit, so branches that fit equally well tie exactly
    plain = (lo > 0.0) & (hi > gap[-1])
    shifted = gram - (e[0] - hi[plain])[:, None, None] * np.eye(3)
    b[plain] = np.linalg.solve(shifted, rhs[plain, :, None])[..., 0]
    b /= np.sqrt(_squared_norms(b))[:, None]
    return b, _squared_norms(_rows(axes, b) - cosines)


def solve_direction(constraints: list[ConeConstraint]) -> VectorFieldResult:
    """Best-fit field direction over all cone-angle branch assignments.

    Returns the minimal-residual assignment (ties broken toward the
    lexicographically first branch tuple) together with its antipodal
    mirror. For exactly three cones the result also carries the
    pairwise cone intersections on the chosen branches, each the point
    nearer the solution, and their spread: a consistency metric, since
    exact constraints collapse the triangle to a point.
    ``direction_sigma`` is the RMS great-circle error the cone-angle
    sigmas cause to first order (the limit of a parametric bootstrap),
    0.0 when no constraint has a sigma. Raises ValueError outside 3 to
    MAX_CONSTRAINTS cones, DegenerateAxes when the axis matrix is
    conditioned worse than DEFAULT_CONDITION_BOUND and NoSolution when
    even the best branch leaves a residual above DEFAULT_RESIDUAL_GATE.
    """
    n = len(constraints)
    if not 3 <= n <= MAX_CONSTRAINTS:
        raise ValueError(f"need 3 to {MAX_CONSTRAINTS} cone constraints, got {n}")
    axes = np.stack([c.axis.unit_axis for c in constraints])
    if (cond := np.linalg.cond(axes)) > DEFAULT_CONDITION_BOUND:
        raise DegenerateAxes(
            f"axis matrix condition number {cond:.3g} exceeds "
            f"{DEFAULT_CONDITION_BOUND:.3g}; axes are too close to degenerate"
        )
    alphas = np.array([c.alpha for c in constraints])
    base_cos = np.cos(alphas)

    # row r flips cone i (i >= 1) where bit n - 1 - i of r is set: the
    # rows run in lexicographic order of their flip tuples, so argmin
    # breaks ties toward the first tuple
    codes = np.arange(1 << (n - 1))[:, None]
    flip_rows = np.zeros((len(codes), n), dtype=bool)
    flip_rows[:, 1:] = (codes >> np.arange(n - 2, -1, -1)) & 1
    cosines = np.where(flip_rows, -base_cos, base_cos)
    directions, residuals = _unit_sphere_lstsq(axes, cosines)
    best = int(np.argmin(residuals))
    direction, residual = directions[best], float(residuals[best])
    if residual > DEFAULT_RESIDUAL_GATE:
        raise NoSolution(
            f"best branch residual {residual:.3g} exceeds gate {DEFAULT_RESIDUAL_GATE:g}"
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
        branch_flipped=tuple(bool(x) for x in flip_rows[best]),
        direction=direction,
    )

    if n == 3:
        result.triangle_vertices, result.triangle_spread = _triangle_vertices(
            axes, cosines[best], direction
        )

    sigmas = np.array([c.alpha_sigma for c in constraints])
    if sigmas.any():
        # differentiating (A^T A - lam I) b = A^T c and b.b = 1 gives
        # db = K dc from the bordered matrix [[H, b], [b^T, 0]], which
        # stays regular in the hard case where H = A^T A - lam I does not
        lam = direction @ axes.T @ (axes @ direction - cosines[best])
        shifted = axes.T @ axes - lam * np.eye(3)
        bordered = np.block([[shifted, direction[:, None]], [direction, 0.0]])
        # dc_i = -+sin(alpha_i) dalpha_i; the sign drops out of the norm
        scaled = np.vstack([axes.T * (np.sin(alphas) * sigmas), np.zeros(n)])
        gain = np.linalg.solve(bordered, scaled)[:3]
        result.direction_sigma = float(np.linalg.norm(gain))
    return result


def aggregate_magnitude(constraints: list[ConeConstraint]) -> tuple[float, float]:
    """(mean, sample std) of the per-NV magnitudes: inverse-variance
    weighted when every constraint carries a sigma, arithmetic
    otherwise. std is 0 for a single value."""
    if not constraints:
        raise ValueError("need at least one constraint")
    values = np.array([c.b for c in constraints])
    sigmas = np.array([c.b_sigma for c in constraints])
    weights = 1.0 / sigmas**2 if np.all(sigmas > 0.0) else None
    mean = float(np.average(values, weights=weights))
    std = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return mean, std


def _two_cone_points(
    n1: np.ndarray, c1: float, n2: np.ndarray, c2: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """Unit vectors on both cones: u.n1 = c1, u.n2 = c2, |u| = 1.

    Closed form via u = a n1 + b n2 + t (n1 x n2). None when the axes
    are (anti)parallel or the circles on the sphere do not meet."""
    d = float(n1 @ n2)
    det = 1.0 - d * d
    if det < 1e-12:
        return None
    a = (c1 - c2 * d) / det
    b = (c2 - c1 * d) / det
    w = np.cross(n1, n2)
    t2 = (1.0 - a * a - b * b - 2.0 * a * b * d) / float(w @ w)
    if t2 < 0.0:
        if t2 <= -1e-12:
            return None
        t2 = 0.0  # grazing contact within roundoff
    t = math.sqrt(t2)
    base = a * n1 + b * n2
    return base + t * w, base - t * w


def _triangle_vertices(
    axes: np.ndarray, cosines: np.ndarray, reference: np.ndarray
) -> tuple[list[np.ndarray], float | None]:
    """Intersections of the three cone pairs that meet, each the point
    nearer ``reference``, and their largest pairwise great-circle
    distance (None with fewer than two)."""
    verts = []
    for i, j in combinations(range(3), 2):
        points = _two_cone_points(axes[i], cosines[i], axes[j], cosines[j])
        if points is not None:
            p, q = points
            verts.append(p if p @ reference >= q @ reference else q)
    if len(verts) < 2:
        return verts, None
    # chord-based great-circle distance stays exact for nearly
    # coincident vertices where acos saturates
    spread = max(
        2.0 * math.asin(min(1.0, 0.5 * float(np.linalg.norm(a - b))))
        for a, b in combinations(verts, 2)
    )
    return verts, spread
