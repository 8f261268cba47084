"""NV orientation estimation from a scan pattern.

At a fixed centre the pattern is linear in three basis images plus the
background, so the axis angles, amplitude and background come from one
linear least-squares solve and a 2x2 eigenproblem; a single 2-D
Levenberg-Marquardt search over the centre minimizes what that solve
leaves (variable projection, Golub & Pereyra 1973), with Kaufman's
(1975) form of the variable-projection Jacobian read from the radial
profile and its slope. A pattern determines the axis only up to the
axis/antiaxis equivalence and a 180-degree azimuth rotation, so results
are canonicalized to theta in [0, pi/2], phi in [0, pi), with
``mirror_phi`` carrying the other member of the ambiguity pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTemplate, NoConvergence
from .focal_field import OpticalConfig
from .pattern import (
    NVOrientation,
    RadialIntensityProfile,
    ScanImage,
    radial_profile_for_grid,
    template_map,
)
from .least_squares import levenberg_marquardt

__all__ = [
    "OrientationFit",
    "canonical_angles",
    "pattern_residual",
    "fit_orientation",
    "nearest_tetrahedral_axis",
    "TETRAHEDRAL_POLAR",
]

#: polar angle between tetrahedral bond directions, arccos(-1/3)
TETRAHEDRAL_POLAR = math.acos(-1.0 / 3.0)

PHI_IDENTIFIABLE_MIN_THETA = math.radians(5.0)


@dataclass
class OrientationFit:
    theta: float  # rad, canonicalized to [0, pi/2]
    phi: float  # rad, canonicalized to [0, pi)
    mirror_phi: float  # phi + pi: the 180-degree ambiguity partner
    center_nm: tuple[float, float]
    amplitude: float
    background: float
    residual: float  # normalized SSE, dimensionless
    center_iterations: int  # Levenberg-Marquardt steps of the centre search
    converged: bool
    phi_identifiable: bool  # False near theta = 0 (azimuth degenerate)


def canonical_angles(theta: float, phi: float) -> tuple[float, float, float]:
    """Fold an axis (theta in [0, pi], any finite phi) onto the
    canonical patch.

    Patterns are invariant under axis negation and under phi -> phi +
    pi, so every orientation has an equivalent with theta in [0, pi/2]
    and phi in [0, pi). Returns (theta, phi, mirror_phi).
    """
    nx, ny, nz = NVOrientation(theta, phi).unit_axis
    if nz < 0.0:
        nx, ny, nz = -nx, -ny, -nz
    theta_c = math.acos(min(1.0, max(0.0, nz)))
    phi_c = math.atan2(ny, nx) % math.pi
    return theta_c, phi_c, phi_c + math.pi


def pattern_residual(
    theta: float,
    phi: float,
    center_nm: tuple[float, float],
    image: ScanImage,
    optics: OpticalConfig,
    profile: RadialIntensityProfile | None = None,
) -> tuple[float, float, float]:
    """Normalized misfit of the model pattern against ``image``.

    Solves the two-parameter linear least squares for (amplitude,
    background) in closed form, clamps amplitude to >= 0, and returns

        (sum((data - a*T - b)^2) / sum((data - mean)^2), a, b).

    Raises DegenerateTemplate when the template or the data is constant
    on the grid (either denominator of the solve vanishes).
    """
    if profile is None:
        profile = radial_profile_for_grid(image.grid, optics)
    t = template_map(
        NVOrientation(_fold_theta(theta), phi), image.grid, profile, center_nm
    ).ravel()
    d = image.values.ravel()
    n = d.size
    st, sd = t.sum(), d.sum()
    stt, std = float(t @ t), float(t @ d)
    det = n * stt - st * st  # n^2 * var(T)
    if det <= 1e-14 * max(n * stt, 1e-300):
        raise DegenerateTemplate("model pattern is constant across the grid")
    dvar = float(((d - sd / n) ** 2).sum())
    if dvar == 0.0:
        raise DegenerateTemplate("image is constant; misfit is undefined")
    a = (n * std - st * sd) / det
    if a < 0.0:
        a = 0.0
    b = (sd - a * st) / n
    sse = float(((d - a * t - b) ** 2).sum())
    return sse / dvar, a, b


def _fold_theta(theta: float) -> float:
    """Map any real theta to [0, pi] describing the same axis ray."""
    t = math.fmod(theta, 2.0 * math.pi)
    if t < 0.0:
        t += 2.0 * math.pi
    return 2.0 * math.pi - t if t > math.pi else t


def _intensity_centroid(image: ScanImage) -> tuple[float, float]:
    """Centroid of (values - min) in pixel coordinates; the grid centre
    when the image is constant."""
    d = image.values - image.values.min()
    total = d.sum()
    if total == 0.0:
        return 0.5 * (image.grid.width_px - 1), 0.5 * (image.grid.height_px - 1)
    ys, xs = np.mgrid[0 : image.grid.height_px, 0 : image.grid.width_px]
    return float((xs * d).sum() / total), float((ys * d).sum() / total)


def _linear_fit(
    center_nm: tuple[float, float],
    xs: np.ndarray,
    ys: np.ndarray,
    d: np.ndarray,
    profile: RadialIntensityProfile,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares coefficients (p, q, s, bg) of the basis images
    R dx^2/rho^2, R dy^2/rho^2, R dx dy/rho^2 and 1 at a fixed centre,
    the residual r = P d they leave, and its Jacobian with respect to
    the centre (nm) in Kaufman's form (BIT 15, 49, 1975), -P (dA/dc)
    coef, with P = I - A A^+ the projector off the basis A. That form
    drops the part of the full variable-projection Jacobian that lies in
    the span of A, which leaves the gradient J^T r exact. At rho = 0 the
    first three basis images and their derivatives are 0 (R has an
    exact, even null on the axis)."""
    dx = xs - center_nm[0]
    dy = ys - center_nm[1]
    rho2 = dx * dx + dy * dy
    rho = np.sqrt(rho2)
    r, slope = profile.value_and_slope(rho)
    off_axis = rho2 > 0.0
    w = np.divide(r, rho2, out=np.zeros_like(rho2), where=off_axis)
    # (dw/drho) / rho for w = R / rho^2
    w_rate = np.divide(
        slope * rho - 2.0 * r, rho2 * rho2, out=np.zeros_like(rho2), where=off_axis
    )
    basis = np.column_stack((w * dx * dx, w * dy * dy, w * dx * dy, np.ones_like(w)))
    coef = np.linalg.lstsq(basis, d, rcond=None)[0]
    p, q, s = coef[:3]
    quad = w_rate * (p * dx * dx + q * dy * dy + s * dx * dy)
    # d(basis @ coef) / d(cx, cy), where dx and dy fall as the centre moves
    dmodel = -np.column_stack(
        (
            quad * dx + w * (2.0 * p * dx + s * dy),
            quad * dy + w * (2.0 * q * dy + s * dx),
        )
    )
    jac = basis @ np.linalg.lstsq(basis, dmodel, rcond=None)[0] - dmodel
    return coef, d - basis @ coef, jac


def _angles_from_coefficients(p: float, q: float, s: float) -> tuple[float, float]:
    """(theta, phi) from M = [[p, s/2], [s/2, q]] = a (I - sin^2(theta) m m^T)
    with m = (sin phi, -cos phi): a is the larger eigenvalue, sin^2(theta)
    = 1 - lambda_min / lambda_max clamped to [0, 1], and m the eigenvector
    of the smaller one. Raises DegenerateTemplate when lambda_max <= 0,
    which no positive-amplitude pattern produces."""
    evals, evecs = np.linalg.eigh(np.array([[p, 0.5 * s], [0.5 * s, q]]))
    if not evals[1] > 0.0:
        raise DegenerateTemplate(
            "best linear fit has no positive amplitude (inverted contrast?)"
        )
    sin2 = min(1.0, max(0.0, 1.0 - evals[0] / evals[1]))
    mx, my = evecs[:, 0]
    return math.asin(math.sqrt(sin2)), math.atan2(mx, -my) % math.pi


def fit_orientation(image: ScanImage, optics: OpticalConfig) -> OrientationFit:
    """Fit (theta, phi, center) to a scan image by variable projection.

    At a fixed centre the pattern is linear in three basis images plus
    the background, so (theta, phi, amplitude, background) follow from a
    linear least-squares solve (``_linear_fit``) and a 2x2 eigenproblem.
    One Levenberg-Marquardt search over the centre, in pixels from the
    intensity centroid, minimizes the residual of that solve, with
    Kaufman's variable-projection Jacobian from the same solve. Amplitude,
    background and residual are reported by ``pattern_residual`` at the
    returned angles and centre. Deterministic for a fixed image. Raises
    NoConvergence when the centre search exhausts its iteration budget
    and DegenerateTemplate when the image is constant or its best fit
    has no positive amplitude.
    """
    grid = image.grid
    profile = radial_profile_for_grid(grid, optics)
    xs, ys = (a.ravel() for a in grid.pixel_positions())
    d = image.values.ravel()
    if np.all(d == d[0]):
        raise DegenerateTemplate("image is constant; misfit is undefined")
    pitch = grid.pitch_nm
    ox, oy = grid.origin_nm

    def to_nm(p) -> tuple[float, float]:
        return (ox + p[0] * pitch, oy + p[1] * pitch)

    def leftover_and_jacobian(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        _, leftover, jac = _linear_fit(to_nm(p), xs, ys, d, profile)
        return leftover, pitch * jac

    result = levenberg_marquardt(leftover_and_jacobian, _intensity_centroid(image))
    if not result.converged:
        raise NoConvergence(
            f"centre search did not converge in {result.iterations} iterations"
        )
    center = to_nm(result.x)
    coef = _linear_fit(center, xs, ys, d, profile)[0]
    theta, phi = _angles_from_coefficients(*coef[:3])
    residual, amplitude, background = pattern_residual(
        theta, phi, center, image, optics, profile
    )
    theta_c, phi_c, mirror = canonical_angles(theta, phi)
    return OrientationFit(
        theta=theta_c,
        phi=phi_c,
        mirror_phi=mirror,
        center_nm=center,
        amplitude=amplitude,
        background=background,
        residual=residual,
        center_iterations=result.iterations,
        converged=result.converged,
        phi_identifiable=theta_c >= PHI_IDENTIFIABLE_MIN_THETA,
    )


def nearest_tetrahedral_axis(
    theta: float, phi: float, azimuth_offset: float = 0.0
) -> tuple[int, float, tuple[float, float]]:
    """Label a fitted orientation with the closest of the four
    tetrahedral bond axes of a crystal whose [111] axis points along z.

    Axis 0 points along +z; axes 1..3 sit at arccos(-1/3) polar angle
    with azimuths azimuth_offset + {0, 120, 240} degrees. The fit's
    full ambiguity class (axis sign and 180-degree azimuth) is searched.
    Returns (axis_index, mismatch_rad, (theta, phi) of the matched
    signed representative in radians).
    """
    tet = [(0.0, 0.0)] + [
        (TETRAHEDRAL_POLAR, azimuth_offset + k * 2.0 * math.pi / 3.0)
        for k in range(3)
    ]
    reps = [(theta, phi), (theta, phi + math.pi)]
    best: tuple[float, int, tuple[float, float]] | None = None
    for rt, rp in reps:
        v = NVOrientation(rt, rp).unit_axis
        for i, (tt, tp) in enumerate(tet):
            a = NVOrientation(tt, tp).unit_axis
            d = float(np.clip(v @ a, -1.0, 1.0))
            mismatch = math.acos(abs(d))
            if best is None or mismatch < best[0]:
                rep = (rt, rp) if d >= 0.0 else (math.pi - rt, rp + math.pi)
                best = (mismatch, i, rep)
    mismatch, index, rep = best
    return index, mismatch, (rep[0], rep[1] % (2.0 * math.pi))
