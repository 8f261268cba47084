"""NV orientation estimation from a scan pattern.

At a fixed centre the pattern is linear in the three basis images of
``pattern`` plus the background, so the axis angles, amplitude and
background come from one linear least-squares solve and a 2x2
eigenproblem; a single 2-D Levenberg-Marquardt search over the centre
minimizes what that solve leaves (variable projection, Golub & Pereyra
1973), with Kaufman's (1975) form of the variable-projection Jacobian
read from the radial profile and its slope. The report comes from the
solve at the returned centre. A pattern determines the axis n only up to
the class {+-n, +-M n}, M = diag(1, 1, -1): the sign of n and its mirror
in the x-y plane, which up to sign is the 180-degree azimuth partner.
The fit reports the member that ``pattern._angles_from_coefficients``
returns, theta in [0, pi/2] and phi in [0, pi), with ``mirror_phi``
naming the unresolved partner.
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
    _angles_from_coefficients,
    _basis_images,
    radial_profile_for_grid,
)
from .least_squares import levenberg_marquardt

__all__ = [
    "OrientationFit",
    "fit_orientation",
    "nearest_tetrahedral_axis",
    "TETRAHEDRAL_POLAR",
]

#: polar angle between tetrahedral bond directions, arccos(-1/3)
TETRAHEDRAL_POLAR = math.acos(-1.0 / 3.0)


@dataclass
class OrientationFit:
    theta: float  # rad, in [0, pi/2]
    phi: float  # rad, in [0, pi)
    center_nm: tuple[float, float]
    amplitude: float
    background: float
    residual: float  # normalized SSE, dimensionless
    center_iterations: int  # Levenberg-Marquardt steps of the centre search

    @property
    def mirror_phi(self) -> float:
        """phi + pi: the azimuth of the unresolved partner M n."""
        return self.phi + math.pi


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
    """Least-squares coefficients (p, q, s, bg) of the three basis images
    of ``pattern._basis_images`` and 1 at a fixed centre, the residual
    r = P d they leave, and its Jacobian with respect to
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
    images, w = _basis_images(dx, dy, r)
    # (dw/drho) / rho for w = R / rho^2
    w_rate = np.divide(
        slope * rho - 2.0 * r, rho2 * rho2, out=np.zeros_like(rho2), where=rho2 > 0.0
    )
    basis = np.column_stack((images, np.ones_like(w)))
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


def fit_orientation(image: ScanImage, optics: OpticalConfig) -> OrientationFit:
    """Fit (theta, phi, center) to a scan image by variable projection.

    At a fixed centre the pattern is linear in three basis images plus
    the background, so (theta, phi, amplitude, background) follow from a
    linear least-squares solve (``_linear_fit``) and a 2x2 eigenproblem.
    One Levenberg-Marquardt search over the centre, in pixels from the
    intensity centroid, minimizes the residual of that solve, with
    Kaufman's variable-projection Jacobian from the same solve.

    The report is read from that solve at the returned centre; no second
    model is evaluated. The amplitude is the larger eigenvalue of the
    2x2 form, the background the constant coefficient and the residual
    ||leftover||^2 / sum((d - mean(d))^2). That residual is the misfit
    of the pattern at the reported angles, except where sin^2(theta) is
    clamped to [0, 1]: there it is the smaller misfit of the unclamped
    form. Deterministic for a fixed image. Raises NoConvergence when the
    centre search exhausts its iteration budget and DegenerateTemplate
    when the image has no more pixels than the fit's six unknowns, is
    constant, or its best fit has no positive amplitude.
    """
    grid = image.grid
    d = image.values.ravel()
    if d.size <= 6:
        raise DegenerateTemplate(
            f"scan has {d.size} pixels, no more than the fit's 6 unknowns "
            "(p, q, s, background and the centre's x and y)"
        )
    profile = radial_profile_for_grid(grid, optics)
    xs, ys = (a.ravel() for a in grid.pixel_positions())
    if np.all(d == d[0]):
        raise DegenerateTemplate("image is constant; misfit is undefined")
    pitch = grid.pitch_nm
    ox, oy = grid.origin_nm

    def to_nm(p) -> tuple[float, float]:
        return (ox + p[0] * pitch, oy + p[1] * pitch)

    solves = {}  # the linear solve at every centre tried, by its bytes

    def leftover_and_jacobian(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        coef, leftover, jac = _linear_fit(to_nm(p), xs, ys, d, profile)
        solves[p.tobytes()] = coef, leftover
        return leftover, pitch * jac

    result = levenberg_marquardt(leftover_and_jacobian, _intensity_centroid(image))
    if not result.converged:
        raise NoConvergence(
            f"centre search did not converge in {result.iterations} iterations"
        )
    coef, leftover = solves[result.x.tobytes()]
    theta, phi, amplitude = _angles_from_coefficients(*coef[:3])
    return OrientationFit(
        theta=theta,
        phi=phi,
        center_nm=to_nm(result.x),
        amplitude=amplitude,
        background=float(coef[3]),
        residual=float(leftover @ leftover) / float(((d - d.mean()) ** 2).sum()),
        center_iterations=result.iterations,
    )


def nearest_tetrahedral_axis(
    theta: float, phi: float, azimuth_offset: float = 0.0
) -> tuple[int, float, tuple[float, float]]:
    """Label a fitted orientation with the closest of the four
    tetrahedral bond axes of a crystal whose [111] axis points along z.

    Axis 0 points along +z; axes 1..3 sit at arccos(-1/3) polar angle
    with azimuths azimuth_offset + {0, 120, 240} degrees. The fit's
    class {+-n, +-M n} is two lines, n and (theta, phi + pi) =
    (-nx, -ny, nz), so one 2x4 table of dot products d with the four
    axes searches it: the largest |d| picks the line and the axis, and
    the sign of d the signed representative. Returns (axis_index,
    mismatch_rad, (theta, phi) of that representative in radians).
    """
    tetrad = [(0.0, 0.0)] + [
        (TETRAHEDRAL_POLAR, azimuth_offset + k * 2.0 * math.pi / 3.0) for k in range(3)
    ]
    axes = np.array([NVOrientation(*a).unit_axis for a in tetrad])
    lines = np.array(
        [NVOrientation(theta, phi + k * math.pi).unit_axis for k in (0, 1)]
    )
    d = lines @ axes.T
    row, index = divmod(int(np.argmax(np.abs(d))), 4)
    rep_theta, rep_phi = theta, phi + row * math.pi
    if d[row, index] < 0.0:
        rep_theta, rep_phi = math.pi - rep_theta, rep_phi + math.pi
    mismatch = math.acos(min(1.0, abs(float(d[row, index]))))
    return index, mismatch, (rep_theta, rep_phi % (2.0 * math.pi))
