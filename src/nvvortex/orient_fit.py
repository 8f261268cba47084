"""NV orientation estimation from a scan pattern.

At a fixed centre the pattern is linear in the three basis images of
``pattern`` plus the background, so the fit is a separable problem for
``least_squares.variable_projection`` (``_pattern_model``), whose
Levenberg-Marquardt search runs over the 2 centre coordinates alone, in
nm from the scan origin, from the intensity-weighted mean pixel
position. The stage origin is added once to the centre found, so the
same counts fit to the same bits wherever the stage put the scan. A
pattern determines the axis n only up to the class {+-n, +-M n}, M =
diag(1, 1, -1): the sign of n and its mirror in the x-y plane, which up
to sign is the 180-degree azimuth partner. The fit reports the member
that ``pattern._angles_from_coefficients`` returns, theta in [0, pi/2]
and phi in [0, pi), with ``mirror_phi`` naming the unresolved partner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTemplate, NoConvergence, RankDeficient
from .focal_field import OpticalConfig
from .pattern import (
    NVOrientation,
    RadialIntensityProfile,
    ScanImage,
    _angles_from_coefficients,
    _basis_images,
    radial_profile_for_grid,
)
from .least_squares import variable_projection

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


def _pattern_model(
    center_nm: tuple[float, float],
    xs: np.ndarray,
    ys: np.ndarray,
    profile: RadialIntensityProfile,
):
    """The basis [B_xx, B_yy, B_xy, 1] of ``pattern._basis_images`` and
    the background at a centre (nm), and the function that gives
    d(basis @ coef)/d(cx, cy) for coef = (p, q, s, bg), read from the
    radial profile and its slope. At rho = 0 the basis images and their
    derivatives are 0 (R has an exact, even null on the axis)."""
    dx = xs - center_nm[0]
    dy = ys - center_nm[1]
    rho2 = dx * dx + dy * dy
    rho = np.sqrt(rho2)
    r, slope = profile.value_and_slope(rho)
    images, w = _basis_images(dx, dy, r)
    # (dw/drho) / (2 rho) for w = R / rho^2
    w_rate = np.divide(
        slope * rho - 2.0 * r, 2.0 * rho2 * rho2,
        out=np.zeros_like(rho2), where=rho2 > 0.0,
    )

    def slopes(coef: np.ndarray) -> np.ndarray:
        p, q, s = coef[:3]
        # the gradient (gx, gy) of the form F = p dx^2 + q dy^2 + s dx dy,
        # 2 F = dx gx + dy gy; dx and dy fall as the centre moves
        gx = (2.0 * p) * dx + s * dy
        gy = (2.0 * q) * dy + s * dx
        quad = w_rate * (dx * gx + dy * gy)
        return -np.column_stack((quad * dx + w * gx, quad * dy + w * gy))

    return np.column_stack((images, np.ones_like(w))), slopes


def fit_orientation(image: ScanImage, optics: OpticalConfig) -> OrientationFit:
    """Fit (theta, phi, center) to a scan image by variable projection:
    one search over the centre, in nm from the scan origin, started at
    the mean pixel position weighted by d - min(d), with (p, q, s,
    background) solved at every centre. Only ``center_nm`` depends on
    the grid's origin, which is added to the centre found.

    The report is read from the solve at the returned centre; no second
    model is evaluated. The angles and the amplitude (the larger
    eigenvalue) come from the 2x2 form of (p, q, s), the background is
    the constant coefficient and the residual ||leftover||^2 / sum((d -
    mean(d))^2), the misfit of the pattern at the reported angles except
    where sin^2(theta) is clamped to [0, 1]: there it is the smaller
    misfit of the unclamped form. Deterministic for a fixed image.
    Raises NoConvergence when the centre search exhausts its iteration
    budget and DegenerateTemplate when the image has no more pixels than
    the fit's six unknowns, is constant, has a rank-deficient basis (a
    scan of one row or one column) or no positive amplitude.
    """
    grid = image.grid
    d = image.values.ravel()
    if d.size <= 6:
        raise DegenerateTemplate(
            f"scan has {d.size} pixels, no more than the fit's 6 unknowns "
            "(p, q, s, background and the centre's x and y)"
        )
    profile = radial_profile_for_grid(grid, optics)
    if np.all(d == d[0]):
        raise DegenerateTemplate("image is constant; misfit is undefined")
    # pixel positions in nm from the scan origin, row-major like d
    ys, xs = grid.pitch_nm * np.indices((grid.height_px, grid.width_px)).reshape(2, -1)
    weight = d - d.min()
    start = ((xs * weight).sum() / weight.sum(), (ys * weight).sum() / weight.sum())
    try:
        result = variable_projection(
            lambda center: _pattern_model(center, xs, ys, profile), d, start
        )
    except RankDeficient as exc:
        raise DegenerateTemplate(
            f"a scan of {grid.width_px} x {grid.height_px} pixels does not "
            f"determine the pattern: {exc}"
        ) from exc
    if not result.converged:
        raise NoConvergence(
            f"centre search did not converge in {result.iterations} iterations"
        )
    coef, leftover = result.c, result.residual
    theta, phi, amplitude = _angles_from_coefficients(*coef[:3])
    return OrientationFit(
        theta=theta,
        phi=phi,
        center_nm=(grid.origin_nm[0] + result.x[0], grid.origin_nm[1] + result.x[1]),
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
