"""NV orientation estimation from a scan pattern.

Multi-start Nelder-Mead over (theta, phi, center_x, center_y); the two
linear parameters (amplitude, background) are solved in closed form at
every objective evaluation. A pattern determines the axis only up to
the axis/antiaxis equivalence and a 180-degree azimuth rotation, so
results are canonicalized to theta in [0, pi/2], phi in [0, pi), with
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
from .simplex import NelderMeadResult, SimplexSettings, nelder_mead

__all__ = [
    "OrientationFit",
    "SimplexSettings",
    "nelder_mead",
    "canonical_angles",
    "pattern_residual",
    "fit_orientation",
    "starting_points",
    "nearest_tetrahedral_axis",
    "TETRAHEDRAL_POLAR",
]

#: polar angle between tetrahedral bond directions, arccos(-1/3)
TETRAHEDRAL_POLAR = math.acos(-1.0 / 3.0)

PHI_IDENTIFIABLE_MIN_THETA = math.radians(5.0)

_PENALTY = 1e6


@dataclass
class OrientationFit:
    theta: float  # rad, canonicalized to [0, pi/2]
    phi: float  # rad, canonicalized to [0, pi)
    mirror_phi: float  # phi + pi: the 180-degree ambiguity partner
    center_nm: tuple[float, float]
    amplitude: float
    background: float
    residual: float  # normalized SSE, dimensionless
    n_starts_used: int
    converged: bool
    phi_identifiable: bool  # False near theta = 0 (azimuth degenerate)


def canonical_angles(theta: float, phi: float) -> tuple[float, float, float]:
    """Fold arbitrary angles onto the canonical patch.

    Patterns are invariant under axis negation and under phi -> phi +
    pi, so every orientation has an equivalent with theta in [0, pi/2]
    and phi in [0, pi). Returns (theta, phi, mirror_phi).
    """
    st = math.sin(theta)
    nx, ny, nz = st * math.cos(phi), st * math.sin(phi), math.cos(theta)
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


def starting_points(
    image: ScanImage, n_starts: int, seed: int
) -> list[tuple[float, float, float, float]]:
    """Deterministic multi-start seeds: theta uniform in [0, pi/2], phi
    uniform in [0, pi), center within +/- 2 px of the intensity
    centroid. Center entries are in pixel coordinates."""
    rng = np.random.default_rng(seed)
    d = image.values - image.values.min()
    total = d.sum()
    if total > 0.0:
        ys, xs = np.mgrid[0 : image.grid.height_px, 0 : image.grid.width_px]
        cx0 = float((xs * d).sum() / total)
        cy0 = float((ys * d).sum() / total)
    else:
        cx0 = 0.5 * (image.grid.width_px - 1)
        cy0 = 0.5 * (image.grid.height_px - 1)
    starts = []
    for _ in range(n_starts):
        starts.append(
            (
                rng.uniform(0.0, 0.5 * math.pi),
                rng.uniform(0.0, math.pi),
                cx0 + rng.uniform(-2.0, 2.0),
                cy0 + rng.uniform(-2.0, 2.0),
            )
        )
    return starts


def fit_orientation(
    image: ScanImage,
    optics: OpticalConfig,
    n_starts: int = 12,
    seed: int = 0,
    settings: SimplexSettings | None = None,
) -> OrientationFit:
    """Fit (theta, phi, center) to a scan image by multi-start simplex.

    Deterministic for fixed (image, n_starts, seed, settings); the best
    start wins, ties broken by start index. Raises NoConvergence when
    every start exhausts its iteration budget.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    grid = image.grid
    profile = radial_profile_for_grid(grid, optics)
    pitch = grid.pitch_nm
    ox, oy = grid.origin_nm

    def objective(p: np.ndarray) -> float:
        center = (ox + p[2] * pitch, oy + p[3] * pitch)
        try:
            res, _, _ = pattern_residual(p[0], p[1], center, image, optics, profile)
        except DegenerateTemplate:
            return _PENALTY
        return res

    best: tuple[float, int, NelderMeadResult] | None = None
    any_converged = False
    for idx, start in enumerate(starting_points(image, n_starts, seed)):
        result = nelder_mead(
            objective, np.array(start), settings, initial_step=[0.2, 0.4, 0.5, 0.5]
        )
        any_converged = any_converged or result.converged
        if best is None or result.fun < best[0]:
            best = (result.fun, idx, result)
    if not any_converged:
        raise NoConvergence(f"no start converged within budget ({n_starts} starts)")

    x = best[2].x
    center = (ox + x[2] * pitch, oy + x[3] * pitch)
    residual, amplitude, background = pattern_residual(
        x[0], x[1], center, image, optics, profile
    )
    theta_c, phi_c, mirror = canonical_angles(_fold_theta(x[0]), x[1])
    return OrientationFit(
        theta=theta_c,
        phi=phi_c,
        mirror_phi=mirror,
        center_nm=center,
        amplitude=amplitude,
        background=background,
        residual=residual,
        n_starts_used=n_starts,
        converged=any_converged,
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
