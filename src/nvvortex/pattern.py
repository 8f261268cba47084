"""Orientation-dependent confocal scan patterns under azimuthal excitation.

An NV center absorbs through two orthogonal dipoles spanning the plane
perpendicular to its symmetry axis, so the excitation rate at a scan
position is |E . mu1|^2 + |E . mu2|^2. For a field that is everywhere
azimuthal this reduces to |E_phi|^2 * (1 - (phi_hat . n_hat)^2), which
for an axis at polar angle theta and azimuth phi is

    |E_phi(rho)|^2 * (1 - sin^2(theta) sin^2(phi - psi)),

psi being the pixel azimuth about the NV position. Patterns are defined
in beam-displacement coordinates: a stage-scanned acquisition is the
mirror image of these maps (the stage moves the sample, not the beam).

With (dx, dy) the offset from the NV and rho^2 = dx^2 + dy^2, that
factor times rho^2 is the quadratic form (dx, dy) M (dx, dy)^T of
M = I - sin^2(theta) m m^T, m = (sin phi, -cos phi). Every pattern is
therefore background + amplitude * (p B_xx + q B_yy + s B_xy) for the
coefficients (p, q, s) of M = [[p, s/2], [s/2, q]] and the basis images
B_xx = R dx^2/rho^2, B_yy = R dy^2/rho^2, B_xy = R dx dy/rho^2, with R =
|E_phi(rho)|^2. This module owns that model: the basis images
(``_basis_images``), the map from the axis to (p, q, s) and its inverse
(``_coefficients_from_angles``, ``_angles_from_coefficients``); the
synthesis evaluates it and the orientation fit solves it.

Only excitation is orientation dependent here; collection efficiency is
taken constant across the scan, intensity is linear in |E|^2, and the
optional noise model is per-pixel Poisson with deterministic seeding.

Every array stage runs over fixed-size blocks. A map is filled in
blocks of whole rows of at most _PIXEL_BLOCK = 8,192 pixels (one row
when a row is wider: ``ScanGrid.row_blocks``, which the scan writers
of ``fileio`` share), and a profile's table is written _PANEL_BLOCK =
64 panels at a time, after one blocked quadrature call. So a map needs
its output plus one block (a noisy scan its two maps plus one block),
and a build its table plus one block, whatever the size of the scan or
the profile. The blocks give the bits of one evaluation over the whole
grid or all panels.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateTemplate
from .focal_field import (
    OpticalConfig,
    azimuthal_field_profile,
    max_aperture_angle,
    wavenumber,
)

__all__ = [
    "MAX_PIXELS",
    "MAX_PROFILE_PANELS",
    "MAX_PROFILE_RADIUS_NM",
    "NOISE_TILE_PX",
    "NVOrientation",
    "ScanGrid",
    "ScanImage",
    "intensity_map",
    "simulate_pattern",
    "RadialIntensityProfile",
    "radial_profile_for_grid",
]

#: memory guard for a single scan: a 32 MiB map, which needs one block
#: of _PIXEL_BLOCK pixels beside it (a noisy scan holds two such maps)
MAX_PIXELS = 4_194_304
#: bound on the radial profile, nm: at the default optics 138 panels, a
#: 3.1 MB table (6.2 MB when defocused, where it is complex), which its
#: build needs plus one block of _PANEL_BLOCK panels. In focus their
#: quadrature takes 12 sub-intervals, 768 nodes, within
#: MAX_QUADRATURE_NODES, so this bound and MAX_PROFILE_PANELS refuse a
#: reach before the node bound does
MAX_PROFILE_RADIUS_NM = 1e5
#: pixels per Poisson tile: tile i of the flat pixel index draws from
#: its own generator seeded with (noise_seed, i)
NOISE_TILE_PX = 4096
#: numpy's largest Poisson mean, int64 max - 10 sqrt(int64 max)
POISSON_MAX_MEAN = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)
#: the exact map's field expansion: panels _PANEL_WIDTH wide in units of
#: 1 / (k sin alpha), the field's shortest lateral length, laid from
#: rho = 0, each carrying a Chebyshev series of degree _PANEL_DEGREE; at
#: that width the series of the fastest term, exp(6ix), has shrunk to
#: J_25(6) ~ 4e-14. The series are tabulated as Taylor polynomials of
#: degree _TAYLOR_DEGREE at _NODES_PER_PANEL equally spaced nodes per
#: panel, 0.03 / (k sin alpha) apart; a radius is read at most half a
#: step from its node, where the first term left out is below
#: 0.015^7 / 7! ~ 3e-17 of the field's scale
_PANEL_WIDTH = 12.0
_PANEL_DEGREE = 24
_NODES_PER_PANEL = 400
_TAYLOR_DEGREE = 6
#: panels per block of the table build, and pixels per block of a map
#: or a scan write (whole rows, at least one): each needs its output
#: plus one block
_PANEL_BLOCK = 64
_PIXEL_BLOCK = 8192
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class NVOrientation:
    """N->V axis direction in the lab frame: polar angle ``theta`` from
    the beam (z) axis and azimuth ``phi`` in the x-y plane, radians.

    phi is stored folded into [0, 2*pi). theta must lie in [0, pi].
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= math.pi):
            raise ValueError(f"theta must be in [0, pi], got {self.theta}")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
        object.__setattr__(self, "phi", self.phi % TWO_PI)

    @classmethod
    def from_degrees(cls, theta_deg: float, phi_deg: float) -> "NVOrientation":
        return cls(math.radians(theta_deg), math.radians(phi_deg))

    @classmethod
    def from_vector(cls, v) -> "NVOrientation":
        v = np.asarray(v, dtype=float)
        n = np.linalg.norm(v)
        if n == 0.0:
            raise ValueError("zero vector has no direction")
        v = v / n
        return cls(math.acos(np.clip(v[2], -1.0, 1.0)), math.atan2(v[1], v[0]))

    @property
    def unit_axis(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )


def _check_reach(what: str, r_nm: float) -> None:
    """Refuses a radius, NaN included, that no profile may reach."""
    if not r_nm <= MAX_PROFILE_RADIUS_NM:
        limit = f"MAX_PROFILE_RADIUS_NM={MAX_PROFILE_RADIUS_NM:g}"
        raise ValueError(f"{what} {r_nm:.6g} nm exceeds {limit}")


@dataclass(frozen=True)
class ScanGrid:
    """Rectangular scan raster: pixel (ix, iy) sits at physical position
    origin + pitch * (ix, iy), in nm."""

    width_px: int
    height_px: int
    pitch_nm: float
    origin_nm: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.width_px < 1 or self.height_px < 1:
            raise ValueError("grid dimensions must be positive")
        if not (math.isfinite(self.pitch_nm) and self.pitch_nm > 0.0):
            raise ValueError(f"pitch must be finite and positive, got {self.pitch_nm}")
        if not all(math.isfinite(v) for v in self.origin_nm):
            raise ValueError(f"origin must be finite, got {self.origin_nm}")
        if self.width_px * self.height_px > MAX_PIXELS:
            raise ValueError(
                f"{self.width_px}x{self.height_px} exceeds MAX_PIXELS={MAX_PIXELS}"
            )
        _check_reach("grid diagonal", self.diagonal_nm)

    @property
    def diagonal_nm(self) -> float:
        return self.pitch_nm * math.hypot(self.width_px - 1, self.height_px - 1)

    @property
    def center_nm(self) -> tuple[float, float]:
        return (
            self.origin_nm[0] + 0.5 * (self.width_px - 1) * self.pitch_nm,
            self.origin_nm[1] + 0.5 * (self.height_px - 1) * self.pitch_nm,
        )

    def pixel_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) physical coordinates of the columns and of the rows."""
        x = self.origin_nm[0] + self.pitch_nm * np.arange(self.width_px)
        y = self.origin_nm[1] + self.pitch_nm * np.arange(self.height_px)
        return x, y

    def row_blocks(self):
        """Row slices that cut the raster, in order, into blocks of whole
        rows of at most _PIXEL_BLOCK pixels, one row when a row is wider:
        the blocks a map is filled in and a scan is written in."""
        rows = max(1, _PIXEL_BLOCK // self.width_px)
        for lo in range(0, self.height_px, rows):
            yield slice(lo, lo + rows)


@dataclass
class ScanImage:
    """Scan raster plus non-negative intensity values (height x width)."""

    grid: ScanGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expect = (self.grid.height_px, self.grid.width_px)
        if self.values.shape != expect:
            raise ValueError(f"values shape {self.values.shape} != grid {expect}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("image values must be finite")
        if np.any(self.values < 0.0):
            raise ValueError("image values must be non-negative")


def _coefficients_from_angles(theta: float, phi: float) -> np.ndarray:
    """(p, q, s) of M = I - sin^2(theta) m m^T, m = (sin phi_c, -cos phi_c),
    with the azimuth folded into phi_c in [0, pi). The fold makes the
    phi -> phi + pi pattern symmetry exact: fmod is exact in IEEE
    arithmetic, so both members of an ambiguity pair reduce to the same
    double whenever phi + pi is representable.
    """
    st = math.sin(theta)
    st2 = st * st
    phi_c = math.fmod(phi, math.pi)
    if phi_c < 0.0:
        phi_c += math.pi
    sp, cp = math.sin(phi_c), math.cos(phi_c)
    return np.array([1.0 - st2 * sp * sp, 1.0 - st2 * cp * cp, 2.0 * st2 * sp * cp])


def _angles_from_coefficients(
    p: float, q: float, s: float
) -> tuple[float, float, float]:
    """(theta, phi, lambda_max) from M = [[p, s/2], [s/2, q]] = lambda_max
    (I - sin^2(theta) m m^T) with m = (sin phi, -cos phi): lambda_max is
    the larger eigenvalue, sin^2(theta) = 1 - lambda_min / lambda_max
    clamped to [0, 1], and m the eigenvector of the smaller one; theta
    is in [0, pi/2] and phi in [0, pi). Raises DegenerateTemplate when
    lambda_max <= 0, which no positive-amplitude pattern produces."""
    evals, evecs = np.linalg.eigh(np.array([[p, 0.5 * s], [0.5 * s, q]]))
    if not evals[1] > 0.0:
        raise DegenerateTemplate(
            "best linear fit has no positive amplitude (inverted contrast?)"
        )
    sin2 = min(1.0, max(0.0, 1.0 - evals[0] / evals[1]))
    mx, my = evecs[:, 0]
    theta = math.asin(math.sqrt(sin2))
    return theta, math.atan2(mx, -my) % math.pi, float(evals[1])


def _basis_images(
    dx: np.ndarray, dy: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The basis images R dx^2/rho^2, R dy^2/rho^2 and R dx dy/rho^2 at
    offsets (dx, dy) from the NV, where the radial intensity is ``r``,
    stacked on a new last axis, so that basis @ (p, q, s) is the
    unit-amplitude pattern; and w = R / rho^2. All are 0 on the axis,
    where R has an exact, even null."""
    rho2 = dx * dx + dy * dy
    w = np.divide(r, rho2, out=np.zeros_like(rho2), where=rho2 > 0.0)
    return np.stack((w * dx * dx, w * dy * dy, w * dx * dy), axis=-1), w


def _chebyshev_vander(u: np.ndarray) -> np.ndarray:
    """T_j(u), j = 0 .. _PANEL_DEGREE, on a new last axis."""
    vander = np.ones(u.shape + (_PANEL_DEGREE + 1,))
    vander[..., 1] = u
    for j in range(2, _PANEL_DEGREE + 1):
        vander[..., j] = 2.0 * u * vander[..., j - 1] - vander[..., j - 2]
    return vander


#: first-kind Chebyshev points cos(pi (i + 1/2) / n) mapped onto [0, 1]
_PANEL_NODES = 0.5 + 0.5 * np.cos(
    np.pi * (np.arange(_PANEL_DEGREE + 1) + 0.5) / (_PANEL_DEGREE + 1)
)
#: T_j at the table nodes of a panel, from its start to its end
_NODE_VANDER = _chebyshev_vander(
    np.arange(_NODES_PER_PANEL + 1) * (2.0 / _NODES_PER_PANEL) - 1.0
)


def _node_derivative() -> np.ndarray:
    """The matrix that maps the T_j coefficients of a series in u to
    those of its derivative in node steps, (2 / _NODES_PER_PANEL) d/du:
    T_k' = 2k sum of T_j over j < k with k - j odd, T_0 counted once."""
    j, k = np.indices((_PANEL_DEGREE + 1, _PANEL_DEGREE + 1))
    diff = np.where((j < k) & ((k - j) % 2 == 1), 2.0 * k, 0.0)
    diff[0] *= 0.5
    return diff * (2.0 / _NODES_PER_PANEL)


_NODE_DERIVATIVE = _node_derivative()


def _abs2(e: np.ndarray) -> np.ndarray:
    return e.real**2 + e.imag**2 if np.iscomplexobj(e) else e * e


def _nodes_per_nm(optics: OpticalConfig) -> float:
    """Table nodes per nm: _NODES_PER_PANEL per panel of _PANEL_WIDTH /
    (k sin alpha), k sin alpha being the field's highest lateral
    frequency."""
    bandwidth = wavenumber(optics) * math.sin(max_aperture_angle(optics))
    return bandwidth * (_NODES_PER_PANEL / _PANEL_WIDTH)


def _panels(optics: OpticalConfig, r_max_nm: float) -> int:
    """The fewest whole panels that cover [0, r_max_nm]."""
    return max(1, math.ceil(r_max_nm * _nodes_per_nm(optics) / _NODES_PER_PANEL))


#: bound on the radial profile, in panels: the 138 that reach
#: MAX_PROFILE_RADIUS_NM at the default optics; wider optics need more
MAX_PROFILE_PANELS = _panels(OpticalConfig(), MAX_PROFILE_RADIUS_NM)


@dataclass(frozen=True)
class RadialIntensityProfile:
    """|E_phi(rho, z)|^2 on [0, r_max_nm] from a Taylor table of the
    quadrature, r_max_nm being the end of its last panel.

    E_phi is a sum of J1(k rho sin t) over the quadrature nodes, a
    function of rho band-limited to k sin alpha. ``build`` runs the
    quadrature once, at the Chebyshev points of whole panels
    _PANEL_WIDTH / (k sin alpha) wide laid from rho = 0, on each of
    which a series of degree _PANEL_DEGREE matches it to rounding
    (Trefethen, Approximation Theory and Approximation Practice, ch. 8).
    The series interpolate the samples at the points as they round in
    rho. From them and their derivatives it tabulates, at the nodes
    rho_i = i h, h = 0.03 / (k sin alpha) (1.81 nm at the default
    optics), from the axis to the end of the last panel,

        taylor[m, i] = E_phi^(m)(rho_i) h^m / m!,  m = 0 .. _TAYLOR_DEGREE,

    each node on its own panel's series. Every radius is read from its
    nearest node by Horner's rule in u = rho / h - i, |u| <= 1/2, and
    its slope from the derivative of the same polynomial. The profile
    reproduces the quadrature to about 4e-15 of the peak, the truncation
    error of the panels' series. The on-axis null is exact: profile(0)
    is 0. Radii beyond r_max_nm read the value at r_max_nm, and negative
    ones the value at 0. ``build`` solves the series and writes the
    preallocated table _PANEL_BLOCK panels at a time, so it needs the
    table plus one block.
    """

    #: taylor[m, i]: the m-th Taylor coefficient of E_phi at node i, in
    #: powers of u
    taylor: np.ndarray
    r_max_nm: float
    nodes_per_nm: float

    @classmethod
    def build(
        cls, optics: OpticalConfig, panels: int, z_nm: float = 0.0
    ) -> "RadialIntensityProfile":
        nodes_per_nm = _nodes_per_nm(optics)
        width = _NODES_PER_PANEL / nodes_per_nm
        start = np.arange(panels)[:, None]  # panel starts, in panel widths
        r = (start + _PANEL_NODES) * width
        samples = azimuthal_field_profile(r, z_nm, optics)
        if not np.any(samples.imag):
            samples = samples.real  # z = 0: keep the table real
        u = 2.0 * (r / width - start) - 1.0
        # node i is node i mod n of panel i // n; the last panel also
        # holds the node at its end
        taylor = np.empty(
            (_TAYLOR_DEGREE + 1, panels * _NODES_PER_PANEL + 1), samples.dtype
        )
        for lo in range(0, panels, _PANEL_BLOCK):
            hi = min(lo + _PANEL_BLOCK, panels)
            # concatenated, series[p, j, m] are the T_j coefficients of
            # h^m E_phi^(m) / m! on panel p
            vander = _chebyshev_vander(u[lo:hi])
            series = [np.linalg.solve(vander, samples[lo:hi, :, None])]
            for m in range(1, _TAYLOR_DEGREE + 1):
                series.append(_NODE_DERIVATIVE @ series[-1] / m)
            at_nodes = _NODE_VANDER @ np.concatenate(series, axis=-1)
            taylor[:, lo * _NODES_PER_PANEL:hi * _NODES_PER_PANEL] = (
                at_nodes[:, :-1].reshape(-1, _TAYLOR_DEGREE + 1).T
            )
        taylor[:, -1] = at_nodes[-1, -1]
        taylor[0, 0] = 0.0  # E_phi vanishes on the beam axis
        taylor.flags.writeable = False  # cached profiles are shared
        return cls(taylor, panels * width, nodes_per_nm)

    def _locate(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest node of each radius, clipped to [0, r_max_nm], and u
        there."""
        u = np.clip(rho, 0.0, self.r_max_nm)
        u *= self.nodes_per_nm
        node = np.rint(u)
        u -= node
        return node.astype(np.intp), u

    def __call__(self, rho) -> np.ndarray:
        node, u = self._locate(np.asarray(rho, dtype=float))
        e = self.taylor[-1].take(node)
        for c in self.taylor[-2::-1]:
            e *= u
            e += c.take(node)
        return _abs2(e)

    def value_and_slope(self, rho) -> tuple[np.ndarray, np.ndarray]:
        """(|E_phi|^2, d|E_phi|^2 / drho) at ``rho``; the slope is 0 on
        the axis, where |E_phi|^2 is even, and where the radius is
        clamped to r_max_nm."""
        rho = np.asarray(rho, dtype=float)
        node, u = self._locate(rho)
        e = self.taylor[-1].take(node)
        de = np.zeros_like(e)  # dE_phi / du, by the same recurrence
        for c in self.taylor[-2::-1]:
            de *= u
            de += e
            e *= u
            e += c.take(node)
        e_de = (e.conj() * de).real if np.iscomplexobj(e) else e * de
        slope = (2.0 * self.nodes_per_nm) * e_de
        return _abs2(e), np.where(rho <= self.r_max_nm, slope, 0.0)


def intensity_map(
    orientation: NVOrientation,
    grid: ScanGrid,
    optics: OpticalConfig,
    amplitude: float = 1.0,
    background: float = 0.0,
    center_nm: tuple[float, float] | None = None,
    z_nm: float = 0.0,
) -> np.ndarray:
    """Noiseless pattern of the exact focal field:

        background + amplitude * basis @ (p, q, s),

    the basis images built on |E_phi(rho, z)|^2 and (p, q, s) the
    coefficients of the axis (module docstring).

    |E_phi|^2 is read from the cached RadialIntensityProfile over the
    fewest whole panels that reach the farthest pixel
    (``_profile_covering``, which refuses one beyond
    MAX_PROFILE_RADIUS_NM). The first map that needs a panel count runs
    the quadrature at 25 Chebyshev points per panel (325 radii on 13
    panels for a 256x256 scan at 50 nm pitch, instead of one per
    distinct pixel radius); every map reads each pixel from the Taylor
    table, which reproduces the quadrature to about 4e-15 of the peak.
    The map is filled in the row blocks of ``grid.row_blocks()``, so no
    full-size temporary is made beside the output.
    ``center_nm`` is the NV position (defaults to the grid center).
    Raises ValueError for an ``amplitude`` or ``background`` that is
    negative, NaN or infinite, naming it, and, from the quadrature, for
    a ``z_nm`` that is NaN or infinite or whose rule would need more
    than MAX_QUADRATURE_NODES nodes.
    """
    _check_finite_non_negative("amplitude", amplitude)
    _check_finite_non_negative("background", background)
    cx, cy = center_nm if center_nm is not None else grid.center_nm
    x, y = grid.pixel_axes()
    dx = x - cx
    dy = (y - cy)[:, None]
    # hypot is monotone in |dx| and |dy|: the farthest pixel is a corner
    reach = float(np.hypot(np.abs(dx).max(), np.abs(dy).max()))
    profile = _profile_covering(optics, reach, z_nm)
    coef = _coefficients_from_angles(orientation.theta, orientation.phi)
    out = np.empty((grid.height_px, grid.width_px))
    for rows in grid.row_blocks():
        block_dy = dy[rows]
        basis, _ = _basis_images(dx, block_dy, profile(np.hypot(dx, block_dy)))
        out[rows] = background + amplitude * (basis @ coef)
    return out


def _check_finite_non_negative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def simulate_pattern(
    orientation: NVOrientation,
    grid: ScanGrid,
    optics: OpticalConfig,
    amplitude: float = 1.0,
    background: float = 0.0,
    noise_seed: int | None = None,
    center_nm: tuple[float, float] | None = None,
    z_nm: float = 0.0,
) -> ScanImage:
    """Synthesize a confocal scan of one NV center.

    With ``noise_seed`` set, every pixel is an independent Poisson draw
    around the noiseless mean. The flat pixel index is cut into tiles of
    NOISE_TILE_PX pixels, and tile i draws from its own generator seeded
    with (noise_seed, i), so the result is bitwise reproducible and
    independent of evaluation order. Raises ValueError, naming the
    argument, for a ``noise_seed`` that is not an integer >= 0, for a
    noisy scan whose mean exceeds POISSON_MAX_MEAN somewhere, and for
    what ``intensity_map`` refuses.
    """
    if noise_seed is not None and not (
        isinstance(noise_seed, numbers.Integral) and noise_seed >= 0
    ):
        raise ValueError(f"noise_seed must be an integer >= 0, got {noise_seed!r}")
    mean = intensity_map(
        orientation, grid, optics, amplitude, background, center_nm, z_nm
    )
    if noise_seed is None:
        return ScanImage(grid=grid, values=mean)
    peak = float(mean.max())
    if peak > POISSON_MAX_MEAN:
        raise ValueError(
            f"amplitude={amplitude!r} and background={background!r} give a mean "
            f"of {peak:.6g} counts, beyond the largest Poisson mean "
            f"{POISSON_MAX_MEAN:.16g}"
        )
    flat = mean.ravel()
    noisy = np.empty_like(flat)
    for tile, lo in enumerate(range(0, flat.size, NOISE_TILE_PX)):
        rng = np.random.default_rng([int(noise_seed), tile])
        noisy[lo:lo + NOISE_TILE_PX] = rng.poisson(flat[lo:lo + NOISE_TILE_PX])
    return ScanImage(grid=grid, values=noisy.reshape(mean.shape))


def radial_profile_for_grid(
    grid: ScanGrid, optics: OpticalConfig
) -> RadialIntensityProfile:
    """Profile covering the grid's diagonal, and so every pixel of
    ``grid`` from any NV position inside it, from the profile cache."""
    return _profile_covering(optics, grid.diagonal_nm)


def _profile_covering(
    optics: OpticalConfig, r_max_nm: float, z_nm: float = 0.0
) -> RadialIntensityProfile:
    """The cached profile over the fewest whole panels that cover
    [0, r_max_nm]. The panels must hold r_max_nm itself, not only the
    node nearest it: reads clip to the profile's r_max_nm, its last
    panel's end. Raises ValueError beyond MAX_PROFILE_RADIUS_NM or
    MAX_PROFILE_PANELS, before anything is built."""
    _check_reach("profile radius", r_max_nm)
    panels = _panels(optics, r_max_nm)
    if panels > MAX_PROFILE_PANELS:
        bandwidth = _nodes_per_nm(optics) * (_PANEL_WIDTH / _NODES_PER_PANEL)
        raise ValueError(
            f"profile of {panels} panels exceeds MAX_PROFILE_PANELS="
            f"{MAX_PROFILE_PANELS}: the optics' lateral bandwidth k sin alpha is "
            f"{bandwidth:.6g} /nm"
        )
    return _cached_profile(optics, panels, float(z_nm))


@lru_cache(maxsize=8)
def _cached_profile(
    optics: OpticalConfig, panels: int, z_nm: float
) -> RadialIntensityProfile:
    """The profile over ``panels`` whole panels: the one profile cache,
    shared by synthesis and the orientation fit. A key always builds the
    same table, so no result depends on what was cached before."""
    return RadialIntensityProfile.build(optics, panels, z_nm)
