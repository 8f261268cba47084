"""Focused field of an azimuthally polarized beam behind a high-NA objective.

The only nonzero component near focus is the azimuthal one,

    E_phi(r, z) = 2 A int_0^alpha sqrt(cos t) sin t J1(k r sin t)
                  exp(i k z cos t) dt,

with alpha = arcsin(NA / n) the aperture half-angle and k = 2 pi n /
lambda_vac the wavenumber in the immersion medium. The integrand is
smooth, so fixed-order Gauss-Legendre quadrature is used; convergence
can be self-checked by node doubling. Lengths are in nanometres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bessel import j1
from .errors import InvalidOptics, QuadratureNotConverged

__all__ = [
    "OpticalConfig",
    "max_aperture_angle",
    "wavenumber",
    "azimuthal_field",
    "azimuthal_field_profile",
    "node_doubling_error",
]


@dataclass(frozen=True)
class OpticalConfig:
    """Excitation and quadrature parameters.

    wavelength_nm is the vacuum wavelength; the in-medium wavenumber is
    derived as 2 pi * immersion_index / wavelength_nm. pupil_amplitude
    is the field strength at the pupil (arbitrary units).
    """

    wavelength_nm: float = 532.0
    numerical_aperture: float = 1.40
    immersion_index: float = 1.518
    pupil_amplitude: float = 1.0
    quadrature_nodes: int = 64
    convergence_rtol: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.numerical_aperture < self.immersion_index):
            raise InvalidOptics(
                f"need 0 < NA < n, got NA={self.numerical_aperture}, "
                f"n={self.immersion_index}"
            )
        if not self.wavelength_nm > 0.0:
            raise InvalidOptics(f"wavelength must be positive, got {self.wavelength_nm}")
        if self.quadrature_nodes < 8:
            raise InvalidOptics(
                f"quadrature_nodes must be >= 8, got {self.quadrature_nodes}"
            )
        if not self.convergence_rtol > 0.0:
            raise InvalidOptics("convergence_rtol must be positive")


def max_aperture_angle(config: OpticalConfig) -> float:
    """Aperture half-angle arcsin(NA / n), in (0, pi/2)."""
    ratio = config.numerical_aperture / config.immersion_index
    if not (0.0 < ratio < 1.0):
        raise InvalidOptics(f"NA/n must lie in (0, 1), got {ratio}")
    return math.asin(ratio)


def wavenumber(config: OpticalConfig) -> float:
    """In-medium wavenumber 2 pi n / lambda_vac, in 1/nm."""
    return 2.0 * math.pi * config.immersion_index / config.wavelength_nm


@lru_cache(maxsize=32)
def _aperture_rule(nodes: int, alpha: float):
    """Gauss-Legendre nodes/weights mapped onto [0, alpha]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    theta = 0.5 * alpha * (x + 1.0)
    weights = 0.5 * alpha * w
    return theta, weights


def azimuthal_field_profile(
    r, z: float, config: OpticalConfig, nodes: int | None = None
) -> np.ndarray:
    """E_phi at radial offsets ``r`` (array-like, nm) and defocus ``z`` (nm).

    Vectorized over r. Real and imaginary parts are accumulated
    separately so the z = 0 result is exactly real and
    E(r, -z) == conj(E(r, z)) holds to machine precision.
    """
    rr = np.asarray(r, dtype=float)
    if np.any(rr < 0.0):
        raise ValueError("radial offset r must be >= 0")
    theta, weights = _aperture_rule(
        nodes if nodes is not None else config.quadrature_nodes,
        max_aperture_angle(config),
    )
    st = np.sin(theta)
    ct = np.cos(theta)
    k = wavenumber(config)
    base = 2.0 * config.pupil_amplitude * np.sqrt(ct) * st * weights
    bess = j1(k * rr[..., None] * st)
    phase = k * z * ct
    re = bess @ (base * np.cos(phase))
    im = bess @ (base * np.sin(phase))
    return re + 1j * im


def azimuthal_field(
    r: float, z: float, config: OpticalConfig, check: bool = False
) -> complex:
    """E_phi(r, z) as a complex scalar.

    With ``check=True`` the quadrature is repeated at doubled node count
    and QuadratureNotConverged is raised if the relative change exceeds
    config.convergence_rtol.
    """
    val = complex(azimuthal_field_profile(np.array([r], dtype=float), z, config)[0])
    if check:
        val2 = complex(
            azimuthal_field_profile(
                np.array([r], dtype=float), z, config,
                nodes=2 * config.quadrature_nodes,
            )[0]
        )
        scale = max(abs(val), abs(val2))
        if scale > 0.0 and abs(val2 - val) / scale > config.convergence_rtol:
            raise QuadratureNotConverged(
                f"node doubling moved E_phi({r}, {z}) by "
                f"{abs(val2 - val) / scale:.3e} relative "
                f"(> {config.convergence_rtol:.1e})"
            )
    return val


def node_doubling_error(config: OpticalConfig, rs, zs) -> float:
    """Largest change under node doubling across a (r, z) grid.

    Normalized by the largest field magnitude on the grid, so points
    near nulls do not dominate. Used by the convergence self-check.
    """
    rs = np.asarray(rs, dtype=float)
    worst = 0.0
    peak = 0.0
    for z in np.atleast_1d(zs):
        a = azimuthal_field_profile(rs, float(z), config)
        b = azimuthal_field_profile(
            rs, float(z), config, nodes=2 * config.quadrature_nodes
        )
        worst = max(worst, float(np.abs(a - b).max()))
        peak = max(peak, float(np.abs(b).max()))
    if peak == 0.0:
        return 0.0
    return worst / peak

