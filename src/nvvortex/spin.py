"""NV ground-state spin model, ODMR spectra, and field/cone inversion.

The ground-state Hamiltonian (frequencies in MHz, fields in gauss, the
NV axis along z) is

    H = D Sz^2 + gamma_e B.S + S.A.I + Q Iz^2 + gamma_n B.I

with S = I = 1, an axial hyperfine tensor A = diag(a_perp, a_perp,
a_par), and gamma in MHz/G. Working in ordinary frequencies makes the
closed-form inversions below dimensionally consistent:

    B     = sqrt((w1^2 + w2^2 - w1 w2 - D^2) / 3) / gamma_e
    alpha = arccos(+-sqrt((2w1 - w2 - D)(w1 - 2w2 + D)(w1 + w2 + D)
                          / (9 D (w1^2 - w1 w2 + w2^2 - D^2))))

where (w1, w2) are the mI = 0 transitions ms=0 -> -1 and ms=0 -> +1.
Both arccos branches are always propagated: one NV alone cannot pick
between alpha and pi - alpha.

The hyperfine, quadrupole, and nuclear-Zeeman defaults are standard
14N literature values and are configuration, not measured quantities
of this toolkit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateField,
    FitFailed,
    InconsistentFrequencies,
    TripletsOverlap,
)
from .least_squares import levenberg_marquardt
from .pattern import NVOrientation

__all__ = [
    "SpinParams",
    "TransitionPair",
    "FieldEstimate",
    "Spectrum",
    "SweepSettings",
    "SX",
    "SY",
    "SZ",
    "electron_hamiltonian",
    "transition_frequencies",
    "invert_magnitude",
    "invert_polar_angle",
    "field_estimate",
    "full_hamiltonian",
    "lab_field_in_nv_frame",
    "six_transition_frequencies",
    "simulate_odmr_spectrum",
    "add_contrast_noise",
    "OdmrModelFit",
    "fit_odmr_model",
    "fit_odmr_spectrum",
]

_SQRT2 = math.sqrt(2.0)

#: spin-1 operators in the (+1, 0, -1) basis
SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / _SQRT2
SY = np.array([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], dtype=complex) / (_SQRT2 * 1j)
SZ = np.diag([1.0, 0.0, -1.0]).astype(complex)
_ID3 = np.eye(3, dtype=complex)

#: relative clamp applied to inversion radicands before erroring
RADICAND_RTOL = 1e-9


@dataclass(frozen=True)
class SpinParams:
    """Ground-state constants. d and the hyperfine terms in MHz, the
    gyromagnetic ratios in MHz/G.

    Defaults: d = 2870 and gamma_e = 2.8025 (g_e mu_B / h); a_par,
    a_perp, q, gamma_n are 14N literature values supplied as defaults
    because the magnetometer model needs them, not because this toolkit
    determines them.
    """

    d: float = 2870.0
    gamma_e: float = 2.8025
    a_par: float = -2.14
    a_perp: float = -2.70
    q: float = -4.96
    gamma_n: float = 3.077e-4

    def __post_init__(self):
        if not self.d > 0.0:
            raise ValueError(f"zero-field splitting must be positive, got {self.d}")
        if not self.gamma_e > 0.0:
            raise ValueError(f"gamma_e must be positive, got {self.gamma_e}")


@dataclass(frozen=True)
class TransitionPair:
    """mI = 0 line positions (MHz): omega1 <= omega2 by convention."""

    omega1: float
    omega2: float
    sigma1: float | None = None
    sigma2: float | None = None

    def __post_init__(self):
        if not (0.0 < self.omega1 <= self.omega2):
            raise ValueError(
                f"need 0 < omega1 <= omega2, got ({self.omega1}, {self.omega2})"
            )


@dataclass(frozen=True)
class FieldEstimate:
    """Inversion output: magnitude (G) and the unordered cone-angle
    candidate pair {alpha, pi - alpha} (rad)."""

    b: float
    alpha_candidates: tuple[float, float]
    b_sigma: float | None = None
    alpha_sigma: float | None = None


@dataclass(frozen=True)
class SweepSettings:
    start_mhz: float = 2780.0
    stop_mhz: float = 2980.0
    n_points: int = 2001

    def __post_init__(self):
        if not self.stop_mhz > self.start_mhz:
            raise ValueError("sweep stop must exceed start")
        if self.n_points < 16:
            raise ValueError("sweep needs at least 16 points")

    def frequencies(self) -> np.ndarray:
        return np.linspace(self.start_mhz, self.stop_mhz, self.n_points)


@dataclass
class Spectrum:
    """Frequency sweep (MHz) and contrast trace (1 = no dip)."""

    frequencies: np.ndarray
    contrast: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.contrast = np.asarray(self.contrast, dtype=float)
        if self.frequencies.shape != self.contrast.shape:
            raise ValueError("frequency and contrast arrays differ in length")
        if self.frequencies.ndim != 1 or self.frequencies.size < 2:
            raise ValueError("spectrum needs a 1-D sweep of at least 2 points")
        if not np.all(np.diff(self.frequencies) > 0.0):
            raise ValueError("frequencies must be strictly increasing")
        if not (
            np.all(np.isfinite(self.frequencies))
            and np.all(np.isfinite(self.contrast))
        ):
            raise ValueError("spectrum values must be finite")


# --------------------------------------------------------------- hamiltonians

def electron_hamiltonian(b_par: float, b_perp: float, params: SpinParams) -> np.ndarray:
    """3x3 electron Hamiltonian D Sz^2 + gamma_e (b_par Sz + b_perp Sx),
    MHz, in the (+1, 0, -1) basis. Hermitian by construction."""
    return params.d * (SZ @ SZ) + params.gamma_e * (b_par * SZ + b_perp * SX)


def transition_frequencies(b: float, alpha: float, params: SpinParams) -> TransitionPair:
    """Exact ms=0 -> ms=-1/+1 frequencies at field magnitude ``b`` (G)
    tilted by ``alpha`` (rad) from the NV axis, hyperfine excluded.

    The ms=0-like level is identified by eigenvector character; the two
    returned differences are sorted ascending. Invariant under
    alpha -> pi - alpha (the cone degeneracy).
    """
    if b < 0.0:
        raise ValueError("field magnitude must be >= 0")
    if not (0.0 <= alpha <= math.pi):
        raise ValueError(f"alpha must lie in [0, pi], got {alpha}")
    h = electron_hamiltonian(b * math.cos(alpha), b * math.sin(alpha), params)
    evals, evecs = np.linalg.eigh(h)
    ms0 = int(np.argmax(np.abs(evecs[1, :]) ** 2))  # row 1 = |ms=0> component
    others = [i for i in range(3) if i != ms0]
    w = sorted(float(evals[j] - evals[ms0]) for j in others)
    return TransitionPair(omega1=w[0], omega2=w[1])


def full_hamiltonian(b_vec_nv, params: SpinParams) -> np.ndarray:
    """9x9 electron (S=1) x nuclear (I=1) Hamiltonian for a field given
    in the NV frame (gauss), including axial hyperfine, quadrupole, and
    nuclear Zeeman terms. MHz; Hermitian."""
    bx, by, bz = (float(c) for c in np.asarray(b_vec_nv, dtype=float))
    h_e = params.d * (SZ @ SZ) + params.gamma_e * (bx * SX + by * SY + bz * SZ)
    h = np.kron(h_e, _ID3)
    h += params.a_perp * (np.kron(SX, SX) + np.kron(SY, SY))
    h += params.a_par * np.kron(SZ, SZ)
    h += params.q * np.kron(_ID3, SZ @ SZ)
    h += params.gamma_n * (
        bx * np.kron(_ID3, SX) + by * np.kron(_ID3, SY) + bz * np.kron(_ID3, SZ)
    )
    return h


def lab_field_in_nv_frame(b_vec_lab, orientation: NVOrientation) -> np.ndarray:
    """Project a lab-frame field onto an NV frame with z along the axis.

    The in-plane azimuth is arbitrary for the axial Hamiltonian, so the
    transverse component is placed along x.
    """
    b = np.asarray(b_vec_lab, dtype=float)
    axis = orientation.unit_axis
    b_par = float(b @ axis)
    perp = b - b_par * axis
    return np.array([float(np.linalg.norm(perp)), 0.0, b_par])


def six_transition_frequencies(b_vec_nv, params: SpinParams) -> np.ndarray:
    """The six mI-preserving ms=0 -> +-1 lines (MHz), from the 9x9
    Hamiltonian, ordered (ms=-1; mI=+1,0,-1), then (ms=+1; mI=+1,0,-1).

    Eigenstates are labeled by dominant basis character with greedy
    conflict resolution, which is unambiguous away from level
    anticrossings.
    """
    evals, evecs = np.linalg.eigh(full_hamiltonian(b_vec_nv, params))
    weight = np.abs(evecs) ** 2  # weight[basis, state]
    # greedy bijection: most confident states claim their best basis first
    confidence = np.argsort(-weight.max(axis=0), kind="stable")
    claimed: set[int] = set()
    label_energy: dict[tuple[int, int], float] = {}
    ms_of = (1, 1, 1, 0, 0, 0, -1, -1, -1)
    mi_of = (1, 0, -1) * 3
    for state in confidence:
        for basis in np.argsort(-weight[:, state], kind="stable"):
            b_idx = int(basis)
            if b_idx not in claimed:
                claimed.add(b_idx)
                label_energy[(ms_of[b_idx], mi_of[b_idx])] = float(evals[state])
                break
    lines = []
    for ms in (-1, +1):
        for mi in (1, 0, -1):
            lines.append(label_energy[(ms, mi)] - label_energy[(0, mi)])
    return np.array(lines)


# ------------------------------------------------------------------ inversion

def invert_magnitude(pair: TransitionPair, d: float = 2870.0,
                     gamma_e: float = 2.8025) -> float:
    """Field magnitude (G) from the mI = 0 pair via the closed form
    sqrt((w1^2 + w2^2 - w1 w2 - d^2)/3) / gamma_e.

    The radicand is clamped to zero within RADICAND_RTOL * d^2; below
    that, no real field reproduces the pair."""
    w1, w2 = pair.omega1, pair.omega2
    r = w1 * w1 + w2 * w2 - w1 * w2 - d * d
    tol = RADICAND_RTOL * d * d
    if r < -tol:
        raise InconsistentFrequencies(
            f"radicand {r:.6g} MHz^2 below -{tol:.3g}; no real field fits"
        )
    return math.sqrt(max(r, 0.0) / 3.0) / gamma_e


def invert_polar_angle(pair: TransitionPair, d: float = 2870.0) -> tuple[float, float]:
    """Cone-angle candidates {alpha, pi - alpha} (rad) from the mI = 0
    pair. Raises DegenerateField at zero field (the formula's
    denominator vanishes) and InconsistentFrequencies if the arccos
    argument falls outside [0, 1] beyond tolerance."""
    w1, w2 = pair.omega1, pair.omega2
    r = w1 * w1 + w2 * w2 - w1 * w2 - d * d  # equals 3 (gamma_e B)^2
    tol = RADICAND_RTOL * d * d
    if r <= tol:
        raise DegenerateField(
            "transition pair implies B ~ 0; the cone angle is undefined"
        )
    num = (2.0 * w1 - w2 - d) * (w1 - 2.0 * w2 + d) * (w1 + w2 + d)
    ratio = num / (9.0 * d * r)
    if ratio < -RADICAND_RTOL or ratio > 1.0 + RADICAND_RTOL:
        raise InconsistentFrequencies(
            f"arccos argument {ratio:.6g} outside [0, 1] beyond tolerance"
        )
    c = math.sqrt(min(max(ratio, 0.0), 1.0))
    a = math.acos(c)
    return (a, math.pi - a)


def field_estimate(pair: TransitionPair, params: SpinParams) -> FieldEstimate:
    """Magnitude and cone-angle candidates with propagated 1-sigma
    uncertainties (analytic for B, central differences for alpha)."""
    b = invert_magnitude(pair, params.d, params.gamma_e)
    alphas = invert_polar_angle(pair, params.d)
    b_sigma = alpha_sigma = None
    if pair.sigma1 is not None and pair.sigma2 is not None:
        w1, w2 = pair.omega1, pair.omega2
        g2b = 3.0 * params.gamma_e**2 * b
        if g2b > 0.0:
            db1 = (2.0 * w1 - w2) / (2.0 * g2b)
            db2 = (2.0 * w2 - w1) / (2.0 * g2b)
            b_sigma = math.hypot(db1 * pair.sigma1, db2 * pair.sigma2)
        try:
            h = min(1e-4, 0.25 * (w2 - w1)) or 1e-9
            da1 = (
                invert_polar_angle(TransitionPair(w1 + h, w2), params.d)[0]
                - invert_polar_angle(TransitionPair(w1 - h, w2), params.d)[0]
            ) / (2.0 * h)
            da2 = (
                invert_polar_angle(TransitionPair(w1, w2 + h), params.d)[0]
                - invert_polar_angle(TransitionPair(w1, w2 - h), params.d)[0]
            ) / (2.0 * h)
            alpha_sigma = math.hypot(da1 * pair.sigma1, da2 * pair.sigma2)
        except (ValueError, DegenerateField, InconsistentFrequencies):
            alpha_sigma = None  # too close to degenerate for a stable stencil
    return FieldEstimate(
        b=b, alpha_candidates=alphas, b_sigma=b_sigma, alpha_sigma=alpha_sigma
    )


# -------------------------------------------------------------------- spectra

def _lorentz(f: np.ndarray, center: float, fwhm: float) -> np.ndarray:
    """Unit-height Lorentzian; ``fwhm`` is the full width at half max."""
    h = 0.5 * fwhm
    return (h * h) / ((f - center) ** 2 + h * h)


def simulate_odmr_spectrum(
    b_vec_lab,
    orientation: NVOrientation,
    params: SpinParams,
    linewidth_mhz: float = 0.8,
    contrast_depth: float = 0.03,
    sweep: SweepSettings | None = None,
) -> Spectrum:
    """Pulsed-ODMR-style contrast trace: six equal-depth Lorentzian dips
    at the mI-preserving transition lines of the full Hamiltonian."""
    if not linewidth_mhz > 0.0:
        raise ValueError("linewidth must be positive")
    if not 0.0 < contrast_depth < 1.0:
        raise ValueError("contrast_depth must lie in (0, 1)")
    sweep = sweep if sweep is not None else SweepSettings()
    freqs = sweep.frequencies()
    lines = six_transition_frequencies(
        lab_field_in_nv_frame(b_vec_lab, orientation), params
    )
    contrast = np.ones_like(freqs)
    for line in lines:
        contrast -= contrast_depth * _lorentz(freqs, float(line), linewidth_mhz)
    return Spectrum(
        frequencies=freqs,
        contrast=contrast,
        metadata={
            "linewidth_mhz": linewidth_mhz,
            "contrast_depth": contrast_depth,
            "sweep": (sweep.start_mhz, sweep.stop_mhz, sweep.n_points),
            "lines_mhz": [float(v) for v in lines],
        },
    )


def add_contrast_noise(spectrum: Spectrum, sigma: float, seed: int) -> Spectrum:
    """Gaussian contrast noise, deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    return Spectrum(
        frequencies=spectrum.frequencies.copy(),
        contrast=spectrum.contrast + rng.normal(0.0, sigma, spectrum.contrast.shape),
        metadata={**spectrum.metadata, "noise_sigma": sigma, "noise_seed": seed},
    )


# ------------------------------------------------------------- spectrum fit

@dataclass
class OdmrModelFit:
    """Two-triplet Lorentzian model fit: per group a center, a hyperfine
    spacing shared within the group, a global linewidth, and six free
    dip depths solved linearly."""

    pair: TransitionPair
    group_centers_mhz: tuple[float, float]
    group_spacings_mhz: tuple[float, float]
    linewidth_mhz: float
    dip_centers_mhz: tuple[float, ...]
    depths: tuple[float, ...]
    sse: float
    iterations: int


def _dip_candidates(f: np.ndarray, y: np.ndarray) -> list[float]:
    baseline = float(np.median(y))
    depth = baseline - float(y.min())
    noise = 1.4826 * float(np.median(np.abs(y - baseline)))
    if depth <= max(1e-12, 5.0 * noise):
        raise FitFailed("no significant dips found in the spectrum")
    cut = baseline - 0.4 * depth
    idx = [
        i
        for i in range(1, y.size - 1)
        if y[i] < cut and y[i] <= y[i - 1] and y[i] <= y[i + 1]
    ]
    if not idx:
        raise FitFailed("no local minima below the detection threshold")
    # noise can split one dip into several shallow minima; cluster
    # anything closer than a linewidth-scale radius, keeping the deepest
    radius = max(4.0 * float(f[1] - f[0]), 1.0)
    merged: list[int] = []
    for i in idx:
        if merged and f[i] - f[merged[-1]] < radius:
            if y[i] < y[merged[-1]]:
                merged[-1] = i
            continue
        merged.append(i)
    return [float(f[i]) for i in merged]


def _split_groups(cands: list[float]) -> tuple[list[float], list[float]]:
    if len(cands) < 2:
        raise TripletsOverlap(
            "only one dip cluster found; the two triplets are not separable"
        )
    gaps = np.diff(cands)
    k = int(np.argmax(gaps))
    if len(cands) > 2:
        others = np.delete(gaps, k)
        if gaps[k] <= 2.5 * float(np.median(others)):
            raise TripletsOverlap(
                "dip spacing shows no dominant gap between triplet groups"
            )
    return list(cands[: k + 1]), list(cands[k + 1 :])


def _triplet_model(f: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-triplet contrast model 1 - sum_k depth_k L(f; center_k, fwhm)
    and its Jacobian for p = (c1, c2, s1, s2, fwhm, depth_1..6), with the
    centers (c1 - s1, c1, c1 + s1, c2 - s2, c2, c2 + s2).

    With u = f - center and h = fwhm / 2, the Lorentzian derivatives are
    dL/dcenter = 2 u L^2 / h^2 and dL/dfwhm = L (1 - L) / h."""
    c1, c2, s1, s2, w = p[:5]
    depths = p[5:]
    centers = np.array([c1 - s1, c1, c1 + s1, c2 - s2, c2, c2 + s2])
    h = 0.5 * w
    u = f[:, None] - centers
    lor = _lorentz(f[:, None], centers, w)
    d_center = -depths * (2.0 * u * lor * lor / (h * h))  # d model / d center_k
    jac = np.empty((f.size, 11))
    jac[:, 0] = d_center[:, :3].sum(axis=1)
    jac[:, 1] = d_center[:, 3:].sum(axis=1)
    jac[:, 2] = d_center[:, 2] - d_center[:, 0]
    jac[:, 3] = d_center[:, 5] - d_center[:, 3]
    jac[:, 4] = -(lor * (1.0 - lor) / h) @ depths
    jac[:, 5:] = -lor
    return 1.0 - lor @ depths, jac


def fit_odmr_model(spectrum: Spectrum) -> OdmrModelFit:
    """Fit the two-triplet model and return the full parameter set.

    Levenberg-Marquardt runs over all eleven parameters of
    ``_triplet_model`` from the intensity centroid of each dip group,
    with the depths started from one linear solve. The center sigmas
    come from the covariance s^2 (J^T J)^-1 at the solution.

    Raises FitFailed when no dips are found or the optimizer exhausts
    its budget, TripletsOverlap when the groups cannot be separated
    (closer than three linewidths, or no dominant gap between the dip
    clusters)."""
    f = spectrum.frequencies
    y = spectrum.contrast
    lo_group, hi_group = _split_groups(_dip_candidates(f, y))
    baseline = float(np.median(y))

    def centroid(group: list[float]) -> float:
        mask = (f >= group[0] - 4.0) & (f <= group[-1] + 4.0)
        w = np.clip(baseline - y[mask], 0.0, None)
        total = float(w.sum())
        if total <= 0.0:
            return float(np.median(group))
        return float((w * f[mask]).sum() / total)

    def spacing_init(group: list[float]) -> float:
        if len(group) == 3:
            return 0.5 * (group[-1] - group[0])
        return 2.0

    df = float(f[1] - f[0])
    start = np.zeros(11)
    start[:5] = (centroid(lo_group), centroid(hi_group),
                 spacing_init(lo_group), spacing_init(hi_group), max(4.0 * df, 0.5))
    _, jac = _triplet_model(f, start)  # at zero depths the last six columns are -L
    start[5:] = np.linalg.lstsq(-jac[:, 5:], 1.0 - y, rcond=None)[0]

    def residual(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        model, jac = _triplet_model(f, p)
        return model - y, jac

    result = levenberg_marquardt(residual, start)
    if not result.converged:
        raise FitFailed(
            f"triplet fit did not converge within {result.iterations} iterations"
        )
    p = result.x
    for k in (0, 1):  # a negative spacing lists the group's outer dips reversed
        if p[2 + k] < 0.0:
            p[2 + k] = -p[2 + k]
            p[5 + 3 * k : 8 + 3 * k] = p[7 + 3 * k : 4 + 3 * k : -1].copy()
    p[4] = abs(p[4])
    if p[0] > p[1]:  # keep group 1 the lower-frequency triplet
        p = p[[1, 0, 3, 2, 4, 8, 9, 10, 5, 6, 7]]
    if p[1] - p[0] < 3.0 * p[4]:
        raise TripletsOverlap(
            f"group centers {p[0]:.2f} and {p[1]:.2f} MHz are closer than "
            f"three linewidths ({3 * p[4]:.2f} MHz)"
        )
    model, jac = _triplet_model(f, p)
    sse = float((model - y) @ (model - y))
    sig1, sig2 = _center_uncertainties(jac, sse)
    centers = (p[0] - p[2], p[0], p[0] + p[2], p[1] - p[3], p[1], p[1] + p[3])
    return OdmrModelFit(
        pair=TransitionPair(
            omega1=float(p[0]), omega2=float(p[1]), sigma1=sig1, sigma2=sig2
        ),
        group_centers_mhz=(float(p[0]), float(p[1])),
        group_spacings_mhz=(float(p[2]), float(p[3])),
        linewidth_mhz=float(p[4]),
        dip_centers_mhz=tuple(float(c) for c in centers),
        depths=tuple(float(d) for d in p[5:]),
        sse=sse,
        iterations=result.iterations,
    )


def _center_uncertainties(jac: np.ndarray, sse: float) -> tuple[float, float]:
    """1-sigma of the two group centers from the covariance s^2 (J^T J)^-1
    of all eleven parameters, s^2 = SSE / (n - 11)."""
    dof = max(jac.shape[0] - jac.shape[1], 1)
    try:
        cov = (sse / dof) * np.linalg.inv(jac.T @ jac)
        return (
            float(math.sqrt(max(cov[0, 0], 0.0))),
            float(math.sqrt(max(cov[1, 1], 0.0))),
        )
    except np.linalg.LinAlgError:
        return (float("nan"), float("nan"))


def fit_odmr_spectrum(spectrum: Spectrum) -> TransitionPair:
    """Middle-dip centers of the two hyperfine triplets, with
    covariance-derived uncertainties."""
    return fit_odmr_model(spectrum).pair
