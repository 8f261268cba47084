"""NV ground-state spin model, ODMR spectra, and field/cone inversion.

The ground-state Hamiltonian (MHz) at the NV-frame field (B_par, B_perp)
in gauss, B = (B_perp, 0, B_par) with the NV axis along z, is

    H = D Sz^2 + gamma_e B.S + S.A.I + q Iz^2 + gamma_n B.I

with S = I = 1, an axial hyperfine tensor A = diag(a_perp, a_perp,
a_par), and gamma in MHz/G. Working in ordinary frequencies makes the
closed-form inversions below dimensionally consistent:

    B     = sqrt((w1^2 + w2^2 - w1 w2 - D^2) / 3) / gamma_e
    alpha = arccos(+-sqrt((2w1 - w2 - D)(w1 - 2w2 + D)(w1 + w2 + D)
                          / (9 D (w1^2 - w1 w2 + w2^2 - D^2))))

where (w1, w2) are the mI = 0 transitions ms=0 -> -1 and ms=0 -> +1.
Both arccos branches are always propagated: one NV alone cannot pick
between alpha and pi - alpha.

The inversion reads D and gamma_e alone. The 14N hyperfine, quadrupole
and nuclear-Zeeman constants are fixed literature values that only the
simulator reads: it puts six dips at the 9x9 Hamiltonian's strongest
lines by transition strength, in ascending order. The spectrum fit is
a separable problem for ``least_squares.variable_projection``: 5
nonlinear parameters (two group centers, two spacings, the linewidth)
and 7 linear ones (six depths and a fitted baseline).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateField,
    FitFailed,
    InconsistentFrequencies,
    RankDeficient,
    TripletsOverlap,
)
from .least_squares import variable_projection
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
    "field_estimate",
    "full_hamiltonian",
    "lab_field_in_nv_frame",
    "six_transition_frequencies",
    "simulate_odmr_spectrum",
    "add_contrast_noise",
    "OdmrModelFit",
    "fit_odmr_model",
]

_SQRT2 = math.sqrt(2.0)

#: spin-1 operators in the (+1, 0, -1) basis
SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / _SQRT2
SY = np.array([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], dtype=complex) / (_SQRT2 * 1j)
SZ = np.diag([1.0, 0.0, -1.0]).astype(complex)
_ID3 = np.eye(3, dtype=complex)
_SX9, _SY9 = np.kron(SX, _ID3), np.kron(SY, _ID3)  # electron Sx, Sy in the 9x9 space
_LOWER, _UPPER = np.triu_indices(9, 1)  # the 36 upward transitions between 9 states

#: 14N constants of the simulator's 9x9 Hamiltonian (MHz; gamma_n in MHz/G)
A_PAR_MHZ = -2.14
A_PERP_MHZ = -2.70
QUADRUPOLE_MHZ = -4.96
GAMMA_N_MHZ_PER_G = 3.077e-4

#: relative tolerance of the pair inversion: |P| within RADICAND_RTOL d^2 / 3
#: is a zero field, and R = cos^2(alpha) within RADICAND_RTOL of [0, 1] is clamped
RADICAND_RTOL = 1e-9
#: memory guard for a single sweep
MAX_SWEEP_POINTS = 1_048_576
MIN_SWEEP_POINTS = 16
#: the spectrum fit runs on the sweep points within this many linewidths
#: of each dip group's outer dips
WINDOW_FWHM = 12.0


@dataclass(frozen=True)
class SpinParams:
    """The two ground-state constants the pair inversion reads: the
    zero-field splitting d in MHz and gamma_e in MHz/G. Defaults:
    d = 2870 and gamma_e = 2.8025 (g_e mu_B / h). The 14N constants of
    the simulator are module constants, fixed literature values.
    """

    d: float = 2870.0
    gamma_e: float = 2.8025

    def __post_init__(self):
        if not self.d > 0.0:
            raise ValueError(f"d, the zero-field splitting, must be > 0, got {self.d}")
        if not self.gamma_e > 0.0:
            raise ValueError(f"gamma_e must be positive, got {self.gamma_e}")


@dataclass(frozen=True)
class TransitionPair:
    """mI = 0 line positions (MHz): omega1 <= omega2 by convention, and
    their finite 1-sigma uncertainties, 0.0 for none."""

    omega1: float
    omega2: float
    sigma1: float = 0.0
    sigma2: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.omega1 <= self.omega2 < math.inf
                and 0.0 <= self.sigma1 < math.inf and 0.0 <= self.sigma2 < math.inf):
            raise ValueError(
                f"need 0 < omega1 <= omega2 < inf and finite sigmas >= 0, got {self}"
            )


@dataclass(frozen=True)
class FieldEstimate:
    """Inversion output: magnitude (G) and the unordered cone-angle
    candidate pair {alpha, pi - alpha} (rad), with their 1-sigma
    uncertainties, 0.0 for a pair without line sigmas."""

    b: float
    alpha_candidates: tuple[float, float]
    b_sigma: float = 0.0
    alpha_sigma: float = 0.0


@dataclass(frozen=True)
class SweepSettings:
    start_mhz: float = 2780.0
    stop_mhz: float = 2980.0
    n_points: int = 2001

    def __post_init__(self):
        if not self.stop_mhz > self.start_mhz:
            raise ValueError("sweep stop must exceed start")
        if self.n_points < MIN_SWEEP_POINTS:
            raise ValueError(f"sweep needs at least {MIN_SWEEP_POINTS} points")
        if self.n_points > MAX_SWEEP_POINTS:
            raise ValueError(
                f"{self.n_points} sweep points exceed MAX_SWEEP_POINTS={MAX_SWEEP_POINTS}"
            )

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


def full_hamiltonian(b_par: float, b_perp: float, params: SpinParams) -> np.ndarray:
    """9x9 electron (S=1) x nuclear (I=1) Hamiltonian, MHz: the electron
    Hamiltonian at the NV-frame field (b_par, b_perp) in gauss plus the
    14N hyperfine, quadrupole, and nuclear Zeeman terms. Hermitian."""
    h = np.kron(electron_hamiltonian(b_par, b_perp, params), _ID3)
    h += A_PERP_MHZ * (np.kron(SX, SX) + np.kron(SY, SY))
    h += A_PAR_MHZ * np.kron(SZ, SZ)
    h += QUADRUPOLE_MHZ * np.kron(_ID3, SZ @ SZ)
    h += GAMMA_N_MHZ_PER_G * (b_perp * np.kron(_ID3, SX) + b_par * np.kron(_ID3, SZ))
    return h


def lab_field_in_nv_frame(b_vec_lab, orientation: NVOrientation) -> tuple[float, float]:
    """(b_par, b_perp >= 0), a lab-frame field's parts along the NV axis and
    across it in gauss: the axial Hamiltonian ignores the transverse azimuth."""
    b = np.asarray(b_vec_lab, dtype=float)
    axis = orientation.unit_axis
    b_par = float(b @ axis)
    return b_par, float(np.linalg.norm(b - b_par * axis))


def six_transition_frequencies(
    b_par: float, b_perp: float, params: SpinParams
) -> np.ndarray:
    """The six strongest ms=0 -> +-1 lines (MHz) of the 9x9 Hamiltonian,
    ascending. Transition i -> j between eigenstates weighs
    |<j|Sx|i>|^2 + |<j|Sy|i>|^2 times |p0_i - p0_j|, the change in ms = 0
    character that optical pumping turns into contrast (Doherty et al.
    2013, Phys. Rep. 528, 1). Nuclear and ms = -1 <-> +1 transitions
    weigh next to nothing, so no eigenstate is labelled."""
    evals, evecs = np.linalg.eigh(full_hamiltonian(b_par, b_perp, params))
    p0 = (np.abs(evecs[3:6]) ** 2).sum(axis=0)  # rows 3-5 = |ms=0, mI>
    strength = sum(np.abs(evecs.conj().T @ s @ evecs) ** 2 for s in (_SX9, _SY9))
    weight = strength[_LOWER, _UPPER] * np.abs(p0[_LOWER] - p0[_UPPER])
    strongest = np.argsort(weight, kind="stable")[-6:]
    return np.sort(evals[_UPPER[strongest]] - evals[_LOWER[strongest]])


# ------------------------------------------------------------------ inversion

def _invariants(pair: TransitionPair, d: float) -> tuple:
    """P = (gamma_e B)^2 and Q = (gamma_e B cos alpha)^2 (MHz^2) of the
    mI = 0 pair and their gradients over (w1, w2), dP and dQ, from

        3 P    = w1^2 + w2^2 - w1 w2 - d^2
        27 d Q = (2 w1 - w2 - d)(w1 - 2 w2 + d)(w1 + w2 + d).

    Then B = sqrt(P) / gamma_e, dB = dP / (2 gamma_e^2 B), R = cos^2(alpha)
    = Q / P and dR = (dQ - R dP) / P."""
    w1, w2 = pair.omega1, pair.omega2
    f1, f2, f3 = 2.0 * w1 - w2 - d, w1 - 2.0 * w2 + d, w1 + w2 + d
    k = 27.0 * d
    return (
        (w1 * w1 + w2 * w2 - w1 * w2 - d * d) / 3.0,
        f1 * f2 * f3 / k,
        ((2.0 * w1 - w2) / 3.0, (2.0 * w2 - w1) / 3.0),
        ((2.0 * f2 * f3 + f1 * f3 + f1 * f2) / k,
         (f1 * f2 - f2 * f3 - 2.0 * f1 * f3) / k),
    )


def field_estimate(pair: TransitionPair, params: SpinParams) -> FieldEstimate:
    """Magnitude and cone-angle candidates {alpha, pi - alpha} (rad) of
    the mI = 0 pair, with 1-sigma uncertainties propagated to first
    order from the line sigmas, both analytic; zero line sigmas give
    zero output sigmas.

    With P and R = cos^2(alpha) = Q / P from ``_invariants``, raises
    InconsistentFrequencies when P, Q or b_sigma is not finite or P <
    -RADICAND_RTOL d^2 / 3 (no real field fits), DegenerateField when
    |P| is within that (zero field: the cone angle is undefined), and
    InconsistentFrequencies when R falls outside [0, 1] beyond a
    tolerance. The tolerance is RADICAND_RTOL, widened to 5 sigma_R at
    the R the noise produced: line noise moves R past the end of its
    range on about half the pairs of a cone at 0 or 90 deg, and such a
    pair is clamped rather than rejected.

    Near 90 and 0 deg, where |dalpha/dR| = 1 / (2 sqrt(R (1 - R))) is
    unbounded, the first-order interval R +- sigma_R, with sigma_R at
    the clamped R that alpha is reported at, can reach past R = 0 or
    R = 1. alpha_sigma is then capped at the half-width of
    acos(sqrt(R')) over that interval clipped to [0, 1], at most pi/4;
    a pair clamped to R = 0 or R = 1 gets the cap alone. An interval
    inside [0, 1] needs no cap: its half-width is sigma_R times the mean
    of the convex |dalpha/dR| over it, never below the first-order
    value."""
    p, q, dp, dq = _invariants(pair, params.d)
    if not (math.isfinite(p) and math.isfinite(q)):
        raise InconsistentFrequencies(
            f"invariants P = {p:.6g} and Q = {q:.6g} MHz^2 are not finite"
        )
    p_tol = RADICAND_RTOL * params.d * params.d / 3.0
    if p < -p_tol:
        raise InconsistentFrequencies(
            f"(gamma_e B)^2 = {p:.6g} MHz^2 below -{p_tol:.3g}; no real field fits"
        )
    if p <= p_tol:
        raise DegenerateField(
            "transition pair implies B ~ 0; the cone angle is undefined"
        )
    s1, s2 = pair.sigma1, pair.sigma2

    def sigma_r(r: float) -> float:
        return math.hypot((dq[0] - r * dp[0]) * s1, (dq[1] - r * dp[1]) * s2) / p

    ratio = q / p
    tol = RADICAND_RTOL
    if not 0.0 <= ratio <= 1.0:
        tol = max(tol, 5.0 * sigma_r(ratio))
    if ratio < -tol or ratio > 1.0 + tol:
        raise InconsistentFrequencies(
            f"arccos argument {ratio:.6g} outside [0, 1] beyond tolerance {tol:.3g}"
        )
    ratio = min(max(ratio, 0.0), 1.0)
    b = math.sqrt(p) / params.gamma_e
    a = math.acos(math.sqrt(ratio))
    b_sigma = math.hypot(dp[0] * s1, dp[1] * s2) / (2.0 * params.gamma_e**2 * b)
    if not math.isfinite(b_sigma):
        raise InconsistentFrequencies(
            f"b_sigma of line sigmas {s1:.6g} and {s2:.6g} MHz is not finite"
        )
    spread = sigma_r(ratio)
    alpha_sigma = math.inf
    if 0.0 < ratio < 1.0:
        alpha_sigma = spread / (2.0 * math.sqrt(ratio * (1.0 - ratio)))
    low, high = ratio - spread, ratio + spread
    if low <= 0.0 or high >= 1.0:
        low, high = max(low, 0.0), min(high, 1.0)
        cap = 0.5 * (math.acos(math.sqrt(low)) - math.acos(math.sqrt(high)))
        alpha_sigma = min(alpha_sigma, cap)
    return FieldEstimate(b, (a, math.pi - a), b_sigma, alpha_sigma)


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
    at ``six_transition_frequencies``, summed and reported as ``lines_mhz``
    in ascending order."""
    if not linewidth_mhz > 0.0:
        raise ValueError("linewidth must be positive")
    if not 0.0 < contrast_depth < 1.0:
        raise ValueError("contrast_depth must lie in (0, 1)")
    sweep = sweep if sweep is not None else SweepSettings()
    freqs = sweep.frequencies()
    b_par, b_perp = lab_field_in_nv_frame(b_vec_lab, orientation)
    lines = six_transition_frequencies(b_par, b_perp, params)
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
    """Two-triplet Lorentzian model fit: the pair of group centers c, the
    global linewidth, the dip centers (c - s, c, c + s) of each group and
    the off-resonance contrast ``baseline``. ``window_mhz`` is the part
    of the sweep the fit ran on, one (low, high) span in MHz per dip
    group, clipped to the sweep; ``iterations`` is summed over the fit's
    passes."""

    pair: TransitionPair
    linewidth_mhz: float
    dip_centers_mhz: tuple[float, ...]
    iterations: int
    window_mhz: tuple[tuple[float, float], tuple[float, float]]
    baseline: float


def _median(a) -> float:
    """``np.median`` of finite values, bit for bit: the middle order
    statistic, or the mean (a + b) / 2 of the two middle ones. It skips
    ``np.median``'s NaN check, whose first call imports ``numpy.ma`` and
    costs 9-15 ms in a fresh process."""
    a = np.asarray(a, dtype=float)
    k = a.size // 2
    if a.size % 2:
        return float(np.partition(a, k)[k])
    part = np.partition(a, (k - 1, k))
    return float((part[k - 1] + part[k]) / 2)


def _dip_candidates(f: np.ndarray, y: np.ndarray, baseline: float) -> list[float]:
    """Local minima of ``y`` deeper than 40% of the deepest dip below
    ``baseline`` (the median contrast), clustered within a linewidth
    scale; as sweep frequencies."""
    depth = baseline - float(y.min())
    noise = 1.4826 * _median(np.abs(y - baseline))
    if depth <= max(1e-12, 5.0 * noise):
        raise FitFailed("no significant dips found in the spectrum")
    cut = baseline - 0.4 * depth
    mid = y[1:-1]
    idx = (np.flatnonzero((mid < cut) & (mid <= y[:-2]) & (mid <= y[2:])) + 1).tolist()
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
        if gaps[k] <= 2.5 * _median(others):
            raise TripletsOverlap(
                "dip spacing shows no dominant gap between triplet groups"
            )
    return list(cands[: k + 1]), list(cands[k + 1 :])


#: d(center_k)/d(c1, c2, s1, s2) of the centers (c1 - s1, c1, c1 + s1,
#: c2 - s2, c2, c2 + s2), and a 1 per center for the width row
_CENTER_RATES = np.array([
    [1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0],
    [-1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, -1, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1],
], dtype=float)


def _triplet_model(f: np.ndarray, x: np.ndarray):
    """The two-triplet contrast model baseline - sum_k depth_k L(f;
    center_k, fwhm) as a separable one: at x = (c1, c2, s1, s2, fwhm),
    centers (c1 - s1, c1, c1 + s1, c2 - s2, c2, c2 + s2), the (n, 7) basis
    [-L_1 .. -L_6, 1] of c = (depth_1..6, baseline) and the function that
    gives d(model)/dx, (n, 5). With u = f - center and h = fwhm / 2,
    L = h^2 / (u^2 + h^2), dL/dcenter = 2 u L^2 / h^2 and dL/dfwhm =
    L (1 - L) / h, so d(model)/dx is one product of a (5, 12) matrix of c
    with the rows u L^2 and -L (1 - L). The arrays are built sweep-major,
    one row per column, and returned as transposed views."""
    c1, c2, s1, s2, w = x
    centers = np.array([c1 - s1, c1, c1 + s1, c2 - s2, c2, c2 + s2])
    h = 0.5 * w
    hh = h * h
    u = f - centers[:, None]
    basis = np.empty((7, f.size))
    neg = np.multiply(u, u, out=basis[:6])  # -L, built in place
    neg += hh
    np.divide(-hh, neg, out=neg)
    basis[6] = 1.0
    rates = np.empty((12, f.size))  # u L^2, then -L (1 - L)
    np.multiply(u, neg, out=rates[:6])
    rates[:6] *= neg
    np.add(1.0, neg, out=rates[6:])
    rates[6:] *= neg
    scale = np.array([-2.0 / hh] * 6 + [1.0 / h] * 6)

    def slopes(c: np.ndarray) -> np.ndarray:
        return ((_CENTER_RATES * (scale * np.tile(c[:6], 2))) @ rates).T

    return basis.T, slopes


def _window(
    groups: tuple[list[float], list[float]], p: np.ndarray, fwhm: float
) -> list[tuple[float, float]]:
    """Per dip group, the span (MHz) from its lowest to its highest dip,
    counting the detected candidates and the outer dips c -+ s of ``p``,
    widened by WINDOW_FWHM linewidths ``fwhm`` at each end."""
    reach = WINDOW_FWHM * float(fwhm)
    spans = []
    for k, group in enumerate(groups):
        c, s = float(p[k]), abs(float(p[2 + k]))
        spans.append((min(group[0], c - s) - reach, max(group[-1], c + s) + reach))
    return spans


def _in_window(f: np.ndarray, spans: list[tuple[float, float]]) -> np.ndarray:
    (lo1, hi1), (lo2, hi2) = spans
    return ((f >= lo1) & (f <= hi1)) | ((f >= lo2) & (f <= hi2))


def fit_odmr_model(spectrum: Spectrum) -> OdmrModelFit:
    """Fit the two-triplet model: its centers, linewidth and baseline.

    ``least_squares.variable_projection`` runs on ``_triplet_model``,
    with Levenberg-Marquardt over (c1, c2, s1, s2, fwhm) from the
    intensity centroid of each dip group and the 6 depths and the
    baseline solved at every step: the baseline is fitted, not assumed
    to be 1. The fit sees only a window around each group (``_window``):
    from the group's lowest to its highest dip, detected or fitted, plus
    WINDOW_FWHM linewidths at each end, where a dip's Lorentzian is below
    0.2% of its depth. The first window takes the dip search's linewidth
    scale, max(4 df, 1 MHz); while the fitted linewidth asks for a wider
    one, the fit is repeated from its solution on the grown window, at
    most the whole sweep. The center sigmas (from the solver's covariance
    of all 12 parameters, s^2 = SSE / (n_w - 12)) and ``iterations``
    (summed over the passes) are taken over the n_w points of the final
    window, which ``window_mhz`` reports.

    Raises FitFailed when no dips are found, the optimizer exhausts its
    budget in any pass, the model is rank-deficient, a center sigma is
    not finite or the lower group center is not above 0 MHz, and
    TripletsOverlap when the groups cannot be separated (closer than
    three linewidths, or no dominant gap between the dip clusters)."""
    f = spectrum.frequencies
    y = spectrum.contrast
    baseline = _median(y)
    groups = _split_groups(_dip_candidates(f, y, baseline))

    def centroid(group: list[float]) -> float:
        mask = (f >= group[0] - 4.0) & (f <= group[-1] + 4.0)
        w = np.clip(baseline - y[mask], 0.0, None)  # > 0 at the group's own dips
        return float((w * f[mask]).sum() / float(w.sum()))

    def spacing_init(group: list[float]) -> float:
        if len(group) == 3:
            return 0.5 * (group[-1] - group[0])
        return 2.0

    df = float(f[1] - f[0])
    x = np.array([centroid(groups[0]), centroid(groups[1]),
                  spacing_init(groups[0]), spacing_init(groups[1]), max(4.0 * df, 0.5)])
    spans = _window(groups, x, max(4.0 * df, 1.0))
    inside = _in_window(f, spans)
    fw, yw = f[inside], y[inside]

    iterations = 0
    while True:
        try:
            result = variable_projection(lambda q: _triplet_model(fw, q), yw, x)
        except RankDeficient as exc:
            raise FitFailed(f"the triplet fit is undetermined: {exc}") from exc
        iterations += result.iterations
        if not result.converged:
            raise FitFailed(
                f"triplet fit did not converge within {iterations} iterations"
            )
        x = result.x
        spans = [
            (min(lo, need_lo), max(hi, need_hi))
            for (lo, hi), (need_lo, need_hi) in zip(spans, _window(groups, x, abs(x[4])))
        ]
        inside = _in_window(f, spans)
        if np.count_nonzero(inside) == fw.size:  # the window only ever grows
            break
        fw, yw = f[inside], y[inside]

    # a negative spacing lists a group's outer dips reversed; the
    # Lorentzians are even in the width
    c1, c2, s1, s2, width = x[0], x[1], abs(x[2]), abs(x[3]), abs(x[4])
    sigmas = [math.sqrt(max(float(result.covariance[k, k]), 0.0)) for k in (0, 1)]
    if c1 > c2:  # keep group 1 the lower-frequency triplet
        c1, c2, s1, s2 = c2, c1, s2, s1
        sigmas.reverse()
    if c2 - c1 < 3.0 * width:
        raise TripletsOverlap(
            f"group centers {c1:.2f} and {c2:.2f} MHz are closer than "
            f"three linewidths ({3 * width:.2f} MHz)"
        )
    if not c1 > 0.0:  # a sweep not in absolute MHz, or a stray dip
        raise FitFailed(f"lower group center {c1:.2f} MHz is not above 0 MHz")
    if not all(map(math.isfinite, sigmas)):
        raise FitFailed(f"the triplet fit's centre sigmas {sigmas} are not finite")
    centers = (c1 - s1, c1, c1 + s1, c2 - s2, c2, c2 + s2)
    return OdmrModelFit(
        pair=TransitionPair(float(c1), float(c2), sigmas[0], sigmas[1]),
        linewidth_mhz=float(width),
        dip_centers_mhz=tuple(float(c) for c in centers),
        iterations=iterations,
        window_mhz=tuple(
            (max(lo, float(f[0])), min(hi, float(f[-1]))) for lo, hi in spans
        ),
        baseline=float(result.c[6]),
    )
