"""Self-contained Bessel J1 used by the focal-field integral.

Two regimes in |x|:

- [0, 25): the trapezoidal rule with 16 intervals on

      J1(x) = (2/pi) * int_0^(pi/2) sin(x sin t) sin t dt,

  Abramowitz & Stegun 9.1.21 folded onto a quarter period. Continued
  to the whole circle the integrand is entire and periodic, so this is
  the 64-point periodic trapezoidal rule, which converges exponentially
  (Trefethen & Weideman, SIAM Rev. 56, 385, 2014): its aliasing error
  is of order J_63(25) ~ 5e-20, below rounding. With 14 intervals it
  would be J_55(25) ~ 1e-14.
- [25, inf): the Hankel asymptotic expansion (Abramowitz & Stegun
  9.2.5-9.2.10), whose P and Q coefficients are built at import from
  their closed form a_k(1) = prod_{j=1..k} (4 - (2j - 1)^2) / (k! 8^k).

Each regime is accurate to about 1e-15 absolute. The tests hold j1 to
1e-15 of mpmath on [0, 25] and to 1e-12 on [0, 160], which covers every
argument a 256x256 scan at 50 nm pitch produces (up to about 149).
"""

from __future__ import annotations

import math

import numpy as np

_HANKEL_CUTOFF = 25.0
#: trapezoid intervals on [0, pi/2]
_TRAP_INTERVALS = 16
#: sin t at the nodes t_j = j h, h = pi / (2 n), j = 1 .. n (t = 0 adds
#: nothing), and their weights (2 / pi) h sin t_j, halved at the end node
_TRAP_SIN = np.sin(np.linspace(0.0, 0.5 * math.pi, _TRAP_INTERVALS + 1)[1:])
_TRAP_WEIGHT = _TRAP_SIN / _TRAP_INTERVALS
_TRAP_WEIGHT[-1] *= 0.5
#: Hankel terms a_0 .. a_{n-1}, split between P (even k) and Q (odd k);
#: the first term left out, a_20(1) / 25^20, is 4e-18
_HANKEL_TERMS = 20


def _j1_trapezoid(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    for s, w in zip(_TRAP_SIN, _TRAP_WEIGHT):
        out += w * np.sin(s * x)
    return out


def _hankel_coefficients() -> tuple[np.ndarray, np.ndarray]:
    """Signed coefficients of P(x) = sum_k p_k x^(-2k) and
    Q(x) = sum_k q_k x^(-2k-1) for order 1: p_k = (-1)^k a_2k(1) and
    q_k = (-1)^k a_(2k+1)(1)."""
    a = [1.0]
    for k in range(1, _HANKEL_TERMS):
        a.append(a[-1] * (4.0 - (2 * k - 1) ** 2) / (8.0 * k))
    signed = np.array(a) * (-1.0) ** (np.arange(_HANKEL_TERMS) // 2)
    return signed[0::2], signed[1::2]


_HANKEL_P, _HANKEL_Q = _hankel_coefficients()


def _horner(coef: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.full_like(y, coef[-1])
    for c in coef[-2::-1]:
        out *= y
        out += c
    return out


def _j1_hankel(x: np.ndarray) -> np.ndarray:
    """sqrt(2 / (pi x)) (P cos chi - Q sin chi) with chi = x - 3 pi / 4,
    expanded so no rounded phase is ever formed:
    cos chi = (sin x - cos x) / sqrt 2, sin chi = -(sin x + cos x) / sqrt 2."""
    inv = 1.0 / x
    y = inv * inv
    p = _horner(_HANKEL_P, y)
    q = _horner(_HANKEL_Q, y) * inv
    s, c = np.sin(x), np.cos(x)
    return (p * (s - c) + q * (s + c)) / np.sqrt(math.pi * x)


def j1(x):
    """Bessel function of the first kind, order 1.

    Accepts a scalar or ndarray; returns the same shape. Exactly odd:
    j1(-x) == -j1(x), and j1(0.0) == 0.0.
    """
    arr = np.asarray(x, dtype=float)
    flat = np.abs(arr).ravel()
    out = np.empty_like(flat)
    large = flat >= _HANKEL_CUTOFF
    out[~large] = _j1_trapezoid(flat[~large])
    out[large] = _j1_hankel(flat[large])
    out = (np.sign(arr.ravel()) * out).reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out
