"""Self-contained Bessel J1 used by the focal-field integral.

Three regimes in |x|:

- [0, 5): the ascending power series.
- [5, 25): one Chebyshev interpolant of degree 40. Its coefficients are
  built at import from the trapezoidal rule on the integral
  representation

      J1(x) = (1/pi) * int_0^pi cos(t - x sin t) dt,

  taken at the 41 Chebyshev nodes of the interval. The integrand is
  entire and periodic, so the rule converges super-exponentially; with
  64 intervals its aliasing error is of order J_127(25), far below
  rounding.
- [25, inf): the Hankel asymptotic expansion (Abramowitz & Stegun
  9.2.5-9.2.10), whose P and Q coefficients are built at import from
  their closed form a_k(1) = prod_{j=1..k} (4 - (2j - 1)^2) / (k! 8^k).

Each regime is accurate to about 1e-15 absolute. The tests hold j1 to
1e-12 of mpmath on [0, 160], which covers every argument a 256x256 scan
at 50 nm pitch produces (up to about 149).
"""

from __future__ import annotations

import math

import numpy as np

_SERIES_CUTOFF = 5.0
_SERIES_TERMS = 24
_HANKEL_CUTOFF = 25.0
#: Chebyshev nodes on [_SERIES_CUTOFF, _HANKEL_CUTOFF] (degree + 1)
_CHEB_NODES = 41
_CHEB_MID = 0.5 * (_HANKEL_CUTOFF + _SERIES_CUTOFF)
_CHEB_HALF = 0.5 * (_HANKEL_CUTOFF - _SERIES_CUTOFF)
#: trapezoid intervals of the rule that fits the Chebyshev coefficients
_TRAP_INTERVALS = 64
#: Hankel terms a_0 .. a_{n-1}, split between P (even k) and Q (odd k);
#: the first term left out, a_20(1) / 25^20, is 4e-18
_HANKEL_TERMS = 20


def _j1_series(x: np.ndarray) -> np.ndarray:
    half = 0.5 * x
    term = half.copy()  # k = 0 term: (x/2) / (0! * 1!)
    out = term.copy()
    h2 = half * half
    for k in range(1, _SERIES_TERMS):
        term *= -h2 / (k * (k + 1))
        out += term
    return out


def _j1_trapezoid(x: np.ndarray) -> np.ndarray:
    t = np.linspace(0.0, np.pi, _TRAP_INTERVALS + 1)
    w = np.full(_TRAP_INTERVALS + 1, 1.0 / _TRAP_INTERVALS)
    w[0] *= 0.5
    w[-1] *= 0.5
    return np.cos(t[None, :] - x[:, None] * np.sin(t)[None, :]) @ w


def _to_unit(x: np.ndarray) -> np.ndarray:
    return (x - _CHEB_MID) / _CHEB_HALF


def _chebyshev_coefficients() -> np.ndarray:
    """Coefficients c_0..c_{n-1} of the interpolant sum c_k T_k(u) through
    the n Chebyshev points. The points are taken where they round to in
    x, mapped to u exactly as at evaluation, so rounding the nodes moves
    no value off its node."""
    n = _CHEB_NODES
    x = _CHEB_MID + _CHEB_HALF * np.cos(np.pi * (np.arange(n) + 0.5) / n)
    u = _to_unit(x)
    vander = np.ones((n, n))  # vander[j, k] = T_k(u_j)
    vander[:, 1] = u
    for k in range(2, n):
        vander[:, k] = 2.0 * u * vander[:, k - 1] - vander[:, k - 2]
    return np.linalg.solve(vander, _j1_trapezoid(x))


def _hankel_coefficients() -> tuple[np.ndarray, np.ndarray]:
    """Signed coefficients of P(x) = sum_k p_k x^(-2k) and
    Q(x) = sum_k q_k x^(-2k-1) for order 1: p_k = (-1)^k a_2k(1) and
    q_k = (-1)^k a_(2k+1)(1)."""
    a = [1.0]
    for k in range(1, _HANKEL_TERMS):
        a.append(a[-1] * (4.0 - (2 * k - 1) ** 2) / (8.0 * k))
    signed = np.array(a) * (-1.0) ** (np.arange(_HANKEL_TERMS) // 2)
    return signed[0::2], signed[1::2]


_CHEB_COEF = _chebyshev_coefficients()
_HANKEL_P, _HANKEL_Q = _hankel_coefficients()


def _j1_chebyshev(x: np.ndarray) -> np.ndarray:
    """Clenshaw recurrence for sum c_k T_k(u) at u = (x - mid) / half."""
    u2 = 2.0 * _to_unit(x)
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    for c in _CHEB_COEF[:0:-1]:
        b1, b2 = u2 * b1 - b2 + c, b1
    return 0.5 * u2 * b1 - b2 + _CHEB_COEF[0]


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
    scalar = arr.ndim == 0
    flat = np.abs(arr).ravel()
    out = np.empty_like(flat)
    small = flat < _SERIES_CUTOFF
    large = flat >= _HANKEL_CUTOFF
    mid = ~(small | large)
    out[small] = _j1_series(flat[small])
    out[mid] = _j1_chebyshev(flat[mid])
    out[large] = _j1_hankel(flat[large])
    out = (np.sign(arr.ravel()) * out).reshape(arr.shape)
    if scalar:
        return float(out)
    return out
