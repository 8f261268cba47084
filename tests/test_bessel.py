import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nvvortex.bessel import j1

# reference values from mpmath.besselj(1, x) at 40 digits
MPMATH_J1 = [
    (0.1, 0.049937526036241997556),
    (0.5, 0.24226845767487388638),
    (1.0, 0.44005058574493351596),
    (2.5, 0.49709410246427403801),
    (4.9, -0.3146946710151906032),
    (5.1, -0.33709720201823184046),
    (7.0, -0.0046828234823458326991),
    (12.7, -0.13066222900423108719),
    (19.3, -0.056391268178900998306),
    (25.0, -0.12535024958028990465),
    (37.5, -0.10782334401927695922),
    (50.0, -0.097511828125175137661),
]


@pytest.mark.parametrize(("x", "expected"), MPMATH_J1)
def test_matches_frozen_mpmath_values(x, expected):
    assert j1(x) == pytest.approx(expected, abs=1e-14)


def test_dense_grid_below_hankel_cutoff_against_mpmath_within_1e15():
    # the trapezoid regime, [0, 25), reaches rounding
    mpmath = pytest.importorskip("mpmath")
    xs = np.linspace(0.0, 25.0, 20001)
    ref = np.array([float(mpmath.besselj(1, mpmath.mpf(float(x)))) for x in xs])
    assert np.abs(j1(xs) - ref).max() < 1e-15


def test_dense_grid_against_mpmath_within_1e12():
    # a 256x256 scan at 50 nm pitch needs arguments up to about 149
    mpmath = pytest.importorskip("mpmath")
    xs = np.linspace(0.0, 160.0, 3201)
    ref = np.array([float(mpmath.besselj(1, mpmath.mpf(float(x)))) for x in xs])
    assert np.abs(j1(xs) - ref).max() < 1e-12


def test_far_arguments_against_scipy_within_1e14():
    # a profile at the radius bound, defocused up to the node bound,
    # asks for arguments up to k sin(alpha) r = 2,240
    scipy_special = pytest.importorskip("scipy.special")
    xs = np.linspace(160.0, 2240.0, 20001)
    assert np.abs(j1(xs) - scipy_special.j1(xs)).max() < 1e-14


def test_zero_is_exact():
    assert j1(0.0) == 0.0


def test_odd_symmetry_is_bitwise():
    xs = np.linspace(0.01, 160.0, 1600)
    assert np.array_equal(j1(-xs), -j1(xs))


def test_array_shape_and_scalar_type():
    out = j1(np.ones((3, 4)))
    assert out.shape == (3, 4)
    assert isinstance(j1(1.0), float)


def test_continuity_across_hankel_cutoff():
    # the trapezoid/Hankel switch at |x| = 25: steps of 2e-5 move J1 by
    # at most |J1'| * 2e-5 < 4e-6
    xs = np.linspace(24.999, 25.001, 101)
    vals = j1(xs)
    assert np.abs(np.diff(vals)).max() < 1e-5
    below, above = j1(np.nextafter(25.0, 0.0)), j1(25.0)
    assert abs(above - below) < 1e-14


@given(st.floats(min_value=0.0, max_value=80.0))
def test_magnitude_bound(x):
    # |J1| <= 1/sqrt(2) for real arguments
    assert abs(j1(x)) <= 0.7072


def test_known_first_zero():
    # first positive zero of J1 is near 3.8317059702075123
    lo, hi = 3.8317059, 3.8317060
    assert j1(lo) * j1(hi) <= 0.0
