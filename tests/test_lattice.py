import math
from fractions import Fraction

import numpy as np
import pytest

from retard_oc.errors import IncommensurableDelayError, LatticePrecisionError, ZeroDelaysError
from retard_oc.lattice import (CommensurabilityLattice, Rational, _lattice_grid, as_rational,
                               make_lattice, rational_gcd)


@pytest.mark.parametrize("a,b,r,s,h,n", [
    (0, 4, 2, 1, Fraction(1), 4),
    (0, 3, 1, 2, Fraction(1), 3),
    (0, 1, Fraction(1, 2), 0, Fraction(1, 2), 2),
])
def test_known_lattices(a, b, r, s, h, n):
    lat = make_lattice(a, b, r, s)
    assert lat.h == h
    assert lat.n_cells == n
    assert lat.breakpoints[0] == lat.a
    assert lat.breakpoints[-1] == lat.b


def test_rejects_zero_delays():
    with pytest.raises(ZeroDelaysError):
        make_lattice(0, 1, 0, 0)


def test_rejects_unrepresentable_floats():
    with pytest.raises(IncommensurableDelayError):
        make_lattice(0, 1, 0.1, 0)  # 0.1 is not an exact small rational
    with pytest.raises(IncommensurableDelayError):
        make_lattice(0, 1, math.pi, 0)


def test_clean_floats_and_strings_accepted():
    lat = make_lattice(0, 1, 0.5, "1/4")
    assert lat.r == Fraction(1, 2)
    assert lat.s == Fraction(1, 4)
    assert lat.h == Fraction(1, 4)


def test_bad_bounds():
    with pytest.raises(ValueError):
        make_lattice(1, 1, 1, 0)
    with pytest.raises(ValueError):
        make_lattice(0, 1, -1, 0)


def test_gcd_divisibility_property():
    # amplitude must divide r, s and b - a exactly for random small rationals
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a = Fraction(int(rng.integers(-6, 6)), int(rng.integers(1, 9)))
        length = Fraction(int(rng.integers(1, 24)), int(rng.integers(1, 9)))
        r = Fraction(int(rng.integers(0, 12)), int(rng.integers(1, 9)))
        s = Fraction(int(rng.integers(0, 12)), int(rng.integers(1, 9)))
        if r == 0 and s == 0:
            s = Fraction(1, 3)
        lat = make_lattice(a, a + length, r, s)
        for quantity in (r, s, length):
            multiple = quantity / lat.h
            assert multiple.denominator == 1
            assert multiple >= 0
        assert lat.a + lat.n_cells * lat.h == lat.b


def test_shifts_are_exact_integers():
    lat = make_lattice(0, 4, 2, 1)
    assert (lat.state_shift, lat.control_shift) == (2, 1)
    lat = make_lattice(0, 3, 1, 2)
    assert (lat.state_shift, lat.control_shift) == (1, 2)


@pytest.mark.parametrize("r, s, b, named", [
    (Fraction(1, 3), 0, 1, "r=1/3"), (1, Fraction(1, 4), 1, "s=1/4"),
    (1, 0, Fraction(3, 4), "b - a=3/4")])
def test_a_lattice_whose_h_does_not_divide_a_delay_or_the_horizon_is_refused(r, s, b, named):
    # a typed error, under python -O as well: an assert would be dropped there
    with pytest.raises(IncommensurableDelayError, match=f"h=1/2 does not divide {named}"):
        CommensurabilityLattice(a=Fraction(0), b=Fraction(b), r=Fraction(r), s=Fraction(s),
                                h=Fraction(1, 2), n_cells=2)


@pytest.mark.parametrize("h", [Fraction(0), Fraction(-1, 2)])
def test_a_lattice_with_a_nonpositive_h_is_refused(h):
    # a typed error, not a ZeroDivisionError, under python -O as well
    with pytest.raises(IncommensurableDelayError, match=f"h={h} is not positive"):
        CommensurabilityLattice(a=Fraction(0), b=Fraction(1), r=Fraction(1), s=Fraction(0),
                                h=h, n_cells=2)


@pytest.mark.parametrize("n_cells", [5, 1, 0, -2])
def test_a_lattice_whose_cells_do_not_tile_the_horizon_is_refused(n_cells):
    # five cells of 1/2 would run the breakpoints to 5/2, past b = 1
    with pytest.raises(IncommensurableDelayError,
                       match=rf"n_cells={n_cells} cells of h=1/2 do not tile \[0, 1\], "
                             r"which takes 2"):
        CommensurabilityLattice(a=Fraction(0), b=Fraction(1), r=Fraction(1), s=Fraction(0),
                                h=Fraction(1, 2), n_cells=n_cells)
    lattice = CommensurabilityLattice(a=Fraction(0), b=Fraction(1), r=Fraction(1),
                                      s=Fraction(0), h=Fraction(1, 2), n_cells=2)
    assert lattice.breakpoints[-1] == lattice.b


def test_delay_longer_than_horizon():
    lat = make_lattice(0, 1, 5, 0)
    assert lat.h == 1
    assert lat.state_shift == 5  # every delayed lookup lands in history


def test_rational_gcd():
    assert rational_gcd([Fraction(1, 2), Fraction(3, 4)]) == Fraction(1, 4)
    assert rational_gcd([Fraction(2), Fraction(3)]) == Fraction(1)


def test_as_rational_lowest_terms():
    q = as_rational("6/4")
    assert (q.numerator, q.denominator) == (3, 2)
    assert isinstance(q, Rational)


def test_a_grid_whose_times_are_not_exact_floats_raises_naming_the_denominator():
    # 16 points per cell put the common denominator past 2^53: the guard was an
    # assert, so a run raised a bare AssertionError, and under python -O the
    # times came out inexact (t[1] = 0.0625, not 0.0625000000000018)
    a = Fraction(1, 562949953421311)
    lattice = make_lattice(a, a + 4, 2, 1)
    assert lattice.n_cells == 4
    with pytest.raises(LatticePrecisionError, match=r"denominator 9007199254740976\b"):
        _lattice_grid(lattice, 16)
    # with a denominator of 2^49 the grid is built, its times exact
    a = Fraction(1, 2 ** 45)
    grid = _lattice_grid(make_lattice(a, a + 4, 2, 1), 16)
    assert grid.t.tolist() == [float(a + Fraction(j, 16)) for j in range(64)] + [float(a + 4)]
