"""Exact rational time lattice shared by delays, breakpoints and indicators.

All switching times in a commensurable delayed problem (delay multiples,
cell boundaries, indicator windows) are integer combinations of a single
grid amplitude h.  Keeping a, b, r, s and h as exact rationals means cell
membership and indicator windows are decided without floating-point ties.
Each lattice is built once, with its cells and their float ``edges``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .errors import IncommensurableDelayError, LatticePrecisionError, ZeroDelaysError

#: Exact rational scalar used for every lattice quantity.  Stored in lowest
#: terms with a positive denominator, which ``fractions.Fraction`` guarantees.
Rational = Fraction

RationalLike = Union[Rational, int, str, float]

# Floats are accepted only when they are "clean" dyadic rationals (0.5, 0.25,
# ...).  Anything else (0.1, math.pi) silently means a nearby binary fraction,
# which would defeat the exactness the lattice exists to provide.
_MAX_FLOAT_DENOMINATOR = 2 ** 20


def as_rational(value: RationalLike) -> Rational:
    """Coerce ``value`` to an exact :class:`Rational`.

    Accepts integers, ``Fraction``, strings like ``"2/3"`` or ``"0.5"``, and
    floats whose exact binary value has a small power-of-two denominator.
    Raises :class:`IncommensurableDelayError` otherwise; pass ``"1/10"``
    instead of ``0.1``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise IncommensurableDelayError(f"cannot parse rational {value!r}") from exc
    if isinstance(value, float):
        if not math.isfinite(value):
            raise IncommensurableDelayError(f"non-finite time quantity {value!r}")
        exact = Fraction(value)
        if exact.denominator > _MAX_FLOAT_DENOMINATOR:
            raise IncommensurableDelayError(
                f"float {value!r} is not an exact small rational; "
                f"pass a string such as '1/10' instead"
            )
        return exact
    raise IncommensurableDelayError(f"unsupported time quantity {value!r}")


def rational_gcd(values: Sequence[Rational]) -> Rational:
    """Greatest rational dividing every value: gcd of p_i/q_i over a common
    denominator."""
    if not values:
        raise ValueError("gcd of empty sequence")
    acc = values[0]
    for v in values[1:]:
        acc = Fraction(
            math.gcd(acc.numerator * v.denominator, v.numerator * acc.denominator),
            acc.denominator * v.denominator,
        )
    return acc


@dataclass(frozen=True)
class CommensurabilityLattice:
    """Uniform rational grid on [a, b] whose amplitude divides both delays.

    ``h`` is the gcd of the nonzero members of {r, s, b - a}; every delay
    shift is then an exact integer number of cells.  ``edges`` holds the
    breakpoints as floats, read-only.  An h that does not divide r, s and
    b - a, or with ``n_cells`` other than (b - a)/h, is refused with
    :class:`IncommensurableDelayError`.
    """

    a: Rational
    b: Rational
    r: Rational
    s: Rational
    h: Rational
    n_cells: int

    def __post_init__(self):
        if not Fraction(self.h) > 0:
            raise IncommensurableDelayError(f"grid amplitude h={self.h} is not positive")
        for name, value in (("r", self.r), ("s", self.s), ("b - a", self.b - self.a)):
            if (Fraction(value) / Fraction(self.h)).denominator != 1:
                raise IncommensurableDelayError(f"grid amplitude h={self.h} does not divide "
                                                f"{name}={value}")
        if self.n_cells != (self.b - self.a) / Fraction(self.h):
            raise IncommensurableDelayError(
                f"n_cells={self.n_cells} cells of h={self.h} do not tile [{self.a}, {self.b}], "
                f"which takes {(self.b - self.a) / Fraction(self.h)}")
        points = tuple(self.a + i * self.h for i in range(self.n_cells + 1))
        edges = np.array([float(t) for t in points])
        edges.flags.writeable = False
        for name, value in (("breakpoints", points), ("edges", edges),
                            ("_cells", tuple(zip(range(self.n_cells), points, points[1:])))):
            object.__setattr__(self, name, value)

    @property
    def state_shift(self) -> int:
        """Number of whole cells spanned by the state delay r."""
        return int(self.r / self.h)

    @property
    def control_shift(self) -> int:
        """Number of whole cells spanned by the control delay s."""
        return int(self.s / self.h)

    def cell(self, i: int) -> tuple[Rational, Rational]:
        if not 0 <= i < self.n_cells:
            raise IndexError(f"cell {i} outside 0..{self.n_cells - 1}")
        return self._cells[i][1:]

    def cells(self) -> tuple[tuple[int, Rational, Rational], ...]:
        return self._cells


def make_lattice(a: RationalLike, b: RationalLike, r: RationalLike,
                 s: RationalLike) -> CommensurabilityLattice:
    """Build the commensurability lattice for horizon [a, b] and delays r, s,
    once for equal constants (a lattice is immutable, so they share it).

    Raises :class:`ZeroDelaysError` when r = s = 0 and
    :class:`IncommensurableDelayError` when an input is not an exact rational.
    """
    return _lattice(as_rational(a), as_rational(b), as_rational(r), as_rational(s))


@lru_cache(maxsize=256)
def _lattice(a: Rational, b: Rational, r: Rational, s: Rational) -> CommensurabilityLattice:
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    if r < 0 or s < 0:
        raise ValueError(f"delays must be nonnegative, got r={r}, s={s}")
    if r == 0 and s == 0:
        raise ZeroDelaysError("state and control delays are both zero")
    members = [v for v in (r, s, b - a) if v != 0]
    h = rational_gcd(members)
    return CommensurabilityLattice(a=a, b=b, r=r, s=s, h=h, n_cells=int((b - a) / h))


# -- sample times ----------------------------------------------------------------

def _closed(t: float, lo, hi):
    """lo <= t <= hi for a float t, each end widened by 1e-12 of its size;
    elementwise over arrays of ends."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    snap = 1e-12 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    return (lo - snap <= t) & (t <= hi + snap)


@dataclass(frozen=True)
class _SampleTimes:
    """Where both certificates read their arguments at fixed sample times:
    exact for a rational (or integer) time, in float arithmetic for a float
    one.  ``ahead`` and ``ahead_delayed`` hold the gated times only."""

    t: np.ndarray
    delayed_state: np.ndarray     # t - r
    delayed_control: np.ndarray   # t - s
    delayed_both: np.ndarray      # t - s - r
    before_start: np.ndarray      # t - s < a: the history psi gives u(t - s)
    gated: np.ndarray             # chi_[a, b-s](t)
    ahead: np.ndarray             # t + s
    ahead_delayed: np.ndarray     # t + s - r
    cells: np.ndarray             # closed lattice cells holding t


def _sample_times(lattice: CommensurabilityLattice, times: Sequence) -> _SampleTimes:
    a, b, r, s, h = lattice.a, lattice.b, lattice.r, lattice.s, lattice.h
    exact = [t for t in times if isinstance(t, (Fraction, int))]
    D = math.lcm(*(x.denominator for x in [a, b, r, s, h, *exact]))
    # a rational time is held as the integer t D, so its shifts and tests are
    # exact integer arithmetic; a float time meets the lattice as floats
    unit = lambda x: x.numerator * (D // x.denominator)
    ts = [unit(t) if isinstance(t, (Fraction, int)) else float(t) for t in times]
    floats = lambda xs: np.array([x / D if type(x) is int else x for x in xs], dtype=float)

    def minus(xs, c):
        C, F = unit(c), float(c)
        return [x - C if type(x) is int else x - F for x in xs]

    A, B, G, H = unit(a), unit(b), unit(b - s), unit(h)
    ends = lattice.edges if len(exact) < len(ts) else None
    gated = [A <= t <= G if type(t) is int else bool(_closed(t, a, b - s)) for t in ts]
    cells = [int(A <= t <= B) + int(A < t < B and (t - A) % H == 0) if type(t) is int
             else int(np.count_nonzero(_closed(t, ends[:-1], ends[1:]))) for t in ts]
    control, ahead = minus(ts, s), minus([t for t, g in zip(ts, gated) if g], -s)
    return _SampleTimes(
        t=floats(ts), delayed_state=floats(minus(ts, r)), delayed_control=floats(control),
        delayed_both=floats(minus(control, r)),
        before_start=np.array([v < A if type(v) is int else v < float(a) - 1e-12
                               for v in control], dtype=bool),
        gated=np.array(gated, dtype=bool), ahead=floats(ahead),
        ahead_delayed=floats(minus(ahead, r)), cells=np.array(cells, dtype=int))


def _lattice_grid(lattice: CommensurabilityLattice, per_cell: int, interior_only: bool = False,
                  both_ends: bool = False, rows=slice(None)) -> _SampleTimes:
    """:func:`_sample_times` of the times a + (i + j / per_cell) h, cell by cell (j = 0 ..
    per_cell - 1, then b; j = 1 .. per_cell - 1 if ``interior_only``; j = 0 .. per_cell in
    every cell if ``both_ends``), or of their ``rows``, in integer array arithmetic: each time
    is an int64 numerator over D, per_cell times the lattice's common denominator.  A numerator
    below 2^53 is exact in float64, so its quotient by D is Python's int / int."""
    D = math.lcm(*(x.denominator for x in (lattice.a, lattice.b, lattice.r,
                                           lattice.s, lattice.h))) * per_cell
    a, b, r, s, h = (x.numerator * (D // x.denominator) for x in
                     (lattice.a, lattice.b, lattice.r, lattice.s, lattice.h))
    if D + max(abs(a), abs(b)) + r + s >= 2 ** 53:   # bounds every shifted time
        raise LatticePrecisionError(
            f"lattice grid denominator {D} is too large for exact float times "
            f"({per_cell} points per cell)")
    j = np.arange(int(interior_only), per_cell + both_ends)
    num = (a + h * np.arange(lattice.n_cells)[:, None] + h // per_cell * j).ravel()
    num = (num if interior_only or both_ends else np.append(num, b))[rows]
    gated, control = (a <= num) & (num <= b - s), num - s
    ahead = num[gated] + s
    return _SampleTimes(
        t=num / D, delayed_state=(num - r) / D, delayed_control=control / D,
        delayed_both=(control - r) / D, before_start=control < a, gated=gated,
        ahead=ahead / D, ahead_delayed=(ahead - r) / D,
        cells=((a <= num) & (num <= b)).astype(int)
        + ((a < num) & (num < b) & ((num - a) % h == 0)))
