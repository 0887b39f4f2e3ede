"""Piecewise curves over the time axis, with history segments prepended.

A :class:`Trajectory` tiles [history_start, end] with half-open segments
[t_i, t_{i+1}); the final segment is closed at ``end``.  Jumps therefore sit
at the left endpoint of the following segment, matching piecewise
definitions like "u(t) = 0 on ]3, 4]".  Segment bounds are exact rationals;
only curve evaluation uses floats, and a curve answers a single time as
an array of one time, so there is one lookup.  Segments (and cells, in
:func:`block_rows`) whose curves share one function are evaluated in one
call.  :func:`delayed_rows` is the library's one delayed-argument
resolver: on a lattice, a delay is a block shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import OutOfDomainError
from .lattice import Rational, RationalLike, as_rational

TimeLike = Union[float, int, Fraction]

# Relative slack (scaled by the trajectory span) when snapping float query
# times onto exact rational segment boundaries.
_SNAP = 1e-11


def _times(ts) -> np.ndarray:
    """``eval_many``'s times as a 1-D float array; another shape raises ValueError."""
    if (t := np.asarray(ts, dtype=float)).ndim != 1:
        raise ValueError(f"eval_many takes a 1-D sequence of times, not shape {t.shape}")
    return t


def _one_row(self, t: TimeLike) -> np.ndarray:
    """Value at the one time ``t``: :meth:`eval_many` on one row, so a
    single time and an array of times share one lookup."""
    return self.eval_many(np.array([float(t)]))[0]


class CallableCurve:
    """Closed-form curve wrapping a scalar-time callable returning shape (dim,)."""

    def __init__(self, fn: Callable[[float], object], dim: int):
        from .problems import array_form   # problems builds on this module
        self.fn = fn
        self.dim = dim
        self._many = array_form(fn, (dim,))

    __call__ = _one_row

    def eval_many(self, ts: np.ndarray) -> np.ndarray:
        """Values at each of ``ts``, shape (len(ts), dim), from the array form
        of the callable: one call per time unless it declares one."""
        return self._many(_times(ts))


def _hermite_basis(theta):
    """Cubic Hermite basis (h00, h10, h01, h11) at theta."""
    t2 = theta * theta
    t3 = t2 * theta
    return 2 * t3 - 3 * t2 + 1, t3 - 2 * t2 + theta, -2 * t3 + 3 * t2, t3 - t2


class HermiteCurve:
    """Cubic Hermite interpolant through (ts, ys) with nodal slopes ds.

    Interpolation error is O(delta^4) in the node spacing, matching the
    integrator's accuracy when nodes are stored at half-substep resolution.
    """

    def __init__(self, ts: np.ndarray, ys: np.ndarray, ds: np.ndarray):
        ts, ys, ds = (np.asarray(a, dtype=float) for a in (ts, ys, ds))
        if ts.ndim != 1 or len(ts) < 2:
            raise ValueError("need at least two nodes")
        if ys.shape != (len(ts), ys.shape[1]) or ds.shape != ys.shape:
            raise ValueError("node array shapes disagree")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("node times must increase")
        self.ts, self.ys, self.ds, self.dim = ts, ys, ds, ys.shape[1]
        self._inner, self._dt = ts[1:-1], np.diff(ts)   # interior nodes, interval widths
        self._slack = _SNAP * max(1.0, abs(ts[0]), abs(ts[-1]))

    __call__ = _one_row

    def eval_many(self, t: np.ndarray) -> np.ndarray:
        """Values at each of the times ``t``, shape (len(t), dim): each time
        within float fuzz of the nodes is clamped onto them and blended on
        the node interval holding it."""
        ts, slack, t = self.ts, self._slack, _times(t)
        lo, hi = t.min(initial=np.inf), t.max(initial=-np.inf)
        if lo < ts[0] - slack or hi > ts[-1] + slack:
            raise OutOfDomainError(
                f"t={lo if lo < ts[0] - slack else hi} outside nodes [{ts[0]}, {ts[-1]}]")
        i = np.searchsorted(self._inner, t, side="right")
        t0 = ts[i][:, None]
        dt = self._dt[i][:, None]
        theta = np.clip((t[:, None] - t0) / dt, 0.0, 1.0)
        h00, h10, h01, h11 = _hermite_basis(theta)
        return (h00 * self.ys[i] + h10 * dt * self.ds[i]
                + h01 * self.ys[i + 1] + h11 * dt * self.ds[i + 1])


Curve = Union[CallableCurve, HermiteCurve]


class Segment(NamedTuple):
    lo: Rational
    hi: Rational
    curve: Curve


@dataclass(frozen=True)
class Trajectory:
    """Evaluable piecewise curve on [history_start, end].

    ``main_start`` marks the boundary between prepended history (initial
    data) and the governed part of the curve.  State trajectories are
    continuous across interior joins; control trajectories may jump there.
    """

    dimension: int
    history_start: Rational
    main_start: Rational
    end: Rational
    segments: tuple[Segment, ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("trajectory needs at least one segment")
        prev = self.history_start
        for seg in self.segments:
            if seg.lo != prev:
                raise ValueError(f"segments do not tile: gap at {prev} vs {seg.lo}")
            if not seg.lo < seg.hi:
                raise ValueError("empty segment")
            prev = seg.hi
        if prev != self.end:
            raise ValueError(f"segments end at {prev}, expected {self.end}")
        bounds = np.array([float(s.lo) for s in self.segments] + [float(self.end)])
        object.__setattr__(self, "_bounds", bounds)
        first = {}   # segment k's group: the first segment with its curve function (fn, or itself)
        object.__setattr__(self, "_group", np.array([first.setdefault(
            id(getattr(s.curve, "fn", s.curve)), k) for k, s in enumerate(self.segments)]))
        object.__setattr__(self, "_slack", _SNAP * max(
            1.0, bounds[-1] - bounds[0], abs(bounds[0]), abs(bounds[-1])))

    # -- evaluation ---------------------------------------------------------

    def _lookup(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """Owning segment index and float time of each of ``ts``.

        The right segment owns each interior breakpoint, and the last one
        owns ``end``; a time within float fuzz of its segment's right
        boundary is snapped onto the next segment.  A time within float fuzz
        outside its owning segment (snapped onto it, or past either end) is
        clamped onto that segment's interval; one further out raises
        :class:`OutOfDomainError`.
        """
        tf = _times(ts)
        bounds, slack, last = self._bounds, self._slack, len(self.segments) - 1
        lo, hi = tf.min(initial=np.inf), tf.max(initial=-np.inf)
        if lo < bounds[0] - slack or hi > bounds[-1] + slack:
            raise OutOfDomainError(f"t={lo if lo < bounds[0] - slack else hi} "
                                   f"outside [{self.history_start}, {self.end}]")
        i = np.searchsorted(bounds[1:-1], tf, side="right")
        i = i + ((i < last) & (abs(tf - bounds[i + 1]) <= slack))
        return i, np.clip(tf, bounds[i], bounds[i + 1])

    eval = _one_row
    __call__ = eval

    def eval_many(self, ts) -> np.ndarray:
        """Values at each of the times ``ts``, shape (len(ts), dimension),
        located by :meth:`_lookup`; one call per curve function touched, at
        the times of all its segments."""
        i, tf = self._lookup(ts)
        group = self._group[i]
        out = np.empty((tf.size, self.dimension))
        for j in np.flatnonzero(np.bincount(group)):   # each group touched
            sel = group == j
            out[sel] = self.segments[j].curve.eval_many(tf[sel])
        return out

    def covers(self, lo: RationalLike, hi: RationalLike) -> bool:
        return self.history_start <= as_rational(lo) and as_rational(hi) <= self.end

    def cell_curve(self, lo: Rational, hi: Rational) -> Curve:
        """Curve valid on the closed cell [lo, hi], from the segment holding
        the cell's midpoint (so boundary ownership never comes into play).

        Evaluating it at ``hi`` yields the left limit when a jump sits there,
        which is the a.e.-correct restriction integrators and quadrature need.
        Raises :class:`OutOfDomainError` naming the cell when a segment edge
        falls inside it.
        """
        return self._cell_curves([(lo, hi)])[0]

    def cell_curves(self, lattice) -> list[Curve]:
        """:meth:`cell_curve` of every lattice cell, in cell order."""
        return self._cell_curves([(lo, hi) for _, lo, hi in lattice.cells()])

    def _cell_curves(self, cells) -> list[Curve]:
        """:meth:`cell_curve` of each (lo, hi) of ``cells``: one lookup of
        all their midpoints."""
        index, _ = self._lookup([float((lo + hi) / 2) for lo, hi in cells])
        segs = [self.segments[i] for i in index]
        for (lo, hi), seg in zip(cells, segs):
            if not (seg.lo <= lo and hi <= seg.hi):
                raise OutOfDomainError(
                    f"cell [{lo}, {hi}] straddles segment [{seg.lo}, {seg.hi}]")
        return [seg.curve for seg in segs]


def eval_delayed(traj: Trajectory, t: TimeLike, tau: RationalLike) -> np.ndarray:
    """Evaluate ``traj`` at the shifted time t - tau, exact for a rational t
    and in float arithmetic otherwise.

    Crosses transparently from the governed part into prepended history.
    Raises :class:`OutOfDomainError` when t - tau precedes the history start.
    """
    tau = as_rational(tau)
    return traj.eval(t - tau if isinstance(t, Fraction) else float(t) - float(tau))


def shifted_rows(history_rows: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The delayed argument of each of ``rows`` under a delay of whole rows:
    ``history_rows`` in front (at most ``len(rows)`` of them), then ``rows``
    moved down by their number; as many rows as ``rows``."""
    return np.concatenate([history_rows, rows[:len(rows) - len(history_rows)]])


def block_rows(curves: Sequence[Curve], T: np.ndarray) -> np.ndarray:
    """Curve i at the times of row i of the (N, K) array ``T``, block-major:
    row i K + k is ``curves[i]`` at ``T[i, k]``; a run of consecutive curves
    with one function is evaluated in one call."""
    runs = groupby(curves[:len(T)], key=lambda curve: getattr(curve, "fn", curve))
    ends = np.cumsum([len(list(run)) for _, run in runs])
    return np.concatenate([curves[i].eval_many(T[i:j].ravel())
                           for i, j in zip(np.r_[0, ends[:-1]], ends)])


def delayed_rows(history: Callable[[np.ndarray], np.ndarray], T: np.ndarray,
                 rows: np.ndarray, delay: float, shift: int) -> np.ndarray:
    """The method of steps' delayed-argument resolver.  Row i of ``T`` holds
    the times of lattice cell i, the same pattern in every cell, and
    ``rows`` the block-major values there (:func:`block_rows`).  A delay of
    ``shift`` whole cells reads block i - shift at that cell's own times;
    the first ``shift`` cells read the array-form ``history`` at their
    times minus ``delay``."""
    return shifted_rows(history(T[:shift].ravel() - delay), rows)


# -- builders ----------------------------------------------------------------

def cell_trajectory(lattice, dimension: int, cell_curves: Sequence[Curve],
                    history_start: Optional[Rational] = None,
                    history: Optional[Callable[[float], object]] = None
                    ) -> Trajectory:
    """Trajectory on [history_start, b]: the ``history`` callable on
    [history_start, a] when given and nonempty, then ``cell_curves[i]`` on
    lattice cell i."""
    segments = []
    if history is not None and history_start < lattice.a:
        segments.append(Segment(history_start, lattice.a,
                                CallableCurve(history, dimension)))
    segments += [Segment(lo, hi, curve)
                 for (_, lo, hi), curve in zip(lattice.cells(), cell_curves)]
    return Trajectory(dimension=dimension, history_start=segments[0].lo,
                      main_start=lattice.a, end=lattice.b,
                      segments=tuple(segments))


def from_pieces(dimension: int,
                pieces: Sequence[tuple[RationalLike, RationalLike, Callable]],
                main_start: RationalLike,
                require_continuity: bool = False) -> Trajectory:
    """Assemble a trajectory from (lo, hi, fn) pieces in ascending order.

    ``fn`` takes a float time and returns something coercible to shape
    (dimension,).  With ``require_continuity`` adjacent piece values must
    agree at shared endpoints (state-trajectory invariant).
    """
    segs = tuple(Segment(as_rational(lo), as_rational(hi), CallableCurve(fn, dimension))
                 for lo, hi, fn in pieces)
    traj = Trajectory(
        dimension=dimension,
        history_start=segs[0].lo,
        main_start=as_rational(main_start),
        end=segs[-1].hi,
        segments=segs,
    )
    if require_continuity:
        for left, right in zip(segs, segs[1:]):
            t = float(left.hi)
            gap = np.max(np.abs(left.curve(t) - right.curve(t)))
            scale = 1.0 + float(np.max(np.abs(right.curve(t))))
            if gap > 1e-9 * scale:
                raise ValueError(f"discontinuity {gap:.3e} at t={left.hi}")
    return traj


def hermite_from_samples(ts: np.ndarray, ys: np.ndarray) -> HermiteCurve:
    """Hermite curve through samples with finite-difference nodal slopes."""
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if ys.ndim == 1:
        ys = ys[:, None]
    ds = np.gradient(ys, ts, axis=0)
    return HermiteCurve(ts, ys, ds)
