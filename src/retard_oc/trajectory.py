"""Piecewise curves over the time axis, with history segments prepended.

A :class:`Trajectory` tiles [history_start, end] with half-open segments
[t_i, t_{i+1}); the final segment is closed at ``end``.  Jumps therefore sit
at the left endpoint of the following segment, matching piecewise
definitions like "u(t) = 0 on ]3, 4]".  Segment bounds are exact rationals;
only curve evaluation uses floats, and a curve answers a single time as
an array of one time, so there is one lookup.  A trajectory reads lattice
cells through the same evaluator (:meth:`Trajectory.cell_rows`: cell i at
its row of times, each cell's segment found by one lookup of the cell
midpoints).  Segments whose curves share one function are evaluated in one
call, and Hermite segments in one pass over their stacked nodes, built once
per trajectory, bit for bit their own calls.  :func:`delayed_rows` is the
library's one delayed-argument resolver: on a lattice, a delay is a block
shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from types import SimpleNamespace
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


def _hermite(nodes, k, t: np.ndarray) -> np.ndarray:
    """The one Hermite blend: curve ``k`` of ``nodes`` (a curve, k = 0, or a
    node table, k[j] for row j) at each time of ``t``, on the interval one
    search of all nodes finds, clipped onto the curve's own (never past its
    edge), the time clamped onto it."""
    i = (np.searchsorted(nodes.ts, t, side="right") - 1).clip(nodes._first[k], nodes._last[k])
    t0 = nodes.ts[i][:, None]
    dt = nodes._dt[i][:, None]
    theta = ((t[:, None] - t0) / dt).clip(0.0, 1.0)
    h00, h10, h01, h11 = _hermite_basis(theta)
    return (h00 * nodes.ys[i] + h10 * dt * nodes.ds[i]
            + h01 * nodes.ys[i + 1] + h11 * dt * nodes.ds[i + 1])


class HermiteCurve:
    """Cubic Hermite interpolant through (ts, ys) with nodal slopes ds.

    Interpolation error is O(delta^4) in the node spacing, matching the
    integrator's accuracy when nodes are stored at half-substep resolution.
    """

    def __init__(self, ts: np.ndarray, ys: np.ndarray, ds: np.ndarray):
        ts, ys, ds = (np.asarray(a, dtype=float) for a in (ts, ys, ds))
        if ts.ndim != 1 or len(ts) < 2:
            raise ValueError("need at least two nodes")
        if ys.ndim != 2 or len(ys) != len(ts) or ds.shape != ys.shape:
            raise ValueError("node array shapes disagree")
        if not (np.isfinite(ts).all() and (np.diff(ts) > 0).all()):   # NaN fails both
            raise ValueError("node times must increase")
        self.ts, self.ys, self.ds, self.dim = ts, ys, ds, ys.shape[1]
        self._dt, self._first, self._last = np.diff(ts), (0,), (len(ts) - 2,)   # a table of one
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
        return _hermite(self, 0, t)


Curve = Union[CallableCurve, HermiteCurve]


def _node_table(curves: Sequence[HermiteCurve], lo: np.ndarray, hi: np.ndarray):
    """Hermite curves' nodes stacked for :func:`_hermite` (curve k owns node
    intervals _first[k] to _last[k]), or None unless no node of a curve lies
    before one of the curve ahead and curve k takes [lo[k], hi[k]]."""
    ts, ys, ds = (np.concatenate([getattr(c, key) for c in curves]) for key in ("ts", "ys", "ds"))
    dt, ends = np.diff(ts), np.cumsum([len(c.ts) for c in curves])
    first, slack = np.r_[0, ends[:-1]], np.array([c._slack for c in curves])
    if np.all(dt >= 0) and np.all((ts[first] - slack <= lo) & (hi <= ts[ends - 1] + slack)):
        return SimpleNamespace(ts=ts, ys=ys, ds=ds, _dt=dt, _first=first, _last=ends - 2)


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
        object.__setattr__(self, "_slack", _SNAP * max(
            1.0, bounds[-1] - bounds[0], abs(bounds[0]), abs(bounds[-1])))

    @cached_property
    def _groups(self) -> tuple:
        """The segments' curves, segment k's group (the first segment with
        its curve's function: fn, or the curve itself; the Hermite segments
        one group if their curves have a node table on their bounds), that
        table and each Hermite segment's place in it, -1 for the others."""
        curves = [s.curve for s in self.segments]
        hermite = [k for k, c in enumerate(curves) if isinstance(c, HermiteCurve)]
        table = hermite and _node_table([curves[k] for k in hermite], self._bounds[hermite],
                                        self._bounds[np.add(hermite, 1)])
        pos = np.full(len(curves), -1)
        if table:
            pos[hermite] = np.arange(len(hermite))
        first = {}
        return curves, np.array([first.setdefault(id(table if pos[k] >= 0 else getattr(
            c, "fn", c)), k) for k, c in enumerate(curves)], dtype=int), table, pos

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
        return i, tf.clip(bounds[i], bounds[i + 1])

    eval = _one_row
    __call__ = eval

    def eval_many(self, ts) -> np.ndarray:
        """Values at each of the times ``ts``, shape (len(ts), dimension),
        located by :meth:`_lookup`; see :meth:`_evaluate`."""
        return self._evaluate(*self._lookup(ts))

    def _evaluate(self, k: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Segment k[j]'s curve at t[j] for every row j: one call per curve
        function touched, at the times of all its segments, and one pass
        over the Hermite segments' node table."""
        curves, group, table, pos = self._groups
        g, out = group[k], np.empty((t.size, self.dimension))
        touched = np.flatnonzero(np.bincount(g))
        for j in touched:
            sel = g == j if len(touched) > 1 else slice(None)
            out[sel] = (_hermite(table, pos[k[sel]], t[sel]) if pos[j] >= 0
                        else curves[j].eval_many(t[sel]))
        return out

    def covers(self, lo: RationalLike, hi: RationalLike) -> bool:
        return self.history_start <= as_rational(lo) and as_rational(hi) <= self.end

    def _cell_segments(self, lattice) -> np.ndarray:
        """Index of the segment holding each lattice cell, from one
        :meth:`_lookup` of the cells' midpoints (so boundary ownership never
        comes into play).  Raises :class:`OutOfDomainError` naming the cell
        when a segment edge falls inside it."""
        index, _ = self._lookup((lattice.edges[:-1] + lattice.edges[1:]) / 2)
        for (_, lo, hi), seg in zip(lattice.cells(), [self.segments[k] for k in index]):
            if not (seg.lo <= lo and hi <= seg.hi):
                raise OutOfDomainError(
                    f"cell [{lo}, {hi}] straddles segment [{seg.lo}, {seg.hi}]")
        return index

    def cell_curves(self, lattice) -> list[Curve]:
        """The curve holding each lattice cell, in cell order; see :meth:`_cell_segments`."""
        return [self.segments[k].curve for k in self._cell_segments(lattice)]

    def cell_rows(self, lattice, T) -> np.ndarray:
        """Row i K + k is the curve holding lattice cell i (see
        :meth:`_cell_segments`) at ``T[i, k]``, for an (n_cells, K) ``T``: at a
        cell's right end, the left limit of a jump there, as integrators and
        quadrature need.  A time further than float fuzz outside its cell
        raises :class:`OutOfDomainError` naming the cell; a NaN gives NaN."""
        if (T := np.asarray(T, dtype=float)).ndim != 2 or len(T) != lattice.n_cells:
            raise ValueError(f"cell_rows takes one row per cell, not shape {T.shape}")
        index, edges, slack = self._cell_segments(lattice), lattice.edges, self._slack
        outside = (T < edges[:-1, None] - slack) | (T > edges[1:, None] + slack)
        if outside.any():
            i, k = np.argwhere(outside)[0]
            raise OutOfDomainError(f"t={T[i, k]} outside cell {i} [{lattice.breakpoints[i]}, "
                                   f"{lattice.breakpoints[i + 1]}]")
        return self._evaluate(index.repeat(T.shape[1]), T.ravel())


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


def delayed_rows(history: Callable[[np.ndarray], np.ndarray], T: np.ndarray,
                 rows: np.ndarray, delay: float, shift: int) -> np.ndarray:
    """The method of steps' delayed-argument resolver.  Row i of ``T`` holds
    the times of lattice cell i, the same pattern in every cell, and
    ``rows`` the block-major values there (:meth:`Trajectory.cell_rows`).  A delay of
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
