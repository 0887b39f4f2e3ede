"""The curve kernels against verbatim copies of their earlier forms: the
registry's closed forms written with ``np.select`` and ``np.where`` (every
branch at every time), the clipped-index trajectory lookup and Hermite
kernel, the per-cell Hermite path of a trajectory and of its cell reader, the
``Fraction`` cell generator and the model-call loop's per-row conversion.
The current forms must give the same bytes (and the same errors); they
evaluate each branch only at the times it owns, one call per curve
function, one pass of a node table over all Hermite cells, a lattice built
once, and one conversion of the loop's rows."""

import dataclasses
import functools
import re
import warnings
from fractions import Fraction
from itertools import groupby

import numpy as np
import pytest

from retard_oc import (CommensurabilityLattice, TranscriptionConfig, integrate_adjoint_linear,
                       integrate_forward, make_lattice, registry, solve_direct_euler,
                       solve_fbsm, trajectory)
from retard_oc.cost import evaluate_cost
from retard_oc.dde import _cell_schedule
from retard_oc.errors import NoConvergenceError, OutOfDomainError, ZeroDelaysError
from retard_oc.problems import array_form
from retard_oc.registry import E2, E4, E6, _Q, d_eta1, d_eta2, d_eta3
from retard_oc.trajectory import (CallableCurve, HermiteCurve, Segment, Trajectory,
                                  _hermite_basis, from_pieces, hermite_from_samples)

# -- reference closed forms, as written with np.select and np.where --------------


def ref_ld_adjoint_value(t):
    return np.where(t <= 2.0, np.exp(2.0 - t) * (t - E2 - 1.0), 1.0 - np.exp(4.0 - t))


def ref_ld_control_value(t):
    return np.select([t < 0.0, t < 1.0, t <= 3.0],
                     [0.0, (np.exp(3.0 - t) - t * np.exp(1.0 - t)) / 20.0,
                      (np.exp(3.0 - t) - 1.0) / 20.0], 0.0)


def ref_ld_state_value(t):
    et, emt = np.exp(t), np.exp(-t)
    return np.select([t <= 0.0, t <= 1.0, t <= 2.0, t <= 3.0], [
        1.0,
        -1.0 + 2.0 * et,
        ((E2 + 2.0 * E4 - 2.0 * E2 * t) * emt - 8.0 + (17.0 - 2.0 * E2) * et) / 8.0,
        (2.0 * np.exp(4.0 - t) + 4.0
         + (-47.0 / E2 + 17.0 - 2.0 * E2 + 16.0 * t / E2) * et) / 8.0],
        ((-E6 + E4 * t) * emt + 4.0
         + (-51.0 / E2 + 24.0 - 2.0 * E2 + 17.0 * t / E2 - 2.0 * t) * et) / 8.0)


def ref_d_state_value(t):
    return np.where(t <= 2.0, 1.0, (np.exp(t - 2.0) + np.exp(4.0 - t)) / _Q)


def ref_d_control_value(t):
    return np.select([t < 0.0, t <= 1.0], [0.0, (np.exp(t) - np.exp(2.0 - t)) / _Q],
                     0.0)


def ref_d_adjoint_value(t):
    return np.select([t < 1.0, t < 2.0], [d_eta1(t), d_eta2(t)], d_eta3(t))


REFERENCES = {"ld_state_value": ref_ld_state_value, "ld_control_value": ref_ld_control_value,
              "ld_adjoint_value": ref_ld_adjoint_value, "d_state_value": ref_d_state_value,
              "d_control_value": ref_d_control_value, "d_adjoint_value": ref_d_adjoint_value}
BREAKPOINTS = np.array([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0])


def _edge_times() -> np.ndarray:
    """A dense grid past both ends of every domain, each breakpoint and its
    two float neighbours, signed zeros, NaN, infinities and far times."""
    near = np.concatenate([BREAKPOINTS, np.nextafter(BREAKPOINTS, np.inf),
                           np.nextafter(BREAKPOINTS, -np.inf)])
    return np.concatenate([np.linspace(-4.0, 6.0, 20001), near,
                           [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
                            -700.0, 700.0, -1e300, 1e300]])


@pytest.mark.parametrize("name", REFERENCES)
def test_a_closed_form_is_its_select_form_byte_for_byte(name):
    ts, new, ref = _edge_times(), getattr(registry, name), REFERENCES[name]
    # the select forms warn off their branches, the new ones far out on their own
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = ref(ts)
        assert new(ts).tobytes() == expected.tobytes()
        # shuffled: each time takes its own branch wherever it stands
        perm = np.random.default_rng(0).permutation(len(ts))
        assert new(ts[perm]).tobytes() == expected[perm].tobytes()
        # one at a time: the breakpoints and the edge values
        for t in ts[20001:]:
            assert np.float64(new(float(t))).tobytes() == ref(np.array([t])).tobytes()


def test_branches_a_time_does_not_own_raise_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert registry.ld_state_value(-800.0) == 1.0
        assert registry.ld_control_value(np.inf) == 0.0
        assert registry.d_control_value(-np.inf) == 0.0
        assert registry.d_state_value(-800.0) == 1.0
        # a NaN time takes the default branch, as in the select forms
        assert registry.ld_control_value(np.nan) == registry.d_control_value(np.nan) == 0.0
    # the select forms warn here: they compute every branch at every time
    with pytest.warns(RuntimeWarning, match="overflow"):
        ref_ld_state_value(np.array([-800.0]))
    with pytest.warns(RuntimeWarning, match="invalid value"):
        ref_ld_control_value(np.array([np.inf]))


def test_an_overflow_in_the_owning_branch_still_warns():
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert registry.d_state_value(800.0) == np.inf
    with pytest.warns(RuntimeWarning, match="overflow"):
        registry.ld_state_value(np.array([1.5, 800.0]))


# -- one closed-form call per curve function -----------------------------------


def _counting(monkeypatch, *names) -> dict:
    """The registry's closed forms ``names`` wrapped to count their calls."""
    calls = {name: 0 for name in names}
    for name in names:
        def counted(t, name=name, fn=getattr(registry, name)):
            calls[name] += 1
            return fn(t)
        monkeypatch.setattr(registry, name, counted)
    return calls


def test_a_trajectory_calls_each_curve_function_once_per_lookup(monkeypatch):
    calls = _counting(monkeypatch, "ld_state_value", "ld_control_value")
    cand = registry.make_ld_candidate()
    calls.update(ld_state_value=0, ld_control_value=0)   # the continuity check's
    ts = np.linspace(-2.0, 4.0, 601)                      # every segment touched
    values = cand.state.eval_many(ts)
    assert calls == {"ld_state_value": 1, "ld_control_value": 0}
    assert values.tobytes() == np.where(ts <= 0.0, 1.0, ref_ld_state_value(ts))[:, None].tobytes()
    cand.control.eval_many(np.linspace(-1.0, 4.0, 501))
    assert calls == {"ld_state_value": 1, "ld_control_value": 1}


def test_the_cost_quadrature_calls_each_curve_function_once(monkeypatch, ld_problem):
    expected = evaluate_cost(ld_problem, registry.make_ld_candidate())
    calls = _counting(monkeypatch, "ld_state_value", "ld_control_value")
    cand = registry.make_ld_candidate()
    calls.update(ld_state_value=0, ld_control_value=0)
    assert evaluate_cost(ld_problem, cand) == expected
    assert calls == {"ld_state_value": 1, "ld_control_value": 1}


# -- the lookup and Hermite kernels, as written with a clipped index (the Hermite
# basis itself is unchanged) ------------------------------------------------------


def ref_lookup(self, ts):
    tf = np.asarray(ts, dtype=float)
    bounds, slack, last = self._bounds, self._slack, len(self.segments) - 1
    if tf.size and (tf.min() < bounds[0] - slack or tf.max() > bounds[-1] + slack):
        bad = tf.min() if tf.min() < bounds[0] - slack else tf.max()
        raise OutOfDomainError(
            f"t={bad} outside [{self.history_start}, {self.end}]")
    i = np.clip(np.searchsorted(bounds, tf, side="right") - 1, 0, last)
    i = i + ((i < last) & (abs(tf - bounds[i + 1]) <= slack))
    return i, np.clip(tf, bounds[i], bounds[i + 1])


def ref_hermite(self, t):
    ts, slack = self.ts, self._slack
    t = np.asarray(t, dtype=float)
    if t.size and (t.min() < ts[0] - slack or t.max() > ts[-1] + slack):
        bad = t.min() if t.min() < ts[0] - slack else t.max()
        raise OutOfDomainError(f"t={bad} outside nodes [{ts[0]}, {ts[-1]}]")
    i = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
    t0 = ts[i][:, None]
    dt = ts[i + 1][:, None] - t0
    theta = np.clip((t[:, None] - t0) / dt, 0.0, 1.0)
    h00, h10, h01, h11 = _hermite_basis(theta)
    return (h00 * self.ys[i] + h10 * dt * self.ds[i]
            + h01 * self.ys[i + 1] + h11 * dt * self.ds[i + 1])


def _near(points, slack) -> np.ndarray:
    """``points``, their float neighbours, and points moved by fractions and
    multiples of ``slack`` on both sides of the snapping threshold."""
    points = np.asarray(points, dtype=float)
    moves = slack * np.array([-1.5, -1.0, -0.999, -0.5, 0.5, 0.999, 1.0, 1.5])
    return np.concatenate([points, np.nextafter(points, np.inf), np.nextafter(points, -np.inf),
                           (points[:, None] + moves).ravel()])


def _same_or_same_error(new, ref, ts):
    try:
        expected = ref(ts)
    except OutOfDomainError as err:
        with pytest.raises(OutOfDomainError, match=re.escape(str(err))):
            new(ts)
        return
    got = new(ts)
    for a, b in zip(got if isinstance(got, tuple) else (got,),
                    expected if isinstance(expected, tuple) else (expected,)):
        assert a.tobytes() == b.tobytes()


LD_CAND = registry.make_ld_candidate()
D_CAND = registry.make_d_candidate()
KNOTS = np.linspace(-0.5, 2.5, 13) ** 3   # uneven spacing
HERMITE = hermite_from_samples(KNOTS, np.c_[np.sin(KNOTS), np.cos(3 * KNOTS)])


@pytest.mark.parametrize("traj", [LD_CAND.state, LD_CAND.control, D_CAND.state, D_CAND.control],
                         ids=["ld state", "ld control", "d state", "d control"])
def test_the_lookup_is_the_clipped_index_lookup(traj):
    points = traj._bounds
    ts = _near(points, traj._slack)
    inside = ts[(ts >= points[0] - traj._slack) & (ts <= points[-1] + traj._slack)]
    _same_or_same_error(traj._lookup, lambda t: ref_lookup(traj, t), inside)
    _same_or_same_error(traj._lookup, lambda t: ref_lookup(traj, t), np.r_[inside, np.nan])
    for t in ts:   # one at a time: inside, or refused with the same message
        _same_or_same_error(traj._lookup, lambda t: ref_lookup(traj, t), np.array([t]))
    _same_or_same_error(traj._lookup, lambda t: ref_lookup(traj, t), np.array([]))


def test_the_hermite_kernel_is_the_clipped_index_kernel():
    ts = _near(HERMITE.ts, HERMITE._slack)
    inside = ts[(ts >= HERMITE.ts[0] - HERMITE._slack) & (ts <= HERMITE.ts[-1] + HERMITE._slack)]
    grid = np.linspace(KNOTS[0], KNOTS[-1], 5001)
    for batch in (inside, grid, np.r_[grid, np.nan], np.array([])):
        _same_or_same_error(HERMITE.eval_many, lambda t: ref_hermite(HERMITE, t), batch)
    for t in ts:
        _same_or_same_error(HERMITE.eval_many, lambda t: ref_hermite(HERMITE, t), np.array([t]))
    two = HermiteCurve([0.0, 1.0], [[1.0], [2.0]], [[0.5], [-1.0]])   # no interior node
    _same_or_same_error(two.eval_many, lambda t: ref_hermite(two, t), _near([0.0, 1.0], two._slack))


# -- input shapes ---------------------------------------------------------------


@pytest.mark.parametrize("curve", [LD_CAND.state, HERMITE, LD_CAND.state.segments[1].curve],
                         ids=["trajectory", "hermite", "closed form"])
@pytest.mark.parametrize("ts", [1.0, np.float64(0.5), [[0.5]], np.zeros((2, 3))],
                         ids=["float", "numpy scalar", "(1, 1)", "(2, 3)"])
def test_eval_many_takes_only_a_one_dimensional_sequence(curve, ts):
    with pytest.raises(ValueError, match=rf"shape {re.escape(str(np.shape(ts)))}"):
        curve.eval_many(ts)
    assert curve.eval_many([0.5]).shape == (1, curve(0.5).shape[0])
    assert curve(0.5).tobytes() == curve.eval_many(np.array([0.5]))[0].tobytes()



# -- one node table per cell trajectory: the per-cell Hermite path, the cell
# reader (block_rows over the cells' curves) and the Fraction cell generator as
# written before ----------------------------------------------------------------


def ref_hermite_curve(self, t):
    """HermiteCurve.eval_many as written before the node table."""
    ts, slack, t = self.ts, self._slack, np.asarray(t, dtype=float)
    lo, hi = t.min(initial=np.inf), t.max(initial=-np.inf)
    if lo < ts[0] - slack or hi > ts[-1] + slack:
        raise OutOfDomainError(
            f"t={lo if lo < ts[0] - slack else hi} outside nodes [{ts[0]}, {ts[-1]}]")
    i = np.searchsorted(ts[1:-1], t, side="right")
    t0 = ts[i][:, None]
    dt = np.diff(ts)[i][:, None]
    theta = np.clip((t[:, None] - t0) / dt, 0.0, 1.0)
    h00, h10, h01, h11 = _hermite_basis(theta)
    return (h00 * self.ys[i] + h10 * dt * self.ds[i]
            + h01 * self.ys[i + 1] + h11 * dt * self.ds[i + 1])


def _ref_curve(curve, t):
    return ref_hermite_curve(curve, t) if isinstance(curve, HermiteCurve) else curve.eval_many(t)


def ref_eval_many(self, ts):
    """Trajectory.eval_many as written before: one call per group of segments
    with one curve function, each Hermite segment a group of its own."""
    first = {}
    groups = np.array([first.setdefault(id(getattr(s.curve, "fn", s.curve)), k)
                       for k, s in enumerate(self.segments)])
    i, tf = self._lookup(ts)
    group = groups[i]
    out = np.empty((tf.size, self.dimension))
    for j in np.flatnonzero(np.bincount(group)):
        sel = group == j
        out[sel] = _ref_curve(self.segments[j].curve, tf[sel])
    return out


def ref_block_rows(curves, T):
    runs = groupby(curves[:len(T)], key=lambda curve: getattr(curve, "fn", curve))
    ends = np.cumsum([len(list(run)) for _, run in runs])
    return np.concatenate([_ref_curve(curves[i], T[i:j].ravel())
                           for i, j in zip(np.r_[0, ends[:-1]], ends)])


def ref_cells(lattice):
    for i in range(lattice.n_cells):
        yield i, lattice.a + i * lattice.h, lattice.a + (i + 1) * lattice.h


def _samples(lo, hi, count=9):
    """A two-component Hermite curve with ``count`` nodes from lo to hi."""
    ts = np.linspace(lo, hi, count)
    return hermite_from_samples(ts, np.c_[np.sin(3.0 * ts), np.cos(ts) + ts])


def _tiled(curves) -> Trajectory:
    """``curves[k]`` on [k, k + 1], with no history."""
    return Trajectory(dimension=2, history_start=Fraction(0), main_start=Fraction(0),
                      end=Fraction(len(curves)), segments=tuple(
                          Segment(Fraction(k), Fraction(k + 1), c) for k, c in enumerate(curves)))


FUZZ = 1e-13   # well inside a trajectory's snapping slack of 1e-11 and more


@functools.lru_cache(maxsize=None)
def _trajectories() -> dict:
    p = registry.get_example("ocp-ld-paper").make_problem()
    try:
        direct = solve_direct_euler(p, TranscriptionConfig(n_steps=400, max_iterations=20))
    except NoConvergenceError as err:
        direct = err.best
    return {
        "ld forward state": integrate_forward(p, LD_CAND.control),
        "ld costate": integrate_adjoint_linear(p, LD_CAND).trajectory,
        "sweep control": solve_fbsm(p).control,
        "direct control": direct.control,
        # a segment's nodes within float fuzz inside its bounds: a time at a
        # bound lies before its curve's first node or past its last one
        "nodes inside the bounds": _tiled([_samples(k + FUZZ, k + 1 - FUZZ) for k in range(3)]),
        # a node of a curve before one of the curve ahead: no table, curve by curve
        "overlapping nodes": _tiled([_samples(k - 0.3, k + 1.3) for k in range(3)]),
        "a callable between Hermite cells": _tiled(
            [_samples(0, 1), CallableCurve(lambda t: [t, -t], 2), _samples(2, 3), _samples(3, 4)]),
        # a segment its curve does not cover raises as its curve does
        "an uncovered segment": _tiled([_samples(0, 1), _samples(1, 1.5), _samples(2, 3)]),
    }


def _kernel_times(traj) -> np.ndarray:
    """Every segment bound and Hermite node of ``traj``, their float
    neighbours and the times within and just past the snapping slack."""
    nodes = [s.curve.ts for s in traj.segments if isinstance(s.curve, HermiteCurve)]
    return _near(np.concatenate([traj._bounds, *nodes]), traj._slack)


TRAJECTORIES = ["ld forward state", "ld costate", "sweep control", "direct control",
                "nodes inside the bounds", "overlapping nodes",
                "a callable between Hermite cells", "an uncovered segment"]


@pytest.mark.parametrize("name", TRAJECTORIES)
def test_a_trajectory_lookup_is_its_per_cell_hermite_path_byte_for_byte(name):
    traj = _trajectories()[name]
    new, ref = traj.eval_many, lambda t: ref_eval_many(traj, t)
    ts = _kernel_times(traj)
    inside = ts[(ts >= traj._bounds[0] - traj._slack) & (ts <= traj._bounds[-1] + traj._slack)]
    shuffled = inside[np.random.default_rng(0).permutation(len(inside))]
    for batch in (inside, shuffled, np.r_[inside, np.nan], np.array([]), ts):
        _same_or_same_error(new, ref, batch)
    for t in np.r_[_near(traj._bounds, traj._slack), ts[::17], np.nan]:   # one at a time
        _same_or_same_error(new, ref, np.array([t]))


def ref_cell_curves(traj, lattice):
    """The curve of the segment holding each lattice cell, in exact arithmetic."""
    return [next(seg.curve for seg in traj.segments if seg.lo <= lo and hi <= seg.hi)
            for _, lo, hi in lattice.cells()]


def _unit_lattices(traj):
    """Lattices of unit cells on the trajectory, with and without its first segment."""
    return [make_lattice(traj.segments[k].lo, traj.end, 1, 0) for k in (0, 1)]


def _end_rows(traj, lattice) -> np.ndarray:
    """Row i: times at both ends of cell i's curve (its nodes' ends with the
    curve's own slack, a callable's cell edges with the trajectory's),
    their float neighbours and moves of up to that slack either way, each
    kept within the trajectory's slack of the cell."""
    moves = np.array([-1.0, -0.999, -0.5, 0.0, 0.5, 0.999, 1.0])
    rows, lo, hi = [], lattice.edges[:-1], lattice.edges[1:]
    for i, curve in enumerate(ref_cell_curves(traj, lattice)):
        ends, slack = ((curve.ts[[0, -1]], curve._slack) if isinstance(curve, HermiteCurve)
                       else ((lo[i], hi[i]), traj._slack))
        rows.append(np.concatenate([np.r_[x + slack * moves, np.nextafter(x, np.inf),
                                          np.nextafter(x, -np.inf)] for x in ends]))
    return np.array(rows).clip((lo - traj._slack)[:, None], (hi + traj._slack)[:, None])


@pytest.mark.parametrize("name", TRAJECTORIES)
def test_cell_rows_is_its_per_cell_path_byte_for_byte(name):
    traj = _trajectories()[name]
    for lattice in _unit_lattices(traj):
        curves = ref_cell_curves(traj, lattice)
        lo, hi = lattice.edges[:-1], lattice.edges[1:]
        schedule = _cell_schedule(lo, hi, 4)[1]
        nan = schedule.copy()
        nan[-1, 3] = np.nan
        for T in (schedule, _cell_schedule(hi, lo, 4)[1], _end_rows(traj, lattice), nan,
                  np.empty((lattice.n_cells, 0))):
            _same_or_same_error(lambda T: traj.cell_rows(lattice, T),
                                lambda T: ref_block_rows(curves, T), T)


@pytest.mark.parametrize("kind", ["closed form", "hermite"])
def test_a_row_outside_its_cell_is_refused_naming_the_cell(kind):
    traj = LD_CAND.state if kind == "closed form" else _trajectories()["ld forward state"]
    lattice = make_lattice(0, 4, 1, 0)
    schedule = _cell_schedule(lattice.edges[:-1], lattice.edges[1:], 4)[1]
    for j, past in ((0, -1.0), (-1, 1.0)):
        T = schedule.copy()
        T[2, j] += past * 2.0 * traj._slack
        with pytest.raises(OutOfDomainError, match=r"outside cell 2 \[2, 3\]"):
            traj.cell_rows(lattice, T)
        T[2, j] -= past * 1.5 * traj._slack   # within the slack: read as the cell's end
        assert np.isfinite(traj.cell_rows(lattice, T)).all()
    with pytest.raises(ValueError, match=r"one row per cell"):
        traj.cell_rows(lattice, schedule[1:])


def test_a_segment_edge_inside_a_cell_is_refused_naming_the_cell():
    # cells of width 1 on [0, 4]; a segment edge at 5/4 falls inside [1, 2]
    traj = from_pieces(1, [(-2, 0, lambda t: [1.0]), (0, Fraction(5, 4), lambda t: [t]),
                           (Fraction(5, 4), 4, lambda t: [t])], main_start=0)
    lattice = make_lattice(0, 4, 1, 0)
    T = _cell_schedule(lattice.edges[:-1], lattice.edges[1:], 4)[1]
    for read in (lambda: traj.cell_rows(lattice, T), lambda: traj.cell_curves(lattice)):
        with pytest.raises(OutOfDomainError,
                           match=r"cell \[1, 2\] straddles segment \[5/4, 4\]"):
            read()
    quarters = make_lattice(0, 4, "1/4", 0)   # cells of width 1/4: none straddles
    assert traj.cell_curves(quarters) == [traj.segments[1].curve] * 5 + [
        traj.segments[2].curve] * 11
    T = _cell_schedule(quarters.edges[:-1], quarters.edges[1:], 4)[1]
    _same_or_same_error(lambda T: traj.cell_rows(quarters, T),
                        lambda T: ref_block_rows(ref_cell_curves(traj, quarters), T), T)



def test_a_trajectory_decides_each_lattice_s_cells_once(monkeypatch):
    lookups = []
    lookup = Trajectory._lookup
    monkeypatch.setattr(Trajectory, "_lookup",
                        lambda self, ts: lookups.append(len(ts)) or lookup(self, ts))
    traj = from_pieces(1, [(-2, 0, lambda t: [1.0]), (0, Fraction(5, 4), lambda t: [t]),
                           (Fraction(5, 4), 4, lambda t: [t])], main_start=0)
    straddled, quarters = make_lattice(0, 4, 1, 0), make_lattice(0, 4, "1/4", 0)
    T = _cell_schedule(quarters.edges[:-1], quarters.edges[1:], 4)[1]
    first = traj.cell_rows(quarters, T)
    for _ in range(3):   # a straddled lattice is refused on every read
        with pytest.raises(OutOfDomainError, match=r"cell \[1, 2\] straddles"):
            traj.cell_curves(straddled)
        assert traj.cell_rows(quarters, T).tobytes() == first.tobytes()
    assert lookups == [16, 4]   # one lookup of each lattice's cell midpoints


@pytest.mark.parametrize("history", [True, False], ids=["history", "no history"])
def test_a_cell_trajectory_knows_its_own_lattice_s_cells(monkeypatch, history):
    lookups = []
    lookup = Trajectory._lookup
    monkeypatch.setattr(Trajectory, "_lookup",
                        lambda self, ts: lookups.append(len(ts)) or lookup(self, ts))
    lattice = make_lattice(0, 3, 1, 0)
    cells = [CallableCurve(lambda t, k=k: [k + t], 1) for k in range(3)]
    traj = trajectory.cell_trajectory(lattice, 1, cells, Fraction(-1) if history else None,
                                      (lambda t: [t]) if history else None)
    index = traj._cell_segments(lattice)
    assert index.tolist() == [int(history) + i for i in range(3)] and not index.flags.writeable
    assert traj.cell_curves(lattice) == cells and lookups == []
    T = _cell_schedule(lattice.edges[:-1], lattice.edges[1:], 4)[1]
    assert traj.cell_rows(lattice, T).tobytes() == ref_block_rows(cells, T).tobytes()
    # another lattice is still checked, once, and a straddling one refused on every read
    sixths, halves = make_lattice(0, 3, "1/2", 0), make_lattice(0, 3, "3/2", 0)
    assert traj.cell_curves(sixths) == [c for c in cells for _ in range(2)]
    for _ in range(2):
        with pytest.raises(OutOfDomainError, match=r"cell \[0, 3/2\] straddles segment \[0, 1\]"):
            traj.cell_curves(halves)
    assert lookups == [6, 2]


def test_a_lookup_and_cell_rows_take_one_hermite_pass(monkeypatch):
    calls = []
    blend = trajectory._hermite
    monkeypatch.setattr(trajectory, "_hermite", lambda *args: calls.append(1) or blend(*args))
    traj = _trajectories()["ld forward state"]   # history, then four Hermite cells
    traj.eval_many(np.linspace(-2.0, 4.0, 1001))
    assert len(calls) == 1
    lattice = make_lattice(0, 4, 2, 1)
    traj.cell_rows(lattice, _cell_schedule(lattice.edges[:-1], lattice.edges[1:], 4)[1])
    assert len(calls) == 2


def test_a_trajectory_builds_one_node_table_for_every_read(monkeypatch):
    tables = []
    build = trajectory._node_table
    monkeypatch.setattr(trajectory, "_node_table",
                        lambda *args: tables.append(1) or build(*args))
    p = registry.get_example("ocp-ld-paper").make_problem()
    traj = integrate_forward(p, LD_CAND.control)   # a new trajectory: nothing cached
    lattice = p.lattice()
    T = _cell_schedule(lattice.edges[:-1], lattice.edges[1:], 4)[1]
    for _ in range(2):
        traj.eval_many(np.linspace(-1.0, 4.0, 101))
        traj.cell_rows(lattice, T)
        traj.cell_rows(lattice, T[:, ::-1])
    assert len(tables) == 1


# -- each lattice built once ------------------------------------------------------


@pytest.mark.parametrize("a,b,r,s", [(0, 4, 2, 1), (-1, 2, "1/3", "1/2"), ("1/7", "22/7", 1, 0),
                                     (0, 1, 5, 0), (0, 3, 0, "3/4")])
def test_a_lattice_holds_the_fraction_cells_and_their_floats(a, b, r, s):
    lattice = make_lattice(a, b, r, s)
    cells = list(ref_cells(lattice))
    assert lattice.cells() == tuple(cells) and lattice.cells() is lattice.cells()
    assert all(type(x) is Fraction for _, lo, hi in lattice.cells() for x in (lo, hi))
    assert lattice.breakpoints == tuple(lattice.a + i * lattice.h
                                        for i in range(lattice.n_cells + 1))
    assert [lattice.cell(i) for i in range(lattice.n_cells)] == [(lo, hi) for _, lo, hi in cells]
    with pytest.raises(IndexError):
        lattice.cell(lattice.n_cells)
    assert lattice.edges.tobytes() == np.array(
        [float(t) for t in lattice.breakpoints]).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        lattice.edges[0] = 1.0
    # the lattice's equality and hash read its constants only
    assert lattice == make_lattice(a, b, r, s) and hash(lattice) == hash(make_lattice(a, b, r, s))


def test_each_lattice_is_built_once(monkeypatch):
    built = []
    init = CommensurabilityLattice.__post_init__
    monkeypatch.setattr(CommensurabilityLattice, "__post_init__",
                        lambda self: built.append(self) or init(self))
    ld = registry.get_example("ocp-ld-paper").make_problem()
    p = dataclasses.replace(ld, b=Fraction(29, 3))   # constants no other test builds
    assert p.lattice() is p.lattice() is make_lattice("0", "29/3", 2.0, 1)
    assert len(built) == 1 and p.lattice().n_cells == 29
    wider = dataclasses.replace(p, b=Fraction(31, 3))
    assert wider.lattice() is not p.lattice() and len(built) == 2
    # a problem with both delays zero is built; its lattice is refused at each call
    zero = dataclasses.replace(p, r=0, s=0)
    for _ in range(2):
        with pytest.raises(ZeroDelaysError):
            zero.lattice()
    assert len(built) == 2


# -- one conversion of a model callable's per-time loop -----------------------------


def ref_loop(fn, shape):
    """array_form's per-time loop as written before: each row converted and
    reshaped as it comes."""
    def loop(ts, *args):
        out = np.empty((len(ts),) + shape)
        for i, (t, *row) in enumerate(zip(map(float, ts), *args)):
            out[i] = np.asarray(fn(t, *row), dtype=float).reshape(shape)
        return out
    return loop


ROWS = {
    "scalar": ((1,), lambda t, x: t * x[0]),
    "(1,)": ((1,), lambda t, x: np.array([t * x[0]])),
    "(1, 1)": ((1,), lambda t, x: [[t * x[0]]]),
    "python ints": ((2,), lambda t, x: [int(10 * t), 3]),
    "(2, 2) as (4,)": ((2, 2), lambda t, x: np.r_[t, x[0], -t, np.float32(x[0] / 3)]),
    "(2, 2)": ((2, 2), lambda t, x: np.array([[t, 1.0], [x[0], t * x[0]]])),
    "ragged": ((1,), lambda t, x: [t] if t < 0.5 else [t, t]),
    "a size too large": ((1,), lambda t, x: [t, t]),
    "(2,) for (2, 2)": ((2, 2), lambda t, x: [t, t]),
    "a row that cannot be a float": ((1,), lambda t, x: [t] if t < 0.5 else ["a"]),
}


@pytest.mark.parametrize("ts", [np.linspace(0.0, 1.0, 7), np.array([0.25]), np.array([])],
                         ids=["seven", "one", "empty"])
@pytest.mark.parametrize("name", ROWS)
def test_the_loop_is_the_per_row_loop_with_one_call_per_time(name, ts):
    shape, rows = ROWS[name]
    X = np.c_[np.linspace(-1.0, 2.0, len(ts))]
    calls = []
    new = array_form(lambda t, x: calls.append(t) or rows(t, x), shape)
    ref = ref_loop(rows, shape)
    try:
        expected = ref(ts, X)
    except (TypeError, ValueError) as err:
        with pytest.raises(type(err), match=re.escape(str(err))):
            new(ts, X)
    else:
        got = new(ts, X)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    assert calls == ts.tolist()   # once per time, in order


@pytest.mark.parametrize("ts", [np.linspace(0.0, 1.0, 7), np.array([0.25]), np.array([])],
                         ids=["seven", "one", "empty"])
@pytest.mark.parametrize("name", ROWS)
def test_the_loop_without_arguments_calls_fn_on_each_time_alone(name, ts):
    shape, rows = ROWS[name]
    calls = []
    new = array_form(lambda *args: calls.append(args) or rows(args[0], [0.5]), shape)
    try:
        expected = ref_loop(lambda t: rows(t, [0.5]), shape)(ts)
    except (TypeError, ValueError) as err:
        with pytest.raises(type(err), match=re.escape(str(err))):
            new(ts)
    else:
        got = new(ts)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    # once per time, in order, each call the time alone as a Python float
    assert calls == [(t,) for t in ts.tolist()]
    assert all(type(t) is float for t, in calls)


def test_the_loop_stops_at_the_first_raising_call():
    calls = []

    def fn(t):
        calls.append(t)
        if t > 0.4:
            raise ArithmeticError(f"at {t}")
        return t
    with pytest.raises(ArithmeticError, match="at 0.5"):
        array_form(fn, (1,))(np.linspace(0.0, 1.0, 5))
    assert calls == [0.0, 0.25, 0.5]
