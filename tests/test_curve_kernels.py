"""The curve kernels against verbatim copies of their earlier forms: the
registry's closed forms written with ``np.select`` and ``np.where`` (every
branch at every time), the clipped-index trajectory lookup and Hermite
kernel.  The current forms must give the same bytes; they evaluate each
branch only at the times it owns, and one call per curve function."""

import re
import warnings

import numpy as np
import pytest

from retard_oc import registry
from retard_oc.cost import evaluate_cost
from retard_oc.errors import OutOfDomainError
from retard_oc.registry import E2, E4, E6, _Q, d_eta1, d_eta2, d_eta3
from retard_oc.trajectory import HermiteCurve, _hermite_basis, hermite_from_samples

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

