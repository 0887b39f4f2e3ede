import math
from fractions import Fraction

import numpy as np
import pytest

from retard_oc.errors import OutOfDomainError
from retard_oc.lattice import make_lattice
from retard_oc.trajectory import (HermiteCurve, Trajectory, eval_delayed,
                                  from_pieces, hermite_from_samples)


def test_eval_delayed_reads_history(ld_candidate):
    # state history is identically 1, so a two-unit shift from t = 1 hits it
    assert eval_delayed(ld_candidate.state, 1.0, 2) == pytest.approx(1.0)


def test_eval_delayed_zero_shift_is_identity(ld_candidate):
    for t in (0.25, 1.5, 3.9):
        np.testing.assert_allclose(
            eval_delayed(ld_candidate.state, t, 0), ld_candidate.state.eval(t))


def test_eval_delayed_control_history(d_candidate):
    assert eval_delayed(d_candidate.control, 1.5, 2)[0] == pytest.approx(0.0)


def test_eval_delayed_out_of_domain(ld_candidate):
    with pytest.raises(OutOfDomainError):
        eval_delayed(ld_candidate.state, 0.0, 3)  # before history start -2


def test_history_lookup_is_exact():
    # values taken from the history segment are the history callable verbatim
    phi = lambda t: np.array([1.0 + 0.5 * t])
    traj = from_pieces(1, [(-2, 0, phi), (0, 1, lambda t: np.array([1.0 + t]))],
                       main_start=0)
    for t in (-2.0, -1.3, -0.0001):
        assert traj.eval(t)[0] == phi(t)[0]


def test_right_segment_owns_breakpoints(ld_candidate):
    # control jumps at t = 0 (history 0, right limit e^3 / 20)
    u0 = ld_candidate.control.eval(0)
    assert u0[0] == pytest.approx(math.exp(3) / 20.0)
    assert ld_candidate.control.eval(-1e-9)[0] == pytest.approx(0.0)


def test_end_belongs_to_last_segment(ld_candidate):
    assert ld_candidate.control.eval(4)[0] == 0.0


def test_segments_must_tile():
    with pytest.raises(ValueError):
        Trajectory(dimension=1, history_start=Fraction(0), main_start=Fraction(0),
                   end=Fraction(2), segments=tuple())
    with pytest.raises(ValueError):
        from_pieces(1, [(0, 1, lambda t: [t]), (  # gap between 1 and 2
            2, 3, lambda t: [t])], main_start=0)


def test_state_continuity_enforced():
    with pytest.raises(ValueError, match="discontinuity"):
        from_pieces(1, [(0, 1, lambda t: [0.0]), (1, 2, lambda t: [1.0])],
                    main_start=0, require_continuity=True)


def test_cell_rows_left_limit_semantics():
    # the cell [0, 1] is read on the left piece up to its shared edge
    traj = from_pieces(1, [(0, 1, lambda t: [t]), (1, 2, lambda t: [5.0])],
                       main_start=0)
    rows = traj.cell_rows(make_lattice(0, 2, 1, 0), np.array([[0.5, 1.0], [1.0, 1.5]]))
    assert rows[:, 0].tolist() == [0.5, 1.0, 5.0, 5.0]   # left limit, not the jump value
    assert traj.eval(1.0)[0] == 5.0                      # plain eval: right segment owns t=1


def test_hermite_reproduces_cubics():
    ts = np.linspace(0.0, 2.0, 9)
    ys = (ts ** 3 - 2 * ts)[:, None]
    ds = (3 * ts ** 2 - 2)[:, None]
    curve = HermiteCurve(ts, ys, ds)
    for t in np.linspace(0, 2, 101):
        assert curve(t)[0] == pytest.approx(t ** 3 - 2 * t, abs=1e-12)


def test_hermite_from_samples_smooth():
    ts = np.linspace(0.0, 1.0, 65)
    curve = hermite_from_samples(ts, np.sin(3 * ts))
    for t in np.linspace(0, 1, 200):
        assert curve(t)[0] == pytest.approx(math.sin(3 * t), abs=5e-5)


def test_out_of_domain_eval(ld_candidate):
    with pytest.raises(OutOfDomainError):
        ld_candidate.state.eval(4.5)
    with pytest.raises(OutOfDomainError):
        ld_candidate.state.eval(-2.5)


# -- batched evaluation ---------------------------------------------------------

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from retard_oc.dde import IntegratorConfig, integrate_forward  # noqa: E402
from retard_oc.registry import make_ld_candidate, make_ld_problem  # noqa: E402
from retard_oc.trajectory import _SNAP  # noqa: E402

# Forward ld state with 4 substeps per cell: a closed-form history segment on
# [-2, 0] followed by four Hermite cells.
_LD_STATE = integrate_forward(make_ld_problem(), make_ld_candidate().control,
                              IntegratorConfig(substeps_per_cell=4))
_LD_LO, _LD_HI = -2.0, 4.0
_LD_SLACK = _SNAP * (_LD_HI - _LD_LO)
_BREAKPOINTS = [-2.0, 0.0, 1.0, 2.0, 3.0, 4.0]

_HERMITE = HermiteCurve(
    np.array([0.0, 0.1, 0.35, 0.4, 0.8, 1.3]),
    np.array([[0.0, 1.0], [0.3, -1.0], [0.2, 0.5], [-0.4, 2.0], [1.0, 0.0],
              [0.7, 0.7]]),
    np.array([[1.0, 0.0], [-2.0, 1.0], [0.5, 0.5], [3.0, -1.0], [0.0, 2.0],
              [1.0, 1.0]]))
_H_SLACK = _SNAP * 1.3


def _times_near(points, lo, hi, slack):
    """Uniform times, the points themselves, and points moved by up to two
    slacks (on both sides of the snapping threshold), clipped into [lo, hi]."""
    uniform = st.floats(lo, hi, allow_nan=False)
    exact = st.sampled_from(points)
    nudged = st.builds(lambda p, d: min(max(p + d, lo), hi),
                       exact, st.floats(-2 * slack, 2 * slack))
    return st.lists(st.one_of(uniform, exact, nudged), min_size=1, max_size=40)


def _assert_same_as_stacked(batched, scalar, ts):
    """``batched`` equals the stacked ``scalar`` calls bit for bit on the
    times the scalar call accepts, and raises OutOfDomainError on a batch
    holding a time it refuses."""
    accepted, stacked = [], []
    for t in ts:
        try:
            stacked.append(scalar(t))
        except OutOfDomainError:
            continue
        accepted.append(t)
    if accepted:
        assert np.array_equal(batched(accepted), np.array(stacked))
    if len(accepted) < len(ts):
        with pytest.raises(OutOfDomainError):
            batched(ts)


@settings(max_examples=200, deadline=None)
@given(_times_near(list(_HERMITE.ts), 0.0, 1.3, _H_SLACK))
def test_hermite_eval_many_is_bit_identical_to_scalar_calls(ts):
    _assert_same_as_stacked(lambda ts: _HERMITE.eval_many(np.array(ts)),
                            _HERMITE, ts)


@settings(max_examples=200, deadline=None)
@given(_times_near(_BREAKPOINTS, _LD_LO, _LD_HI, _LD_SLACK))
# in-domain times snapped onto a Hermite cell from up to the trajectory's
# slack below its first node
@example([-2.7e-11, 1 - 2.7e-11, 2 - 5e-11])
def test_trajectory_eval_many_is_bit_identical_to_scalar_calls(ts):
    # every time in [history_start, end] is accepted
    stacked = np.array([_LD_STATE.eval(t) for t in ts])
    assert np.array_equal(_LD_STATE.eval_many(ts), stacked)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(_LD_LO, _LD_HI), max_size=10),
       st.floats(1e-6, 10.0), st.booleans())
def test_eval_many_rejects_out_of_range_times(ts, gap, below):
    bad = _LD_LO - gap if below else _LD_HI + gap
    with pytest.raises(OutOfDomainError):
        _LD_STATE.eval(bad)
    with pytest.raises(OutOfDomainError):
        _LD_STATE.eval_many(ts + [bad])
    bad = -gap if below else 1.3 + gap
    with pytest.raises(OutOfDomainError):
        _HERMITE(bad)
    with pytest.raises(OutOfDomainError):
        _HERMITE.eval_many(np.array(ts[:0] + [0.5, bad]))


def test_eval_many_covers_history_end_and_breakpoints():
    ts = [-2.0, -1.25, -1e-12, 0.0, 1.0, 2.0, 3.0 - 1e-12, 3.0, 4.0]
    stacked = np.array([_LD_STATE.eval(t) for t in ts])
    assert np.array_equal(_LD_STATE.eval_many(ts), stacked)
    assert _LD_STATE.eval_many([]).shape == (0, 1)
