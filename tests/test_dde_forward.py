import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from retard_oc.cost import evaluate_cost
from retard_oc.dde import (IntegratorConfig, _affine_cell, _cell_schedule,
                           _integrate_cell, integrate_adjoint_nonlinear,
                           integrate_forward)
from retard_oc.errors import NonFiniteStateError, OutOfDomainError
from retard_oc.problems import (CandidateSolution, DelayedProblem,
                                StateLinearProblem, as_delayed, batched)
from retard_oc.registry import (d_state_value, ld_state_value,
                                make_zero_candidate, make_zero_problem)
from retard_oc.trajectory import from_pieces

from conftest import max_abs_error, stage_by_stage, two_state_free_problem


def test_ld_state_reproduced(ld_problem, ld_candidate, default_integrator):
    x = integrate_forward(ld_problem, ld_candidate.control, default_integrator)
    ts = np.linspace(0.0, 4.0, 2001)
    assert max_abs_error(x, ld_state_value, ts) <= 1e-8


def test_ld_state_first_piece(ld_problem, ld_candidate, default_integrator):
    # x = -1 + 2 e^t right after the horizon start
    x = integrate_forward(ld_problem, ld_candidate.control, default_integrator)
    for t in (0.1, 0.5, 0.999):
        assert x.eval(t)[0] == pytest.approx(-1 + 2 * np.exp(t), abs=1e-9)


def test_zero_dynamics_keeps_history_value():
    problem = make_zero_problem()
    cand = make_zero_candidate()
    x = integrate_forward(problem, cand.control, IntegratorConfig(8))
    for t in np.linspace(0, 2, 41):
        assert x.eval(t)[0] == pytest.approx(0.75, abs=0.0)


def test_d_state_reproduced(d_problem, d_candidate, default_integrator):
    x = integrate_forward(d_problem, d_candidate.control, default_integrator)
    ts = np.linspace(0.0, 3.0, 1501)
    assert max_abs_error(x, d_state_value, ts) <= 1e-8
    # flat at 1 until the delayed control engages at t = 2
    assert x.eval(1.7)[0] == pytest.approx(1.0, abs=1e-12)


def test_output_continuous_at_breakpoints(ld_problem, ld_candidate, fast_integrator):
    x = integrate_forward(ld_problem, ld_candidate.control, fast_integrator)
    for bp in (1.0, 2.0, 3.0):
        assert x.eval(bp - 1e-10)[0] == pytest.approx(x.eval(bp + 1e-10)[0],
                                                      abs=1e-8)


def test_control_must_cover_required_interval(ld_problem):
    short = from_pieces(1, [(0, 4, lambda t: [0.0])], main_start=0)
    with pytest.raises(OutOfDomainError):
        integrate_forward(ld_problem, short, IntegratorConfig(8))


def test_order_ratio_on_halving(ld_problem, ld_candidate):
    # halving the substep size should cut the error by at least 12x until the
    # floating-point floor
    ts = np.linspace(0.0, 4.0, 801)
    errs = []
    for substeps in (8, 16, 32):
        x = integrate_forward(ld_problem, ld_candidate.control,
                              IntegratorConfig(substeps_per_cell=substeps))
        errs.append(max_abs_error(x, ld_state_value, ts))
    assert errs[0] / errs[1] >= 12.0
    assert errs[1] / errs[2] >= 12.0


def test_blow_up_raises_naming_integrator_and_cell():
    # xdot = 50 x^2 from x = 1 blows up at t = 1/50, inside the first cell
    problem = DelayedProblem(
        a=0, b=1, r=Fraction(1, 2), s=Fraction(1, 2), n=1, m=1,
        f0=lambda t, x, y, u, v: 0.0,
        f=lambda t, x, y, u, v: 50.0 * x ** 2,
        phi=lambda t: np.array([1.0]), psi=lambda t: np.array([0.0]))
    control = from_pieces(1, [(Fraction(-1, 2), 1, lambda t: [0.0])], main_start=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteStateError,
                           match=r"integrate_forward.* cell 0 \[0, 1/2\]"):
            integrate_forward(problem, control, IntegratorConfig(16))


def _cell_nodes(traj):
    """The node arrays (ts, ys, ds) of each marched cell of ``traj``."""
    return [(seg.curve.ts, seg.curve.ys, seg.curve.ds) for seg in traj.segments
            if hasattr(seg.curve, "ts")]


def _assert_same_nodes(got, want):
    assert len(got) == len(want)
    for mine, ref in zip(got, want):
        for a, b in zip(mine, ref):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("substeps", [1, 2, 16, 64, 100])
def test_goellmann_state_free_cells_are_the_stage_march_bit_for_bit(substeps, d_problem,
                                                                    d_candidate):
    # f = y v reads no current state: each cell is marched on the slopes of
    # one array call, on Python floats, and kept after a second one, with
    # the stage march's bits
    cfg = IntegratorConfig(substeps)
    got = integrate_forward(d_problem, d_candidate.control, cfg)
    want = integrate_forward(stage_by_stage(d_problem), d_candidate.control, cfg)
    _assert_same_nodes(_cell_nodes(got), _cell_nodes(want))


@pytest.mark.parametrize("substeps", [1, 2, 16, 64, 100])
def test_two_state_free_cells_are_the_stage_march_bit_for_bit(substeps):
    # each state component is marched alone; together they are the stage
    # march of the row, and every cell is kept (two array calls of f)
    problem, control = two_state_free_problem()
    counted, calls = _counting_f(problem)
    cfg = IntegratorConfig(substeps)
    got = integrate_forward(counted, control, cfg)
    want = integrate_forward(stage_by_stage(problem), control, cfg)
    _assert_same_nodes(_cell_nodes(got), _cell_nodes(want))
    assert calls == {"f": 0, "f.many": 2 * problem.lattice().n_cells}


def _counting_f(problem):
    """``problem`` with its f's scalar and array-form calls counted."""
    calls, f = {"f": 0, "f.many": 0}, problem.f

    def scalar(*args):
        calls["f"] += 1
        return f(*args)

    def many(*args):
        calls["f.many"] += 1
        return f.many(*args)
    return dataclasses.replace(problem, f=batched(scalar, many)), calls


def test_goellmann_forward_is_two_array_calls_of_f_per_cell(d_problem, d_candidate):
    problem, calls = _counting_f(d_problem)
    integrate_forward(problem, d_candidate.control, IntegratorConfig(16))
    assert calls == {"f": 0, "f.many": 2 * problem.lattice().n_cells}


@pytest.mark.parametrize("r, tried", [(Fraction(1, 2), True), (Fraction(0), False)],
                         ids=["reads x", "k_r = 0"])
def test_a_state_reading_f_is_marchedstage_by_stage(r, tried):
    # f reads x: each cell's state-free try is refused after its two array
    # calls; with k_r = 0 the delayed state is the current one and no cell
    # is tried.  Either way the cells are the stage march's
    f = batched(lambda t, x, y, u, v: -x + y + u, lambda ts, X, Y, U, V: -X + Y + U)
    problem = DelayedProblem(
        a=0, b=1, r=r, s=Fraction(1, 2), n=1, m=1, f0=lambda t, x, y, u, v: 0.0, f=f,
        phi=lambda t: np.array([1.0]), psi=lambda t: np.array([0.0]))
    control = from_pieces(1, [(Fraction(-1, 2), 1, lambda t: [np.cos(t)])], main_start=0)
    counted, calls = _counting_f(problem)
    cfg, cells = IntegratorConfig(16), problem.lattice().n_cells
    got = integrate_forward(counted, control, cfg)
    want = integrate_forward(stage_by_stage(problem), control, cfg)
    _assert_same_nodes(_cell_nodes(got), _cell_nodes(want))
    assert calls == {"f": cells * (11 * 16 + 1), "f.many": 2 * cells if tried else 0}


def test_an_overflowing_state_free_cell_raises_as_the_stage_march_does():
    # f reads no current state, but x overflows in cell 1: the state-free
    # cell is refused there and the stage march raises, naming the cell,
    # with numpy's warnings
    big = 1e308
    problem = DelayedProblem(
        a=0, b=3, r=1, s=1, n=1, m=1, f0=lambda t, x, y, u, v: 0.0,
        f=batched(lambda t, x, y, u, v: np.array([big if 1.0 <= t < 2.0 else 1.0]),
                  lambda ts, X, Y, U, V: np.where((1.0 <= ts) & (ts < 2.0), big, 1.0)[:, None]),
        phi=lambda t: np.array([1.0]), psi=lambda t: np.array([0.0]))
    control = from_pieces(1, [(-1, 3, lambda t: [0.0])], main_start=0)
    messages = []
    for p in (problem, stage_by_stage(problem)):
        with pytest.warns(RuntimeWarning) as got:
            with pytest.raises(NonFiniteStateError,
                               match=r"integrate_forward.* cell 1 \[1, 2\]") as err:
                integrate_forward(p, control, IntegratorConfig(8))
        messages.append((str(err.value), [str(w.message) for w in got]))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("substeps", [1, 3])
def test_rhs_evaluations_per_cell(substeps):
    # per substep: RK4 over it, then over its two halves, the first half
    # step reusing the full step's initial slope; plus one endpoint slope
    calls = {"f": 0, "f0_dx": 0}

    def f(t, x, y, u, v):
        calls["f"] += 1
        return -x + y + u

    def f0_dx(t, x, y, u, v):
        calls["f0_dx"] += 1
        return 2.0 * x

    problem = DelayedProblem(
        a=0, b=1, r=Fraction(1, 2), s=Fraction(1, 2), n=1, m=1,
        f0=lambda t, x, y, u, v: float(x[0] ** 2), f=f,
        phi=lambda t: np.array([1.0]), psi=lambda t: np.array([0.0]),
        f_dx=lambda t, x, y, u, v: np.array([[-1.0]]),
        f_dy=lambda t, x, y, u, v: np.array([[1.0]]),
        f0_dx=f0_dx, f0_dy=lambda t, x, y, u, v: np.array([0.0]),
        g0_grad=lambda x: np.array([0.0]))
    control = from_pieces(1, [(Fraction(-1, 2), 1, lambda t: [0.3])], main_start=0)
    cfg = IntegratorConfig(substeps)
    state = integrate_forward(problem, control, cfg)
    assert calls["f"] == 2 * (11 * substeps + 1)
    # the costate is affine in eta: its partials are resolved once per
    # distinct stage time of each (backward) cell, and a cell has exactly
    # 4 S + 1 of them: substep start, quarter, midpoint, three quarters and
    # end, the end being the next substep's start to the last bit
    integrate_adjoint_nonlinear(problem, CandidateSolution(state, control), cfg)
    for _, lo, hi in problem.lattice().cells():
        for start, end in ((float(lo), float(hi)), (float(hi), float(lo))):
            assert len(set(_cell_schedule(start, end, substeps)[1])) == 4 * substeps + 1
    assert calls["f0_dx"] == 2 * (4 * substeps + 1)


@pytest.mark.parametrize("start, end", [(0.0, 0.7), (2.5, 1.0 / 3.0)])
def test_affine_cell_matches_stage_by_stage_march(start, end):
    # a non-symmetric, time-varying slope matrix: the batched affine maps
    # must reproduce the step-doubled RK4 march in both directions
    rng = np.random.default_rng(7)
    M0, M1 = rng.normal(size=(2, 3, 3))
    c0, c1 = rng.normal(size=(2, 3))

    def slope_terms(ts):
        return (M0 + np.sin(ts)[:, None, None] * M1,
                c0 + np.cos(3.0 * ts)[:, None] * c1)

    def rhs(k, t, y):
        M, c = slope_terms(np.array([t]))
        return y @ M[0] + c[0]

    widths, times = _cell_schedule(start, end, 8)
    y0 = rng.normal(size=3)
    affine = _affine_cell(*slope_terms(times), widths, times, y0)
    staged = _integrate_cell(rhs, widths, times, y0)[1]
    assert np.array_equal(affine[0], staged[0])
    for got, want in zip(affine[1:], staged[1:]):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("r", [Fraction(1), Fraction(0)], ids=["r=1", "r=0"])
def test_state_linear_forward_matches_general_path(r):
    # 2-d problem with a non-symmetric, time-varying A: the affine march of
    # the state-linear class against the stage-by-stage march of its
    # general view; r = 0 folds A_D into the slope matrix
    problem = StateLinearProblem(
        a=0, b=2, r=r, s=Fraction(1, 2), n=2, m=1,
        A=lambda t: np.array([[-0.5, 1.0 + t], [-0.3 * t, 0.2]]),
        A_D=lambda t: np.array([[0.1, -0.4], [0.25, np.cos(t)]]),
        g=lambda t, u: np.array([u[0], -t * u[0]]),
        g_D=lambda t, v: np.array([0.5 * v[0], v[0] ** 2]),
        f0x=lambda t, x, y: float(x @ x), f0u=lambda t, u, v: float(u @ u),
        phi=lambda t: np.array([1.0 + t, np.sin(t)]),
        psi=lambda t: np.array([0.2 * t]))
    control = from_pieces(1, [(Fraction(-1, 2), 2, lambda t: [np.cos(2.0 * t)])],
                          main_start=0)
    cfg = IntegratorConfig(16)
    affine = integrate_forward(problem, control, cfg)
    staged = integrate_forward(as_delayed(problem), control, cfg)
    assert affine.history_start == -r
    cells = [seg for seg in affine.segments if seg.lo >= 0]
    assert len(cells) == 4
    for mine, ref in zip(cells, staged.segments[-4:]):
        assert (mine.lo, mine.hi) == (ref.lo, ref.hi)
        assert np.array_equal(mine.curve.ts, ref.curve.ts)
        np.testing.assert_allclose(mine.curve.ys, ref.curve.ys, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(mine.curve.ds, ref.curve.ds, rtol=0.0, atol=1e-12)


def test_delayed_reads_are_the_earlier_cells_own_times():
    # h = 1/3 is not dyadic, so t - s in floats misses the earlier cell's
    # own times by an ulp or so.  A delay is a shift by whole cells: every
    # control cell is read only at its own stage times (forward, and
    # backward for the costate) and at its own Simpson nodes
    third = Fraction(1, 3)
    seen: dict = {}

    def recording(i):
        def u(t):
            seen.setdefault(i, set()).add(t)
            return [np.sin(3.0 * t)]
        return u
    control = from_pieces(1, [(-2 * third, 0, lambda t: [0.0])]
                          + [(i * third, (i + 1) * third, recording(i)) for i in range(3)],
                          main_start=0)
    problem = StateLinearProblem(
        a=0, b=1, r=third, s=2 * third, n=1, m=1,
        A=lambda t: np.array([[-0.5]]), A_D=lambda t: np.array([[0.3]]),
        g=lambda t, u: np.array([u[0]]), g_D=lambda t, v: np.array([0.5 * v[0]]),
        f0x=lambda t, x, y: float(x[0] * y[0]), f0u=lambda t, u, v: float(u[0] * v[0]),
        phi=lambda t: np.array([1.0]), psi=lambda t: np.array([0.2]))
    cells = [(i, float(lo), float(hi)) for i, lo, hi in problem.lattice().cells()]
    cfg, steps = IntegratorConfig(16), 32

    def own_times(read, times_of_cell):
        seen.clear()
        result = read()
        assert sorted(seen) == [0, 1, 2]
        for i, lo, hi in cells:
            assert seen[i] <= set(np.asarray(times_of_cell(lo, hi)).tolist()), f"cell {i}"
        return result

    state = own_times(lambda: integrate_forward(problem, control, cfg),
                      lambda lo, hi: _cell_schedule(lo, hi, 16)[1])
    cand = CandidateSolution(state, control)
    own_times(lambda: integrate_adjoint_nonlinear(problem, cand, cfg),
              lambda lo, hi: _cell_schedule(hi, lo, 16)[1])

    def nodes(lo, hi):
        ts = lo + (hi - lo) * (np.arange(steps + 1) / steps)
        ts[-1] = hi
        return ts
    own_times(lambda: evaluate_cost(problem, cand, steps), nodes)


def test_substep_count_validated():
    with pytest.raises(ValueError):
        IntegratorConfig(substeps_per_cell=0)


def _single_delay_problem(r, s):
    from fractions import Fraction

    from retard_oc.problems import StateLinearProblem
    # xdot = -x(t - r) + u(t - s) with unit state history and zero control
    # history; exercises the zero-shift lookup paths
    return StateLinearProblem(
        a=Fraction(0), b=Fraction(2), r=Fraction(r), s=Fraction(s), n=1, m=1,
        A=lambda t: np.array([[0.0]]),
        A_D=lambda t: np.array([[-1.0]]),
        g=lambda t, u: np.array([0.0]),
        g_D=lambda t, v: np.array([float(v[0])]),
        phi=lambda t: np.array([1.0]),
        psi=lambda t: np.array([0.0]),
        f0x=lambda t, x, y: float(x[0]),
        f0u=lambda t, u, v: float(u[0]) ** 2,
        f0x_dx=lambda t, x, y: np.array([1.0]),
        f0x_dy=lambda t, x, y: np.array([0.0]))


def test_zero_state_delay_path():
    # r = 0: the delayed state argument is the current state, so
    # xdot = -x + u(t - 1); with u = 1 on [0, 2] the pieces are
    # e^-t on [0, 1] and 1 + (1/e - 1) e^{1-t} on [1, 2]
    problem = _single_delay_problem(r=0, s=1)
    control = from_pieces(1, [(-1, 0, lambda t: [0.0]), (0, 2, lambda t: [1.0])],
                          main_start=0)
    x = integrate_forward(problem, control, IntegratorConfig(32))
    for t in np.linspace(0.0, 1.0, 50):
        assert x.eval(t)[0] == pytest.approx(np.exp(-t), abs=1e-9)
    for t in np.linspace(1.0, 2.0, 50):
        expect = 1.0 + (np.exp(-1.0) - 1.0) * np.exp(1.0 - t)
        assert x.eval(t)[0] == pytest.approx(expect, abs=1e-9)


def test_zero_control_delay_path():
    # s = 0: the delayed control argument is the current control; with
    # u = 0 and r = 1 the pieces are 1 - t and t^2/2 - 2t + 3/2
    problem = _single_delay_problem(r=1, s=0)
    control = from_pieces(1, [(0, 2, lambda t: [0.0])], main_start=0)
    x = integrate_forward(problem, control, IntegratorConfig(32))
    for t in np.linspace(0.0, 1.0, 50):
        assert x.eval(t)[0] == pytest.approx(1.0 - t, abs=1e-10)
    for t in np.linspace(1.0, 2.0, 50):
        assert x.eval(t)[0] == pytest.approx(t * t / 2 - 2 * t + 1.5, abs=1e-10)


def test_zero_state_delay_adjoint():
    # r = 0 collapses the advanced terms onto the current time:
    # etadot = 1 + eta with eta(2) = 0, hence eta = e^{t-2} - 1
    from retard_oc.dde import integrate_adjoint_linear
    from retard_oc.problems import CandidateSolution

    problem = _single_delay_problem(r=0, s=1)
    control = from_pieces(1, [(-1, 0, lambda t: [0.0]), (0, 2, lambda t: [1.0])],
                          main_start=0)
    x = integrate_forward(problem, control, IntegratorConfig(32))
    eta = integrate_adjoint_linear(problem, CandidateSolution(x, control),
                                   IntegratorConfig(32))
    for t in np.linspace(0.0, 2.0, 80):
        assert eta.eval(t)[0] == pytest.approx(np.exp(t - 2.0) - 1.0, abs=1e-9)
