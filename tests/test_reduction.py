from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import retard_oc.dde as dde
import retard_oc.reduction as reduction

from retard_oc.cost import evaluate_cost
from retard_oc.dde import IntegratorConfig, integrate_forward
from retard_oc.errors import (MismatchedLatticeError, NonFiniteStateError,
                              SeamMismatchError)
from retard_oc.lattice import make_lattice
from retard_oc.problems import (CandidateSolution, DelayedProblem,
                                StateLinearProblem, as_delayed, batched)
from retard_oc.reduction import (augment, augmented_cost, integrate_augmented,
                                 reassemble, stack_candidate)
from retard_oc.trajectory import CallableCurve, from_pieces

from conftest import stage_by_stage, two_state_free_problem


@pytest.fixture(scope="module", params=["ld", "d"])
def case(request, ld_problem, ld_candidate, d_problem, d_candidate):
    if request.param == "ld":
        return ld_problem, ld_candidate
    return d_problem, d_candidate


def test_block_offsets_are_exact(ld_problem, d_problem):
    aug = augment(ld_problem, ld_problem.lattice())
    assert (aug.n_blocks, aug.state_offset, aug.control_offset) == (4, 2, 1)
    assert aug.stacked_state_dim == 4
    aug = augment(d_problem, d_problem.lattice())
    assert (aug.n_blocks, aug.state_offset, aug.control_offset) == (3, 1, 2)
    assert aug.stacked_state_dim == 3


def test_offsets_exact_for_random_lattices(rng):
    from fractions import Fraction
    for _ in range(200):
        r = Fraction(int(rng.integers(0, 10)), int(rng.integers(1, 7)))
        s = Fraction(int(rng.integers(0, 10)), int(rng.integers(1, 7)))
        if r == 0 and s == 0:
            r = Fraction(1, 2)
        length = Fraction(int(rng.integers(1, 15)), int(rng.integers(1, 5)))
        lat = make_lattice(0, length, r, s)
        assert (r / lat.h).denominator == 1
        assert (s / lat.h).denominator == 1


def test_rejects_mismatched_lattice(ld_problem):
    with pytest.raises(MismatchedLatticeError):
        augment(ld_problem, make_lattice(0, 3, 1, 2))


def test_round_trip_is_identity(case):
    problem, cand = case
    lattice = problem.lattice()
    back = reassemble(stack_candidate(augment(problem, lattice), cand), lattice)
    ts = np.linspace(float(problem.state_history_start), float(problem.b), 1201)
    worst = max(float(np.max(np.abs(back.state.eval(t) - cand.state.eval(t))))
                for t in ts)
    assert worst <= 1e-12
    ts = np.linspace(float(problem.control_history_start), float(problem.b), 1201)
    worst = max(float(np.max(np.abs(back.control.eval(t) - cand.control.eval(t))))
                for t in ts)
    assert worst <= 1e-12


def test_cost_equivalence(case):
    problem, cand = case
    lattice = problem.lattice()
    aug = augment(problem, lattice)
    gap = abs(augmented_cost(aug, stack_candidate(aug, cand), 512)
              - evaluate_cost(problem, cand, 512))
    assert gap <= 1e-10


def test_cost_equivalence_off_optimum(ld_problem):
    # equivalence is structural, not a property of the optimal pair
    control = from_pieces(1, [(-1, 0, lambda t: [0.0]),
                              (0, 4, lambda t: [0.2 * np.sin(2 * t)])],
                          main_start=0)
    state = integrate_forward(ld_problem, control, IntegratorConfig(32))
    cand = CandidateSolution(state=state, control=control)
    lattice = ld_problem.lattice()
    aug = augment(ld_problem, lattice)
    gap = abs(augmented_cost(aug, stack_candidate(aug, cand), 512)
              - evaluate_cost(ld_problem, cand, 512))
    assert gap <= 1e-10


def test_dynamics_equivalence(case):
    problem, cand = case
    lattice = problem.lattice()
    aug = augment(problem, lattice)
    cfg = IntegratorConfig(substeps_per_cell=64)
    sol = integrate_augmented(aug, cand.control, cfg)
    assert sol.linkage_residual() <= 1e-12
    re = reassemble(sol, lattice)
    fwd = integrate_forward(problem, cand.control, cfg)
    ts = np.linspace(float(problem.a), float(problem.b), 1201)
    worst = max(float(np.max(np.abs(re.state.eval(t) - fwd.eval(t))))
                for t in ts)
    assert worst <= 1e-8


def test_broken_seam_raises(ld_problem, ld_candidate):
    lattice = ld_problem.lattice()
    sol = stack_candidate(augment(ld_problem, lattice), ld_candidate)
    third = sol.state_blocks[2]
    sol.state_blocks = list(sol.state_blocks)
    sol.state_blocks[2] = CallableCurve(lambda t: third(t) + 0.1, 1)
    with pytest.raises(SeamMismatchError):
        reassemble(sol, lattice)


def test_single_block_reduction_uses_history_only():
    _check_history_only(Fraction(1))


def test_shift_past_the_last_block_uses_history_only():
    # r/h = 2 reaches past the one block: still all history rows
    _check_history_only(Fraction(2))


def _check_history_only(r):
    # r, s >= h = b - a: every delayed reference resolves to the histories
    problem = DelayedProblem(
        a=Fraction(0), b=Fraction(1), r=r, s=Fraction(1), n=1, m=1,
        f0=lambda t, x, y, u, v: 0.0,
        f=lambda t, x, y, u, v: np.array([float(y[0]) + float(v[0])]),
        phi=lambda t: np.array([2.0]),
        psi=lambda t: np.array([3.0]))
    aug = augment(problem, problem.lattice())
    assert aug.n_blocks == 1
    X = np.array([5.0])
    W = np.array([0.0])
    # rhs = phi(t - r) + psi(t - 1) = 5 regardless of the block values
    np.testing.assert_allclose(aug.dynamics(0.5, X, W), [5.0])


@pytest.mark.parametrize("name,blocks", [("ld", 4), ("d", 3)])
def test_augmented_march_runs_each_block_once(name, blocks, monkeypatch,
                                              ld_problem, ld_candidate,
                                              d_problem, d_candidate):
    # block i reads only blocks before it, so one pass in block order is
    # exact: ld marches its 4 blocks affinely, d its 3 as state-free cells,
    # each once; the stacked right-hand side is called once, as the check
    problem, cand = (ld_problem, ld_candidate) if name == "ld" else (d_problem, d_candidate)
    calls = {"march": 0, "stacked": 0}

    def counting(fn, key):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    for cell in ("_affine_cell", "_integrate_cell", "_state_free_march"):
        monkeypatch.setattr(dde, cell, counting(getattr(dde, cell), "march"))
    monkeypatch.setattr(reduction.AugmentedProblem, "dynamics",
                        counting(reduction.AugmentedProblem.dynamics, "stacked"))
    sol = integrate_augmented(augment(problem, problem.lattice()), cand.control,
                              IntegratorConfig(16))
    assert calls == {"march": blocks, "stacked": 1}
    assert sol.linkage_residual() == 0.0


def _assert_blocks_are_the_stage_march(problem, control, substeps):
    cfg = IntegratorConfig(substeps)
    got, want = (integrate_augmented(augment(p, p.lattice()), control, cfg)
                 for p in (problem, stage_by_stage(problem)))
    assert len(got.state_blocks) == len(want.state_blocks) == problem.lattice().n_cells
    for mine, ref in zip(got.state_blocks, want.state_blocks):
        for a, b in ((mine.ts, ref.ts), (mine.ys, ref.ys), (mine.ds, ref.ds)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got.ode_residual == want.ode_residual


@pytest.mark.parametrize("substeps", [1, 2, 16, 64, 100])
def test_goellmann_blocks_are_the_stage_march_bit_for_bit(substeps, d_problem, d_candidate):
    # f = y v reads no current state, so each block is a state-free cell:
    # its nodes must be those of the stage march, forced by an f without
    # an array form
    assert d_problem.lattice().n_cells == 3
    _assert_blocks_are_the_stage_march(d_problem, d_candidate.control, substeps)


@pytest.mark.parametrize("substeps", [1, 2, 16, 64, 100])
def test_two_state_free_blocks_are_the_stage_march_bit_for_bit(substeps):
    # with two states, each component of a block is marched alone
    _assert_blocks_are_the_stage_march(*two_state_free_problem(), substeps)


def test_an_overflowing_state_free_block_raises_as_the_stage_march_does():
    # the forward integrator's overflow fixture through the block march:
    # the state-free block is refused and the stage march raises, naming
    # the block, with numpy's warnings
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
                               match=r"integrate_augmented.* block 1 \[1, 2\]") as err:
                integrate_augmented(augment(p, p.lattice()), control, IntegratorConfig(8))
        messages.append((str(err.value), [str(w.message) for w in got]))
    assert messages[0] == messages[1]


def test_augmented_blow_up_raises_naming_the_block():
    # the blow-up fixture of the forward integrator: xdot = 50 x^2 from 1
    problem = DelayedProblem(
        a=0, b=1, r=Fraction(1, 2), s=Fraction(1, 2), n=1, m=1,
        f0=lambda t, x, y, u, v: 0.0,
        f=lambda t, x, y, u, v: 50.0 * x ** 2,
        phi=lambda t: np.array([1.0]), psi=lambda t: np.array([0.0]))
    control = from_pieces(1, [(Fraction(-1, 2), 1, lambda t: [0.0])], main_start=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteStateError,
                           match=r"integrate_augmented.* block 0 \[0, 1/2\]"):
            integrate_augmented(augment(problem, problem.lattice()), control,
                                IntegratorConfig(16))


def test_nan_seam_is_a_mismatch(ld_problem, ld_candidate):
    lattice = ld_problem.lattice()
    sol = stack_candidate(augment(ld_problem, lattice), ld_candidate)
    sol.state_blocks = list(sol.state_blocks)
    sol.state_blocks[1] = CallableCurve(lambda t: [np.nan], 1)
    assert np.isnan(sol.linkage_residual())
    with pytest.raises(SeamMismatchError):
        reassemble(sol, lattice)


def _two_by_two_problem():
    """n = m = 2 on [0, 3] with r = 1, s = 1/2: six blocks of length 1/2,
    state shift 2, control shift 1; plain scalar callables only."""
    return StateLinearProblem(
        a=0, b=3, r=1, s=Fraction(1, 2), n=2, m=2,
        A=lambda t: np.array([[np.sin(t), 1.0], [0.5, -t]]),
        A_D=lambda t: np.array([[0.3, -0.2 * t], [np.cos(t), 0.1]]),
        g=lambda t, u: np.array([u[0] ** 2 + t, np.sin(u[1])]),
        g_D=lambda t, v: np.array([v[1], t * v[0]]),
        f0x=lambda t, x, y: x[0] ** 2 + x[0] * y[1] + t * y[0] ** 2,
        f0u=lambda t, u, v: u[0] ** 2 + u[1] * v[0] + v[1] ** 2,
        phi=lambda t: np.array([np.cos(t), t]),
        psi=lambda t: np.array([np.sin(t), 1.0 - t]))


def _per_block_reference(aug, sigma, X, W):
    """Dynamics and running cost block by block: each block's delayed
    arguments read the block ``offset`` before it, or the history at
    t - delay when that block precedes the horizon start."""
    p, lat = aug.problem, aug.lattice
    xb, wb = X.reshape(aug.n_blocks, p.n), W.reshape(aug.n_blocks, p.m)
    rhs, cost = [], 0.0
    for i in range(aug.n_blocks):
        t = float(lat.a) + i * float(lat.h) + sigma
        k, j = i - aug.state_offset, i - aug.control_offset
        y = xb[k] if k >= 0 else np.asarray(p.phi(t - float(lat.r)), float)
        v = wb[j] if j >= 0 else np.asarray(p.psi(t - float(lat.s)), float)
        rhs.append(p.dynamics(t, xb[i], y, wb[i], v))
        cost += p.running_cost(t, xb[i], y, wb[i], v)
    return np.concatenate(rhs), cost


@pytest.mark.parametrize("view", ["state-linear", "general"])
def test_block_arguments_match_a_per_block_loop(view, rng):
    problem = _two_by_two_problem()
    if view == "general":
        problem = as_delayed(problem)
    aug = augment(problem, problem.lattice())
    assert (aug.n_blocks, aug.state_offset, aug.control_offset) == (6, 2, 1)
    sigmas = np.array([0.0, 0.13, 0.5])
    Xs, Ws = rng.normal(size=(3, 12)), rng.normal(size=(3, 12))
    for sigma, X, W in zip(sigmas, Xs, Ws):
        rhs, cost = _per_block_reference(aug, sigma, X, W)
        np.testing.assert_array_equal(aug.dynamics(sigma, X, W), rhs)
        assert aug.running_cost(sigma, X, W) == cost
    # at all three times at once, X and W as block-major rows: block i at
    # sigmas[k] is row 3 i + k
    rows = lambda V: np.swapaxes(V.reshape(3, 6, 2), 0, 1).reshape(18, 2)
    stacked = np.array([aug.dynamics(*args) for args in zip(sigmas, Xs, Ws)])
    np.testing.assert_array_equal(aug.dynamics(sigmas, rows(Xs), rows(Ws)), rows(stacked))


def test_cost_equivalence_with_delayed_cost_terms():
    # the benchmark costs read no delayed argument; here f0x reads x(t - r)
    # and f0u reads u(t - s), so every node's history rows and shifted
    # blocks enter the quadrature
    problem = _two_by_two_problem()
    control = _two_by_two_control(problem)
    state = integrate_forward(problem, control, IntegratorConfig(16))
    cand = CandidateSolution(state=state, control=control)
    aug = augment(problem, problem.lattice())
    gap = abs(augmented_cost(aug, stack_candidate(aug, cand), 64)
              - evaluate_cost(problem, cand, 64))
    assert gap <= 1e-10


def test_augmented_cost_makes_no_per_time_running_cost_call(case, monkeypatch):
    problem, cand = case
    lattice = problem.lattice()
    aug = augment(problem, lattice)
    reference = evaluate_cost(problem, cand, 512)

    def refuse(*args):
        raise AssertionError("per-time running_cost call")

    monkeypatch.setattr(DelayedProblem, "running_cost", refuse)
    monkeypatch.setattr(StateLinearProblem, "running_cost", refuse)
    assert abs(augmented_cost(aug, stack_candidate(aug, cand), 512) - reference) <= 1e-10


def test_blocks_are_the_cell_curves(case):
    # the round trip is the identity by construction: the blocks are the
    # candidate's own cell curves, and reassembling passes them on unchanged
    problem, cand = case
    lattice = problem.lattice()
    sol = stack_candidate(augment(problem, lattice), cand)
    cells = cand.state.cell_curves(lattice)
    assert all(a is b for a, b in zip(sol.state_blocks, cells))
    back = reassemble(sol, lattice)
    tail = back.state.segments[-lattice.n_cells:]
    assert all(seg.curve is blk for seg, blk in zip(tail, sol.state_blocks))


def _two_by_two_control(problem):
    return from_pieces(2, [(Fraction(-1, 2), 0, problem.psi),
                           (0, 3, lambda t: [np.cos(2 * t), 0.5 * t])], main_start=0)


@pytest.mark.parametrize("substeps", [16, 64])
@pytest.mark.parametrize("name", ["ld", "d", "state-linear", "general"])
def test_marched_blocks_solve_the_stacked_ode(name, substeps, ld_problem, ld_candidate,
                                              d_problem, d_candidate):
    # the march resolves its delays on the method-of-steps engine; the
    # residual re-reads them from the stacked right-hand side alone
    if name in ("ld", "d"):
        problem, control = ((ld_problem, ld_candidate.control) if name == "ld"
                            else (d_problem, d_candidate.control))
    else:
        problem = _two_by_two_problem()
        control = _two_by_two_control(problem)
        if name == "general":
            problem = as_delayed(problem)
    sol = integrate_augmented(augment(problem, problem.lattice()), control,
                              IntegratorConfig(substeps))
    largest = max(float(np.max(np.abs(block.ds))) for block in sol.state_blocks)
    assert sol.ode_residual <= 1e-13 * largest
    reassemble(sol, problem.lattice())


def test_misread_delay_is_a_mismatch(ld_problem, ld_candidate, monkeypatch):
    # a stacked right-hand side that reads x(t - r) one block too far back
    # disagrees with the march, which resolves the delay by itself
    lattice = ld_problem.lattice()
    aug = augment(ld_problem, lattice)
    misread = SimpleNamespace(r=lattice.r, s=lattice.s, state_shift=lattice.state_shift + 1,
                              control_shift=lattice.control_shift)
    arguments = reduction.model_arguments
    monkeypatch.setattr(reduction, "model_arguments",
                        lambda p, _, *rows: arguments(p, misread, *rows))
    sol = integrate_augmented(aug, ld_candidate.control, IntegratorConfig(16))
    assert sol.linkage_residual() == 0.0
    with pytest.raises(SeamMismatchError, match="stacked ODE"):
        reassemble(sol, lattice)


def test_nan_ode_residual_is_a_mismatch(ld_problem, ld_candidate):
    lattice = ld_problem.lattice()
    sol = integrate_augmented(augment(ld_problem, lattice), ld_candidate.control,
                              IntegratorConfig(16))
    sol.ode_residual = np.nan
    with pytest.raises(SeamMismatchError, match="stacked ODE"):
        reassemble(sol, lattice)
