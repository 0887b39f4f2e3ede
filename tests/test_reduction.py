from fractions import Fraction

import numpy as np
import pytest

import retard_oc.reduction as reduction

from retard_oc.cost import evaluate_cost
from retard_oc.dde import IntegratorConfig, integrate_forward
from retard_oc.errors import (MismatchedLatticeError, NonFiniteStateError,
                              SeamMismatchError)
from retard_oc.lattice import make_lattice
from retard_oc.problems import CandidateSolution, DelayedProblem
from retard_oc.reduction import (augment, augmented_cost, integrate_augmented,
                                 reassemble, stack_candidate)
from retard_oc.trajectory import from_pieces


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
    sol.state_blocks[2] = lambda sigma: third(sigma) + 0.1
    with pytest.raises(SeamMismatchError):
        reassemble(sol, lattice)


def test_single_block_reduction_uses_history_only():
    # r = s = h = b - a: every delayed reference resolves to the histories
    problem = DelayedProblem(
        a=Fraction(0), b=Fraction(1), r=Fraction(1), s=Fraction(1), n=1, m=1,
        f0=lambda t, x, y, u, v: 0.0,
        f=lambda t, x, y, u, v: np.array([float(y[0]) + float(v[0])]),
        phi=lambda t: np.array([2.0]),
        psi=lambda t: np.array([3.0]))
    aug = augment(problem, problem.lattice())
    assert aug.n_blocks == 1
    X = np.array([5.0])
    W = np.array([0.0])
    # rhs = phi(t - 1) + psi(t - 1) = 5 regardless of the block values
    np.testing.assert_allclose(aug.dynamics(0.5, X, W), [5.0])


@pytest.mark.parametrize("name,marches", [("ld", 4), ("d", 1)])
def test_augmented_march_stops_at_the_settled_sweep(name, marches, monkeypatch,
                                                    ld_problem, ld_candidate,
                                                    d_problem, d_candidate):
    # block i reads only blocks before it: on ld (4 blocks) the starts are
    # exact after 3 sweeps and the 4th reproduces them; on d every block
    # starts at the history value 1, which the first sweep already carries
    problem, cand = (ld_problem, ld_candidate) if name == "ld" else (d_problem, d_candidate)
    ends = []

    def counting(*args):
        out = march(*args)
        ends.append(out[3])
        return out

    march = reduction._integrate_cell
    monkeypatch.setattr(reduction, "_integrate_cell", counting)
    lattice = problem.lattice()
    aug = augment(problem, lattice)
    sol = integrate_augmented(aug, cand.control, IntegratorConfig(16))
    assert len(ends) == marches
    h = float(lattice.h)
    np.testing.assert_array_equal(sol.stacked_state(h), ends[-1])
    assert sol.linkage_residual() == 0.0


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
    sol.state_blocks[1] = lambda sigma: np.array([np.nan])
    assert np.isnan(sol.linkage_residual())
    with pytest.raises(SeamMismatchError):
        reassemble(sol, lattice)
