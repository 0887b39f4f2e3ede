"""The delayed linear-quadratic fixtures: the ld benchmark with the running
state cost x0^2/10 (``ld-lq-tenth``) or x0^2 (``ld-lq``) in place of x0.  The
costate then reads the state, so the sweep's control update is a genuine
fixed-point map, expansive for x0^2.  There is no closed form; the oracles
are the sweep's iteration count, a certificate PASS, agreement with the
direct solver as its Euler grid refines, and the direct solver's stall stop.
"""

from pathlib import Path

import pytest

from retard_oc import (NoConvergenceError, SweepConfig, TranscriptionConfig,
                       VerifyConfig, load_problem, solve_direct_euler,
                       solve_fbsm, verify_state_linear)

DATA = Path(__file__).parent / "data"
LQ = ("ld-lq-tenth", "ld-lq")


@pytest.fixture(scope="module")
def lq_problems():
    return {name: load_problem(DATA / f"{name}.ocp") for name in LQ}


@pytest.fixture(scope="module")
def lq_sweeps(lq_problems):
    return {name: solve_fbsm(p, None, SweepConfig()) for name, p in lq_problems.items()}


def test_ld_sweep_converges_in_two_full_steps(ld_problem):
    # ld's costate does not read the state: the argmax is the fixed point
    sol = solve_fbsm(ld_problem, None, SweepConfig())
    assert sol.converged
    assert sol.iterations <= 4
    assert all(rec["step"] == 1.0 for rec in sol.history)


@pytest.mark.parametrize("name, cap", [("ld-lq-tenth", 10), ("ld-lq", 15)])
def test_lq_sweep_converges_at_the_default_config(lq_sweeps, name, cap):
    sol = lq_sweeps[name]
    assert sol.converged
    assert sol.iterations <= cap


@pytest.mark.parametrize("name", LQ)
def test_lq_sweep_result_passes_the_certificate(lq_problems, lq_sweeps, name):
    cert = verify_state_linear(lq_problems[name], lq_sweeps[name],
                               VerifyConfig.numeric())
    assert cert.overall, cert.to_text()


def test_direct_solver_approaches_the_sweep_cost_as_the_grid_refines(
        lq_problems, lq_sweeps):
    # the Euler transcription's error is O(delta): the gap to the sweep's
    # cost shrinks as N grows
    problem, swept = lq_problems["ld-lq-tenth"], lq_sweeps["ld-lq-tenth"].cost
    gaps = [abs(solve_direct_euler(problem, TranscriptionConfig(
        n_steps=n, grad_tol=1e-8)).cost - swept) for n in (800, 2000)]
    assert gaps[1] < gaps[0] < 1e-2


def test_direct_solver_stops_within_a_few_iterations_of_a_stall(lq_problems):
    # at N = 400 the cost settles at its rounding floor from iteration 14
    # while the projected gradient stays at 5.9e-9, above grad_tol
    with pytest.raises(NoConvergenceError, match="stalled at rounding") as err:
        solve_direct_euler(lq_problems["ld-lq-tenth"],
                           TranscriptionConfig(n_steps=400, grad_tol=1e-9))
    best, diagnostics = err.value.best, err.value.diagnostics
    assert diagnostics["reason"].startswith("stalled at rounding")
    stall = next(rec["iteration"] for rec in diagnostics["history"]
                 if rec["cost"] == best.discrete_objective)
    assert best.iterations - stall <= 10
