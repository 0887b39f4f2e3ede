import logging
from pathlib import Path

import numpy as np
import pytest

from retard_oc import load_problem, solve
from retard_oc.trajectory import from_pieces

from retard_oc.dde import IntegratorConfig, integrate_adjoint_linear
from retard_oc.registry import (D_COST, LD_COST, d_feedback, ld_control_value,
                                make_d_value_function, make_drift_problem)
from retard_oc.solve import SweepConfig, solve_fbsm
from retard_oc.sufficiency import check_maximality, verify_nonlinear_hj

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def ld_sweep(ld_problem):
    cfg = SweepConfig(max_iterations=60, omega=0.5, tol=1e-9,
                      integrator=IntegratorConfig(substeps_per_cell=32))
    return solve_fbsm(ld_problem, None, cfg)


def test_sweep_converges_to_benchmark_control(ld_sweep):
    assert ld_sweep.converged
    for t in np.linspace(1.0, 3.0, 400):
        assert abs(ld_sweep.control.eval(t)[0] - ld_control_value(t)) <= 1e-5
    assert ld_sweep.cost == pytest.approx(67.491786, abs=1e-3)
    assert ld_sweep.cost == pytest.approx(LD_COST, abs=1e-4)


def test_sweep_records_iteration_history(ld_sweep):
    assert ld_sweep.iterations == len(ld_sweep.history)
    assert all({"iteration", "cost", "step", "change"} <= set(rec)
               for rec in ld_sweep.history)


def test_fixed_point_satisfies_maximality(ld_problem, ld_sweep):
    eta = integrate_adjoint_linear(ld_problem, ld_sweep,
                                   IntegratorConfig(substeps_per_cell=32))
    result = check_maximality(ld_problem, ld_sweep, eta, tol=1e-6)
    assert result.passed


def test_uncontrollable_problem_converges_immediately():
    # control cannot influence the state and the cost is u^2: the argmax is
    # identically zero, so the zero initial guess is already the fixed point
    problem = make_drift_problem()
    sol = solve_fbsm(problem, None,
                     SweepConfig(max_iterations=10, omega=0.7, tol=1e-12,
                                 integrator=IntegratorConfig(8)))
    assert sol.converged
    assert sol.iterations == 1
    for t in np.linspace(0, 2, 50):
        assert sol.control.eval(t)[0] == 0.0


def test_fixed_point_independent_of_relaxation(ld_problem, ld_sweep):
    cfg = SweepConfig(max_iterations=60, omega=1.0, tol=1e-9,
                      integrator=IntegratorConfig(substeps_per_cell=32))
    full_step = solve_fbsm(ld_problem, None, cfg)
    assert full_step.converged
    for t in np.linspace(0.0, 4.0, 400):
        assert abs(full_step.control.eval(t)[0]
                   - ld_sweep.control.eval(t)[0]) <= 1e-6


def test_converges_from_piecewise_constant_start(ld_problem, caplog):
    # a +-0.05 start approaches the fixed point with the cost rising by
    # rounding-sized steps; no mixed step may be taken for a worse one, so
    # neither the relaxed fallback nor its oscillation guard fires
    p = ld_problem
    levels = np.random.default_rng(1).uniform(-0.05, 0.05, p.lattice().n_cells)
    start = from_pieces(p.m, [(p.control_history_start, p.a, p.psi)] + [
        (lo, hi, lambda t, c=float(levels[i]): [c])
        for i, lo, hi in p.lattice().cells()], main_start=p.a)
    with caplog.at_level(logging.INFO, logger="retard_oc.solve"):
        sol = solve_fbsm(p, start, SweepConfig(max_iterations=60,
                                               integrator=IntegratorConfig(16)))
    assert sol.converged
    assert all(rec["step"] == 1.0 for rec in sol.history)
    assert "rejected" not in caplog.text
    assert "oscillation guard" not in caplog.text
    assert sol.cost == pytest.approx(LD_COST, abs=1e-4)


def test_iteration_cap_returns_best_iterate():
    # ld-lq's map is expansive, so two iterations are far from its fixed point
    problem = load_problem(DATA / "ld-lq.ocp")
    cfg = SweepConfig(max_iterations=2, omega=0.5, tol=1e-12,
                      integrator=IntegratorConfig(8))
    sol = solve_fbsm(problem, None, cfg)
    assert not sol.converged
    assert len(sol.history) == 2
    best = min(sol.history, key=lambda rec: rec["cost"])
    assert sol.iterations == best["iteration"]
    assert np.isfinite(sol.cost)


def test_rejected_mixed_step_falls_back_to_the_relaxed_step(ld_problem, monkeypatch,
                                                            caplog):
    # every mix over two or more residuals lands 1 away from the fixed point
    mix = solve._anderson_mix
    monkeypatch.setattr(solve, "_anderson_mix",
                        lambda kept: mix(kept) + (len(kept) > 1))
    cfg = SweepConfig(max_iterations=10, omega=0.5, tol=1e-9,
                      integrator=IntegratorConfig(8))
    with caplog.at_level(logging.INFO, logger="retard_oc.solve"):
        sol = solve_fbsm(ld_problem, None, cfg)
    # base step to the fixed point, the spoilt mix, then the relaxed step
    # from the base step's iterate, which is already the fixed point
    assert [rec["step"] for rec in sol.history] == [1.0, 1.0, 0.5]
    assert sol.history[1]["change"] == pytest.approx(1.0, abs=1e-9)
    assert "mixed step rejected" in caplog.text
    assert sol.converged
    assert sol.cost == pytest.approx(LD_COST, abs=1e-3)   # 8 substeps per cell


def test_invalid_relaxation_rejected():
    with pytest.raises(ValueError):
        SweepConfig(omega=0.0)
    with pytest.raises(ValueError):
        SweepConfig(omega=1.5)


@pytest.mark.parametrize("cap", [0, -1])
def test_iteration_cap_below_one_rejected(cap):
    # a sweep with no iteration has no iterate to return
    with pytest.raises(ValueError, match="max_iterations"):
        SweepConfig(max_iterations=cap)


def test_converged_sweep_passes_verification(ld_problem, ld_sweep):
    from retard_oc.sufficiency import VerifyConfig, verify_state_linear
    cert = verify_state_linear(ld_problem, ld_sweep, VerifyConfig.numeric())
    assert cert.overall


def test_the_sweep_solves_the_general_benchmark(d_problem):
    # Goellmann's problem is a DelayedProblem: the sweep's costate and
    # argmax take either class; its one-state costate chains on floats
    sol = solve_fbsm(d_problem)
    assert sol.converged and sol.iterations <= 6
    assert abs(sol.cost - D_COST) <= 1e-8
    cert = verify_nonlinear_hj(d_problem, sol, make_d_value_function(), d_feedback)
    assert cert.overall, cert.to_text()
