"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass/fail lines as they execute.
"""

import math
import time
from fractions import Fraction

import numpy as np

from retard_oc.cost import evaluate_cost
from retard_oc.dde import (IntegratorConfig, integrate_adjoint_linear,
                           integrate_forward)
from retard_oc.problems import as_delayed
from retard_oc.lattice import make_lattice
from retard_oc.reduction import (augment, augmented_cost, integrate_augmented,
                                 reassemble, stack_candidate)
from retard_oc.registry import (d_feedback, ld_adjoint_value, ld_control_value,
                                ld_state_value, make_concave_problem,
                                make_d_value_function, make_ld_bumped_candidate,
                                make_ld_shifted_adjoint, make_rest_candidate)
from retard_oc.solve import (TranscriptionConfig, _EulerGrid, _euler_forward,
                             discrete_adjoint_gradient, solve_direct_euler)
from retard_oc.sufficiency import (check_transversality, hj_residual,
                                   verify_nonlinear_hj, verify_state_linear)

E2 = math.exp(2.0)
E4 = math.exp(4.0)
E6 = math.exp(6.0)
CLOSED_FORM_COST = (23.0 + E2 + 34.0 * E4 - 2.0 * E6) / 16.0
REPORTED_COST = 67.491786


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_benchmark_cost(ld_problem, ld_candidate):
    start = time.perf_counter()
    cost = evaluate_cost(ld_problem, ld_candidate, 512)
    elapsed = time.perf_counter() - start
    ok = (abs(cost - CLOSED_FORM_COST) <= 1e-9
          and abs(cost - REPORTED_COST) <= 1e-3 and elapsed < 1.0)
    _report(1, ok, f"cost={cost:.9f} closed-form gap={abs(cost - CLOSED_FORM_COST):.2e} "
                   f"reported gap={abs(cost - REPORTED_COST):.2e} time={elapsed:.2f}s")
    assert abs(cost - CLOSED_FORM_COST) <= 1e-9
    assert abs(cost - REPORTED_COST) <= 1e-3
    assert elapsed < 1.0


def test_criterion_2_adjoint_accuracy(ld_problem, ld_candidate):
    start = time.perf_counter()
    eta = integrate_adjoint_linear(ld_problem, ld_candidate,
                                   IntegratorConfig(substeps_per_cell=64))
    err = max(abs(eta.eval(t)[0] - ld_adjoint_value(t))
              for t in np.linspace(0.0, 4.0, 4001))
    elapsed = time.perf_counter() - start
    ok = err <= 1e-8 and elapsed < 1.0
    _report(2, ok, f"max abs adjoint error={err:.2e} at 64 substeps/cell, "
                   f"time={elapsed:.2f}s")
    assert err <= 1e-8
    assert elapsed < 1.0


def test_criterion_3_state_accuracy(ld_problem, ld_candidate):
    start = time.perf_counter()
    x = integrate_forward(ld_problem, ld_candidate.control,
                          IntegratorConfig(substeps_per_cell=64))
    err = max(abs(x.eval(t)[0] - ld_state_value(t))
              for t in np.linspace(0.0, 4.0, 4001))
    elapsed = time.perf_counter() - start
    ok = err <= 1e-8 and elapsed < 1.0
    _report(3, ok, f"max abs state error={err:.2e} over the five pieces, "
                   f"time={elapsed:.2f}s")
    assert err <= 1e-8
    assert elapsed < 1.0


def test_criterion_4_direct_transcription(ld_problem):
    start = time.perf_counter()
    sol = solve_direct_euler(
        ld_problem,
        TranscriptionConfig(n_steps=2000, max_iterations=200, grad_tol=1e-9),
        IntegratorConfig(substeps_per_cell=16))
    cost_gap = abs(sol.cost - REPORTED_COST)
    sup = max(abs(sol.control.eval(t)[0] - ld_control_value(t))
              for t in np.linspace(0.0, 4.0, 4001))
    elapsed = time.perf_counter() - start
    ok = cost_gap <= 1e-2 and sup <= 5e-3 and elapsed < 60.0
    _report(4, ok, f"N_e=2000 cost gap={cost_gap:.2e} control sup-distance="
                   f"{sup:.2e} time={elapsed:.1f}s")
    assert cost_gap <= 1e-2
    assert sup <= 5e-3
    assert elapsed < 60.0


def test_criterion_5_linear_sufficiency(ld_problem, ld_candidate):
    start = time.perf_counter()
    cert = verify_state_linear(ld_problem, ld_candidate)
    base_ok = (cert.overall
               and cert.check("convexity_f0x").passed
               and cert.check("maximality").worst_residual <= 1e-8
               and cert.check("transversality").worst_residual == 0.0)

    bump = verify_state_linear(ld_problem, make_ld_bumped_candidate())
    bump_ok = ({c.name for c in bump.checks if not c.passed} == {"maximality"})

    shifted = check_transversality(make_ld_shifted_adjoint(1.0))
    shift_ok = not shifted.passed and shifted.worst_residual >= 0.999

    concave = make_concave_problem()
    concave_cert = verify_state_linear(concave, make_rest_candidate(concave))
    concave_ok = ({c.name for c in concave_cert.checks if not c.passed}
                  == {"convexity_f0x"})
    elapsed = time.perf_counter() - start
    ok = base_ok and bump_ok and shift_ok and concave_ok and elapsed < 10.0
    _report(5, ok, f"certificate pass={cert.overall}, maximality gap="
                   f"{cert.check('maximality').worst_residual:.2e}, "
                   f"perturbation flips: bump->maximality={bump_ok}, "
                   f"shift->transversality={shift_ok}, "
                   f"concave->convexity={concave_ok}, time={elapsed:.1f}s")
    assert base_ok
    assert bump_ok
    assert shift_ok
    assert concave_ok
    assert elapsed < 10.0


def test_criterion_6_hj_verification(d_problem, d_candidate):
    start = time.perf_counter()
    S = make_d_value_function()
    cert = verify_nonlinear_hj(d_problem, d_candidate, S, d_feedback)
    all_five = cert.overall and len(cert.checks) == 5

    lattice = d_problem.lattice()
    worst = max(abs(hj_residual(d_problem, S, d_feedback, lattice,
                                Fraction(3 * k, 1001), d_candidate.state))
                for k in range(1, 1001))
    phi0 = np.asarray(d_problem.phi(0.0)).reshape(1)
    cost_gap = abs(-S.value(0.0, phi0) - evaluate_cost(d_problem, d_candidate, 512))
    elapsed = time.perf_counter() - start
    ok = all_five and worst <= 1e-8 and cost_gap <= 1e-8 and elapsed < 10.0
    _report(6, ok, f"five checks pass={all_five}, residual sup over 10^3 "
                   f"samples={worst:.2e}, |cost + S(a, x_a)|={cost_gap:.2e}, "
                   f"time={elapsed:.1f}s")
    assert all_five
    assert worst <= 1e-8
    assert cost_gap <= 1e-8
    assert elapsed < 10.0


def test_criterion_7_reduction_equivalence(ld_problem, ld_candidate,
                                           d_problem, d_candidate):
    start = time.perf_counter()
    details = []
    ok = True
    for problem, cand in ((ld_problem, ld_candidate), (d_problem, d_candidate)):
        lattice = problem.lattice()
        aug = augment(problem, lattice)
        stacked = stack_candidate(aug, cand)
        back = reassemble(stacked, lattice)
        ts = np.linspace(float(problem.state_history_start), float(problem.b), 1001)
        round_trip = max(float(np.max(np.abs(back.state.eval(t) - cand.state.eval(t))))
                         for t in ts)
        cost_gap = abs(augmented_cost(aug, stacked, 512)
                       - evaluate_cost(problem, cand, 512))
        cfg = IntegratorConfig(substeps_per_cell=64)
        integrated = integrate_augmented(aug, cand.control, cfg)
        re = reassemble(integrated, lattice)
        fwd = integrate_forward(problem, cand.control, cfg)
        ts = np.linspace(float(problem.a), float(problem.b), 1001)
        dyn_gap = max(float(np.max(np.abs(re.state.eval(t) - fwd.eval(t))))
                      for t in ts)
        ok = ok and round_trip <= 1e-12 and cost_gap <= 1e-10 and dyn_gap <= 1e-8
        details.append(f"{problem.name}: trip={round_trip:.1e} "
                       f"cost={cost_gap:.1e} dyn={dyn_gap:.1e} "
                       f"ode={integrated.ode_residual:.1e}")
        assert round_trip <= 1e-12
        assert cost_gap <= 1e-10
        assert dyn_gap <= 1e-8
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(7, ok, "; ".join(details) + f", time={elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_8_gradient_oracle(ld_problem, d_problem):
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for problem, steps in ((ld_problem, 200), (d_problem, 150)):
        p = as_delayed(problem)
        cfg = TranscriptionConfig(n_steps=steps)
        u = rng.uniform(-0.5, 0.5, size=(steps, 1))
        grad = discrete_adjoint_gradient(p, u, cfg)
        grid = _EulerGrid(p, cfg)
        for j in rng.choice(steps, size=20, replace=False):
            eps = 1e-3 * (1.0 + abs(u[j, 0]))
            up = u.copy(); up[j, 0] += eps
            um = u.copy(); um[j, 0] -= eps
            fd = (_euler_forward(grid, up)[1]
                  - _euler_forward(grid, um)[1]) / (2.0 * eps)
            rel = abs(fd - grad[j, 0]) / max(abs(fd), 1e-12)
            worst = max(worst, rel)
            assert rel <= 1e-6
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    _report(8, ok, f"worst relative gradient deviation={worst:.2e} over 20 "
                   f"random coordinates per problem, time={elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_9_property_suites(ld_problem, ld_candidate):
    start = time.perf_counter()

    # lattice gcd-divisibility over 10^3 random rational inputs
    rng = np.random.default_rng(99)
    for _ in range(1000):
        a = Fraction(int(rng.integers(-5, 5)), int(rng.integers(1, 8)))
        length = Fraction(int(rng.integers(1, 20)), int(rng.integers(1, 8)))
        r = Fraction(int(rng.integers(0, 10)), int(rng.integers(1, 8)))
        s = Fraction(int(rng.integers(0, 10)), int(rng.integers(1, 8)))
        if r == 0 and s == 0:
            r = Fraction(2, 7)
        lat = make_lattice(a, a + length, r, s)
        for q in (r, s, length):
            assert (q / lat.h).denominator == 1
    gcd_ok = True

    # integrator order: halving the substep size cuts the error by >= 12x
    errs = []
    ts = np.linspace(0.0, 4.0, 801)
    for substeps in (8, 16, 32):
        x = integrate_forward(ld_problem, ld_candidate.control,
                              IntegratorConfig(substeps_per_cell=substeps))
        errs.append(max(abs(x.eval(t)[0] - ld_state_value(t)) for t in ts))
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    order_ok = all(r >= 12.0 for r in ratios)
    assert order_ok

    # monotone cost refinement (coarsest grid rounded up to a lattice multiple)
    gaps = []
    for steps in (252, 500, 1000, 2000):
        sol = solve_direct_euler(
            ld_problem, TranscriptionConfig(n_steps=steps, grad_tol=1e-9),
            IntegratorConfig(substeps_per_cell=16))
        gaps.append(abs(sol.cost - REPORTED_COST))
    refine_ok = all(b < a for a, b in zip(gaps, gaps[1:]))
    assert refine_ok

    elapsed = time.perf_counter() - start
    ok = gcd_ok and order_ok and refine_ok and elapsed < 120.0
    _report(9, ok, f"gcd property over 10^3 lattices, order ratios="
                   f"{ratios[0]:.1f}/{ratios[1]:.1f} (>=12), refinement gaps="
                   f"{'/'.join(f'{g:.1e}' for g in gaps)} monotone, "
                   f"time={elapsed:.1f}s")
    assert elapsed < 120.0
