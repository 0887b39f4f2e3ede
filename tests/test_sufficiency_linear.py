import math
from fractions import Fraction

import numpy as np
import pytest

from retard_oc.dde import integrate_adjoint_linear
from retard_oc.errors import UnboundedCriterionError
from retard_oc.problems import (CandidateSolution, ControlSet,
                                StateLinearProblem)
from retard_oc.registry import (make_concave_problem, make_inert_problem,
                                make_ld_adjoint_trajectory,
                                make_ld_bumped_candidate,
                                make_ld_shifted_adjoint, make_rest_candidate)
from retard_oc.dde import AdjointTrajectory
from retard_oc.sufficiency import (VerifyConfig, argmax_control_state_linear,
                                   check_convexity_f0x, check_maximality,
                                   check_transversality,
                                   hamiltonian_nonlinear,
                                   hamiltonian_state_linear,
                                   verify_state_linear)
from retard_oc.trajectory import from_pieces

E2 = math.exp(2.0)


@pytest.fixture(scope="module")
def ld_adjoint(ld_problem, ld_candidate):
    traj = make_ld_adjoint_trajectory()
    return AdjointTrajectory(trajectory=traj, terminal_value=np.zeros(1))


# -- Hamiltonians -----------------------------------------------------------------

def test_hamiltonian_state_linear_benchmark_point(ld_problem):
    eta0 = E2 * (0.0 - E2 - 1.0)
    value = hamiltonian_state_linear(ld_problem, 1, 0.0, [1.0], [1.0], [0.0],
                                     [0.0], [eta0])
    assert value == pytest.approx(-1.0 + 2.0 * eta0, rel=1e-14)


def test_hamiltonian_p_gates_control_terms(ld_problem, rng):
    # p = 1 removes the delayed-control drift term: value independent of v
    for _ in range(10):
        args = dict(t=1.2, x=[0.4], y=[1.1], u=[0.3], eta=[2.0])
        v1 = hamiltonian_state_linear(ld_problem, 1, v=[rng.normal()], **args)
        v2 = hamiltonian_state_linear(ld_problem, 1, v=[rng.normal()], **args)
        assert v1 == pytest.approx(v2, rel=1e-14)


def test_hamiltonian_p_zero_gates_current_control(ld_problem, rng):
    # p = 0 removes g(t, u); dependence on u only through the running cost
    base = hamiltonian_state_linear(ld_problem, 0, 1.2, [0.4], [1.1], [0.0],
                                    [0.5], [2.0])
    bumped = hamiltonian_state_linear(ld_problem, 0, 1.2, [0.4], [1.1], [0.2],
                                      [0.5], [2.0])
    assert bumped - base == pytest.approx(-100.0 * 0.04, rel=1e-12)


def test_hamiltonian_nonlinear_benchmark_point(d_problem):
    q2 = (E2 + 1.0) ** 2
    eta1_0 = 5.0 + 2.0 * (E2 - 1.0) / q2
    value = hamiltonian_nonlinear(d_problem, 0.0, [1.0], [1.0], [0.0], [0.0],
                                  [eta1_0])
    assert value == pytest.approx(-1.0, rel=1e-14)


def test_hamiltonian_nonlinear_reduces_to_cost(d_problem):
    assert hamiltonian_nonlinear(d_problem, 0.5, [2.0], [1.0], [0.3], [0.0],
                                 [0.0]) == pytest.approx(-(4.0 + 0.09))


# -- argmax -----------------------------------------------------------------------

def test_argmax_matches_closed_form_inside_window(ld_problem, ld_candidate,
                                                  ld_adjoint):
    for t in (0.0, 0.7, 1.5, 2.4, 3.0):
        u = argmax_control_state_linear(ld_problem, ld_candidate, ld_adjoint, t)
        expect = -ld_adjoint.eval(t + 1.0)[0] / 20.0
        assert u[0] == pytest.approx(expect, abs=1e-12)


def test_argmax_zero_outside_window(ld_problem, ld_candidate, ld_adjoint):
    for t in (3.2, 3.9, 4.0):
        u = argmax_control_state_linear(ld_problem, ld_candidate, ld_adjoint, t)
        assert u[0] == pytest.approx(0.0, abs=1e-14)


def test_argmax_array_form_equals_stacked_scalar_calls(ld_problem, ld_candidate):
    # integrated adjoint: Hermite cells, so the batched lookups are exercised
    eta = integrate_adjoint_linear(ld_problem, ld_candidate)
    b_minus_s = ld_problem.b - ld_problem.s   # closed end of the chi window
    # unsorted, with times outside the window between those inside it
    times = [ld_problem.b, Fraction(0), Fraction(7, 2), Fraction(1, 3),
             b_minus_s + Fraction(1, 96), Fraction(1), b_minus_s, Fraction(7, 3),
             b_minus_s - Fraction(1, 96)]
    batched = argmax_control_state_linear(ld_problem, ld_candidate, eta, times)
    stacked = np.array([argmax_control_state_linear(ld_problem, ld_candidate,
                                                    eta, t) for t in times])
    assert batched.shape == (len(times), 1)
    assert np.array_equal(batched, stacked)


def _quadratic_cost_problem(center: float, sign: float = 1.0):
    return StateLinearProblem(
        a=Fraction(0), b=Fraction(2), r=Fraction(1), s=Fraction(1), n=1, m=1,
        A=lambda t: np.array([[0.0]]), A_D=lambda t: np.array([[0.0]]),
        g=lambda t, u: np.array([0.0]), g_D=lambda t, v: np.array([0.0]),
        f0x=lambda t, x, y: 0.0,
        f0u=lambda t, u, v: sign * (float(u[0]) - center) ** 2,
        phi=lambda t: np.array([1.0]), psi=lambda t: np.array([0.0]),
        f0x_dx=lambda t, x, y: np.array([0.0]),
        f0x_dy=lambda t, x, y: np.array([0.0]))


def test_argmax_parabola_vertex():
    problem = _quadratic_cost_problem(center=0.7)
    cand = make_rest_candidate(problem)
    eta = AdjointTrajectory(
        trajectory=from_pieces(1, [(0, 2, lambda t: [0.0])], main_start=0),
        terminal_value=np.zeros(1))
    u = argmax_control_state_linear(problem, cand, eta, 0.5)
    assert u[0] == pytest.approx(0.7, abs=1e-12)


def test_argmax_unbounded_criterion_raises():
    problem = _quadratic_cost_problem(center=0.0, sign=-1.0)  # concave cost
    cand = make_rest_candidate(problem)
    eta = AdjointTrajectory(
        trajectory=from_pieces(1, [(0, 2, lambda t: [0.0])], main_start=0),
        terminal_value=np.zeros(1))
    with pytest.raises(UnboundedCriterionError):
        argmax_control_state_linear(problem, cand, eta, 0.5)


def test_argmax_box_clamps_vertex():
    from dataclasses import replace
    problem = replace(_quadratic_cost_problem(center=0.7),
                      control_set=ControlSet.box([-0.2], [0.2]))
    cand = make_rest_candidate(problem)
    eta = AdjointTrajectory(
        trajectory=from_pieces(1, [(0, 2, lambda t: [0.0])], main_start=0),
        terminal_value=np.zeros(1))
    u = argmax_control_state_linear(problem, cand, eta, 0.5)
    assert u[0] == pytest.approx(0.2, abs=1e-12)


def test_argmax_scale_invariance(ld_problem, ld_candidate, ld_adjoint):
    # scaling both running costs scales the adjoint, leaving the argmax fixed
    from dataclasses import replace

    from retard_oc.registry import ld_adjoint_value

    for kappa in (2.5, 40.0):
        scaled = replace(
            ld_problem,
            f0x=lambda t, x, y, k=kappa: k * float(x[0]),
            f0u=lambda t, u, v, k=kappa: k * 100.0 * float(u[0]) ** 2,
            f0x_dx=lambda t, x, y, k=kappa: np.array([k]))
        eta_scaled = AdjointTrajectory(
            trajectory=from_pieces(
                1, [(0, 4, lambda t, k=kappa: [k * ld_adjoint_value(t)])],
                main_start=0),
            terminal_value=np.zeros(1))
        for t in (0.3, 1.6, 2.9):
            u_ref = argmax_control_state_linear(ld_problem, ld_candidate,
                                                ld_adjoint, t)
            u_scaled = argmax_control_state_linear(scaled, ld_candidate,
                                                   eta_scaled, t)
            assert abs(u_ref[0] - u_scaled[0]) <= 1e-10


# -- checks -----------------------------------------------------------------------

def test_maximality_passes_on_benchmark(ld_problem, ld_candidate, ld_adjoint):
    result = check_maximality(ld_problem, ld_candidate, ld_adjoint, tol=1e-6)
    assert result.passed
    assert result.worst_residual <= 1e-8


def test_maximality_fails_on_bumped_control(ld_problem, ld_adjoint):
    bumped = make_ld_bumped_candidate()
    result = check_maximality(ld_problem, bumped, ld_adjoint, tol=1e-6)
    assert not result.passed
    assert result.worst_residual >= 1e-3
    # the bump lives on [1, 2): that is where the candidate leaves the argmax
    assert 1.0 <= result.worst_location < 2.0


def test_maximality_trivial_when_criterion_constant():
    problem = make_inert_problem()
    cand = make_rest_candidate(problem)
    wiggly = from_pieces(1, [(-1, 0, lambda t: [0.0]),
                             (0, 2, lambda t: [math.sin(5 * t)])], main_start=0)
    cand = CandidateSolution(state=cand.state, control=wiggly)
    eta = integrate_adjoint_linear(problem, cand)
    result = check_maximality(problem, cand, eta, tol=1e-9)
    assert result.passed


def test_convexity_affine_cost_passes(ld_problem, ld_candidate):
    assert check_convexity_f0x(ld_problem, ld_candidate).passed


def test_convexity_sum_of_squares_passes(ld_candidate, ld_problem):
    from dataclasses import replace
    problem = replace(ld_problem,
                      f0x=lambda t, x, y: float(x[0]) ** 2 + float(y[0]) ** 2,
                      f0x_dx=None, f0x_dy=None)
    assert check_convexity_f0x(problem, ld_candidate).passed


def test_convexity_concave_fails_with_witness():
    problem = make_concave_problem()
    cand = make_rest_candidate(problem)
    result = check_convexity_f0x(problem, cand)
    assert not result.passed
    assert result.worst_location is not None


def test_transversality_checks():
    zero = AdjointTrajectory(
        trajectory=from_pieces(1, [(0, 2, lambda t: [0.0])], main_start=0),
        terminal_value=np.zeros(1))
    assert check_transversality(zero).passed
    shifted = make_ld_shifted_adjoint(1.0)
    result = check_transversality(shifted)
    assert not result.passed
    assert result.worst_residual == pytest.approx(1.0)


def test_ld_analytic_adjoint_transversal(ld_adjoint):
    result = check_transversality(ld_adjoint, tol=1e-12)
    assert result.passed


# -- full certificate ---------------------------------------------------------------

def test_verify_passes_on_benchmark(ld_problem, ld_candidate):
    cert = verify_state_linear(ld_problem, ld_candidate)
    assert cert.overall
    assert cert.metrics["cost"] == pytest.approx(67.491786, abs=1e-3)
    assert cert.check("maximality").worst_residual <= 1e-8
    assert cert.check("transversality").worst_residual == 0.0


def test_verify_flips_only_maximality_on_bump(ld_problem):
    cert = verify_state_linear(ld_problem, make_ld_bumped_candidate())
    assert not cert.overall
    flags = {c.name: c.passed for c in cert.checks}
    assert flags == {"continuity": True, "convexity_f0x": True,
                     "transversality": True, "maximality": False}


def test_verify_flips_only_convexity_on_concave_problem():
    problem = make_concave_problem()
    cert = verify_state_linear(problem, make_rest_candidate(problem))
    assert not cert.overall
    flags = {c.name: c.passed for c in cert.checks}
    assert flags == {"continuity": True, "convexity_f0x": False,
                     "transversality": True, "maximality": True}


def test_verify_with_shifted_adjoint_fails_transversality(ld_problem,
                                                          ld_candidate):
    cert = verify_state_linear(ld_problem, ld_candidate,
                               adjoint_override=make_ld_shifted_adjoint())
    assert not cert.overall
    assert not cert.check("transversality").passed


def test_certificate_serialization_roundtrip(ld_problem, ld_candidate):
    cert = verify_state_linear(ld_problem, ld_candidate,
                               VerifyConfig(seed=1234))
    text = cert.to_text()
    assert "overall: PASS" in text
    assert "seed: 1234" in text
    mapping = cert.to_mapping()
    assert mapping["overall"] is True
    assert {c["name"] for c in mapping["checks"]} == {
        "continuity", "convexity_f0x", "transversality", "maximality"}
    assert "tol_maximality" in mapping["tolerances"]


def test_argmax_vector_control_box(rng):
    # two controls, separable strictly concave criterion, box-constrained
    problem = StateLinearProblem(
        a=Fraction(0), b=Fraction(2), r=Fraction(1), s=Fraction(1), n=1, m=2,
        A=lambda t: np.array([[0.0]]), A_D=lambda t: np.array([[0.0]]),
        g=lambda t, u: np.array([0.0]), g_D=lambda t, v: np.array([0.0]),
        f0x=lambda t, x, y: 0.0,
        f0u=lambda t, u, v: (float(u[0]) - 0.3) ** 2 + (float(u[1]) + 0.2) ** 2,
        phi=lambda t: np.array([1.0]),
        psi=lambda t: np.array([0.0, 0.0]),
        control_set=ControlSet.box([-1.0, -1.0], [1.0, 1.0]),
        f0x_dx=lambda t, x, y: np.array([0.0]),
        f0x_dy=lambda t, x, y: np.array([0.0]))
    state = from_pieces(1, [(-1, 0, lambda t: [1.0]), (0, 2, lambda t: [1.0])],
                        main_start=0)
    control = from_pieces(2, [(-1, 0, lambda t: [0.0, 0.0]),
                              (0, 2, lambda t: [0.0, 0.0])], main_start=0)
    cand = CandidateSolution(state=state, control=control)
    eta = AdjointTrajectory(
        trajectory=from_pieces(1, [(0, 2, lambda t: [0.0])], main_start=0),
        terminal_value=np.zeros(1))
    u = argmax_control_state_linear(problem, cand, eta, 0.5, rng)
    np.testing.assert_allclose(u, [0.3, -0.2], atol=1e-6)
