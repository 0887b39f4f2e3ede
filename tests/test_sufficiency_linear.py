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
                                make_ld_bumped_candidate, make_ld_candidate,
                                make_ld_problem, make_ld_shifted_adjoint,
                                make_rest_candidate)
from retard_oc.dde import AdjointTrajectory
from retard_oc.sufficiency import (VerifyConfig, _argmax_scalar, _argmax_vector,
                                   argmax_control_state_linear,
                                   check_convexity_f0x, check_maximality,
                                   check_transversality,
                                   hamiltonian_nonlinear,
                                   hamiltonian_state_linear,
                                   maximality_criterion, verify_state_linear)
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


# -- batched criterion against a scalar reference ------------------------------------

def _reference_criterion(problem, cand, eta, t):
    """The two-term criterion at rational time t, one scalar Hamiltonian
    call per term: H^1 + chi_[a, b-s](t) H^0, independent of the batched
    evaluator."""
    r, s = problem.r, problem.s
    now = [cand.state.eval(float(t)), cand.state.eval(float(t - r)),
           cand.control.eval(float(t - s)), eta.eval(float(t))]
    gated = problem.a <= t <= problem.b - s
    if gated:
        ts = t + s
        later = [cand.state.eval(float(ts)), cand.state.eval(float(ts - r)),
                 cand.control.eval(float(ts)), eta.eval(float(ts))]

    def crit(u):
        x, y, v, e = now
        val = hamiltonian_state_linear(problem, 1, t, x, y, u, v, e)
        if gated:
            x, y, w, e = later
            val = val + hamiltonian_state_linear(problem, 0, ts, x, y, w, u, e)
        return val

    return crit


def _reference_argmax(problem, cand, eta, times, rng=None):
    """Maximiser time by time, in order, through the scalar searches."""
    out = []
    for t in times:
        crit = _reference_criterion(problem, cand, eta, t)
        if problem.m == 1:
            out.append(_argmax_scalar(lambda z: crit(np.array([z])),
                                      problem.control_set))
        else:
            out.append(_argmax_vector(crit, problem.control_set, problem.m, rng))
    return np.array(out)


def _lattice_times(problem, per_cell):
    return [lo + (hi - lo) * Fraction(j, per_cell)
            for _, lo, hi in problem.lattice().cells() for j in range(per_cell + 1)]


def test_batched_argmax_is_bit_identical_to_reference_on_ld(ld_problem, ld_candidate):
    # the sweep's node set at 16 substeps and the integrated adjoint
    eta = integrate_adjoint_linear(ld_problem, ld_candidate)
    times = _lattice_times(ld_problem, 32)
    batched = argmax_control_state_linear(ld_problem, ld_candidate, eta, times)
    assert np.array_equal(batched, _reference_argmax(ld_problem, ld_candidate,
                                                     eta, times))
    for t in (Fraction(1, 3), Fraction(3), Fraction(7, 2)):
        view = maximality_criterion(ld_problem, ld_candidate, eta, t)
        ref = _reference_criterion(ld_problem, ld_candidate, eta, t)
        for u in (-0.4, 0.0, 0.25, 1.5):
            assert view(np.array([u])) == ref(np.array([u]))


def test_batched_argmax_clamps_vertex_like_reference(ld_problem, ld_candidate):
    from dataclasses import replace
    problem = replace(ld_problem, control_set=ControlSet.box([-0.1], [0.3]))
    eta = integrate_adjoint_linear(problem, ld_candidate)
    times = _lattice_times(problem, 16)
    batched = argmax_control_state_linear(problem, ld_candidate, eta, times)
    # the window's vertices straddle the upper bound: some clamp, some do not
    assert np.any(batched == 0.3) and np.any((batched > 0.0) & (batched < 0.3))
    np.testing.assert_allclose(
        batched, _reference_argmax(problem, ld_candidate, eta, times),
        rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("quartic", [400.0, 1e-3])
def test_batched_argmax_golden_section_like_reference(ld_problem, ld_candidate,
                                                      quartic):
    # a quartic control cost: the quadratic test fails at every time, even
    # for a quartic term far below the criterion's scale, and each time
    # takes the bracketed golden-section search
    from dataclasses import replace
    problem = replace(ld_problem, f0u=lambda t, u, v: 100.0 * float(u[0]) ** 2
                      + quartic * float(u[0]) ** 4)
    eta = integrate_adjoint_linear(problem, ld_candidate)
    times = _lattice_times(problem, 4)
    batched = argmax_control_state_linear(problem, ld_candidate, eta, times)
    assert np.count_nonzero(np.abs(batched) > 1e-3) > len(times) // 2
    np.testing.assert_allclose(
        batched, _reference_argmax(problem, ld_candidate, eta, times),
        rtol=0.0, atol=1e-12)


def test_batched_argmax_two_controls_like_reference():
    # m = 2 on a box and n = 2 with time-varying, non-symmetric A and A_D: a
    # coupled concave cost and both control channels in the dynamics, so
    # eta weighs the current and the delayed control
    problem = StateLinearProblem(
        a=Fraction(0), b=Fraction(2), r=Fraction(1), s=Fraction(1), n=2, m=2,
        A=lambda t: np.array([[-0.5, 1.0 + t], [-0.3 * t, 0.2]]),
        A_D=lambda t: np.array([[0.1, -0.4], [0.25, np.cos(t)]]),
        g=lambda t, u: np.array([u[0] + 2.0 * u[1], -t * u[0]]),
        g_D=lambda t, v: np.array([v[0] - v[1], 0.5 * v[1]]),
        f0x=lambda t, x, y: float(x @ x) + 0.1 * float(y[0]),
        f0u=lambda t, u, v: (float(u[0]) ** 2 + 2.0 * float(u[1]) ** 2
                             + 0.5 * float(u[0] * u[1]) + 0.1 * float(v @ v)),
        phi=lambda t: np.array([1.0, -0.5]), psi=lambda t: np.array([0.0, 0.0]),
        control_set=ControlSet.box([-1.0, -0.2], [1.0, 1.0]))
    cand = CandidateSolution(
        state=from_pieces(2, [(-1, 0, lambda t: [1.0, -0.5]),
                              (0, 2, lambda t: [1.0 - 0.3 * t, np.sin(t) - 0.5])],
                          main_start=0),
        control=from_pieces(2, [(-1, 0, lambda t: [0.0, 0.0]),
                                (0, 2, lambda t: [0.1 * t, -0.1])], main_start=0))
    eta = AdjointTrajectory(
        trajectory=from_pieces(2, [(0, 2, lambda t: [np.cos(2.0 * t) - 1.5, 0.3 * t])],
                               main_start=0),
        terminal_value=np.zeros(2))
    times = [Fraction(1, 4), Fraction(1), Fraction(7, 4)]
    for t in times:
        view = maximality_criterion(problem, cand, eta, t)
        ref = _reference_criterion(problem, cand, eta, t)
        for u in ([0.3, -0.1], [-1.0, 1.0], [2.5, 0.7]):
            assert view(np.array(u)) == pytest.approx(ref(np.array(u)), rel=1e-14)
    batched = argmax_control_state_linear(problem, cand, eta, times,
                                          np.random.default_rng(5))
    ref = _reference_argmax(problem, cand, eta, times, np.random.default_rng(5))
    np.testing.assert_allclose(batched, ref, rtol=0.0, atol=1e-12)


def _with_f0u(problem, f0u):
    from dataclasses import replace
    return replace(problem, f0u=f0u)


def test_batched_argmax_raises_at_the_first_unbounded_time():
    # f0u = (3/4 - t) u^2: concave criterion before t = 3/4, constant at it,
    # convex (unbounded on a free U) after it
    problem = _with_f0u(_quadratic_cost_problem(center=0.0),
                          lambda t, u, v: (0.75 - t) * float(u[0]) ** 2)
    cand = make_rest_candidate(problem)
    eta = AdjointTrajectory(
        trajectory=from_pieces(1, [(0, 2, lambda t: [0.0])], main_start=0),
        terminal_value=np.zeros(1))
    times = _lattice_times(problem, 8)
    first = None
    for t in times:
        try:
            _reference_argmax(problem, cand, eta, [t])
        except UnboundedCriterionError:
            first = t
            break
    assert first == Fraction(7, 8)
    with pytest.raises(UnboundedCriterionError, match="at t=0.875") as info:
        argmax_control_state_linear(problem, cand, eta, times)
    assert info.value.time == float(first)
    result = check_maximality(problem, cand, eta, grid_points_per_cell=8)
    assert (result.passed, result.worst_residual, result.worst_location) == (
        False, np.inf, float(first))


@pytest.mark.parametrize("fixture, residual, location", [
    ("ld", 2.842170943040401e-14, 0.08333333333333333),
    ("control-bump", 1.0000000000584777, 1.0416666666666667),
    ("transversality-shift", 0.25000000000005684, 0.20833333333333334),
    ("concave-cost", 0.0, None),
])
def test_check_maximality_keeps_recorded_figures(fixture, residual, location):
    # worst gap and location as the per-time check recorded them
    problem, cand, eta = make_ld_problem(), make_ld_candidate(), None
    if fixture == "control-bump":
        cand = make_ld_bumped_candidate()
    elif fixture == "transversality-shift":
        eta = make_ld_shifted_adjoint()
    elif fixture == "concave-cost":
        problem = make_concave_problem()
        cand = make_rest_candidate(problem)
    eta = eta or integrate_adjoint_linear(problem, cand)
    result = check_maximality(problem, cand, eta)
    assert (result.worst_residual, result.worst_location) == (residual, location)


@pytest.mark.parametrize("control_set", [ControlSet.box([-5.0], [5.0]),
                                         ControlSet.free(1)])
def test_check_maximality_fails_on_a_non_finite_criterion(control_set):
    # f0u is NaN for t > 3/2, so the H^0 term at t + s is NaN from t > 1/2:
    # the first grid time after 1/2 (24 per cell) is 13/24; before this
    # check, the box passed with the ld figure and the free set was
    # reported unbounded there
    from dataclasses import replace

    ld = make_ld_problem()
    problem = replace(ld, control_set=control_set,
                      f0u=lambda t, u, v: np.nan if t > 1.5 else ld.f0u(t, u, v))
    cand = make_ld_candidate()
    result = check_maximality(problem, cand, integrate_adjoint_linear(ld, cand))
    assert not result.passed
    assert result.worst_location == 13 / 24
    assert "non-finite" in result.detail


# -- an adversarial criterion for the quadratic test ---------------------------------

def _probe_blind_problem():
    # q vanishes at all six probe points of the quadratic test, so there the
    # criterion -(u - 0.3)^2 + q(u) is exactly the parabola with vertex 0.3;
    # on the box [-3, 3] its true maximum is at an end
    def q(u):
        return u * (u - 1.0) * (u + 1.0) * (u - 2.0) * (u - 0.5) * (u + 1.5)

    return _with_f0u(
        _quadratic_cost_problem(center=0.0),
        lambda t, u, v: (float(u[0]) - 0.3) ** 2 - q(float(u[0])))


def test_probe_blind_criterion_fools_both_argmax_paths():
    from dataclasses import replace
    problem = replace(_probe_blind_problem(), control_set=ControlSet.box([-3.0], [3.0]))
    cand = make_rest_candidate(problem)
    eta = AdjointTrajectory(
        trajectory=from_pieces(1, [(0, 2, lambda t: [0.0])], main_start=0),
        terminal_value=np.zeros(1))
    times = _lattice_times(problem, 4)
    batched = argmax_control_state_linear(problem, cand, eta, times)
    assert np.array_equal(batched, _reference_argmax(problem, cand, eta, times))
    np.testing.assert_allclose(batched, 0.3, rtol=0.0, atol=1e-12)
    crit = maximality_criterion(problem, cand, eta, Fraction(1, 2))
    assert crit(np.array([3.0])) > crit(np.array([0.3])) + 100.0


def test_probe_blind_criterion_fails_the_check_through_random_probes():
    from dataclasses import replace
    problem = replace(_probe_blind_problem(), control_set=ControlSet.box([-3.0], [3.0]))
    # the candidate sits at the fooled vertex: its argmax gap is zero
    cand = CandidateSolution(
        state=make_rest_candidate(problem).state,
        control=from_pieces(1, [(-1, 2, lambda t: [0.3])], main_start=0))
    eta = AdjointTrajectory(
        trajectory=from_pieces(1, [(0, 2, lambda t: [0.0])], main_start=0),
        terminal_value=np.zeros(1))
    result = check_maximality(problem, cand, eta, grid_points_per_cell=6, seed=0)
    assert not result.passed
    assert result.worst_residual > 1.0
    # the probes are drawn in the stream order of one draw per time and probe
    rng = np.random.default_rng(0)
    worst, worst_t = 0.0, None
    for t in (Fraction(j, 6) for j in range(13)):   # the check's grid on [0, 2]
        crit = _reference_criterion(problem, cand, eta, t)
        u_c = cand.control.eval(float(t))
        base = crit(u_c)
        gap = crit(_reference_argmax(problem, cand, eta, [t])[0]) - base
        for _ in range(32):
            gap = max(gap, crit(problem.control_set.sample(rng, u_c)) - base)
        if gap > worst:
            worst, worst_t = gap, float(t)
    assert (result.worst_residual, result.worst_location) == (worst, worst_t)
