import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from retard_oc.dde import integrate_adjoint_linear, integrate_adjoint_nonlinear
from retard_oc.errors import NonFiniteDerivativeError, UnboundedCriterionError
from retard_oc.lattice import _lattice_grid
from retard_oc.numdiff import FD2_STEP, hessians
from retard_oc.problems import (CandidateSolution, ControlSet,
                                StateLinearProblem, as_delayed, model_arrays)
from retard_oc.registry import (d_control_value, make_concave_problem,
                                make_d_zeroed_candidate, make_drift_problem,
                                make_inert_problem,
                                make_ld_adjoint_trajectory,
                                make_ld_bumped_candidate, make_ld_candidate,
                                make_ld_problem, make_ld_shifted_adjoint,
                                make_rest_candidate)
from retard_oc.dde import AdjointTrajectory
from retard_oc.sufficiency import (GOLDEN, ROUNDING_FLOOR, CheckResult, VerifyConfig,
                                   _argmax_all, _argmax_vector, _candidate_state_box,
                                   _Criterion, argmax_control_state_linear,
                                   check_convexity_f0x, check_maximality,
                                   check_transversality, hamiltonian,
                                   maximality_criterion, verify_state_linear)
from retard_oc.trajectory import from_pieces

E2 = math.exp(2.0)


@pytest.fixture(scope="module")
def ld_adjoint(ld_problem, ld_candidate):
    traj = make_ld_adjoint_trajectory()
    return AdjointTrajectory(trajectory=traj, terminal_value=np.zeros(1))


# -- Hamiltonians -----------------------------------------------------------------

# The scalar two-parameter Hamiltonian of the state-linear theorem: the
# reference the criterion's state-linear terms are checked against.
def hamiltonian_state_linear(problem: StateLinearProblem, p: int, t, x, y, u, v,
                             eta) -> float:
    """Two-parameter Hamiltonian of the state-linear theorem:

        H^p = -[f0x(t,x,y) + f0u(t,u,v)]
              + eta [A(t) x + A_D(t) y + p g(t,u) + (1-p) g_D(t,v)]
    """
    if p not in (0, 1):
        raise ValueError("p must be 0 or 1")
    t, n, m = float(t), problem.n, problem.m
    x, y, eta = (np.asarray(w, float).reshape(n) for w in (x, y, eta))
    u, v = (np.asarray(w, float).reshape(m) for w in (u, v))
    drift = (np.asarray(problem.A(t), float).reshape(n, n) @ x
             + np.asarray(problem.A_D(t), float).reshape(n, n) @ y
             + np.asarray(problem.g(t, u) if p == 1 else problem.g_D(t, v),
                          float).reshape(n))
    return (-(float(problem.f0x(t, x, y)) + float(problem.f0u(t, u, v)))
            + float(eta @ drift))


def _one_row(problem, t, *args):
    """:func:`hamiltonian` of ``problem`` at one time, its vectors as rows."""
    return float(hamiltonian(problem)(np.array([t]), *(np.array([w], float) for w in args))[0])


def test_hamiltonian_state_linear_benchmark_point(ld_problem):
    eta0 = E2 * (0.0 - E2 - 1.0)
    value = hamiltonian_state_linear(ld_problem, 1, 0.0, [1.0], [1.0], [0.0],
                                     [0.0], [eta0])
    assert value == pytest.approx(-1.0 + 2.0 * eta0, rel=1e-14)
    # v = 0 adds no g_D term, so the whole Hamiltonian takes the same value
    assert _one_row(ld_problem, 0.0, [1.0], [1.0], [0.0], [0.0],
                    [eta0]) == pytest.approx(-1.0 + 2.0 * eta0, rel=1e-14)


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
    value = _one_row(d_problem, 0.0, [1.0], [1.0], [0.0], [0.0], [eta1_0])
    assert value == pytest.approx(-1.0, rel=1e-14)


def test_hamiltonian_nonlinear_reduces_to_cost(d_problem):
    assert _one_row(d_problem, 0.5, [2.0], [1.0], [0.3], [0.0],
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


@pytest.mark.parametrize("t", [0.5, Fraction(1, 2), np.float64(0.5), np.array(0.5)],
                         ids=["float", "Fraction", "float64", "0-d array"])
def test_argmax_of_one_time_in_any_scalar_form(ld_problem, ld_candidate, ld_adjoint, t):
    u = argmax_control_state_linear(ld_problem, ld_candidate, ld_adjoint, t)
    assert u.shape == (1,)
    assert np.array_equal(u, argmax_control_state_linear(ld_problem, ld_candidate,
                                                         ld_adjoint, [0.5])[0])


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


def _drift_with_cost(f0x):
    from dataclasses import replace
    problem = replace(make_drift_problem(), f0x=f0x)
    return problem, make_rest_candidate(problem)


def test_convexity_nearly_affine_convex_cost_passes():
    # Hessian round-off must not pass for a negative eigenvalue near |x| = 1
    problem, cand = _drift_with_cost(lambda t, x, y: float(x[0]) + 1e-9 * float(x[0]) ** 2)
    result = check_convexity_f0x(problem, cand)
    assert result.passed
    assert result.worst_residual == 0.0


def test_convexity_gate_is_tol_itself():
    # true midpoint violation of -c x^2 is c (p - q)^2 / 4 <= c on the box
    problem, cand = _drift_with_cost(lambda t, x, y: float(x[0]) - 1e-7 * float(x[0]) ** 2)
    result = check_convexity_f0x(problem, cand, tol=1e-8)
    assert not result.passed
    assert 0.0 < result.worst_residual < 2e-7
    assert "Hessian eigenvalues above -1e-06 taken as noise" in result.detail


# -- the convexity Hessian against a per-point reference ------------------------------

def _per_point_hessian(fn, x):
    """The finite-difference Hessian as computed one point at a time."""
    x = np.asarray(x, dtype=float)
    k = x.size
    out = np.empty((k, k))
    hs = FD2_STEP * (1.0 + np.abs(x.ravel()))
    f0 = fn(x)
    for i in range(k):
        xp = x.copy(); xp.flat[i] += hs[i]
        xm = x.copy(); xm.flat[i] -= hs[i]
        out[i, i] = (fn(xp) - 2.0 * f0 + fn(xm)) / hs[i] ** 2
        for j in range(i + 1, k):
            xpp = x.copy(); xpp.flat[i] += hs[i]; xpp.flat[j] += hs[j]
            xpm = x.copy(); xpm.flat[i] += hs[i]; xpm.flat[j] -= hs[j]
            xmp = x.copy(); xmp.flat[i] -= hs[i]; xmp.flat[j] += hs[j]
            xmm = x.copy(); xmm.flat[i] -= hs[i]; xmm.flat[j] -= hs[j]
            out[i, j] = out[j, i] = (
                fn(xpp) - fn(xpm) - fn(xmp) + fn(xmm)) / (4.0 * hs[i] * hs[j])
    if not np.all(np.isfinite(out)):
        raise NonFiniteDerivativeError("non-finite Hessian probe")
    return out


def _per_point_convexity(problem, cand, tol=1e-6, pairs=1000, halfwidth=1.0, seed=0):
    """check_convexity_f0x with its 32 Hessians drawn and taken one point at
    a time through the scalar f0x."""
    rng = np.random.default_rng(seed)
    lo, hi = _candidate_state_box(problem, cand, halfwidth)
    n = problem.n
    a, b = float(problem.a), float(problem.b)
    noise = 1e-6
    draw = rng.random((pairs, 1 + 4 * n))
    box_lo, box_hi = np.concatenate([lo, lo]), np.concatenate([hi, hi])
    t = a + (b - a) * draw[:, 0]
    p, q = (box_lo + (box_hi - box_lo) * draw[:, k:k + 2 * n] for k in (1, 1 + 2 * n))
    mid = 0.5 * (p + q)
    f0x, = model_arrays(problem, "f0x")
    at = lambda z: f0x(t, z[:, :n], z[:, n:])
    viol = at(mid) - 0.5 * (at(p) + at(q))
    viol = np.where(viol > 0.0, viol, 0.0)
    k = int(np.argmax(viol))
    worst, worst_loc = ((float(viol[k]), (float(t[k]), tuple(np.round(mid[k], 6).tolist())))
                        if viol[k] > 0.0 else (0.0, None))
    for _ in range(32):
        t = rng.uniform(a, b)
        z = rng.uniform(box_lo, box_hi)
        H = _per_point_hessian(lambda w: float(problem.f0x(t, w[:n], w[n:])), z)
        neg = -float(np.min(np.linalg.eigvalsh(H)))
        if neg > max(worst, noise):
            worst, worst_loc = neg, (t, tuple(np.round(z, 6).tolist()))
    return CheckResult("convexity_f0x", worst <= tol, worst, worst_loc,
                       detail=f"box halfwidth {halfwidth}, {pairs} midpoint pairs, "
                              f"Hessian eigenvalues above -{noise:g} taken as noise")


def _two_state(f0x):
    """An n = 2 problem with running state cost ``f0x`` and a moving candidate."""
    problem = StateLinearProblem(
        a=Fraction(1, 3), b=Fraction(7, 3), r=Fraction(2, 3), s=Fraction(1, 3), n=2, m=1,
        A=lambda t: np.array([[-0.5, 1.0], [0.2, 0.1]]), A_D=lambda t: np.zeros((2, 2)),
        g=lambda t, u: np.array([u[0], 0.0]), g_D=lambda t, v: np.zeros(2),
        f0x=f0x, f0u=lambda t, u, v: float(u[0]) ** 2,
        phi=lambda t: np.array([1.0, -0.5]), psi=lambda t: np.array([0.0]))
    state = from_pieces(2, [(-Fraction(1, 3), Fraction(1, 3), lambda t: [1.0, -0.5]),
                            (Fraction(1, 3), Fraction(7, 3),
                             lambda t: [np.cos(t), np.sin(2.0 * t) - 0.5])], main_start=Fraction(1, 3))
    return problem, CandidateSolution(state=state, control=make_rest_candidate(problem).control)


def _convexity_cases():
    ld, ld_cand = make_ld_problem(), make_ld_candidate()
    concave = make_concave_problem()
    squares = replace(ld, f0x=lambda t, x, y: float(x[0]) ** 2 + float(y[0]) ** 2,
                      f0x_dx=None, f0x_dy=None)
    saddle = _two_state(lambda t, x, y: (float(x[0]) ** 2 + 0.5 * float(x[0] * x[1])
                                         - 0.3 * float(x[1] * y[0]) + np.sin(t * float(y[1]))))
    bowl = _two_state(lambda t, x, y: float(x @ x) + 2.0 * float(y @ y) + t * float(x[0]))
    return {"ld": (ld, ld_cand), "concave-cost": (concave, make_rest_candidate(concave)),
            "sum-of-squares": (squares, ld_cand), "n2-saddle": saddle, "n2-bowl": bowl}


@pytest.mark.parametrize("name", ["ld", "concave-cost", "sum-of-squares", "n2-saddle", "n2-bowl"])
@pytest.mark.parametrize("pairs, seed", [(1000, 0), (1, 0), (20, 7)])
def test_convexity_hessians_in_one_call_match_the_per_point_loop(name, pairs, seed):
    # one pair leaves the verdict to the Hessians, so their witness is tested
    problem, cand = _convexity_cases()[name]
    got = check_convexity_f0x(problem, cand, pairs=pairs, seed=seed)
    assert repr(got) == repr(_per_point_convexity(problem, cand, pairs=pairs, seed=seed))


def test_the_hessian_witness_is_the_first_most_negative_point():
    problem, cand = _convexity_cases()["n2-saddle"]
    result = check_convexity_f0x(problem, cand, pairs=1)
    assert not result.passed and result.worst_residual > 1e-2
    assert result.worst_location == _per_point_convexity(problem, cand, pairs=1).worst_location


def test_hessians_of_rows_match_the_per_point_hessian(rng):
    # the ld two-control argmax takes this Hessian of its scalar criterion
    fn = lambda w: float(np.sin(w[0]) * w[-1] + np.exp(0.3 * w.sum()) + w[0] ** 4)
    for k in (1, 2, 3, 5):
        X = rng.normal(size=(6, k)) * 3.0
        # a step h whose h ** 2 (libm pow) and h * h round apart
        X[0, 0] = -4.419429223996875
        got = hessians(lambda W: np.array([fn(w) for w in W]), X)
        assert np.array_equal(got, np.array([_per_point_hessian(fn, x) for x in X]))


def test_a_non_finite_hessian_probe_still_raises():
    # a zero half-width pins every midpoint pair to the candidate's constant
    # state, where f0x is finite; each Hessian probe steps off it to a NaN
    problem, cand = _drift_with_cost(
        lambda t, x, y: 0.0 if float(x[0]) == float(y[0]) == 1.0 else np.nan)
    for check in (check_convexity_f0x, _per_point_convexity):
        with pytest.raises(NonFiniteDerivativeError, match="non-finite Hessian probe"):
            check(problem, cand, halfwidth=0.0)


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


@pytest.mark.parametrize("field, value", [
    ("grid_points_per_cell", 0), ("grid_points_per_cell", -3),
    ("probes_per_point", -1), ("convexity_pairs", 0), ("convexity_halfwidth", -1.0),
    ("quadrature_steps_per_cell", 0), ("quadrature_steps_per_cell", 7),
    ("quadrature_steps_per_cell", -2)])
def test_verify_config_rejects_degenerate_sampling(field, value):
    # zero grid points sample only t = b, where a bumped control is not
    # seen; zero convexity pairs leave an empty argmax, and a negative
    # half-width an empty sampling box
    with pytest.raises(ValueError, match=field):
        VerifyConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        VerifyConfig.numeric(**{field: value})


def test_one_grid_point_per_cell_still_fails_the_bump(ld_problem):
    cfg = VerifyConfig(grid_points_per_cell=1, probes_per_point=0)
    cert = verify_state_linear(ld_problem, make_ld_bumped_candidate(), cfg)
    assert not cert.overall
    assert not cert.check("maximality").passed


def test_verify_flips_only_convexity_on_concave_problem():
    problem = make_concave_problem()
    cert = verify_state_linear(problem, make_rest_candidate(problem))
    assert not cert.overall
    flags = {c.name: c.passed for c in cert.checks}
    assert flags == {"continuity": True, "convexity_f0x": False,
                     "transversality": True, "maximality": True}
    # the location prints as plain floats in the text and in the JSON
    location = "(1.8207586532533893, (1.494208, 1.329133))"
    assert (f"check.convexity_f0x: FAIL worst=2.000000e+00 at {location}"
            in cert.to_text().splitlines())
    assert cert.to_mapping()["checks"][1]["worst_location"] == location


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


# the per-time scalar searches the array argmax replaced, kept as its reference

def _golden_max(fn, lo: float, hi: float, tol: float = 1e-11) -> float:
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while abs(b - a) > tol * (1.0 + abs(a) + abs(b)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def _shape_tolerances(c0, cp, cm):
    """(fit, curvature) tolerances of the quadratic test from the criterion at
    u = 0, 1, -1: relative to the u-dependent differences, plus the values'
    rounding floor, so a constant offset in the criterion widens neither."""
    scale = np.maximum(1.0, np.maximum(np.abs(cp - c0), np.abs(cm - c0)))
    floor = ROUNDING_FLOOR * np.maximum(np.abs(c0), np.maximum(np.abs(cp), np.abs(cm)))
    return 1e-8 * scale + floor, 1e-12 * scale + floor


def _argmax_scalar(fn, control_set: ControlSet) -> np.ndarray:
    """Maximise a scalar-control criterion: closed form for concave
    quadratics, golden-section otherwise."""
    c0, cp, cm = fn(0.0), fn(1.0), fn(-1.0)
    fit_tol, tiny = _shape_tolerances(c0, cp, cm)
    a2 = 0.5 * (cp + cm) - c0
    a1 = 0.5 * (cp - cm)
    # quadratic means the 3-point fit predicts fresh probe points
    quadratic = all(
        abs(fn(z) - (c0 + a1 * z + a2 * z * z)) <= fit_tol
        for z in (2.0, 0.5, -1.5))
    if quadratic:
        if a2 < -tiny:
            vertex = -a1 / (2.0 * a2)
            return control_set.project(np.array([vertex]))
        if control_set.is_free:
            if abs(a2) <= tiny and abs(a1) <= tiny:
                return np.array([0.0])  # constant criterion: any u maximises
            raise UnboundedCriterionError(
                "criterion is not strictly concave and U is unbounded")
        lo, hi = float(control_set.lo[0]), float(control_set.hi[0])
        return np.array([lo if fn(lo) >= fn(hi) else hi])
    if not control_set.is_free:
        lo, hi = float(control_set.lo[0]), float(control_set.hi[0])
    else:
        # expand a bracket around 0 until the maximum is interior
        width = 1.0
        while True:
            lo, hi = -width, width
            if fn(lo) < fn(0.0) > fn(hi):
                break
            width *= 4.0
            if width > 1e8:
                raise UnboundedCriterionError("criterion keeps growing; no "
                                              "finite maximiser found")
    best = _golden_max(fn, lo, hi)
    return np.array([best])


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


def _quartic_control_cost(problem, quartic, control_set=None):
    return replace(problem, control_set=control_set or problem.control_set,
                   f0u=lambda t, u, v: 100.0 * float(u[0]) ** 2 + quartic * float(u[0]) ** 4)


@pytest.mark.parametrize("quartic", [400.0, 1e-3])
def test_batched_argmax_golden_section_like_reference(ld_problem, ld_candidate,
                                                      quartic):
    # a quartic control cost: the quadratic test fails at every time, even
    # for a quartic term far below the criterion's scale, and each time
    # takes the bracketed golden-section search, all times in lockstep
    problem = _quartic_control_cost(ld_problem, quartic)
    eta = integrate_adjoint_linear(problem, ld_candidate)
    times = _lattice_times(problem, 4)
    batched = argmax_control_state_linear(problem, ld_candidate, eta, times)
    assert np.count_nonzero(np.abs(batched) > 1e-3) > len(times) // 2
    assert np.array_equal(batched, _reference_argmax(problem, ld_candidate, eta, times))


@pytest.mark.parametrize("quartic", [400.0, 1e-3])
def test_batched_argmax_golden_section_on_a_box_like_reference(ld_problem, ld_candidate,
                                                               quartic):
    # the same search on the box [-0.2, 0.3], which holds some maximisers
    # and cuts off others
    problem = _quartic_control_cost(ld_problem, quartic, ControlSet.box([-0.2], [0.3]))
    eta = integrate_adjoint_linear(problem, ld_candidate)
    times = _lattice_times(problem, 4)
    batched = argmax_control_state_linear(problem, ld_candidate, eta, times)
    assert np.any(batched > 0.29) and np.any((batched > 1e-3) & (batched < 0.29))
    assert np.array_equal(batched, _reference_argmax(problem, ld_candidate, eta, times))


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


def _zero_adjoint():
    return AdjointTrajectory(trajectory=from_pieces(1, [(0, 2, lambda t: [0.0])], main_start=0),
                             terminal_value=np.zeros(1))


def _reference_first_unbounded(problem, cand, eta, times):
    """(time, message) of the first time at which the scalar search raises,
    the time named as the library names it; None if none does."""
    for t in times:
        try:
            _reference_argmax(problem, cand, eta, [t])
        except UnboundedCriterionError as exc:
            return float(t), f"{exc} at t={float(t)!r}"
    return None


def test_constant_criterion_takes_zero_like_reference():
    # concave-cost: f0u = 0 and no control in the dynamics, so the criterion
    # is constant in u at every time; on a free U each takes 0
    problem = make_concave_problem()
    assert problem.control_set.is_free
    cand = make_rest_candidate(problem)
    eta = integrate_adjoint_linear(problem, cand)
    times = _lattice_times(problem, 24)
    batched = argmax_control_state_linear(problem, cand, eta, times)
    assert np.array_equal(batched, _reference_argmax(problem, cand, eta, times))
    assert not np.any(batched)


@pytest.mark.parametrize("f0u", [lambda t, u, v: (1.0 - t) * float(u[0]),
                                 lambda t, u, v: 0.0 * float(u[0]) + t])
def test_linear_or_flat_criterion_on_a_box_takes_the_better_end(f0u):
    # criterion -(1 - t) u: the lower end before t = 1, the upper after it,
    # and the lower on the tie at t = 1; a flat criterion ties everywhere
    problem = replace(_with_f0u(_quadratic_cost_problem(center=0.0), f0u),
                      control_set=ControlSet.box([-0.5], [2.0]))
    cand, eta = make_rest_candidate(problem), _zero_adjoint()
    times = _lattice_times(problem, 8)
    batched = argmax_control_state_linear(problem, cand, eta, times)
    assert np.array_equal(batched, _reference_argmax(problem, cand, eta, times))
    assert set(batched.ravel().tolist()) <= {-0.5, 2.0}
    assert batched[times.index(Fraction(1))][0] == -0.5


def test_non_concave_quadratic_on_a_free_set_names_the_first_time():
    # criterion -f0u = (t - 1/2) u^2 + u: strictly concave before t = 1/2,
    # linear at it and convex after it, both unbounded on a free U
    problem = _with_f0u(_quadratic_cost_problem(center=0.0),
                        lambda t, u, v: (0.5 - t) * float(u[0]) ** 2 - float(u[0]))
    cand, eta = make_rest_candidate(problem), _zero_adjoint()
    times = _lattice_times(problem, 8)
    first = _reference_first_unbounded(problem, cand, eta, times)
    assert first == (0.5, "criterion is not strictly concave and U is unbounded at t=0.5")
    with pytest.raises(UnboundedCriterionError) as info:
        argmax_control_state_linear(problem, cand, eta, times)
    assert (info.value.time, str(info.value)) == first
    kept = [t for t in times if t < Fraction(1, 2)]
    assert np.array_equal(argmax_control_state_linear(problem, cand, eta, kept),
                          _reference_argmax(problem, cand, eta, kept))


def _three_phase_cost(early, middle, late):
    """f0u following ``early`` before t = 1/4, ``middle`` up to t = 1/2 and
    ``late`` after it."""
    return lambda t, u, v: (early if t < 0.25 else middle if t < 0.5 else late)(float(u[0]))


CONCAVE, GROWING, CONVEX = (lambda u: (u - 0.3) ** 2, lambda u: -u ** 4 - u ** 2,
                            lambda u: -u ** 2)


@pytest.mark.parametrize("middle, late, message", [
    (GROWING, CONVEX, "criterion keeps growing; no finite maximiser found"),
    (CONVEX, GROWING, "criterion is not strictly concave and U is unbounded")])
def test_the_first_unbounded_time_is_named_whichever_its_kind(middle, late, message):
    # a non-quadratic criterion that keeps growing and a convex quadratic
    # one, in either order after concave times: the first of them is named,
    # with its own message, as the time-by-time search names it
    problem = _with_f0u(_quadratic_cost_problem(center=0.0),
                        _three_phase_cost(CONCAVE, middle, late))
    cand, eta = make_rest_candidate(problem), _zero_adjoint()
    times = _lattice_times(problem, 8)
    first = _reference_first_unbounded(problem, cand, eta, times)
    assert first == (0.25, f"{message} at t=0.25")
    with pytest.raises(UnboundedCriterionError) as info:
        argmax_control_state_linear(problem, cand, eta, times)
    assert (info.value.time, str(info.value)) == first
    result = check_maximality(problem, cand, eta, grid_points_per_cell=8)
    assert (result.passed, result.worst_residual, result.worst_location) == (False, np.inf, 0.25)


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


@pytest.mark.parametrize("center, tol", [(0.75, 0.0), (0.1234, 1e-4)])
def test_argmax_vertex_survives_a_large_constant_offset(center, tol):
    # criterion 1e14 (2e14 where the t + s term is gated in) - 100 (u -
    # center)^2: the offset says nothing about the shape, so neither path may
    # call it "not strictly concave" nor miss the vertex.  With center 0.75
    # every probe value is exact; with 0.1234 each carries the rounding of a
    # value near 1e14, which the quadratic fit must allow for (a golden-section
    # search on those values misses the vertex by about 1e-2).
    problem = _with_f0u(_quadratic_cost_problem(center=0.0),
                        lambda t, u, v: 100.0 * (float(u[0]) - center) ** 2)
    problem = replace(problem, f0x=lambda t, x, y: -1e14)
    cand = make_rest_candidate(problem)
    eta = AdjointTrajectory(
        trajectory=from_pieces(1, [(0, 2, lambda t: [0.0])], main_start=0),
        terminal_value=np.zeros(1))
    times = _lattice_times(problem, 4)
    batched = argmax_control_state_linear(problem, cand, eta, times)
    scalar = _reference_argmax(problem, cand, eta, times)
    assert np.max(np.abs(batched - center)) <= tol
    assert np.max(np.abs(scalar - center)) <= tol


# -- the general criterion ----------------------------------------------------------

# On Goellmann's problem (f0 = x^2 + u^2, f = x(t-1) u(t-2), s = 2) the
# criterion is maximised at u(t) = eta(t+2) x(t+1) / 2 on [0, 1] and at 0
# after, with eta in the sign of integrate_adjoint_linear: the closed-form
# control of Goellmann, Kern & Maurer (2009).

@pytest.fixture(scope="module")
def d_grid(d_problem):
    return _lattice_grid(d_problem.lattice(), 24)


def test_general_argmax_is_goellmanns_control(d_problem, d_candidate, d_grid):
    eta = integrate_adjoint_linear(d_problem, d_candidate)
    u = _argmax_all(d_problem, _Criterion(d_problem, d_candidate, eta, d_grid))
    assert np.max(np.abs(u[:, 0] - d_control_value(d_grid.t))) <= 1e-9
    # the other costate sign maximises the wrong criterion
    eta = integrate_adjoint_nonlinear(d_problem, d_candidate)
    u = _argmax_all(d_problem, _Criterion(d_problem, d_candidate, eta, d_grid))
    assert np.max(np.abs(u[:, 0] - d_control_value(d_grid.t))) > 1.0


def test_general_check_maximality_passes_goellmanns_pair(d_problem, d_candidate):
    result = check_maximality(d_problem, d_candidate,
                              integrate_adjoint_linear(d_problem, d_candidate))
    assert result.passed and result.worst_residual <= 1e-12


def test_general_check_maximality_fails_the_zeroed_control(d_problem):
    cand = make_d_zeroed_candidate()
    result = check_maximality(d_problem, cand, integrate_adjoint_linear(d_problem, cand))
    assert not result.passed
    assert result.worst_location == 0.0
    assert result.worst_residual == pytest.approx(0.58, abs=0.01)


def test_general_and_state_linear_terms_take_the_same_argmax(ld_problem, ld_candidate):
    # Not bit for bit: H carries terms free of the control scored (f0x, A x,
    # A_D x(t-r) and the other control's part) that H^1 + chi H^0 drops, so
    # the two criteria differ by a per-time constant and round differently.
    eta = integrate_adjoint_linear(ld_problem, ld_candidate)
    grid = _lattice_grid(ld_problem.lattice(), 24)
    general = as_delayed(ld_problem)
    u = _argmax_all(ld_problem, _Criterion(ld_problem, ld_candidate, eta, grid))
    u_general = _argmax_all(general, _Criterion(general, ld_candidate, eta, grid))
    np.testing.assert_allclose(u_general, u, rtol=0.0, atol=1e-12)
