import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from retard_oc.dde import (IntegratorConfig, integrate_adjoint_linear,
                           integrate_adjoint_nonlinear, integrate_forward)
from retard_oc.errors import NonFiniteStateError
from retard_oc.probfile import parse_problem
from retard_oc.problems import (CandidateSolution, DelayedProblem,
                                StateLinearProblem, model_partials)
from retard_oc.registry import (d_adjoint_value, ld_adjoint_value,
                                make_zero_candidate, make_zero_problem)
from retard_oc.trajectory import from_pieces

from conftest import max_abs_error

E2 = math.exp(2.0)


def test_ld_adjoint_reproduced(ld_problem, ld_candidate, default_integrator):
    eta = integrate_adjoint_linear(ld_problem, ld_candidate, default_integrator)
    ts = np.linspace(0.0, 4.0, 2001)
    assert max_abs_error(eta.trajectory, ld_adjoint_value, ts) <= 1e-8


def test_ld_adjoint_continuous_at_window_edge(ld_problem, ld_candidate,
                                              default_integrator):
    eta = integrate_adjoint_linear(ld_problem, ld_candidate, default_integrator)
    expected = 1.0 - E2
    assert eta.eval(2.0 - 1e-11)[0] == pytest.approx(expected, abs=1e-8)
    assert eta.eval(2.0 + 1e-11)[0] == pytest.approx(expected, abs=1e-8)


def test_ld_terminal_value_exact(ld_problem, ld_candidate, fast_integrator):
    eta = integrate_adjoint_linear(ld_problem, ld_candidate, fast_integrator)
    assert eta.eval(4.0)[0] == 0.0
    assert np.all(eta.terminal_value == 0.0)


def test_non_finite_partial_raises_naming_integrator_and_cell(ld_problem,
                                                             ld_candidate):
    # the first cell marched backward reads a NaN running-cost partial
    problem = dataclasses.replace(
        ld_problem, f0x_dx=lambda t, x, y: np.array([np.nan if t > 3.5 else 1.0]))
    with pytest.raises(NonFiniteStateError,
                       match=r"integrate_adjoint_linear.* cell 3 \[3, 4\]"):
        integrate_adjoint_linear(problem, ld_candidate, IntegratorConfig(8))


def _inert_linear_problem():
    return StateLinearProblem(
        a=Fraction(0), b=Fraction(2), r=Fraction(1), s=Fraction(1), n=1, m=1,
        A=lambda t: np.array([[0.0]]), A_D=lambda t: np.array([[0.0]]),
        g=lambda t, u: np.array([0.0]), g_D=lambda t, v: np.array([0.0]),
        f0x=lambda t, x, y: 0.0, f0u=lambda t, u, v: 0.0,
        phi=lambda t: np.array([1.0]), psi=lambda t: np.array([0.0]),
        f0x_dx=lambda t, x, y: np.array([0.0]),
        f0x_dy=lambda t, x, y: np.array([0.0]))


def test_zero_rhs_gives_zero_adjoint(fast_integrator):
    problem = _inert_linear_problem()
    state = from_pieces(1, [(-1, 0, lambda t: [1.0]), (0, 2, lambda t: [1.0])],
                        main_start=0)
    control = from_pieces(1, [(-1, 0, lambda t: [0.0]), (0, 2, lambda t: [0.0])],
                          main_start=0)
    eta = integrate_adjoint_linear(problem, CandidateSolution(state, control),
                                   fast_integrator)
    for t in np.linspace(0, 2, 41):
        assert eta.eval(t)[0] == 0.0


def test_advanced_lookup_never_leaves_horizon(ld_candidate, fast_integrator):
    # A_D traps evaluation beyond b: the indicator window must keep all
    # advanced arguments inside [a, b]
    def guarded_AD(t):
        assert t <= 4.0 + 1e-9, f"advanced lookup at t={t}"
        return np.array([[1.0]])

    problem = StateLinearProblem(
        a=Fraction(0), b=Fraction(4), r=Fraction(2), s=Fraction(1), n=1, m=1,
        A=lambda t: np.array([[1.0]]), A_D=guarded_AD,
        g=lambda t, u: np.array([0.0]),
        g_D=lambda t, v: np.array([-10.0 * v[0]]),
        f0x=lambda t, x, y: float(x[0]),
        f0u=lambda t, u, v: 100.0 * float(u[0]) ** 2,
        phi=lambda t: np.array([1.0]), psi=lambda t: np.array([0.0]),
        f0x_dx=lambda t, x, y: np.array([1.0]),
        f0x_dy=lambda t, x, y: np.array([0.0]))
    integrate_adjoint_linear(problem, ld_candidate, fast_integrator)


def test_forward_backward_product_consistency(ld_problem, ld_candidate,
                                              default_integrator):
    # d/dt [eta x] via the two equations against a finite difference of the
    # computed product
    x = integrate_forward(ld_problem, ld_candidate.control, default_integrator)
    cand = CandidateSolution(state=x, control=ld_candidate.control)
    eta = integrate_adjoint_linear(ld_problem, cand, default_integrator)
    delta = 1e-5
    for t in (0.4, 1.3, 2.6, 3.5):
        xt = x.eval(t)[0]
        et = eta.eval(t)[0]
        xdot = ld_problem.dynamics(
            t, [xt], x.eval(t - 2.0), cand.control.eval(t),
            cand.control.eval(t - 1.0))[0]
        chi = 1.0 if t <= 2.0 else 0.0
        etadot = (1.0 - et - (eta.eval(t + 2.0)[0] if chi else 0.0) * chi)
        product_rule = etadot * xt + et * xdot
        fd = (eta.eval(t + delta)[0] * x.eval(t + delta)[0]
              - eta.eval(t - delta)[0] * x.eval(t - delta)[0]) / (2 * delta)
        assert product_rule == pytest.approx(fd, abs=1e-4)


# -- general nonlinear adjoint ---------------------------------------------------

def test_d_adjoint_matches_closed_form(d_problem, d_candidate, default_integrator):
    eta = integrate_adjoint_nonlinear(d_problem, d_candidate, default_integrator)
    ts = np.linspace(0.0, 3.0, 1501)
    assert max_abs_error(eta.trajectory, d_adjoint_value, ts) <= 1e-6


def test_zero_costs_give_zero_adjoint(fast_integrator):
    problem = make_zero_problem()
    eta = integrate_adjoint_nonlinear(problem, make_zero_candidate(),
                                      fast_integrator)
    for t in np.linspace(0, 2, 41):
        assert eta.eval(t)[0] == 0.0


def test_state_linear_through_general_path(ld_problem, ld_candidate,
                                           default_integrator):
    # The general costate reproduces the multiplier of the verification
    # function, which for the linear theorem's conventions is the negated
    # linear adjoint
    eta_gen = integrate_adjoint_nonlinear(ld_problem, ld_candidate,
                                          default_integrator)
    ts = np.linspace(0.0, 4.0, 2001)
    assert max_abs_error(eta_gen.trajectory, lambda t: -ld_adjoint_value(t),
                         ts) <= 1e-8


# n = 3 and m = 2 keep the (n, m) control Jacobians apart from their transposes
_PARTIALS_FILE = """\
problem partials
kind state-linear
horizon a = 0  b = 2
delays r = 1  s = 1/2
dims n = 3  m = 2
control-set box lo = -1 -2 hi = 1 2
A[0,0] = t
A[1,2] = 1
AD[2,1] = 0.5
g[0] = t*u0*u1 + u1^2
g[2] = exp(u0) - 3*u1
gD[1] = v0*v1 + t*v1^2
f0x = x0^2 + x1*y2 + t*y0
f0u = u0^2 + u0*v1 + exp(v0)/2 + u1^2*v1
phi[0] = 1
psi[1] = t
"""


def _stripped(p):
    """``p`` without declared partials: every slot by central differences."""
    return DelayedProblem(a=p.a, b=p.b, r=p.r, s=p.s, n=p.n, m=p.m,
                          f0=p.running_cost, f=p.dynamics, phi=p.phi, psi=p.psi,
                          g0=p.terminal_cost)


def test_fd_jacobians_match_declared(d_problem, ld_problem, rng):
    # every slot partial of f0 and f, declared against finite differences,
    # for a general problem, a registry state-linear one and a file one
    for p in (d_problem, ld_problem, parse_problem(_PARTIALS_FILE)):
        f0_declared, f_declared, _ = model_partials(p)
        f0_fd, f_fd, _ = model_partials(_stripped(p))
        for _ in range(25):
            # one row of (t, x, y, u, v): the partials are array forms
            args = (np.array([rng.uniform(0, 3)]), rng.normal(size=(1, p.n)),
                    rng.normal(size=(1, p.n)), rng.normal(size=(1, p.m)),
                    rng.normal(size=(1, p.m)))
            for slot in range(4):
                np.testing.assert_allclose(f_fd[slot](*args),
                                           f_declared[slot](*args), atol=1e-6)
                np.testing.assert_allclose(f0_fd[slot](*args),
                                           f0_declared[slot](*args), atol=1e-6)


def test_nonlinear_terminal_uses_terminal_cost_gradient(fast_integrator):
    base = make_zero_problem()
    problem = DelayedProblem(
        a=base.a, b=base.b, r=base.r, s=base.s, n=1, m=1,
        f0=base.f0, f=base.f, phi=base.phi, psi=base.psi,
        g0=lambda x: 1.5 * float(x[0]))
    eta = integrate_adjoint_nonlinear(problem, make_zero_candidate(),
                                      fast_integrator)
    assert eta.eval(2.0)[0] == pytest.approx(-1.5, abs=1e-9)
