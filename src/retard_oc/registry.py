"""Registered problems with closed-form solutions, plus small fixtures.

Two benchmarks carry full analytic data (state, control, adjoint, and for
the nonlinear one a verification function with its feedback law); they are
the oracles most of the test suite is written against.  The fixtures are
deliberately tiny problems that isolate a single behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .problems import (CandidateSolution, ControlSet, DelayedProblem,
                       StateLinearProblem, TerminalSet, batched)
from .trajectory import Trajectory, from_pieces

E1 = math.e
E2 = math.exp(2.0)
E3 = math.exp(3.0)
E4 = math.exp(4.0)
E5 = math.exp(5.0)
E6 = math.exp(6.0)


def _vec(fn: Callable[[float], float]) -> Callable[[float], np.ndarray]:
    return lambda t: np.array([fn(t)])


def _constant(value) -> Callable:
    """A model field equal to ``value`` whatever its arguments, with its
    array form (:func:`~retard_oc.problems.batched`)."""
    value = np.array(value, dtype=float)
    scalar = (lambda *args: float(value)) if value.ndim == 0 else (lambda *args: value.copy())
    return batched(scalar, lambda ts, *args: np.full((len(ts),) + value.shape, value))


def _squares(col: np.ndarray) -> np.ndarray:
    """``c ** 2`` for each value, as the scalar forms compute it: Python's
    float power, which can differ from numpy's square in the last bit."""
    return np.array([c ** 2 for c in col.tolist()])


# ---------------------------------------------------------------------------
# ocp-ld-paper: scalar state-linear benchmark with closed-form optimal pair
#
#   min  int_0^4  x(t) + 100 u(t)^2 dt
#   s.t. xdot = x(t) + x(t-2) - 10 u(t-1),  x = 1 on [-2, 0],  u = 0 on [-1, 0[
#
# Known minimal cost (23 + e^2 + 34 e^4 - 2 e^6) / 16 ~= 67.491786.
# ---------------------------------------------------------------------------

LD_COST = (23.0 + E2 + 34.0 * E4 - 2.0 * E6) / 16.0


def make_ld_problem() -> StateLinearProblem:
    return StateLinearProblem(
        a=Fraction(0), b=Fraction(4), r=Fraction(2), s=Fraction(1),
        n=1, m=1,
        A=_constant([[1.0]]),
        A_D=_constant([[1.0]]),
        g=_constant([0.0]),
        g_D=batched(lambda t, v: np.array([-10.0 * v[0]]),
                    lambda ts, V: -10.0 * V[:, :1]),
        f0x=batched(lambda t, x, y: float(x[0]), lambda ts, X, Y: X[:, 0]),
        f0u=batched(lambda t, u, v: 100.0 * float(u[0]) ** 2,
                    lambda ts, U, V: 100.0 * _squares(U[:, 0])),
        phi=_constant([1.0]),
        psi=_constant([0.0]),
        control_set=ControlSet.free(1),
        f0x_dx=_constant([1.0]),
        f0x_dy=_constant([0.0]),
        g_du=_constant([[0.0]]), gD_dv=_constant([[-10.0]]),
        f0u_du=batched(lambda t, u, v: np.array([200.0 * float(u[0])]),
                       lambda ts, U, V: 200.0 * U[:, :1]),
        f0u_dv=_constant([0.0]),
        name="ocp-ld-paper",
    )


def ld_adjoint_value(t: float) -> float:
    """Closed-form adjoint: solves etadot = 1 - eta - eta(t+2) on [0,2],
    etadot = 1 - eta on ]2,4], eta(4) = 0."""
    if t <= 2.0:
        return math.exp(2.0 - t) * (t - E2 - 1.0)
    return 1.0 - math.exp(4.0 - t)


def ld_control_value(t: float) -> float:
    """Optimal control: -eta(t+1)/20 on [0,3], zero elsewhere."""
    if t < 0.0:
        return 0.0
    if t < 1.0:
        return (math.exp(3.0 - t) - t * math.exp(1.0 - t)) / 20.0
    if t <= 3.0:
        return (math.exp(3.0 - t) - 1.0) / 20.0
    return 0.0


def ld_state_value(t: float) -> float:
    """Optimal state, five pieces on [-2, 4]."""
    if t <= 0.0:
        return 1.0
    et = math.exp(t)
    if t <= 1.0:
        return -1.0 + 2.0 * et
    emt = math.exp(-t)
    if t <= 2.0:
        return ((E2 + 2.0 * E4 - 2.0 * E2 * t) * emt - 8.0
                + (17.0 - 2.0 * E2) * et) / 8.0
    if t <= 3.0:
        return (2.0 * math.exp(4.0 - t) + 4.0
                + (-47.0 / E2 + 17.0 - 2.0 * E2 + 16.0 * t / E2) * et) / 8.0
    return ((-E6 + E4 * t) * emt + 4.0
            + (-51.0 / E2 + 24.0 - 2.0 * E2 + 17.0 * t / E2 - 2.0 * t) * et) / 8.0


def make_ld_candidate() -> CandidateSolution:
    state = from_pieces(1, [
        (Fraction(-2), Fraction(0), _vec(lambda t: 1.0))] + [
        (Fraction(k), Fraction(k + 1), _vec(ld_state_value)) for k in range(4)],
        main_start=0, require_continuity=True)
    control = from_pieces(1, [
        (Fraction(-1), Fraction(0), _vec(lambda t: 0.0)),
        (Fraction(0), Fraction(1), _vec(lambda t: (math.exp(3 - t) - t * math.exp(1 - t)) / 20.0)),
        (Fraction(1), Fraction(3), _vec(lambda t: (math.exp(3 - t) - 1.0) / 20.0)),
        (Fraction(3), Fraction(4), _vec(lambda t: 0.0)),
    ], main_start=0)
    return CandidateSolution(state=state, control=control, cost=LD_COST)


def make_ld_adjoint_trajectory() -> Trajectory:
    return from_pieces(1, [
        (Fraction(0), Fraction(2), _vec(lambda t: math.exp(2 - t) * (t - E2 - 1.0))),
        (Fraction(2), Fraction(4), _vec(lambda t: 1.0 - math.exp(4 - t))),
    ], main_start=0, require_continuity=True)


# ---------------------------------------------------------------------------
# ocp-d-goellmann: nonlinear benchmark (Goellmann-type bilinear dynamics)
#
#   min  int_0^3  x(t)^2 + u(t)^2 dt
#   s.t. xdot = x(t-1) u(t-2),  x = 1 on [-1, 0],  u = 0 on [-2, 0[
#
# Optimal pair known in closed form; minimal cost 2 + tanh(1).
# ---------------------------------------------------------------------------

D_COST = (3.0 * E2 + 1.0) / (E2 + 1.0)  # == 2 + tanh(1)
_Q = (E2 + 1.0)
_Q2 = _Q * _Q


def make_d_problem() -> DelayedProblem:
    return DelayedProblem(
        a=Fraction(0), b=Fraction(3), r=Fraction(1), s=Fraction(2),
        n=1, m=1,
        f0=batched(lambda t, x, y, u, v: float(x[0]) ** 2 + float(u[0]) ** 2,
                   lambda ts, X, Y, U, V: _squares(X[:, 0]) + _squares(U[:, 0])),
        f=batched(lambda t, x, y, u, v: np.array([float(y[0]) * float(v[0])]),
                  lambda ts, X, Y, U, V: Y[:, :1] * V[:, :1]),
        phi=_constant([1.0]),
        psi=_constant([0.0]),
        g0=lambda x: 0.0,
        control_set=ControlSet.free(1),
        terminal_set=TerminalSet.free(1),
        f_dx=_constant([[0.0]]),
        f_dy=batched(lambda t, x, y, u, v: np.array([[float(v[0])]]),
                     lambda ts, X, Y, U, V: V[:, :1, None]),
        f_du=_constant([[0.0]]),
        f_dv=batched(lambda t, x, y, u, v: np.array([[float(y[0])]]),
                     lambda ts, X, Y, U, V: Y[:, :1, None]),
        f0_dx=batched(lambda t, x, y, u, v: np.array([2.0 * float(x[0])]),
                      lambda ts, X, Y, U, V: 2.0 * X[:, :1]),
        f0_dy=_constant([0.0]),
        f0_du=batched(lambda t, x, y, u, v: np.array([2.0 * float(u[0])]),
                      lambda ts, X, Y, U, V: 2.0 * U[:, :1]),
        f0_dv=_constant([0.0]),
        g0_grad=lambda x: np.array([0.0]),
        name="ocp-d-goellmann",
    )


def d_state_value(t: float) -> float:
    if t <= 2.0:
        return 1.0
    return (math.exp(t - 2.0) + math.exp(4.0 - t)) / _Q


def d_control_value(t: float) -> float:
    if t < 0.0:
        return 0.0
    if t <= 1.0:
        return (math.exp(t) - math.exp(2.0 - t)) / _Q
    return 0.0


def d_eta1(t: float) -> float:
    return -2.0 * t + 5.0 + 2.0 * (E2 - 1.0) / _Q2


def d_eta2(t: float) -> float:
    return (-(4.0 * E2 / _Q2 + 2.0) * t + 4.0 * (E2 - 1.0) / _Q2 + 6.0
            + (math.exp(2.0 * t - 2.0) - math.exp(6.0 - 2.0 * t)) / _Q2)


def d_eta3(t: float) -> float:
    return 2.0 * (math.exp(4.0 - t) - math.exp(t - 2.0)) / _Q


def d_adjoint_value(t: float) -> float:
    if t < 1.0:
        return d_eta1(t)
    if t < 2.0:
        return d_eta2(t)
    return d_eta3(t)


def d_c1(t: float) -> float:
    return (2.0 * t * (3.0 * E4 + 4.0 * E2 + 3.0) + math.exp(2.0 * t)
            - math.exp(4.0 - 2.0 * t) - 15.0 * E4 - 32.0 * E2 - 9.0) / (2.0 * _Q2)


def d_c2(t: float) -> float:
    return (2.0 * t * (3.0 * E4 + 10.0 * E2 + 3.0)
            + 2.0 * (math.exp(6.0 - 2.0 * t) - math.exp(2.0 * t - 2.0))
            - 17.0 * E4 - 44.0 * E2 - 7.0) / (2.0 * _Q2)


def d_c3(t: float) -> float:
    return (4.0 * E2 * (t - 3.0)
            + 5.0 * (math.exp(2.0 * t - 4.0) - math.exp(8.0 - 2.0 * t))) / (2.0 * _Q2)


# time derivatives of the value-function pieces, used for the exact d/dt term
def d_eta1_dot(t: float) -> float:
    return -2.0


def d_eta2_dot(t: float) -> float:
    return (-(4.0 * E2 / _Q2 + 2.0)
            + (2.0 * math.exp(2.0 * t - 2.0) + 2.0 * math.exp(6.0 - 2.0 * t)) / _Q2)


def d_eta3_dot(t: float) -> float:
    return 2.0 * (-math.exp(4.0 - t) - math.exp(t - 2.0)) / _Q


def d_c1_dot(t: float) -> float:
    return (3.0 * E4 + 4.0 * E2 + 3.0 + math.exp(2.0 * t) + math.exp(4.0 - 2.0 * t)) / _Q2


def d_c2_dot(t: float) -> float:
    return (3.0 * E4 + 10.0 * E2 + 3.0
            - 2.0 * math.exp(6.0 - 2.0 * t) - 2.0 * math.exp(2.0 * t - 2.0)) / _Q2


def d_c3_dot(t: float) -> float:
    return (2.0 * E2 + 5.0 * math.exp(2.0 * t - 4.0) + 5.0 * math.exp(8.0 - 2.0 * t)) / _Q2


def make_d_candidate() -> CandidateSolution:
    state = from_pieces(1, [
        (Fraction(-3), Fraction(0), _vec(lambda t: 1.0)),
        (Fraction(0), Fraction(2), _vec(lambda t: 1.0)),
        (Fraction(2), Fraction(3), _vec(d_state_value)),
    ], main_start=0, require_continuity=True)
    control = from_pieces(1, [
        (Fraction(-2), Fraction(0), _vec(lambda t: 0.0)),
        (Fraction(0), Fraction(1), _vec(lambda t: (math.exp(t) - math.exp(2.0 - t)) / _Q)),
        (Fraction(1), Fraction(3), _vec(lambda t: 0.0)),
    ], main_start=0)
    return CandidateSolution(state=state, control=control, cost=D_COST)


def make_d_adjoint_trajectory() -> Trajectory:
    return from_pieces(1, [
        (Fraction(0), Fraction(1), _vec(d_eta1)),
        (Fraction(1), Fraction(2), _vec(d_eta2)),
        (Fraction(2), Fraction(3), _vec(d_eta3)),
    ], main_start=0, require_continuity=True)


def d_feedback(t, x, y, eta) -> np.ndarray:
    """Closed-loop control law for the nonlinear benchmark.

    The optimal control here depends on time only, so the law is constant in
    the state and multiplier arguments (trivially smooth in all of them).
    """
    return np.array([d_control_value(float(t))])


def make_d_value_function(eta3_scale: float = 1.0, c3_shift: float = 0.0):
    """Piecewise verification function S(t, x) = eta_i(t) x + c_i(t).

    ``eta3_scale`` and ``c3_shift`` build the documented broken variants for
    negative testing; defaults give the genuine solution.
    """
    from .sufficiency import ValueFunctionCandidate

    def pick(t: float):
        if t < 1.0:
            return d_eta1, d_eta1_dot, d_c1, d_c1_dot, 1.0, 0.0
        if t < 2.0:
            return d_eta2, d_eta2_dot, d_c2, d_c2_dot, 1.0, 0.0
        return d_eta3, d_eta3_dot, d_c3, d_c3_dot, eta3_scale, c3_shift

    def S(t, x):
        eta, _, c, _, scale, shift = pick(float(t))
        return scale * eta(float(t)) * float(np.asarray(x).reshape(1)[0]) + c(float(t)) + shift

    def S_t(t, x):
        _, eta_dot, _, c_dot, scale, _ = pick(float(t))
        return scale * eta_dot(float(t)) * float(np.asarray(x).reshape(1)[0]) + c_dot(float(t))

    def S_x(t, x):
        eta, _, _, _, scale, _ = pick(float(t))
        return np.array([scale * eta(float(t))])

    return ValueFunctionCandidate(S=S, S_t=S_t, S_x=S_x)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def make_zero_problem() -> DelayedProblem:
    """No dynamics, no cost.  State stays at the history value."""
    return DelayedProblem(
        a=Fraction(0), b=Fraction(2), r=Fraction(1), s=Fraction(1),
        n=1, m=1,
        f0=lambda t, x, y, u, v: 0.0,
        f=lambda t, x, y, u, v: np.array([0.0]),
        phi=lambda t: np.array([0.75]),
        psi=lambda t: np.array([0.0]),
        name="zero-delayed",
    )


def make_zero_candidate() -> CandidateSolution:
    state = from_pieces(1, [(Fraction(-2), Fraction(0), _vec(lambda t: 0.75)),
                            (Fraction(0), Fraction(2), _vec(lambda t: 0.75))],
                        main_start=0)
    control = from_pieces(1, [(Fraction(-1), Fraction(0), _vec(lambda t: 0.0)),
                              (Fraction(0), Fraction(2), _vec(lambda t: 0.0))],
                          main_start=0)
    return CandidateSolution(state=state, control=control, cost=0.0)


def _inert_dynamics_problem(name: str, **costs) -> StateLinearProblem:
    """A = A_D = 0 and g = g_D = 0: the state is pinned to its history value
    whatever the control does.  ``costs`` replace fields of the running
    cost f0x = x, f0u = 0."""
    fields = dict(f0x=batched(lambda t, x, y: float(x[0]), lambda ts, X, Y: X[:, 0]),
                  f0x_dx=_constant([1.0]), f0u=_constant(0.0), f0u_du=_constant([0.0]))
    return StateLinearProblem(
        a=Fraction(0), b=Fraction(2), r=Fraction(1), s=Fraction(1), n=1, m=1,
        A=_constant([[0.0]]), A_D=_constant([[0.0]]),
        g=_constant([0.0]), g_D=_constant([0.0]),
        phi=_constant([1.0]), psi=_constant([0.0]), f0x_dy=_constant([0.0]),
        g_du=_constant([[0.0]]), gD_dv=_constant([[0.0]]), f0u_dv=_constant([0.0]),
        name=name, **{**fields, **costs})


def make_drift_problem() -> StateLinearProblem:
    """Uncontrollable state with a pure control-energy cost."""
    return _inert_dynamics_problem(
        "drift-linear",
        f0u=batched(lambda t, u, v: float(u[0]) ** 2, lambda ts, U, V: _squares(U[:, 0])),
        f0u_du=batched(lambda t, u, v: np.array([2.0 * float(u[0])]),
                       lambda ts, U, V: 2.0 * U[:, :1]))


def make_inert_problem() -> StateLinearProblem:
    """Neither the dynamics nor the cost see the control."""
    return _inert_dynamics_problem("inert-linear")


def make_concave_problem() -> StateLinearProblem:
    """Concave running state cost: the convexity hypothesis fails and
    nothing else does."""
    return _inert_dynamics_problem(
        "concave-cost",
        f0x=batched(lambda t, x, y: -float(x[0]) ** 2, lambda ts, X, Y: -_squares(X[:, 0])),
        f0x_dx=batched(lambda t, x, y: np.array([-2.0 * float(x[0])]),
                       lambda ts, X, Y: -2.0 * X[:, :1]))


def make_rest_candidate(problem) -> CandidateSolution:
    """x pinned at the history value, u identically zero."""
    hist = float(problem.phi(float(problem.a))[0])
    xs = problem.state_history_start
    us = problem.control_history_start
    state = from_pieces(1, [(xs, problem.a, _vec(lambda t: hist)),
                            (problem.a, problem.b, _vec(lambda t: hist))],
                        main_start=problem.a)
    control = from_pieces(1, [(us, problem.a, _vec(lambda t: 0.0)),
                              (problem.a, problem.b, _vec(lambda t: 0.0))],
                          main_start=problem.a)
    return CandidateSolution(state=state, control=control)


# ---------------------------------------------------------------------------
# perturbed variants used by the certificate soundness tests and the CLI
# ---------------------------------------------------------------------------

def make_ld_bumped_candidate(bump: float = 0.1) -> CandidateSolution:
    """Analytic pair with the control raised by ``bump`` on [1, 2)."""
    base = make_ld_candidate()
    control = from_pieces(1, [
        (Fraction(-1), Fraction(0), _vec(lambda t: 0.0)),
        (Fraction(0), Fraction(1), _vec(lambda t: ld_control_value(t))),
        (Fraction(1), Fraction(2), _vec(lambda t: ld_control_value(t) + bump)),
        (Fraction(2), Fraction(3), _vec(lambda t: ld_control_value(t))),
        (Fraction(3), Fraction(4), _vec(lambda t: 0.0)),
    ], main_start=0)
    return CandidateSolution(state=base.state, control=control)


def make_ld_shifted_adjoint(shift: float = 1.0):
    """Analytic adjoint plus a constant: breaks the terminal condition."""
    from .dde import AdjointTrajectory

    traj = from_pieces(1, [
        (Fraction(0), Fraction(2), _vec(lambda t: ld_adjoint_value(t) + shift)),
        (Fraction(2), Fraction(4), _vec(lambda t: ld_adjoint_value(t) + shift)),
    ], main_start=0)
    return AdjointTrajectory(trajectory=traj, terminal_value=np.array([shift]))


def make_d_zeroed_candidate() -> CandidateSolution:
    """Analytic pair with the control zeroed on [0, 1)."""
    base = make_d_candidate()
    control = from_pieces(1, [
        (Fraction(-2), Fraction(0), _vec(lambda t: 0.0)),
        (Fraction(0), Fraction(3), _vec(lambda t: 0.0)),
    ], main_start=0)
    return CandidateSolution(state=base.state, control=control)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegisteredExample:
    name: str
    note: str
    make_problem: Callable[[], object]
    make_candidate: Optional[Callable[[], CandidateSolution]] = None
    make_adjoint: Optional[Callable[[], Trajectory]] = None
    make_value_function: Optional[Callable[[], object]] = None
    feedback: Optional[Callable] = None
    known_cost: Optional[float] = None


REGISTRY: dict[str, RegisteredExample] = {
    "ocp-ld-paper": RegisteredExample(
        name="ocp-ld-paper",
        note="state-linear benchmark with closed-form optimal pair and adjoint",
        make_problem=make_ld_problem,
        make_candidate=make_ld_candidate,
        make_adjoint=make_ld_adjoint_trajectory,
        known_cost=LD_COST,
    ),
    "ocp-d-goellmann": RegisteredExample(
        name="ocp-d-goellmann",
        note="nonlinear benchmark (Goellmann-type) with closed-form "
             "verification function",
        make_problem=make_d_problem,
        make_candidate=make_d_candidate,
        make_adjoint=make_d_adjoint_trajectory,
        make_value_function=make_d_value_function,
        feedback=d_feedback,
        known_cost=D_COST,
    ),
    "zero-delayed": RegisteredExample(
        name="zero-delayed",
        note="fixture: no dynamics, no cost",
        make_problem=make_zero_problem,
        make_candidate=make_zero_candidate,
        known_cost=0.0,
    ),
    "drift-linear": RegisteredExample(
        name="drift-linear",
        note="fixture: uncontrollable state, control-energy cost",
        make_problem=make_drift_problem,
        make_candidate=lambda: make_rest_candidate(make_drift_problem()),
    ),
    "inert-linear": RegisteredExample(
        name="inert-linear",
        note="fixture: cost constant in the control",
        make_problem=make_inert_problem,
        make_candidate=lambda: make_rest_candidate(make_inert_problem()),
    ),
    "concave-cost": RegisteredExample(
        name="concave-cost",
        note="fixture: concave running state cost (convexity hypothesis fails)",
        make_problem=make_concave_problem,
        make_candidate=lambda: make_rest_candidate(make_concave_problem()),
    ),
}


def get_example(name: str) -> RegisteredExample:
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown registered problem {name!r}; known: {known}") from None


def list_examples(registry: Optional[dict] = None) -> list[tuple[str, str]]:
    """Name/note pairs of the given registry (the built-in one by default)."""
    source = REGISTRY if registry is None else registry
    return [(ex.name, ex.note) for ex in source.values()]
