"""Registered problems with closed-form solutions, plus small fixtures.

Two benchmarks carry full analytic data (state, control, adjoint, and for
the nonlinear one a verification function with its feedback law); they are
the oracles most of the test suite is written against.  The fixtures are
deliberately tiny problems that isolate a single behaviour.

Every problem is written once, as problem-file text
(:mod:`~retard_oc.probfile`) parsed at first use and then kept, so each
partial is differentiated exactly from its field.  Every curve and the
feedback law is written once, as its array form
(:func:`~retard_oc.problems.array_field`); a scalar call is the array form
on one row.  A closed form evaluates each of its branches only at the times
that branch owns (:func:`_branches`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .probfile import parse_problem, parse_value_function
from .problems import (CandidateSolution, DelayedProblem, StateLinearProblem, array_field,
                       model_arrays)
from .trajectory import Trajectory, from_pieces

E2 = math.exp(2.0)
E4 = math.exp(4.0)
E6 = math.exp(6.0)


def _elementwise(fn: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """A closed form written in numpy, elementwise in t: an array of times
    in gives an array out; a float in gives a Python float, the value on
    an array of one time."""
    @functools.wraps(fn)
    def oracle(t):
        if np.ndim(t) == 0:
            return float(fn(np.array([float(t)]))[0])
        return fn(np.asarray(t, dtype=float))
    return oracle


def _pieces(fn: Callable, *bounds) -> list:
    """``from_pieces`` pieces between each two consecutive ``bounds`` of
    the one-dimensional curve ``fn``, a closed form over an array of times
    or a constant, as a (K, 1) column."""
    curve = array_field(lambda ts: np.full(np.shape(ts), fn(np.asarray(ts, dtype=float)))[:, None])
    return [(lo, hi, curve) for lo, hi in zip(bounds, bounds[1:])]


# each problem text is parsed once per process; problems are frozen
_parsed = functools.cache(parse_problem)


# ---------------------------------------------------------------------------
# ocp-ld-paper: scalar state-linear benchmark with closed-form optimal pair
#
#   min  int_0^4  x(t) + 100 u(t)^2 dt
#   s.t. xdot = x(t) + x(t-2) - 10 u(t-1),  x = 1 on [-2, 0],  u = 0 on [-1, 0[
#
# Known minimal cost (23 + e^2 + 34 e^4 - 2 e^6) / 16 ~= 67.491786.
# ---------------------------------------------------------------------------

LD_COST = (23.0 + E2 + 34.0 * E4 - 2.0 * E6) / 16.0

LD_PROBLEM = """\
problem ocp-ld-paper
kind state-linear
horizon a = 0  b = 4
delays r = 2  s = 1
dims n = 1  m = 1
A[0,0] = 1
AD[0,0] = 1
gD[0] = -10*v0
f0x = x0
f0u = 100*u0^2
phi[0] = 1
"""


def make_ld_problem() -> StateLinearProblem:
    return _parsed(LD_PROBLEM)


def _branches(t: np.ndarray, cases, default) -> np.ndarray:
    """``np.select`` over ``cases``, (condition, form) pairs, each form (a constant or a
    closed form) evaluated only at the times it owns; ``default`` owns the rest (NaN)."""
    out, rest = np.empty(t.shape), np.ones(t.shape, dtype=bool)
    for cond, form in [*cases, (rest, default)]:
        own = rest & cond
        if own.any():   # else nothing is owned and nothing is left to remove
            out[own] = form(t[own]) if callable(form) else form
            rest &= ~cond
    return out


@_elementwise
def ld_adjoint_value(t):
    """Closed-form adjoint: solves etadot = 1 - eta - eta(t+2) on [0,2],
    etadot = 1 - eta on ]2,4], eta(4) = 0."""
    return _branches(t, [(t <= 2.0, lambda t: np.exp(2.0 - t) * (t - E2 - 1.0))],
                     lambda t: 1.0 - np.exp(4.0 - t))


@_elementwise
def ld_control_value(t):
    """Optimal control: -eta(t+1)/20 on [0,3], zero elsewhere."""
    return _branches(t, [(t < 0.0, 0.0),
                         (t < 1.0, lambda t: (np.exp(3.0 - t) - t * np.exp(1.0 - t)) / 20.0),
                         (t <= 3.0, lambda t: (np.exp(3.0 - t) - 1.0) / 20.0)], 0.0)


@_elementwise
def ld_state_value(t):
    """Optimal state, five pieces on [-2, 4]."""
    return _branches(t, [
        (t <= 0.0, 1.0), (t <= 1.0, lambda t: -1.0 + 2.0 * np.exp(t)),
        (t <= 2.0, lambda t: ((E2 + 2.0 * E4 - 2.0 * E2 * t) * np.exp(-t) - 8.0
                              + (17.0 - 2.0 * E2) * np.exp(t)) / 8.0),
        (t <= 3.0, lambda t: (2.0 * np.exp(4.0 - t) + 4.0
                              + (-47.0 / E2 + 17.0 - 2.0 * E2 + 16.0 * t / E2) * np.exp(t)) / 8.0)],
        lambda t: ((-E6 + E4 * t) * np.exp(-t) + 4.0
                   + (-51.0 / E2 + 24.0 - 2.0 * E2 + 17.0 * t / E2 - 2.0 * t) * np.exp(t)) / 8.0)


def make_ld_candidate() -> CandidateSolution:
    state = from_pieces(1, _pieces(lambda t: 1.0, -2, 0) + _pieces(ld_state_value, 0, 1, 2, 3, 4),
                        main_start=0, require_continuity=True)
    control = from_pieces(1, _pieces(lambda t: 0.0, -1, 0) + _pieces(ld_control_value, 0, 1, 3, 4),
                          main_start=0)
    return CandidateSolution(state=state, control=control, cost=LD_COST)


def make_ld_adjoint_trajectory() -> Trajectory:
    return from_pieces(1, _pieces(ld_adjoint_value, 0, 2, 4), main_start=0,
                       require_continuity=True)


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

D_PROBLEM = """\
problem ocp-d-goellmann
kind delayed
horizon a = 0  b = 3
delays r = 1  s = 2
dims n = 1  m = 1
f0 = x0^2 + u0^2
f[0] = y0*v0
phi[0] = 1
"""


def make_d_problem() -> DelayedProblem:
    return _parsed(D_PROBLEM)


@_elementwise
def d_state_value(t):
    return _branches(t, [(t <= 2.0, 1.0)], lambda t: (np.exp(t - 2.0) + np.exp(4.0 - t)) / _Q)


@_elementwise
def d_control_value(t):
    return _branches(t, [(t < 0.0, 0.0), (t <= 1.0, lambda t: (np.exp(t) - np.exp(2.0 - t)) / _Q)],
                     0.0)


@_elementwise
def d_eta1(t):
    return -2.0 * t + 5.0 + 2.0 * (E2 - 1.0) / _Q2


@_elementwise
def d_eta2(t):
    return (-(4.0 * E2 / _Q2 + 2.0) * t + 4.0 * (E2 - 1.0) / _Q2 + 6.0
            + (np.exp(2.0 * t - 2.0) - np.exp(6.0 - 2.0 * t)) / _Q2)


@_elementwise
def d_eta3(t):
    return 2.0 * (np.exp(4.0 - t) - np.exp(t - 2.0)) / _Q


@_elementwise
def d_adjoint_value(t):
    return _branches(t, [(t < 1.0, d_eta1), (t < 2.0, d_eta2)], d_eta3)


def make_d_candidate() -> CandidateSolution:
    state = from_pieces(1, _pieces(lambda t: 1.0, -3, 0) + _pieces(d_state_value, 0, 2, 3),
                        main_start=0, require_continuity=True)
    control = from_pieces(1, _pieces(lambda t: 0.0, -2, 0) + _pieces(d_control_value, 0, 1, 3),
                          main_start=0)
    return CandidateSolution(state=state, control=control, cost=D_COST)


def make_d_adjoint_trajectory() -> Trajectory:
    return from_pieces(1, _pieces(d_eta1, 0, 1) + _pieces(d_eta2, 1, 2) + _pieces(d_eta3, 2, 3),
                       main_start=0, require_continuity=True)


# Closed-loop control law for the nonlinear benchmark: the optimal control
# depends on time only, so the law is constant (and trivially smooth) in the
# state and multiplier arguments.
d_feedback = array_field(lambda ts, X, Y, ETA: d_control_value(ts)[:, None])

# the text of make_d_value_function; {scale} and {shift} perturb piece 3
D_VALUE_FUNCTION = """\
value-function
dims n = 1
piece 0 1
eta[0] = -2*t + 5 + (2*exp(2) - 2)/{q}^2
c = (2*t*(3*exp(4) + 4*exp(2) + 3) + exp(2*t) - exp(4 - 2*t) - 15*exp(4) - 32*exp(2) - 9)/(2*{q}^2)
piece 1 2
eta[0] = -(4*exp(2)/{q}^2 + 2)*t + (4*exp(2) - 4)/{q}^2 + 6 + (exp(2*t - 2) - exp(6 - 2*t))/{q}^2
c = (2*t*(3*exp(4) + 10*exp(2) + 3) + 2*(exp(6 - 2*t) - exp(2*t - 2)) - 17*exp(4) - 44*exp(2) - 7)/(2*{q}^2)
piece 2 3
eta[0] = {scale}*((2*exp(4 - t) - 2*exp(t - 2))/{q})
c = (4*exp(2)*(t - 3) + 5*(exp(2*t - 4) - exp(8 - 2*t)))/(2*{q}^2) + {shift}
""".replace("{q}", "(exp(2) + 1)")


def make_d_value_function(eta3_scale: float = 1.0, c3_shift: float = 0.0):
    """The verification function S(t, x) = eta_i(t) x + c_i(t) on [i - 1, i]
    (Goellmann, Kern & Maurer 2009), eta_i as in d_eta1..d_eta3.  A scaled
    eta_3 or a shifted c_3 gives the documented broken variants; the
    defaults, a factor 1 and a term 0, drop out of the parsed expressions.
    """
    number = lambda v: np.format_float_positional(v, trim="-")
    return parse_value_function(D_VALUE_FUNCTION.format(scale=number(eta3_scale),
                                                        shift=number(c3_shift)))


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def make_zero_problem() -> DelayedProblem:
    """No dynamics, no cost.  State stays at the history value."""
    return _parsed("""\
problem zero-delayed
kind delayed
horizon a = 0  b = 2
delays r = 1  s = 1
dims n = 1  m = 1
f0 = 0
phi[0] = 0.75
""")


# A = A_D = 0 and g = g_D = 0: the state is pinned to its history value
# whatever the control does; the running cost is {f0x} + {f0u}
INERT_DYNAMICS = """\
problem {name}
kind state-linear
horizon a = 0  b = 2
delays r = 1  s = 1
dims n = 1  m = 1
f0x = {f0x}
f0u = {f0u}
phi[0] = 1
"""


def make_drift_problem() -> StateLinearProblem:
    """Uncontrollable state with a pure control-energy cost."""
    return _parsed(INERT_DYNAMICS.format(name="drift-linear", f0x="x0", f0u="u0^2"))


def make_inert_problem() -> StateLinearProblem:
    """Neither the dynamics nor the cost see the control."""
    return _parsed(INERT_DYNAMICS.format(name="inert-linear", f0x="x0", f0u="0"))


def make_concave_problem() -> StateLinearProblem:
    """Concave running state cost: the convexity hypothesis fails and
    nothing else does."""
    return _parsed(INERT_DYNAMICS.format(name="concave-cost", f0x="-x0^2", f0u="0"))


def make_rest_candidate(problem, cost: Optional[float] = None) -> CandidateSolution:
    """x pinned at the history value, u identically zero, with ``cost``."""
    hist = float(model_arrays(problem, "phi")[0](np.array([float(problem.a)]))[0, 0])
    a, b = problem.a, problem.b
    return CandidateSolution(
        state=from_pieces(1, _pieces(lambda t: hist, problem.state_history_start, a, b),
                          main_start=a),
        control=from_pieces(1, _pieces(lambda t: 0.0, problem.control_history_start, a, b),
                            main_start=a), cost=cost)


def make_zero_candidate() -> CandidateSolution:
    return make_rest_candidate(make_zero_problem(), cost=0.0)


# ---------------------------------------------------------------------------
# perturbed variants used by the certificate soundness tests and the CLI
# ---------------------------------------------------------------------------

def make_ld_bumped_candidate(bump: float = 0.1) -> CandidateSolution:
    """Analytic pair with the control raised by ``bump`` on [1, 2)."""
    control = from_pieces(1, _pieces(lambda t: 0.0, -1, 0) + _pieces(ld_control_value, 0, 1)
                          + _pieces(lambda t: ld_control_value(t) + bump, 1, 2)
                          + _pieces(ld_control_value, 2, 3, 4), main_start=0)
    return CandidateSolution(state=make_ld_candidate().state, control=control)


def make_ld_shifted_adjoint(shift: float = 1.0):
    """Analytic adjoint plus a constant: breaks the terminal condition."""
    from .dde import AdjointTrajectory

    traj = from_pieces(1, _pieces(lambda t: ld_adjoint_value(t) + shift, 0, 2, 4),
                       main_start=0)
    return AdjointTrajectory(trajectory=traj, terminal_value=np.array([shift]))


def make_d_zeroed_candidate() -> CandidateSolution:
    """Analytic pair with the control zeroed on [0, 1)."""
    control = from_pieces(1, _pieces(lambda t: 0.0, -2, 0, 3), main_start=0)
    return CandidateSolution(state=make_d_candidate().state, control=control)


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


REGISTRY: dict[str, RegisteredExample] = {example.name: example for example in (
    RegisteredExample(
        "ocp-ld-paper", "state-linear benchmark with closed-form optimal pair and adjoint",
        make_problem=make_ld_problem,
        make_candidate=make_ld_candidate,
        make_adjoint=make_ld_adjoint_trajectory,
        known_cost=LD_COST,
    ),
    RegisteredExample(
        "ocp-d-goellmann",
        "nonlinear benchmark (Goellmann-type) with closed-form verification function",
        make_problem=make_d_problem,
        make_candidate=make_d_candidate,
        make_adjoint=make_d_adjoint_trajectory,
        make_value_function=make_d_value_function,
        feedback=d_feedback,
        known_cost=D_COST,
    ),
    RegisteredExample(
        "zero-delayed", "fixture: no dynamics, no cost",
        make_problem=make_zero_problem,
        make_candidate=make_zero_candidate,
        known_cost=0.0,
    ),
    RegisteredExample(
        "drift-linear", "fixture: uncontrollable state, control-energy cost",
        make_problem=make_drift_problem,
        make_candidate=lambda: make_rest_candidate(make_drift_problem()),
    ),
    RegisteredExample(
        "inert-linear", "fixture: cost constant in the control",
        make_problem=make_inert_problem,
        make_candidate=lambda: make_rest_candidate(make_inert_problem()),
    ),
    RegisteredExample(
        "concave-cost", "fixture: concave running state cost (convexity hypothesis fails)",
        make_problem=make_concave_problem,
        make_candidate=lambda: make_rest_candidate(make_concave_problem()),
    ),
)}


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
