from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from retard_oc.numdiff import grad_scalar_slot, partial_vec_slot
from retard_oc.probfile import parse_expression, parse_problem
from retard_oc.problems import (CandidateSolution, ControlSet, DelayedProblem,
                                StateLinearProblem, TerminalSet, as_delayed, int_power,
                                model_arrays, model_partials, validate_candidate)
from retard_oc.registry import make_d_problem, make_ld_candidate, make_ld_problem
from retard_oc.trajectory import from_pieces


def test_control_set_free():
    u_set = ControlSet.free(2)
    assert u_set.is_free
    u = np.array([5.0, -3.0])
    np.testing.assert_array_equal(u_set.project(u), u)
    assert u_set.contains(u)


def test_control_set_box():
    u_set = ControlSet.box([-1.0, 0.0], [1.0, 2.0])
    np.testing.assert_allclose(u_set.project(np.array([5.0, -3.0])), [1.0, 0.0])
    assert u_set.contains(np.array([0.5, 1.0]))
    assert not u_set.contains(np.array([1.5, 1.0]))
    with pytest.raises(ValueError):
        ControlSet.box([1.0], [0.0])


def test_box_samples_stay_inside(rng):
    u_set = ControlSet.box([-1.0], [1.0])
    for _ in range(50):
        assert u_set.contains(u_set.sample(rng, np.array([0.0])))


def test_terminal_set():
    free = TerminalSet.free(1)
    assert free.contains(np.array([42.0]))
    fixed = TerminalSet.fixed([1.5])
    assert fixed.contains(np.array([1.5 + 1e-12]))
    assert not fixed.contains(np.array([1.6]))


def test_history_conventions():
    ld = make_ld_problem()
    assert ld.state_history_start == ld.a - ld.r
    d = make_d_problem()
    assert d.state_history_start == d.a - d.r - d.s
    assert d.control_history_start == d.a - d.s


def test_as_delayed_composes_dynamics(ld_problem):
    p = as_delayed(ld_problem)
    args = (0.5, np.array([2.0]), np.array([1.0]), np.array([0.1]),
            np.array([0.2]))
    np.testing.assert_allclose(p.f(*args), ld_problem.dynamics(*args))
    assert p.f0(*args) == pytest.approx(ld_problem.running_cost(*args))
    np.testing.assert_allclose(p.f_dx(*args), [[1.0]])
    np.testing.assert_allclose(p.f_dy(*args), [[1.0]])
    assert as_delayed(p) is p


def test_validate_candidate_accepts_benchmark(ld_problem, ld_candidate):
    validate_candidate(ld_problem, ld_candidate)


def test_validate_candidate_rejects_box_violation(ld_problem, ld_candidate):
    narrow = replace(ld_problem, control_set=ControlSet.box([-0.01], [0.01]))
    with pytest.raises(ValueError, match="admissible"):
        validate_candidate(narrow, ld_candidate)


def test_validate_candidate_checks_terminal_set(d_problem, d_candidate):
    validate_candidate(d_problem, d_candidate)
    pinned = replace(d_problem, terminal_set=TerminalSet.fixed([0.0]))
    with pytest.raises(ValueError, match="terminal"):
        validate_candidate(pinned, d_candidate)


def test_validate_candidate_requires_coverage(ld_problem):
    state = from_pieces(1, [(0, 4, lambda t: [1.0])], main_start=0)
    control = from_pieces(1, [(Fraction(-1), 4, lambda t: [0.0])], main_start=0)
    with pytest.raises(ValueError, match="state"):
        validate_candidate(ld_problem, CandidateSolution(state, control))


# -- the model interface: f, f0 and g0 of either class ---------------------------

# A two-state problem with a time-varying, non-symmetric A, read from a file
# (array forms of expression trees).
TIME_VARYING = """\
problem time-varying
kind state-linear
horizon a = 0  b = 2
delays r = 1  s = 1/2
dims n = 2  m = 1
A[0,0] = exp(-t)
A[0,1] = t^2 - 1
A[1,0] = exp(t)/3
AD[0,1] = 0.5*t
AD[1,1] = -1
g[0] = u0^2
g[1] = t*u0
gD[1] = v0^3 - 1
f0x = x0^2 + x1*y0 + t*y1
f0u = u0^2 + u0*v0
phi[0] = 1 + t
phi[1] = t^2
psi[0] = t
"""


def _plain_problem() -> StateLinearProblem:
    """A two-state problem of plain callables: no field declares an array form."""
    return StateLinearProblem(
        a=0, b=2, r=1, s=Fraction(1, 2), n=2, m=1,
        A=lambda t: np.array([[t, 1.0], [-2.0, 0.5]]),
        A_D=lambda t: np.array([[0.0, t], [1.0, 0.0]]),
        g=lambda t, u: np.array([u[0] ** 2, -u[0]]), g_D=lambda t, v: np.array([0.0, 3.0 * v[0]]),
        f0x=lambda t, x, y: float(x @ x + t * y[1]), f0u=lambda t, u, v: float(u[0] * v[0] + u @ u),
        phi=lambda t: np.array([1.0, t]), psi=lambda t: np.array([t]))


STATE_LINEAR = {"ld": make_ld_problem, "time-varying": lambda: parse_problem(TIME_VARYING),
                "plain": _plain_problem}


def _reference_f(p):
    """The dynamics over K times from the state-linear fields: A x + A_D y +
    g + g_D, in that order, one call of each array form."""
    A, A_D, g, g_D = model_arrays(p, "A", "A_D", "g", "g_D")
    return lambda ts, x, y, u, v: ((A(ts) @ x[:, :, None] + A_D(ts) @ y[:, :, None])[:, :, 0]
                                   + g(ts, u) + g_D(ts, v))


def _reference_f0(p):
    """The running cost over K times: f0x + f0u, one call of each array form."""
    f0x, f0u = model_arrays(p, "f0x", "f0u")
    return lambda ts, x, y, u, v: f0x(ts, x, y) + f0u(ts, u, v)


def _model_rows(p, K: int, seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    return (rng.uniform(float(p.a), float(p.b), K),) + tuple(
        rng.normal(size=(K, p.n if w in "xy" else p.m)) for w in "xyuv")


@pytest.mark.parametrize("name", list(STATE_LINEAR))
def test_a_state_linear_f_and_f0_are_the_field_formulas_bit_for_bit(name):
    p = STATE_LINEAR[name]()
    args = _model_rows(p, 9, 4)
    f, f0 = model_arrays(p, "f", "f0")
    want_f, want_f0 = _reference_f(p)(*args), _reference_f0(p)(*args)
    assert f(*args).tobytes() == want_f.tobytes()
    assert f0(*args).tobytes() == want_f0.tobytes()
    for k in range(9):   # a scalar call is the reference's row
        row = tuple(arg[k] for arg in args)
        assert p.dynamics(*row).tobytes() == want_f[k].tobytes()
        assert np.float64(p.running_cost(*row)).tobytes() == want_f0[k].tobytes()
        assert p.terminal_cost(row[1]) == p.g0(row[1]) == 0.0


def test_the_derived_fields_are_built_once_per_problem():
    p = make_ld_problem()
    assert p.f is p.f and p.f0 is p.f0
    twice = replace(p, A=lambda t: np.array([[2.0]]))
    assert twice.f is not p.f and twice.f0 is not p.f0
    args = (0.5, np.array([3.0]), np.array([1.0]), np.array([0.0]), np.array([0.0]))
    assert (p.f(*args).tolist(), twice.f(*args).tolist()) == ([4.0], [7.0])


def test_a_state_linear_problems_differences_are_those_of_its_model():
    # no partial declared: every partial the model does not give exactly (A
    # and A_D are its state Jacobians) is a central difference of the
    # running cost f0x + f0u or of the dynamics, as for a general problem
    p = _plain_problem()
    general = DelayedProblem(a=p.a, b=p.b, r=p.r, s=p.s, n=p.n, m=p.m, f0=p.f0, f=p.f,
                             phi=p.phi, psi=p.psi)
    ts, *rows = _model_rows(p, 5, 6)
    dynamics = lambda *row: _reference_f(p)(np.array([row[0]]), *(
        np.reshape(w, (1, -1)) for w in row[1:]))[0]
    running_cost = lambda t, x, y, u, v: float(p.f0x(float(t), x, y)) + float(p.f0u(float(t), u, v))
    (f0_d, f_d, _), (general_f0_d, general_f_d, _) = model_partials(p), model_partials(general)
    for k in range(4):
        want = np.array([grad_scalar_slot(running_cost, k + 1, (t, *(w[i] for w in rows)))
                         for i, t in enumerate(ts)])
        assert f0_d[k](ts, *rows).tobytes() == want.tobytes()
        assert general_f0_d[k](ts, *rows).tobytes() == want.tobytes()
    for k in (2, 3):   # the u and v slots; x and y are A and A_D
        want = np.array([partial_vec_slot(dynamics, k + 1, (t, *(w[i] for w in rows)), p.n)
                         for i, t in enumerate(ts)])
        assert f_d[k](ts, *rows).tobytes() == want.tobytes()
        assert general_f_d[k](ts, *rows).tobytes() == want.tobytes()


def test_both_classes_hold_the_model_methods_in_their_own_dict():
    # the benchmark's tracer times the per-time model calls by rebinding each
    # class's own dynamics and running_cost (through vars(cls)); a method only
    # inherited from a shared base would be skipped without a word, and the
    # guards that these calls are never made would pass whatever the code does
    for name in ("dynamics", "running_cost", "terminal_cost"):
        assert vars(StateLinearProblem)[name] is vars(DelayedProblem)[name]


# -- integer powers: Python's float power, in one array pass --------------------

POWER_EDGES = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
               2.2250738585072014e-308, -1e-310, 1e-200, -1e-160, 1.0, -1.0]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_int_power_is_pythons_float_power(k):
    # random bit patterns, so every exponent is drawn; kept finite and
    # below overflow for k (underflow to subnormals and to zero included)
    rng = np.random.default_rng(k)
    values = rng.integers(-2 ** 63, 2 ** 63 - 1, size=1_800_000, dtype=np.int64).view(float)
    values = values[np.isfinite(values) & (np.abs(values) < 2.0 ** (1020 // k))]
    values = np.concatenate([values[:1_000_000], POWER_EDGES])
    assert len(values) == 1_000_000 + len(POWER_EDGES)
    got = int_power(values, k)
    want = np.array([v ** k for v in values.tolist()])
    assert got.tobytes() == want.tobytes()   # NaN payloads and sign bits included


@pytest.mark.parametrize("k", [0, 1])
def test_int_power_low_exponents(k):
    values = np.array(POWER_EDGES)
    assert int_power(values, k).tobytes() == np.array([v ** k for v in POWER_EDGES]).tobytes()


def test_an_overflowing_power_raises_as_pythons_does(ld_problem, d_problem):
    # Python's float power raises OverflowError; the array pass does too,
    # without a RuntimeWarning (those are errors in this suite)
    with pytest.raises(OverflowError):
        int_power(np.array([1.0, -1e200]), 2)
    with pytest.raises(OverflowError):
        ld_problem.f0u(0.0, np.array([1e160]), np.array([0.0]))
    with pytest.raises(OverflowError):
        d_problem.f0(0.0, np.array([1e200]), np.array([0.0]), np.array([0.0]),
                     np.array([0.0]))
    with pytest.raises(OverflowError):
        parse_expression("u0^2", {"u0"}).eval({"u0": np.array([0.5, 1e155])})
    assert int_power(np.array([np.inf]), 2).tolist() == [np.inf]   # no overflow
