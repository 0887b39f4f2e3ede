from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from retard_oc.probfile import parse_expression
from retard_oc.problems import (CandidateSolution, ControlSet, TerminalSet,
                                as_delayed, int_power, validate_candidate)
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
