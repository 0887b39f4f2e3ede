"""The registry's problems, written as problem-file text, against the model
code they replace.

``REFERENCES`` keeps, verbatim, the hand-written definitions the registry
had before its problems were parsed from text: every field and every
declared partial as an array lambda.  The parsed problems must give the
same bytes for every field and partial, through ``model_arrays`` and
``model_partials``, on seeded random rows.  The hand-written zero-delayed
problem declared no partial, so there the parsed exact partials are
compared with the finite differences the reference falls back to.
"""

import contextlib
import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from retard_oc import numdiff
from retard_oc.errors import NoConvergenceError
from retard_oc.dde import IntegratorConfig, integrate_adjoint_linear, integrate_adjoint_nonlinear
from retard_oc.problems import (MODEL_FIELDS, ControlSet, DelayedProblem, StateLinearProblem,
                                TerminalSet, array_field, dynamics_array, field_layout,
                                int_power, model_arrays, model_partials, running_cost_array)
from retard_oc.registry import REGISTRY
from retard_oc.solve import TranscriptionConfig, solve_direct_euler

# -- the hand-written definitions, as the registry had them --------------------------


def _constant(value):
    """A model field equal to ``value`` whatever its arguments."""
    value = np.array(value, dtype=float)
    return array_field(lambda ts, *args: np.full((len(ts),) + value.shape, value))


def ref_ld_problem() -> StateLinearProblem:
    return StateLinearProblem(
        a=Fraction(0), b=Fraction(4), r=Fraction(2), s=Fraction(1),
        n=1, m=1,
        A=_constant([[1.0]]),
        A_D=_constant([[1.0]]),
        g=_constant([0.0]),
        g_D=array_field(lambda ts, V: -10.0 * V[:, :1]),
        f0x=array_field(lambda ts, X, Y: X[:, 0]),
        f0u=array_field(lambda ts, U, V: 100.0 * int_power(U[:, 0], 2)),
        phi=_constant([1.0]),
        psi=_constant([0.0]),
        control_set=ControlSet.free(1),
        f0x_dx=_constant([1.0]),
        f0x_dy=_constant([0.0]),
        g_du=_constant([[0.0]]), gD_dv=_constant([[-10.0]]),
        f0u_du=array_field(lambda ts, U, V: 200.0 * U[:, :1]),
        f0u_dv=_constant([0.0]),
        name="ocp-ld-paper",
    )


def ref_d_problem() -> DelayedProblem:
    return DelayedProblem(
        a=Fraction(0), b=Fraction(3), r=Fraction(1), s=Fraction(2),
        n=1, m=1,
        f0=array_field(lambda ts, X, Y, U, V: int_power(X[:, 0], 2)
                       + int_power(U[:, 0], 2)),
        f=array_field(lambda ts, X, Y, U, V: Y[:, :1] * V[:, :1]),
        phi=_constant([1.0]),
        psi=_constant([0.0]),
        g0=lambda x: 0.0,
        control_set=ControlSet.free(1),
        terminal_set=TerminalSet.free(1),
        f_dx=_constant([[0.0]]),
        f_dy=array_field(lambda ts, X, Y, U, V: V[:, :1, None]),
        f_du=_constant([[0.0]]),
        f_dv=array_field(lambda ts, X, Y, U, V: Y[:, :1, None]),
        f0_dx=array_field(lambda ts, X, Y, U, V: 2.0 * X[:, :1]),
        f0_dy=_constant([0.0]),
        f0_du=array_field(lambda ts, X, Y, U, V: 2.0 * U[:, :1]),
        f0_dv=_constant([0.0]),
        g0_grad=lambda x: np.array([0.0]),
        name="ocp-d-goellmann",
    )


def ref_zero_problem() -> DelayedProblem:
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


def _inert_dynamics_problem(name: str, **costs) -> StateLinearProblem:
    """A = A_D = 0 and g = g_D = 0: the state is pinned to its history value
    whatever the control does.  ``costs`` replace fields of the running
    cost f0x = x, f0u = 0."""
    fields = dict(f0x=array_field(lambda ts, X, Y: X[:, 0]),
                  f0x_dx=_constant([1.0]), f0u=_constant(0.0), f0u_du=_constant([0.0]))
    return StateLinearProblem(
        a=Fraction(0), b=Fraction(2), r=Fraction(1), s=Fraction(1), n=1, m=1,
        A=_constant([[0.0]]), A_D=_constant([[0.0]]),
        g=_constant([0.0]), g_D=_constant([0.0]),
        phi=_constant([1.0]), psi=_constant([0.0]), f0x_dy=_constant([0.0]),
        g_du=_constant([[0.0]]), gD_dv=_constant([[0.0]]), f0u_dv=_constant([0.0]),
        name=name, **{**fields, **costs})


def ref_drift_problem() -> StateLinearProblem:
    """Uncontrollable state with a pure control-energy cost."""
    return _inert_dynamics_problem(
        "drift-linear",
        f0u=array_field(lambda ts, U, V: int_power(U[:, 0], 2)),
        f0u_du=array_field(lambda ts, U, V: 2.0 * U[:, :1]))


def ref_inert_problem() -> StateLinearProblem:
    """Neither the dynamics nor the cost see the control."""
    return _inert_dynamics_problem("inert-linear")


def ref_concave_problem() -> StateLinearProblem:
    """Concave running state cost: the convexity hypothesis fails and
    nothing else does."""
    return _inert_dynamics_problem(
        "concave-cost",
        f0x=array_field(lambda ts, X, Y: -int_power(X[:, 0], 2)),
        f0x_dx=array_field(lambda ts, X, Y: -2.0 * X[:, :1]))


REFERENCES = {"ocp-ld-paper": ref_ld_problem, "ocp-d-goellmann": ref_d_problem,
              "zero-delayed": ref_zero_problem, "drift-linear": ref_drift_problem,
              "inert-linear": ref_inert_problem, "concave-cost": ref_concave_problem}

# -- the parsed problems against them -----------------------------------------------


def _rows(p, K: int, seed: int) -> tuple:
    """K seeded times over the state history and horizon, and K rows of each
    of x, y, u, v, scaled so that large and small values both occur."""
    rng = np.random.default_rng(seed)
    ts = rng.uniform(float(p.state_history_start), float(p.b), K)
    dims = {"x": p.n, "y": p.n, "u": p.m, "v": p.m}
    return ts, {w: rng.normal(size=(K, d)) * 10.0 ** rng.integers(-3, 4, size=(K, 1))
                for w, d in dims.items()}


def _same(got, want, what: str) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), what


def test_every_registry_problem_has_a_reference():
    assert sorted(REFERENCES) == sorted(REGISTRY)


@pytest.mark.parametrize("name", list(REFERENCES))
def test_the_problems_settings_are_the_references(name):
    got, want = REGISTRY[name].make_problem(), REFERENCES[name]()
    assert type(got) is type(want)
    for key in ("a", "b", "r", "s", "n", "m", "name", "control_set"):
        assert getattr(got, key) == getattr(want, key), key
    assert getattr(got, "terminal_set", None) == getattr(want, "terminal_set", None)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", list(REFERENCES))
def test_every_field_and_partial_is_the_references_bit_for_bit(name, seed):
    got, want = REGISTRY[name].make_problem(), REFERENCES[name]()
    ts, rows = _rows(got, 257, seed)
    compared = 0
    for field in MODEL_FIELDS:
        if getattr(want, field, None) is None:
            continue   # not a field of this class, or left to finite differences
        slots = [rows[w] for w, _ in field_layout(field, got.n, got.m)[0]]
        (g,), (w,) = model_arrays(got, field), model_arrays(want, field)
        _same(g(ts, *slots), w(ts, *slots), field)
        for k in range(0, len(ts), 64):   # a scalar call is the array form on one row
            _same(getattr(got, field)(ts[k], *(s[k] for s in slots)),
                  getattr(want, field)(ts[k], *(s[k] for s in slots)), f"{field} at row {k}")
        compared += 1
    assert compared >= 4   # phi, psi and at least the running cost and the dynamics
    args = (ts,) + tuple(rows[w] for w in "xyuv")
    _same(dynamics_array(got)(*args), dynamics_array(want)(*args), "dynamics")
    _same(running_cost_array(got)(*args), running_cost_array(want)(*args), "running cost")
    for k in range(0, len(ts), 64):
        row = (ts[k],) + tuple(rows[w][k] for w in "xyuv")
        _same(got.dynamics(*row), want.dynamics(*row), f"dynamics at row {k}")
        _same(got.running_cost(*row), want.running_cost(*row), f"running cost at row {k}")
        _same(got.terminal_cost(rows["x"][k]), want.terminal_cost(rows["x"][k]), "g0")


@pytest.mark.parametrize("name", list(REFERENCES))
def test_the_resolved_partials_are_the_references_bit_for_bit(name):
    # on zero-delayed the reference's partials are central differences of
    # zero fields, the parsed ones exact zeros: both are +0.0 everywhere
    got, want = REGISTRY[name].make_problem(), REFERENCES[name]()
    ts, rows = _rows(got, 33, 2)
    args = (ts,) + tuple(rows[w] for w in "xyuv")
    (got_f0, got_f, got_g0), (want_f0, want_f, want_g0) = model_partials(got), model_partials(want)
    for kind, gs, ws in (("f0", got_f0, want_f0), ("f", got_f, want_f)):
        for w, g, r in zip("xyuv", gs, ws):
            _same(g(*args), r(*args), f"d{kind}/d{w}")
    if want_g0 is not None:
        for x in rows["x"][:5]:
            _same(got_g0(x), want_g0(x), "g0 gradient")


@pytest.fixture
def no_differences(monkeypatch):
    """Every first-order finite difference, including the terminal cost's,
    goes through ``numdiff.jacobian``: refuse it."""
    def refuse(*args, **kwargs):
        raise AssertionError("finite difference taken")
    monkeypatch.setattr(numdiff, "jacobian", refuse)
    monkeypatch.setattr(numdiff, "central_scalar", refuse)


@pytest.mark.parametrize("name", list(REGISTRY))
def test_no_registry_problem_takes_a_finite_difference(name, no_differences):
    example = REGISTRY[name]
    problem, cand = example.make_problem(), example.make_candidate()
    integrator = IntegratorConfig(substeps_per_cell=4)
    costate = (integrate_adjoint_linear if isinstance(problem, StateLinearProblem)
               else integrate_adjoint_nonlinear)
    costate(problem, cand, integrator)
    with contextlib.suppress(NoConvergenceError):   # three gradients are enough
        solve_direct_euler(problem, TranscriptionConfig(n_steps=4 * problem.lattice().n_cells,
                                                        max_iterations=3), integrator)


def test_the_spy_sees_a_finite_difference(no_differences):
    # the same runs on a problem whose partials are left out do take one
    problem = dataclasses.replace(REGISTRY["ocp-d-goellmann"].make_problem(), f_dy=None)
    with pytest.raises(AssertionError, match="finite difference taken"):
        integrate_adjoint_nonlinear(problem, REGISTRY["ocp-d-goellmann"].make_candidate(),
                                    IntegratorConfig(substeps_per_cell=4))


def test_a_registry_problem_is_parsed_once():
    example = REGISTRY["ocp-d-goellmann"]
    assert example.make_problem() is example.make_problem()
