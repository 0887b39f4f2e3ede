"""Array forms of model fields and registry curves: the registry's and the
problem files' own forms, the loop adapter for plain scalar callables, and
the consumers that call a field once per array of times."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retard_oc.cost import evaluate_cost
from retard_oc.dde import (IntegratorConfig, integrate_adjoint_linear,
                           integrate_forward)
from retard_oc.probfile import parse_problem
from retard_oc.problems import StateLinearProblem, array_form, batched, model_arrays
from retard_oc import registry, solve
from retard_oc.registry import (REGISTRY, d_control_value, d_feedback,
                                make_d_value_function, make_ld_candidate,
                                make_ld_problem)
from retard_oc.solve import SweepConfig, solve_fbsm
from retard_oc.sufficiency import (VerifyConfig, argmax_control_state_linear,
                                   check_continuity_spot, check_convexity_f0x,
                                   check_maximality, verify_nonlinear_hj,
                                   verify_state_linear)
from retard_oc.trajectory import CallableCurve, Segment

FIELDS = ("A", "A_D", "g", "g_D", "f0x", "f0u", "f0x_dx", "f0x_dy", "phi", "psi")


def _scalar_ld() -> StateLinearProblem:
    """ocp-ld-paper restated with plain scalar lambdas, no array forms."""
    return StateLinearProblem(
        a=Fraction(0), b=Fraction(4), r=Fraction(2), s=Fraction(1), n=1, m=1,
        A=lambda t: np.array([[1.0]]), A_D=lambda t: np.array([[1.0]]),
        g=lambda t, u: np.array([0.0]), g_D=lambda t, v: np.array([-10.0 * v[0]]),
        f0x=lambda t, x, y: float(x[0]), f0u=lambda t, u, v: 100.0 * float(u[0]) ** 2,
        phi=lambda t: np.array([1.0]), psi=lambda t: np.array([0.0]),
        f0x_dx=lambda t, x, y: np.array([1.0]), f0x_dy=lambda t, x, y: np.array([0.0]),
        name="ocp-ld-paper")


def test_scalar_ld_declares_no_array_form():
    p = _scalar_ld()
    assert not any(hasattr(getattr(p, f), "many") for f in FIELDS)
    assert all(hasattr(getattr(make_ld_problem(), f), "many") for f in FIELDS)


def test_scalar_only_ld_gives_the_native_bits():
    native, scalar = make_ld_problem(), _scalar_ld()
    cfg = SweepConfig(integrator=IntegratorConfig(16))
    a, b = solve_fbsm(native, None, cfg), solve_fbsm(scalar, None, cfg)
    ts = np.linspace(0.0, 4.0, 401)
    assert (repr(a.cost), a.iterations) == (repr(b.cost), b.iterations)
    assert np.array_equal(a.control.eval_many(ts), b.control.eval_many(ts))
    cand = make_ld_candidate()
    assert repr(evaluate_cost(native, cand)) == repr(evaluate_cost(scalar, cand))
    vcfg = VerifyConfig(integrator=IntegratorConfig(16))
    assert (verify_state_linear(native, cand, vcfg).to_text()
            == verify_state_linear(scalar, cand, vcfg).to_text())


# a changed value for each field, as a plain scalar callable
VARIANTS = {
    "A": lambda t: np.array([[0.5]]),
    "A_D": lambda t: np.array([[0.25 + 0.1 * t]]),
    "g": lambda t, u: np.array([0.1 * u[0]]),
    "g_D": lambda t, v: np.array([-5.0 * v[0]]),
    "f0x": lambda t, x, y: 2.0 * float(x[0]) + 0.5 * float(y[0]) ** 2,
    "f0u": lambda t, u, v: 50.0 * float(u[0]) ** 2 + t,
    "f0x_dx": lambda t, x, y: np.array([2.0]),
    "f0x_dy": lambda t, x, y: np.array([0.5]),
    "phi": lambda t: np.array([1.0 + 0.1 * t]),
    "psi": lambda t: np.array([0.05]),
}


def _consumer_outputs(problem):
    """What each array-form consumer computes, as exact reprs and bytes."""
    integ, cand = IntegratorConfig(4), make_ld_candidate()
    times = [Fraction(j, 4) for j in range(16)]
    eta = integrate_adjoint_linear(problem, cand, integ)
    ts = np.linspace(0.0, 4.0, 81)
    return [integrate_forward(problem, cand.control, integ).eval_many(ts).tobytes(),
            eta.eval_many(ts).tobytes(),
            argmax_control_state_linear(problem, cand, eta, times).tobytes(),
            repr(check_maximality(problem, cand, eta, grid_points_per_cell=4)),
            repr(evaluate_cost(problem, cand, 16)),
            repr(check_continuity_spot(problem, samples=12)),
            repr(check_convexity_f0x(problem, cand, pairs=50))]


@pytest.mark.parametrize("field", FIELDS)
def test_a_replaced_field_is_honoured_by_every_consumer(field):
    # the native array form must leave with the callable it travels with
    native = dataclasses.replace(make_ld_problem(), **{field: VARIANTS[field]})
    scalar = dataclasses.replace(_scalar_ld(), **{field: VARIANTS[field]})
    got = _consumer_outputs(native)
    assert got == _consumer_outputs(scalar)
    assert got != _consumer_outputs(make_ld_problem())


def _counting(problem, names):
    """``problem`` with each named field's array form counting its calls."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        fn = getattr(problem, name)

        def many(*args):
            calls[name] += 1
            return fn.many(*args)
        return batched(lambda *args: fn(*args), many)
    return dataclasses.replace(problem, **{name: counted(name) for name in names}), calls


def test_each_model_term_is_one_array_form_call_per_integration():
    # ld has four cells; a resolver run cell by cell calls each term once
    # per cell, four times
    terms = ("A", "A_D", "g", "g_D", "f0x", "f0u", "f0x_dx", "f0x_dy")
    problem, calls = _counting(make_ld_problem(), terms)
    cand, integ = make_ld_candidate(), IntegratorConfig(8)

    def calls_of(run, *called):
        calls.update(dict.fromkeys(terms, 0))
        run()
        assert calls == {term: int(term in called) for term in terms}

    calls_of(lambda: integrate_forward(problem, cand.control, integ), "A", "A_D", "g", "g_D")
    # the slot partials of the costate: d2 f = A, d3 f = A_D, and f0x's
    calls_of(lambda: integrate_adjoint_linear(problem, cand, integ),
             "A", "A_D", "f0x_dx", "f0x_dy")
    calls_of(lambda: evaluate_cost(problem, cand, 64), "f0x", "f0u")


# -- every declared array form equals the loop adapter -------------------------------

# every expression node: Div, Pow at several exponents, exp, t in each field
FILE_NO_EXP = """\
problem every-node
kind state-linear
horizon a = 0  b = 2
delays r = 1/2  s = 1/2
dims n = 2  m = 2
A[0,0] = -1 + t/4
A[0,1] = 1/2 - t^3
A[1,0] = (1 + t)/(2 + t^2)
AD[1,1] = 1/3
g[0] = u0 - t*u1^3
g[1] = u1/3
gD[1] = 2*v0 - t*v1^2
f0x = x0^2 + t*y1^4 + x1*y0/5
f0u = u0^2 + (1/2)*v1^2 - u1*v0
phi[0] = 1
phi[1] = t^2
psi[0] = 0
psi[1] = t
"""
FILE_EXP = """\
problem with-exp
kind state-linear
horizon a = 0  b = 2
delays r = 1/2  s = 1/2
dims n = 2  m = 1
A[1,0] = exp(-t)
AD[0,0] = 1/3
g[0] = exp(t/2)*u0
gD[1] = v0
f0x = x0^2 + exp(t/3)*y1^2
f0u = exp(-t)*u0^2 + v0^2
phi[0] = exp(t)
phi[1] = 1
psi[0] = 0
"""
# every field of a parsed problem and of a registry state-linear problem
# carries an array form
FILE_FIELDS = FIELDS + ("g_du", "gD_dv", "f0u_du", "f0u_dv")
# the fields of the Goellmann problem, which all declare one: the running
# cost, the dynamics and the slot partials of (t, x, y, u, v), then the
# histories
SLOT_FIELDS = ("f0", "f", "f_dx", "f_dy", "f_du", "f_dv", "f0_dx", "f0_dy", "f0_du", "f0_dv")
GENERAL_FIELDS = SLOT_FIELDS + ("phi", "psi")


def _signature(problem, field):
    """Shape of the field's value and the (K, dim) arguments after t."""
    n, m = problem.n, problem.m
    shapes = {"A": (n, n), "A_D": (n, n), "g": (n,), "g_D": (n,), "f0x": (),
              "f0u": (), "f0x_dx": (n,), "f0x_dy": (n,), "phi": (n,), "psi": (m,),
              "g_du": (n, m), "gD_dv": (n, m), "f0u_du": (m,), "f0u_dv": (m,),
              "f0": (), "f": (n,), "f_dx": (n, n), "f_dy": (n, n), "f_du": (n, m), "f_dv": (n, m),
              "f0_dx": (n,), "f0_dy": (n,), "f0_du": (m,), "f0_dv": (m,)}
    args = {"g": (m,), "g_D": (m,), "g_du": (m,), "gD_dv": (m,), "f0x": (n, n),
            "f0x_dx": (n, n), "f0x_dy": (n, n), "f0u": (m, m), "f0u_du": (m, m),
            "f0u_dv": (m, m)}
    return shapes[field], args.get(field, (n, n, m, m) if field in SLOT_FIELDS else ())


def _draw(problem, field, data):
    """Times and arguments for ``field``, drawn by hypothesis."""
    _, dims = _signature(problem, field)
    k = data.draw(st.integers(0, 6))
    values = st.floats(-3.0, 3.0, allow_nan=False)
    ts = np.array(data.draw(st.lists(st.floats(-1.0, 3.0), min_size=k, max_size=k)))
    return ts, [np.array(data.draw(st.lists(values, min_size=k * d, max_size=k * d)))
                .reshape(k, d) for d in dims]


def _sample(problem, field, k=2000, seed=0):
    """``k`` seeded times and arguments for ``field``: enough values that a
    last-bit difference in one per thousand shows."""
    _, dims = _signature(problem, field)
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 3.0, k), [rng.uniform(-3.0, 3.0, (k, d)) for d in dims]


# The registry writes each model field once, as its array form; these are
# the scalar formulas it wrote next to them before, kept here verbatim as
# the reference those array forms must give bit for bit.
_INERT_F0X = lambda t, x, y: float(x[0])
SCALAR_REFERENCE = {
    "ocp-ld-paper": {
        "g_D": lambda t, v: np.array([-10.0 * v[0]]),
        "f0x": lambda t, x, y: float(x[0]),
        "f0u": lambda t, u, v: 100.0 * float(u[0]) ** 2,
        "f0u_du": lambda t, u, v: np.array([200.0 * float(u[0])]),
    },
    "ocp-d-goellmann": {
        "f0": lambda t, x, y, u, v: float(x[0]) ** 2 + float(u[0]) ** 2,
        "f": lambda t, x, y, u, v: np.array([float(y[0]) * float(v[0])]),
        "f_dy": lambda t, x, y, u, v: np.array([[float(v[0])]]),
        "f_dv": lambda t, x, y, u, v: np.array([[float(y[0])]]),
        "f0_dx": lambda t, x, y, u, v: np.array([2.0 * float(x[0])]),
        "f0_du": lambda t, x, y, u, v: np.array([2.0 * float(u[0])]),
    },
    "inert-linear": {"f0x": _INERT_F0X},
    "drift-linear": {
        "f0x": _INERT_F0X,
        "f0u": lambda t, u, v: float(u[0]) ** 2,
        "f0u_du": lambda t, u, v: np.array([2.0 * float(u[0])]),
    },
    "concave-cost": {
        "f0x": lambda t, x, y: -float(x[0]) ** 2,
        "f0x_dx": lambda t, x, y: np.array([-2.0 * float(x[0])]),
    },
}
D_FEEDBACK_REFERENCE = lambda t, x, y, eta: np.array([d_control_value(t)])


def _compare_with_loop(problem, field, ts, args):
    """The field's array form against a loop of its own scalar calls and,
    for a registry field, a loop of its scalar reference formula."""
    fn = getattr(problem, field)
    assert hasattr(fn, "many"), field
    shape, _ = _signature(problem, field)
    native = array_form(fn, shape)(ts, *args)
    for scalar in (fn, SCALAR_REFERENCE.get(problem.name, {}).get(field, fn)):
        loop = array_form(lambda *a: scalar(*a), shape)(ts, *args)   # no .many: the loop
        assert native.shape == loop.shape == (len(ts),) + shape
        assert native.tobytes() == loop.tobytes(), field


REGISTRY_LINEAR = [name for name, ex in REGISTRY.items()
                   if isinstance(ex.make_problem(), StateLinearProblem)]


def test_four_registry_problems_are_state_linear():
    assert sorted(REGISTRY_LINEAR) == ["concave-cost", "drift-linear",
                                       "inert-linear", "ocp-ld-paper"]


@pytest.mark.parametrize("name", REGISTRY_LINEAR)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_registry_array_forms_are_the_loop_bit_for_bit(name, data):
    problem = REGISTRY[name].make_problem()
    field = data.draw(st.sampled_from(FILE_FIELDS))
    _compare_with_loop(problem, field, *_draw(problem, field, data))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_probfile_array_forms_are_the_loop_bit_for_bit(data):
    problem = parse_problem(FILE_NO_EXP)
    field = data.draw(st.sampled_from(FILE_FIELDS))
    _compare_with_loop(problem, field, *_draw(problem, field, data))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_probfile_array_forms_with_exp_are_the_loop_bit_for_bit(data):
    # a parsed field's scalar call is its array form on one row, so numpy's
    # exp runs on arrays on both paths
    problem = parse_problem(FILE_EXP)
    field = data.draw(st.sampled_from(FILE_FIELDS))
    _compare_with_loop(problem, field, *_draw(problem, field, data))


@pytest.mark.parametrize("field", ["S", "S_t", "S_x"])
def test_value_function_array_forms_are_the_scalar_calls_bit_for_bit(field):
    fn = getattr(make_d_value_function(), field)
    assert hasattr(fn, "many"), field
    rng = np.random.default_rng(0)
    ts, X = rng.uniform(-0.5, 3.5, 2000), rng.uniform(0.0, 2.0, (2000, 1))
    shape = (1,) if field == "S_x" else ()
    native = array_form(fn, shape)(ts, X)
    assert native.tobytes() == array_form(lambda *a: fn(*a), shape)(ts, X).tobytes()


@pytest.mark.parametrize("problem", [REGISTRY[name].make_problem() for name in
                                     REGISTRY_LINEAR + ["ocp-d-goellmann"]]
                         + [parse_problem(FILE_NO_EXP), parse_problem(FILE_EXP)],
                         ids=REGISTRY_LINEAR + ["ocp-d-goellmann", "every-node", "with-exp"])
def test_array_forms_are_the_loop_on_a_large_sample(problem):
    # numpy's square and Python's float power differ in about one value
    # in a thousand: a few random draws would not see a form built on the
    # wrong one
    for field in GENERAL_FIELDS if problem.name == "ocp-d-goellmann" else FILE_FIELDS:
        _compare_with_loop(problem, field, *_sample(problem, field))


def test_feedback_array_form_is_the_scalar_reference_on_a_large_sample():
    rng = np.random.default_rng(0)
    ts = np.concatenate([rng.uniform(-2.5, 3.5, 2000), np.arange(-2.0, 4.0)])
    X, Y, ETA = rng.uniform(-3.0, 3.0, (3, len(ts), 1))
    native = array_form(d_feedback, (1,))(ts, X, Y, ETA)
    for scalar in (d_feedback, D_FEEDBACK_REFERENCE):
        loop = array_form(lambda *a: scalar(*a), (1,))(ts, X, Y, ETA)
        assert native.tobytes() == loop.tobytes()


def test_model_arrays_shapes_on_empty_and_full_time_arrays():
    p = parse_problem(FILE_NO_EXP)
    A, g, f0x = model_arrays(p, "A", "g", "f0x")
    assert A(np.array([])).shape == (0, 2, 2)
    assert g(np.zeros(3), np.ones((3, 2))).shape == (3, 2)
    assert f0x(np.zeros(4), np.ones((4, 2)), np.ones((4, 2))).shape == (4,)


# -- the registry's closed forms and curves ------------------------------------------

ORACLES = ("ld_state_value", "ld_control_value", "ld_adjoint_value", "d_state_value",
           "d_control_value", "d_eta1", "d_eta2", "d_eta3", "d_adjoint_value")


@pytest.mark.parametrize("name", ORACLES)
def test_an_oracle_on_an_array_is_the_oracle_on_each_float(name):
    oracle = getattr(registry, name)
    rng = np.random.default_rng(0)
    # every breakpoint of every branch chain, exactly
    ts = np.concatenate([rng.uniform(-3.0, 5.0, 2000), np.arange(-3.0, 5.0)])
    floats = [oracle(float(t)) for t in ts]
    assert all(type(v) is float for v in floats)
    assert type(oracle(np.float64(0.5))) is float
    assert oracle(ts).tobytes() == np.array(floats).tobytes()


def _sweep_zero_start(monkeypatch):
    """The control the sweep starts from when given none."""
    starts, cell_trajectory = [], solve.cell_trajectory

    def recorded(*args, **kwargs):
        starts.append(cell_trajectory(*args, **kwargs))
        return starts[-1]
    monkeypatch.setattr(solve, "cell_trajectory", recorded)
    solve_fbsm(make_ld_problem(), None, SweepConfig(integrator=IntegratorConfig(4)))
    return starts[0]


REGISTRY_CURVES = {
    "ld state": lambda: registry.make_ld_candidate().state,
    "ld control": lambda: registry.make_ld_candidate().control,
    "d state": lambda: registry.make_d_candidate().state,
    "d control": lambda: registry.make_d_candidate().control,
    "ld adjoint": registry.make_ld_adjoint_trajectory,
    "d adjoint": registry.make_d_adjoint_trajectory,
    "ld bumped control": lambda: registry.make_ld_bumped_candidate().control,
    "ld shifted adjoint": lambda: registry.make_ld_shifted_adjoint().trajectory,
    "d zeroed control": lambda: registry.make_d_zeroed_candidate().control,
    "zero state": lambda: registry.make_zero_candidate().state,
    "zero control": lambda: registry.make_zero_candidate().control,
    **{f"{name} rest {part}": (lambda name=name, part=part: getattr(
        REGISTRY[name].make_candidate(), part))
       for name in ("drift-linear", "inert-linear", "concave-cost")
       for part in ("state", "control")},
}


@pytest.mark.parametrize("curve", list(REGISTRY_CURVES) + ["sweep zero start"])
def test_every_registry_curve_is_its_array_form_bit_for_bit(curve, monkeypatch):
    traj = (_sweep_zero_start(monkeypatch) if curve == "sweep zero start"
            else REGISTRY_CURVES[curve]())
    rng = np.random.default_rng(0)
    for seg in traj.segments:
        fn = seg.curve.fn
        assert hasattr(fn, "many"), (curve, seg.lo)
        ts = rng.uniform(float(seg.lo), float(seg.hi), 2000)
        scalar = np.array([np.asarray(fn(t), dtype=float).reshape(traj.dimension)
                           for t in ts])
        assert np.asarray(fn.many(ts), dtype=float).tobytes() == scalar.tobytes()


def _counted(fn, calls: list):
    """``fn`` with a scalar form that counts its calls into ``calls``, and
    ``fn``'s own array form if it declares one."""
    def scalar(*args):
        calls.append(args[0])
        return fn(*args)
    return batched(scalar, getattr(fn, "many", None))


def _counting_candidate(cand, calls: list):
    """``cand`` with every piece function of its state and control counted."""
    def counted(traj):
        return dataclasses.replace(traj, segments=tuple(
            Segment(s.lo, s.hi, CallableCurve(_counted(s.curve.fn, calls), traj.dimension))
            for s in traj.segments))
    return dataclasses.replace(cand, state=counted(cand.state), control=counted(cand.control))


def test_the_certificates_evaluate_the_closed_forms_through_their_array_forms(
        ld_problem, ld_candidate, d_problem, d_candidate):
    # no scalar call is left: the quadrature cost reads x(b) off its last
    # node, and a lookup of one time (the terminal check's x(b)) is the
    # array lookup on one row
    calls = []
    cert = verify_state_linear(ld_problem, _counting_candidate(ld_candidate, calls))
    assert cert.overall and len(calls) == 0
    calls.clear()
    cert = verify_nonlinear_hj(d_problem, _counting_candidate(d_candidate, calls),
                               make_d_value_function(), _counted(d_feedback, calls))
    assert cert.overall and len(calls) == 0
