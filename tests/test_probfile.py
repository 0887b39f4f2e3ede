import json
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from retard_oc.cost import evaluate_cost
from retard_oc.errors import ProblemFileError
from retard_oc.probfile import (parse_expression, parse_problem,
                                parse_value_function)
from retard_oc.registry import LD_COST, make_d_value_function, make_ld_candidate
from retard_oc.solve import TranscriptionConfig, solve_direct_euler
from retard_oc.dde import IntegratorConfig

LD_FILE = textwrap.dedent("""\
    # scalar benchmark in declarative form
    problem ld-from-file
    kind state-linear
    horizon a = 0  b = 4
    delays r = 2  s = 1
    dims n = 1  m = 1
    control-set all
    A[0,0] = 1
    AD[0,0] = 1
    g[0] = 0
    gD[0] = -10*v0
    f0x = x0
    f0u = 100*u0^2
    phi[0] = 1
    psi[0] = 0
    """)


def test_parse_benchmark_file():
    problem = parse_problem(LD_FILE)
    assert problem.name == "ld-from-file"
    assert (problem.a, problem.b, problem.r, problem.s) == (0, 4, 2, 1)
    assert problem.dynamics(0.0, [1.0], [1.0], [0.0], [0.5])[0] == pytest.approx(-3.0)
    cost = evaluate_cost(problem, make_ld_candidate(), 512)
    assert cost == pytest.approx(LD_COST, abs=1e-9)


def test_parsed_partials_are_exact():
    problem = parse_problem(LD_FILE)
    np.testing.assert_allclose(problem.f0x_dx(0.7, [2.0], [3.0]), [1.0])
    np.testing.assert_allclose(problem.f0x_dy(0.7, [2.0], [3.0]), [0.0])


def test_file_problem_is_solvable():
    problem = parse_problem(LD_FILE)
    sol = solve_direct_euler(problem,
                             TranscriptionConfig(n_steps=400, grad_tol=1e-8),
                             IntegratorConfig(substeps_per_cell=8))
    assert abs(sol.cost - LD_COST) <= 0.1


def test_polynomial_coefficients_and_box():
    text = textwrap.dedent("""\
        problem time-varying
        kind state-linear
        horizon a = 0  b = 2
        delays r = 1  s = 1/2
        dims n = 1  m = 1
        control-set box lo = -1 hi = 1
        A[0,0] = 0.5*t^2 - 1
        AD[0,0] = 0
        g[0] = t*u0 + u0^2
        gD[0] = 0
        f0x = x0^2 + y0^2 + t*x0*y0
        f0u = u0^2 + v0^2
        phi[0] = 1 + t
        psi[0] = 0
        """)
    problem = parse_problem(text)
    assert problem.lattice().h == Fraction(1, 2)
    assert problem.A(2.0)[0, 0] == pytest.approx(1.0)
    assert problem.g(2.0, np.array([3.0]))[0] == pytest.approx(15.0)
    assert problem.f0x(2.0, [1.0], [2.0]) == pytest.approx(1 + 4 + 4)
    assert problem.phi(-0.5)[0] == pytest.approx(0.5)
    assert not problem.control_set.is_free
    np.testing.assert_allclose(problem.control_set.project(np.array([3.0])), [1.0])


@pytest.mark.parametrize("mangle,expect_line", [
    (("f0u = 100*u0^2", "f0u = 100*u0^^2"), 13),
    (("f0x = x0", "f0x = x0 + u0"), 12),
    (("A[0,0] = 1", "A[7,0] = 1"), None),      # range error, file-level
    (("dims n = 1  m = 1", "dims n = 1"), None),
])
def test_malformed_lines_report_position(mangle, expect_line):
    bad = LD_FILE.replace(*mangle)
    with pytest.raises(ProblemFileError) as err:
        parse_problem(bad)
    if expect_line is not None:
        assert err.value.line == expect_line


def test_unknown_field_rejected():
    bad = LD_FILE + "Q[0] = 1\n"
    with pytest.raises(ProblemFileError, match="unknown field"):
        parse_problem(bad)


def test_kind_must_be_state_linear():
    bad = LD_FILE.replace("kind state-linear", "kind nonlinear")
    with pytest.raises(ProblemFileError, match="state-linear"):
        parse_problem(bad)


def test_expression_language():
    expr = parse_expression("2*t^3 - t/2 + exp(2*t)", {"t"})
    t = 0.7
    assert expr.eval({"t": t}) == pytest.approx(2 * t ** 3 - t / 2 + np.exp(2 * t))
    dexpr = expr.diff("t")
    assert dexpr.eval({"t": t}) == pytest.approx(6 * t ** 2 - 0.5 + 2 * np.exp(2 * t))


def test_value_function_file_matches_registry():
    vf = textwrap.dedent("""\
        value-function
        dims n = 1
        piece 2 3
        eta[0] = (2*exp(4 - t) - 2*exp(t - 2))/(exp(2) + 1)
        c = (4*exp(2)*(t - 3) + 5*(exp(2*t - 4) - exp(8 - 2*t)))/(2*(exp(2) + 1)^2)
        """)
    S = parse_value_function(vf)
    S0 = make_d_value_function()
    for t in (2.0, 2.4, 2.9):
        for x in (0.6, 1.0):
            assert S.value(t, [x]) == pytest.approx(S0.value(t, [x]), abs=1e-12)
            assert S.dt(t, [x]) == pytest.approx(S0.dt(t, [x]), abs=1e-12)
            assert S.dx(t, [x])[0] == pytest.approx(S0.dx(t, [x])[0], abs=1e-12)


# -- the expression language: trees, rejections, fuzzing ------------------------

ALL_NAMES = {"t", "x0", "y0", "u0", "v0"}
TREES = json.loads((Path(__file__).parent / "data" / "expression_trees.json")
                   .read_text(encoding="utf-8"))
F0U_LINE = 13


@pytest.mark.parametrize("text", sorted(TREES))
def test_expression_trees_are_unchanged(text):
    # every expression in the tests, the README and the benchmark's ld file,
    # mapped to the tree the hand-written recursive-descent parser built
    assert repr(parse_expression(text, ALL_NAMES)) == TREES[text]


@pytest.mark.parametrize("text", [
    "100*u0^^2", "t^-1", "t^2^2", "2**3**2", "t^(2)", "t^2.0", "1e3*t", "0x10",
    "1_0", "1j", ".5", "3.", "2t", "t.x", "t[0]", "f(t)", "abs(t)", "exp()",
    "exp(t, t)", "exp(t,)", "(exp)(t)", "exp", "t < 1", "t if t else 1",
    "lambda: 1", "'a'", "", "u0 + !"])
def test_rejected_expressions_carry_their_line(text):
    with pytest.raises(ProblemFileError):
        parse_expression(text, ALL_NAMES | {"f", "abs", "exp"})
    with pytest.raises(ProblemFileError) as err:
        parse_problem(LD_FILE.replace("f0u = 100*u0^2", f"f0u = {text}"))
    assert err.value.line == F0U_LINE


@pytest.mark.parametrize("text,tree", [
    ("--t", "Mul(a=Const(value=-1.0), b=Mul(a=Const(value=-1.0), b=Var(name='t')))"),
    ("((((t))))", "Var(name='t')"),
    ("+-+t", "Mul(a=Const(value=-1.0), b=Var(name='t'))"),
    ("t ^ 007", "Pow(base=Var(name='t'), exponent=7)"),
    ("-t**2", "Mul(a=Const(value=-1.0), b=Pow(base=Var(name='t'), exponent=2))"),
    ("t\t-\n2", "Add(a=Var(name='t'), b=Const(value=-2.0))"),
])
def test_accepted_edge_expressions(text, tree):
    assert repr(parse_expression(text, {"t"})) == tree


def test_deep_nesting_is_a_file_error():
    deep = "(" * 300 + "x0" + ")" * 300
    with pytest.raises(ProblemFileError) as err:
        parse_problem(LD_FILE.replace("f0x = x0", f"f0x = {deep}"))
    assert err.value.line == 12


_FIELD_LINES = [i for i, line in enumerate(LD_FILE.splitlines())
                if "=" in line and line.split()[0] not in
                ("horizon", "delays", "dims")]
# str.splitlines() breaks at these, so they cannot sit inside one line
_ONE_LINE = st.text(st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"))


def _parses_or_raises(parse, text):
    try:
        parse(text)
    except ProblemFileError as err:
        return err
    return None


@settings(max_examples=300, deadline=None)
@given(index=st.sampled_from(_FIELD_LINES), rhs=_ONE_LINE)
@example(index=11, rhs="(" * 300 + "x0" + ")" * 300)    # f0x
@example(index=12, rhs="-" * 3000 + "u0")               # f0u
@example(index=12, rhs="+".join(["u0"] * 5000))
def test_any_field_text_parses_or_names_its_line(index, rhs):
    lines = LD_FILE.splitlines()
    lines[index] = lines[index].split("=")[0] + "= " + rhs
    err = _parses_or_raises(parse_problem, "\n".join(lines))
    assert err is None or err.line == index + 1


_LINES = st.one_of(
    st.sampled_from(LD_FILE.splitlines()
                    + ["value-function", "piece 0 1", "piece 1/0 2", "eta[0] = t",
                       "eta[0,1] = t", "c = 2*t", "control-set box lo = - hi = 1",
                       "control-set box lo = 1 2 hi = 0"]),
    st.builds("{} {}".format,
              st.sampled_from(["problem", "kind", "horizon", "delays", "dims",
                               "control-set", "piece", "eta[0] =", "c =", "f0x ="]),
              _ONE_LINE),
    _ONE_LINE)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(), st.lists(_LINES, max_size=20).map("\n".join)))
@example(text="value-function\npiece 0 1e400\nc = t")
@example(text="value-function\npiece 0 1\neta[0,1] = t")
@example(text=LD_FILE.replace("b = 4", "b = " + "9" * 400))
@example(text=LD_FILE.replace("control-set all", "control-set box lo = 1 2 hi = 0"))
def test_any_text_parses_or_raises_a_file_error(text):
    for parse in (parse_problem, parse_value_function):
        err = _parses_or_raises(parse, text)
        assert err is None or err.line is None or 1 <= err.line <= len(text.splitlines())
