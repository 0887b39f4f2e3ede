import json
import re
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from retard_oc import numdiff, probfile
from retard_oc.cost import evaluate_cost
from retard_oc.errors import ProblemFileError
from retard_oc.probfile import (parse_expression, parse_problem,
                                parse_value_function)
from retard_oc.registry import (D_COST, LD_COST, d_adjoint_value, make_d_value_function,
                                make_ld_candidate)
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


def test_file_problem_solves_on_exact_partials(monkeypatch):
    # every partial the direct solver needs is declared by the parser, so no
    # finite difference is taken, and the Euler objective is the one the
    # finite-difference control partials gave to 1e-12
    def refuse(*args, **kwargs):
        raise AssertionError("finite differences taken")

    monkeypatch.setattr(numdiff, "jacobian", refuse)
    monkeypatch.setattr(numdiff, "gradient", refuse)
    sol = solve_direct_euler(parse_problem(LD_FILE),
                             TranscriptionConfig(n_steps=2000, max_iterations=200,
                                                 grad_tol=1e-9),
                             IntegratorConfig(substeps_per_cell=16))
    assert sol.converged and sol.iterations == 3
    assert sol.discrete_objective == pytest.approx(67.34803688247537, rel=1e-12)


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
    (("A[0,0] = 1", "A[7,0] = 1"), None),      # line 8: see test_shapes_are_checked_at_parse_time
    (("dims n = 1  m = 1", "dims n = 1"), None),
])
def test_malformed_lines_report_position(mangle, expect_line):
    bad = LD_FILE.replace(*mangle)
    with pytest.raises(ProblemFileError) as err:
        parse_problem(bad)
    if expect_line is not None:
        assert err.value.line == expect_line


@pytest.mark.parametrize("scalar", ["1e3", "1e10000000", "0x10"])
@pytest.mark.parametrize("where", ["piece", "box"])
def test_scalars_outside_the_grammar_are_refused(scalar, where):
    # refused by spelling, before any arithmetic: 1e10000000 never becomes a
    # ten-million-digit power
    if where == "piece":
        text, line = f"value-function\npiece 0 {scalar}\nc = t\n", 2
        parse = parse_value_function
    else:
        text = LD_FILE.replace("control-set all", f"control-set box lo = -1 hi = {scalar}")
        line, parse = 7, parse_problem
    with pytest.raises(ProblemFileError) as err:
        parse(text)
    assert err.value.line == line
    assert where == "box" or "bad scalar" in str(err.value)


@pytest.mark.parametrize("line", ["horizon a = 0  b = 4e0", "delays r = 2  s = 0x1",
                                  "dims n = 1  m = 1e3", "dims n = 1/2  m = 1",
                                  "dims n = 0  m = 1", "horizon a = 0  b = +4 c"])
def test_scalar_lines_are_read_whole(line):
    keyword = line.split()[0]
    old = next(raw for raw in LD_FILE.splitlines() if raw.startswith(keyword))
    with pytest.raises(ProblemFileError) as err:
        parse_problem(LD_FILE.replace(old, line))
    assert err.value.line == LD_FILE.splitlines().index(old) + 1


def test_signed_scalars_are_read():
    problem = parse_problem(LD_FILE.replace("b = 4", "b = +4").replace(
        "control-set all", "control-set box lo = -1/2 hi = +0.5"))
    assert problem.b == 4
    np.testing.assert_array_equal(problem.control_set.lo, [-0.5])


def test_shapes_are_checked_at_parse_time():
    with pytest.raises(ProblemFileError) as err:
        parse_value_function("value-function\ndims n = 1\npiece 0 1\neta[3] = t\n")
    assert err.value.line == 4
    with pytest.raises(ProblemFileError) as err:
        parse_problem(LD_FILE.replace("control-set all",
                                      "control-set box lo = -1 -1 hi = 1 1"))
    assert err.value.line == 7
    for old, new, line in (("A[0,0] = 1", "A[7,0] = 1", 8), ("A[0,0] = 1", "A[0] = 1", 8),
                           ("psi[0] = 0", "psi[0,0] = 0", 15)):
        with pytest.raises(ProblemFileError, match="out of range") as err:
            parse_problem(LD_FILE.replace(old, new))
        assert err.value.line == line
    # a later dims line cannot shrink the shapes the entries were checked against
    with pytest.raises(ProblemFileError, match="twice") as err:
        parse_problem(LD_FILE.replace("psi[0] = 0", "psi[0] = 0\ndims n = 1  m = 1"))
    assert err.value.line == LD_FILE.splitlines().index("psi[0] = 0") + 2


def test_value_function_time_derivative_is_differentiated_once(monkeypatch):
    text = ("value-function\ndims n = 2\npiece 0 1\neta[0] = t^2 - 1/t\n"
            "eta[1] = exp(2*t)\nc = 3*t - t^3\n")
    c_t, eta0_t, eta1_t = (parse_expression(src, {"t"}).diff("t")
                           for src in ("3*t - t^3", "t^2 - 1/t", "exp(2*t)"))
    S = parse_value_function(text)

    def refuse(self, var):
        raise AssertionError("differentiated on evaluation")

    for cls in (probfile.Const, probfile.Var, probfile.Add, probfile.Mul,
                probfile.Div, probfile.Pow, probfile.ExpFn):
        monkeypatch.setattr(cls, "diff", refuse)
    x = np.array([1.5, -0.7])
    for t in (0.25, 0.5, 0.9):
        env = {"t": t}
        expected = c_t.eval(env)
        expected += eta0_t.eval(env) * x[0]
        expected += eta1_t.eval(env) * x[1]
        assert S.dt(t, x) == expected


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
    # the registry's S is parsed from value-function text, so it is checked
    # against oracles of its own: the closed-form adjoint for S_x, a central
    # difference of S for S_t, and the known cost for -S(0, phi)
    S = make_d_value_function()
    h = 1e-5
    for lo in (0, 1, 2):
        for t in (lo + 0.1, lo + 0.5, lo + 0.9):
            for x in (0.6, 1.0):
                assert S.dx(t, [x])[0] == pytest.approx(d_adjoint_value(t), abs=1e-12)
                slope = (S.value(t + h, [x]) - S.value(t - h, [x])) / (2 * h)
                assert S.dt(t, [x]) == pytest.approx(slope, abs=1e-8)
    assert -S.value(0.0, [1.0]) == pytest.approx(D_COST, abs=1e-12)


def _pieces(*bounds: str) -> str:
    """A value-function text with one ``piece LO HI`` line per bound pair,
    on lines 2, 4, 6, ..."""
    return "value-function\n" + "".join(f"piece {b}\nc = t\n" for b in bounds)


@pytest.mark.parametrize("bounds, line", [
    (("1 0",), 2),
    (("1 1",), 2),
    (("0 1", "0 1"), 4),
    (("0 2", "1 3"), 4),
    (("1 3", "0 2"), 2),
    (("0 1", "2 3"), 4),
    (("0 1/3", "0.3333333333333333 1"), 4),
], ids=["reversed", "empty", "duplicate", "overlapping", "overlapping-unsorted",
        "gapped", "float-gap"])
def test_value_function_pieces_must_tile_an_interval(bounds, line):
    with pytest.raises(ProblemFileError) as err:
        parse_value_function(_pieces(*bounds))
    assert err.value.line == line


def test_value_function_reads_each_time_on_its_piece():
    # pieces in any order; a time is read on the first piece whose upper
    # bound exceeds it, else on the last, so a shared bound belongs to the
    # right piece and times outside the pieces to the nearest end piece
    S = parse_value_function("value-function\npiece 1 2\nc = 20 + t\neta[0] = t\n"
                             "piece 0 1/2\nc = 0\npiece 1/2 1\nc = 10\n"
                             "piece 2 3\nc = 30 + exp(t)\n")
    ts = np.array([-1.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
    X = np.full((len(ts), 1), 2.0)
    expected = [0.0, 0.0, 0.0, 10.0, 23.0, 24.5] + [30 + np.exp(t) for t in ts[6:]]
    assert S.S.many(ts, X).tolist() == expected
    assert S.S_t.many(ts, X).tolist() == [0.0] * 4 + [3.0, 3.0] + np.exp(ts[6:]).tolist()
    assert S.S_x.many(ts, X)[:, 0].tolist() == [0.0] * 4 + [1.0, 1.5] + [0.0] * 3


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


def _names_by_union(expr) -> set:
    """Variable names as a new set at every node, unioned up the tree."""
    if isinstance(expr, probfile.Var):
        return {expr.name}
    return set().union(*(_names_by_union(v) for v in vars(expr).values()
                         if isinstance(v, probfile.Expr)))


@pytest.mark.parametrize("text", sorted(TREES))
def test_the_variables_walk_collects_every_name(text):
    expr = parse_expression(text, ALL_NAMES)
    assert expr.variables() == _names_by_union(expr)
    extra = sorted(_names_by_union(expr) - {"t"})
    if extra:
        message = f"variables {extra} not allowed here (allowed: ['t'])"
        with pytest.raises(ProblemFileError, match=re.escape(message)) as err:
            parse_expression(text, {"t"}, line=7)
        assert err.value.line == 7 and str(err.value).endswith(message)


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


def _pow_diff_with_first_powers(self, var):
    """``Pow.diff`` building d(x^2) as 2 * Pow(x, 1): the reference tree."""
    if self.exponent == 0:
        return probfile.Const(0.0)
    return probfile.mul(probfile.mul(probfile.Const(float(self.exponent)),
                                     probfile.Pow(self.base, self.exponent - 1)
                                     if self.exponent != 1 else probfile.Const(1.0)),
                        self.base.diff(var))


@pytest.mark.parametrize("text,var,squares_only", [
    ("100*u0^2", "u0", True),
    ("x0^2 + t*y1^2 + x1*y0/5", "y1", True),
    ("u0^2 + 3*v1^2 - u1*v0", "v1", True),
    ("(t - 2*u0)^2*u0 + u0^3", "u0", False),
    ("exp(-t)*u0^2", "u0", False),
])
def test_a_squares_derivative_reads_its_base_with_the_same_values(text, var, squares_only,
                                                                   monkeypatch):
    # x ** 1 is x exactly, so the base itself replaces Pow(x, 1), whose
    # array evaluation is a pass of libm pow
    names = {"t", "u0", "u1", "v0", "v1", "x0", "x1", "y0", "y1"}
    expr = parse_expression(text, names)
    lean = expr.diff(var)
    monkeypatch.setattr(probfile.Pow, "diff", _pow_diff_with_first_powers)
    reference = expr.diff(var)
    assert "exponent=1)" in repr(reference)
    assert "exponent=1)" not in repr(lean)
    if squares_only:
        assert "Pow" not in repr(lean)
    rng = np.random.default_rng(0)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -2.2e-308]
    values = np.concatenate([rng.normal(size=200) * 10.0 ** rng.integers(-5, 5, 200),
                             special * 3])
    env = {name: rng.permutation(values) for name in names}
    with np.errstate(all="ignore"):
        got, want = lean.eval(env), reference.eval(env)
    np.testing.assert_array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# -- the constant fold: variable-free subtrees as the floats they evaluate to ---

def _variable_free_nodes(expr):
    """Every node of ``expr`` that reads no variable and is not a Const."""
    kids = [v for v in vars(expr).values() if isinstance(v, probfile.Expr)]
    here = [] if expr.variables() or isinstance(expr, probfile.Const) else [expr]
    return here + [node for kid in kids for node in _variable_free_nodes(kid)]


def test_a_folded_partial_evaluates_bit_for_bit_like_its_tree():
    # d/dv1 of (1/2) v1^2 keeps d(1/2) = 0/(2*2) times v1^2; folded, the Div
    # nodes are Consts and nothing else changes: 0 * inf is still NaN
    names = {"u0", "u1", "v0", "v1"}
    tree = parse_expression("u0^2 + (1/2)*v1^2 - u1*v0", names).diff("v1")
    assert _variable_free_nodes(tree)
    folded, = probfile.fold(tree)
    assert _variable_free_nodes(folded) == []
    assert "Div" not in repr(folded) and "Pow" in repr(folded)
    rng = np.random.default_rng(1)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310]
    values = np.concatenate([rng.normal(size=500) * 10.0 ** rng.integers(-8, 8, 500),
                             special * 4])
    env = {name: rng.permutation(values) for name in names}
    with np.errstate(all="ignore"):
        got, want = folded.eval(env), tree.eval(env)
    assert got.tobytes() == want.tobytes()


def test_file_fields_and_partials_are_folded_at_parse_time(monkeypatch):
    seen, fold = [], probfile.fold

    def record(*exprs, memo=None):
        out = fold(*exprs, memo=memo)
        seen.extend(out)
        return out
    monkeypatch.setattr(probfile, "fold", record)
    problem = parse_problem(LD_FILE.replace("f0u = 100*u0^2", "f0u = (1/2)*u0^2 + 1/4*v0"))
    assert seen and all(_variable_free_nodes(e) == [] for e in seen)
    assert problem.f0u_du(0.0, np.array([3.0]), np.array([1.0])).tolist() == [3.0]
    assert problem.f0u_dv(0.0, np.array([3.0]), np.array([1.0])).tolist() == [0.25]


@pytest.mark.parametrize("text", ["1/0 + t", "exp(1000)*2 + t", "(2*t)^1 + exp(800)^2"])
def test_a_subtree_that_fails_or_overflows_is_not_folded(text):
    # such a subtree is kept, so evaluating the tree raises or warns as before
    tree = parse_expression(text, {"t"})
    folded, = probfile.fold(tree)
    assert repr(folded) == repr(tree) and _variable_free_nodes(tree)


def test_value_functions_evaluate_bit_for_bit_unfolded(monkeypatch):
    # the registry's value function and a perturbed one, at times on every
    # piece (bounds included) and outside them, with and without the fold
    ts = np.concatenate([np.linspace(-0.5, 3.5, 401), [0.0, 1.0, 2.0, 3.0]])
    X = np.random.default_rng(2).normal(size=(len(ts), 1)) * 3.0
    outputs = []
    for folding in (True, False):
        if not folding:
            monkeypatch.setattr(probfile, "fold", lambda *exprs, memo=None: list(exprs))
        for S in (make_d_value_function(), make_d_value_function(1.1, 1.0)):
            outputs.append([fn.many(ts, X).tobytes() for fn in (S.S, S.S_t, S.S_x)])
    assert outputs[:2] == outputs[2:]


def test_value_function_skips_pieces_that_own_no_rows(monkeypatch):
    # only the pieces owning a time are evaluated
    S = parse_value_function("value-function\npiece 0 1\nc = t\npiece 1 2\nc = 2*t\n"
                             "piece 2 3\nc = 3*t\n")
    evaluated = []
    const_eval = probfile.Const.eval
    monkeypatch.setattr(probfile.Const, "eval",
                        lambda self, env: evaluated.append(self.value) or const_eval(self, env))
    assert S.S.many(np.array([0.5, 2.5]), np.zeros((2, 1))).tolist() == [0.5, 7.5]
    assert sorted(set(evaluated)) == [3.0]
