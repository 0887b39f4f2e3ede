"""Declarative text format for state-linear problems and verification functions.

Problem files describe the expressible family: rational horizon and delays,
matrices with polynomial-in-t entries, control terms affine or quadratic in
the control with polynomial-in-t coefficients, costs as quadratic forms,
and polynomial histories.  The expression language also admits ``exp(...)``
so verification-function files can carry exponential pieces.  Anything
beyond the family is registered in code by name instead.

Problem file grammar (line oriented, ``#`` starts a comment)::

    problem NAME
    kind state-linear
    horizon a = 0  b = 4
    delays r = 2  s = 1
    dims n = 1  m = 1
    control-set all                 # or: control-set box lo = -1 hi = 1
    A[0,0]  = 1                     # entries default to 0; variables: t
    AD[0,0] = 1
    g[0]  = 0                       # variables: t, u0..u{m-1}
    gD[0] = -10*v0                  # variables: t, v0..v{m-1}
    f0x = x0                        # variables: t, x0.., y0..
    f0u = 100*u0^2                  # variables: t, u0.., v0..
    phi[0] = 1                      # variables: t
    psi[0] = 0

Value-function file grammar (pieces are affine in the state)::

    value-function
    dims n = 1
    piece 0 1                       # closed t-interval of the piece, LO < HI
    eta[0] = -2*t + 5
    c = 3*t - 1
    piece 1 2                       # starts where the piece before it ends
    ...

Scalars (horizon, delays, dims, box and piece bounds) are integers,
decimals or rationals like ``1/2``, with an optional sign; any other
spelling is refused with its line, as are indices outside ``dims``.

A parsed problem carries the exact partials of every field, differentiated
once with :meth:`Expr.diff`, so nothing falls back to finite differences.
Every field also carries its array form: :meth:`Expr.eval` reads float
arrays as it reads floats, so one walk of a tree evaluates it at all times,
and a scalar call is the array form on one row.
"""

from __future__ import annotations

import ast
import contextlib
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import IncommensurableDelayError, ProblemFileError
from .lattice import as_rational
from .problems import ControlSet, StateLinearProblem, array_field, int_power

# -- expression language -------------------------------------------------------

class Expr:
    def eval(self, env: dict):
        """The value at the variables of ``env``: floats, or float arrays of
        one length (then an array, or a float where no variable is read)."""
        raise NotImplementedError

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError

    def variables(self, names: Optional[set] = None) -> set:
        """Names of the variables the expression reads, added in one walk to one set."""
        names = set() if names is None else names
        if type(self) is Var:
            names.add(self.name)
        for v in vars(self).values():
            if isinstance(v, Expr):
                v.variables(names)
        return names


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def eval(self, env):
        return self.value

    def diff(self, var):
        return Const(0.0)


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def eval(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise ProblemFileError(f"unknown variable {self.name!r}") from None

    def diff(self, var):
        return Const(1.0 if var == self.name else 0.0)


def _is_const(e: Expr, v: Optional[float] = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr

    def eval(self, env):
        return self.a.eval(env) + self.b.eval(env)

    def diff(self, var):
        return add(self.a.diff(var), self.b.diff(var))


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr

    def eval(self, env):
        return self.a.eval(env) * self.b.eval(env)

    def diff(self, var):
        return add(mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var)))


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr

    def eval(self, env):
        return self.a.eval(env) / self.b.eval(env)

    def diff(self, var):
        return Div(add(mul(self.a.diff(var), self.b),
                       mul(Const(-1.0), mul(self.a, self.b.diff(var)))),
                   Mul(self.b, self.b))


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def eval(self, env):
        base = self.base.eval(env)
        # an array is raised as Python raises each of its floats (libm pow)
        return int_power(base, self.exponent) if type(base) is np.ndarray else base ** self.exponent

    def diff(self, var):
        if self.exponent == 0:
            return Const(0.0)
        # x ** 1 is x exactly: a square's derivative reads its base itself
        lowered = (Const(1.0) if self.exponent == 1 else self.base if self.exponent == 2
                   else Pow(self.base, self.exponent - 1))
        return mul(mul(Const(float(self.exponent)), lowered), self.base.diff(var))


@dataclass(frozen=True)
class ExpFn(Expr):
    arg: Expr

    def eval(self, env):
        value = np.exp(self.arg.eval(env))
        return value if isinstance(value, np.ndarray) else float(value)

    def diff(self, var):
        return mul(self, self.arg.diff(var))


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def fold(*exprs: Expr, memo: Optional[dict] = None) -> list:
    """Each of ``exprs`` with every variable-free subtree replaced, in one
    bottom-up pass, by the Const of the float it evaluates to in any
    evaluation (so bit for bit alike), unless that raises or is not finite;
    a subtree already walked with the same ``memo`` is not walked again."""
    memo = {} if memo is None else memo

    def walk(e: Expr) -> Expr:
        if type(e) not in (Const, Var) and id(e) not in memo:
            kids = {k: walk(v) for k, v in vars(e).items() if isinstance(v, Expr)}
            out = type(e)(**{**vars(e), **kids})
            if all(type(v) is Const for v in kids.values()):
                with contextlib.suppress(ArithmeticError):
                    value = float(out.eval({}))
                    out = Const(value) if np.isfinite(value) else out
            memo[id(e)] = (e, out)   # e held, so that its id is not reused
        return memo[id(e)][1] if id(e) in memo else e
    with np.errstate(all="ignore"):
        return [walk(e) for e in exprs]


_NUMBER = re.compile(r"\d+\.\d+|\d+")
_SYMBOLS = re.compile(r"[\w\s.()+\-*/]*", re.ASCII)
_BINARY = {ast.Add: add, ast.Sub: lambda a, b: add(a, mul(Const(-1.0), b)),
           ast.Mult: mul, ast.Div: Div}


def _build(node: ast.AST, src: str) -> Expr:
    """The :class:`Expr` of a node of ``ast.parse(src, mode="eval")``, built
    operands first, left to right; any other construct raises SyntaxError."""
    seg = src[node.col_offset:node.end_col_offset]   # src is one ASCII line
    if isinstance(node, ast.Constant) and _NUMBER.fullmatch(seg):
        return Const(float(seg))
    if isinstance(node, ast.Name) and node.id != "exp":
        return Var(node.id)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        x = _build(node.operand, src)
        return x if isinstance(node.op, ast.UAdd) else mul(Const(-1.0), x)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        # a bare integer literal: ast drops the parentheses of t^(2)
        exponent = src[node.right.col_offset:node.end_col_offset]
        if re.fullmatch(r"\d+", exponent):
            return Pow(_build(node.left, src), int(exponent))
    elif isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_build(node.left, src), _build(node.right, src))
    if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "exp"
            and seg.startswith("exp") and len(node.args) == 1 and not node.keywords):
        return ExpFn(_build(node.args[0], src))
    raise SyntaxError(f"unsupported {seg!r}")


def parse_expression(text: str, allowed: set, line: Optional[int] = None) -> Expr:
    r"""Read ``text`` with Python's parser (``^`` as ``**``) and keep only
    the expression language: numbers ``\d+`` and ``\d+\.\d+``, names in
    ``allowed``, ``+ - * /``, unary ``-`` and ``+``, ``^`` with an integer
    literal, parentheses and ``exp(...)``.  Anything else raises
    :class:`ProblemFileError` with ``line``."""
    src = " ".join(text.split()).replace("^", "**")
    src = re.sub(r"(?<![\w.])0+(?=\d)", "", src)   # Python rejects 007
    try:
        if not _SYMBOLS.fullmatch(src):
            raise SyntaxError("unsupported character")
        with warnings.catch_warnings():   # e.g. "invalid decimal literal" in 4if
            warnings.simplefilter("ignore")
            tree = ast.parse(src, mode="eval")
        expr = _build(tree.body, src)
        extra = expr.variables() - allowed
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        detail = getattr(exc, "msg", None) or type(exc).__name__
        raise ProblemFileError(f"cannot parse {text.strip()!r}: {detail}", line) from None
    if extra:
        raise ProblemFileError(
            f"variables {sorted(extra)} not allowed here (allowed: "
            f"{sorted(allowed)})", line)
    return expr


# -- problem files ---------------------------------------------------------------

_ASSIGN = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z_0-9]*)\s*"
    r"(?:\[(?P<idx>\d+(?:\s*,\s*\d+)?)\])?\s*=\s*(?P<rhs>.+)$")
_PAIR = re.compile(r"([a-z]+)\s*=\s*(\S+)")
_SCALAR = re.compile(r"[+-]?\d+(?:\.\d+|/\d+)?")   # integer, decimal or p/q


def _rational(val: str, line: int) -> Fraction:
    """``val`` as an exact rational; no exponent spelling is ever expanded."""
    if not _SCALAR.fullmatch(val):
        raise ProblemFileError(
            f"bad scalar {val!r} (use an integer, a decimal or p/q)", line)
    try:
        out = as_rational(val)
        float(out)   # bounds are used as floats
    except (IncommensurableDelayError, OverflowError) as exc:
        raise ProblemFileError(f"bad rational {val!r}", line) from exc
    return out


def _scalar_pairs(rest: str, line: int) -> dict:
    pairs = _PAIR.findall(rest)
    if not pairs or _PAIR.sub("", rest).strip():
        raise ProblemFileError(f"expected key = value pairs in {rest!r}", line)
    return {key: _rational(val, line) for key, val in pairs}


def _dims(rest: str, line: int) -> dict:
    out = _scalar_pairs(rest, line)
    if any(v.denominator != 1 or v < 1 for v in out.values()):
        raise ProblemFileError(f"dims must be positive integers in {rest!r}", line)
    return {key: int(v) for key, v in out.items()}


def _entry_evaluator(exprs: dict, shape: tuple, *vectors, memo=None) -> Callable:
    """The field with entries ``exprs`` (by index; entries left out are zero;
    folded by :func:`fold` with ``memo``) as a function of (t, *values),
    the values named by the ``(prefix, dim)`` pairs of ``vectors``, with
    its array form; a scalar call is the array form on one row."""
    names = [[f"{prefix}{i}" for i in range(dim)] for prefix, dim in vectors]
    exprs = dict(zip(exprs, fold(*exprs.values(), memo=memo)))

    def many(ts, *values):
        env, out = {"t": ts}, np.zeros((len(ts),) + shape)
        for keys, vec in zip(names, values):
            env.update(zip(keys, np.asarray(vec, dtype=float).reshape(len(ts), len(keys)).T))
        for idx, expr in exprs.items():
            out[(slice(None),) + idx] = expr.eval(env)
        return out
    return array_field(many)


def _statements(text: str):
    """(line number, keyword, rest, statement) of each statement of a file
    text: ``#`` comments cut, blank lines skipped, and the first word split
    from the rest."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            head = stripped.split(None, 1)
            yield lineno, head[0], head[1] if len(head) > 1 else "", stripped


def parse_problem(text: str, source: str = "<string>") -> StateLinearProblem:
    """Parse a state-linear problem from declarative text.

    Raises :class:`ProblemFileError` with the offending 1-based line number.
    """
    name = None
    horizon: dict = {}
    delays: dict = {}
    dims: dict = {}
    control: Optional[ControlSet] = None
    entries: dict[str, dict] = {k: {} for k in ("A", "AD", "g", "gD", "phi", "psi")}
    control_line = None   # where the control set was given
    scalars: dict[str, Expr] = {}

    for lineno, keyword, rest, stripped in _statements(text):
        if keyword == "problem":
            name = rest.strip() or None
            continue
        if keyword == "kind":
            if rest.strip() != "state-linear":
                raise ProblemFileError(
                    f"unsupported kind {rest.strip()!r}; only 'state-linear' "
                    f"problems are expressible in files", lineno)
            continue
        if keyword == "horizon":
            horizon = _scalar_pairs(rest, lineno)
            continue
        if keyword == "delays":
            delays = _scalar_pairs(rest, lineno)
            continue
        if keyword == "dims":
            if dims:
                raise ProblemFileError("dims given twice", lineno)
            dims = _dims(rest, lineno)
            continue
        if keyword == "control-set":
            spec = rest.strip()
            if spec == "all":
                control = "all"
            elif spec.startswith("box"):
                m = re.match(r"box\s+lo\s*=\s*(?P<lo>[-+\d.,/\s]+?)\s+hi\s*=\s*"
                             r"(?P<hi>[-+\d.,/\s]+?)\s*$", spec)
                if not m:
                    raise ProblemFileError(
                        "expected: control-set box lo = ... hi = ...", lineno)
                lo, hi = ([float(_rational(v, lineno)) for v in
                           m.group(k).replace(",", " ").split()] for k in ("lo", "hi"))
                try:
                    control = ControlSet.box(lo, hi)
                except ValueError as exc:
                    raise ProblemFileError(str(exc), lineno) from None
            else:
                raise ProblemFileError(
                    f"unknown control set {spec!r} (use 'all' or 'box ...')", lineno)
            control_line = lineno
            continue
        m = _ASSIGN.match(stripped)
        if not m:
            raise ProblemFileError(f"cannot parse {stripped!r}", lineno)
        target, idx, rhs = m.group("name"), m.group("idx"), m.group("rhs")
        if target in ("f0x", "f0u"):
            if idx is not None:
                raise ProblemFileError(f"{target} is scalar, drop the index", lineno)
            allowed = {"t", "x", "y"} if target == "f0x" else {"t", "u", "v"}
            scalars[target] = _parse_field(rhs, allowed, dims, lineno)
        elif target in entries:
            if idx is None:
                raise ProblemFileError(f"{target} needs an index like {target}[0]", lineno)
            index = tuple(int(v) for v in idx.split(","))
            allowed = {"A": {"t"}, "AD": {"t"}, "g": {"t", "u"},
                       "gD": {"t", "v"}, "phi": {"t"}, "psi": {"t"}}[target]
            entries[target][index] = _parse_field(rhs, allowed, dims, lineno)
            n, m_dim = dims["n"], dims["m"]
            bound = {"A": (n, n), "AD": (n, n), "psi": (m_dim,)}.get(target, (n,))
            if len(index) != len(bound) or any(i >= b for i, b in zip(index, bound)):
                raise ProblemFileError(f"index {index} out of range for {target} "
                                       f"with dims {bound}", lineno)
        else:
            raise ProblemFileError(f"unknown field {target!r}", lineno)

    for key, given, what in (("a", horizon, "horizon"), ("b", horizon, "horizon"),
                             ("r", delays, "delays"), ("s", delays, "delays")):
        if key not in given:
            raise ProblemFileError(f"missing '{key}' in {what} line")
    if "n" not in dims or "m" not in dims:
        raise ProblemFileError("missing dims line (need n and m)")
    n, m_dim = dims["n"], dims["m"]
    if isinstance(control, ControlSet) and control.m != m_dim:
        raise ProblemFileError(f"control-set box has {control.m} bounds per "
                               f"side, dims has m = {m_dim}", control_line)
    if "f0x" not in scalars or "f0u" not in scalars:
        raise ProblemFileError("both f0x and f0u must be given")

    xy, uv = (("x", n), ("y", n)), (("u", m_dim), ("v", m_dim))
    f0x_expr, f0u_expr = scalars["f0x"], scalars["f0u"]

    def partials(exprs: dict, var: str, count: int, shape: tuple, *vectors) -> Callable:
        """Evaluator of d exprs / d(var0 .. var{count-1}), differentiated once
        here; the new last index runs over the variables."""
        derivs = {idx + (j,): e.diff(f"{var}{j}")
                  for idx, e in exprs.items() for j in range(count)}
        return _entry_evaluator({k: d for k, d in derivs.items()
                                 if not _is_const(d, 0.0)}, shape, *vectors)

    return StateLinearProblem(
        a=horizon["a"], b=horizon["b"], r=delays["r"], s=delays["s"],
        n=n, m=m_dim,
        A=_entry_evaluator(entries["A"], (n, n)),
        A_D=_entry_evaluator(entries["AD"], (n, n)),
        g=_entry_evaluator(entries["g"], (n,), ("u", m_dim)),
        g_D=_entry_evaluator(entries["gD"], (n,), ("v", m_dim)),
        f0x=_entry_evaluator({(): f0x_expr}, (), *xy),
        f0u=_entry_evaluator({(): f0u_expr}, (), *uv),
        phi=_entry_evaluator(entries["phi"], (n,)),
        psi=_entry_evaluator(entries["psi"], (m_dim,)),
        control_set=(ControlSet.free(m_dim) if control in (None, "all") else control),
        f0x_dx=partials({(): f0x_expr}, "x", n, (n,), *xy),
        f0x_dy=partials({(): f0x_expr}, "y", n, (n,), *xy),
        g_du=partials(entries["g"], "u", m_dim, (n, m_dim), ("u", m_dim)),
        gD_dv=partials(entries["gD"], "v", m_dim, (n, m_dim), ("v", m_dim)),
        f0u_du=partials({(): f0u_expr}, "u", m_dim, (m_dim,), *uv),
        f0u_dv=partials({(): f0u_expr}, "v", m_dim, (m_dim,), *uv),
        name=name or source,
    )


def _parse_field(rhs: str, allowed_prefixes: set, dims: dict, lineno: int) -> Expr:
    if "n" not in dims or "m" not in dims:
        raise ProblemFileError(
            "a dims line with both n and m must precede field definitions",
            lineno)
    allowed = {"t"} if "t" in allowed_prefixes else set()
    for prefix, count_key in (("x", "n"), ("y", "n"), ("u", "m"), ("v", "m")):
        if prefix in allowed_prefixes:
            allowed |= {f"{prefix}{i}" for i in range(dims[count_key])}
    return parse_expression(rhs, allowed, lineno)


def load_problem(path: str) -> StateLinearProblem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read(), source=path)


# -- value-function files -----------------------------------------------------------

def parse_value_function(text: str):
    """Parse a piecewise, state-affine verification function.

    Each piece holds S(t, x) = sum_i eta_i(t) x_i + c(t) on a closed
    t-interval; the pieces, in order of their bounds, tile one interval.  A
    time is read on the first piece whose upper bound exceeds it, else on
    the last.  The time derivative is differentiated exactly from the
    expressions.  S, S_t and S_x carry array forms, and a scalar call is
    the array form on one row.  Returns a :class:`ValueFunctionCandidate`.
    """
    from .sufficiency import ValueFunctionCandidate

    n = 1
    pieces: list[dict] = []
    current: Optional[dict] = None
    eta_lines: dict = {}   # first line giving eta[i], by index
    for lineno, keyword, rest, stripped in _statements(text):
        if keyword == "value-function":
            continue
        if keyword == "dims":
            n = _dims(rest, lineno).get("n", 1)
            continue
        if keyword == "piece":
            bounds = rest.split()
            if len(bounds) != 2:
                raise ProblemFileError("expected: piece LO HI", lineno)
            lo, hi = (_rational(v, lineno) for v in bounds)
            if lo >= hi:
                raise ProblemFileError(f"piece {lo} {hi} is empty (need LO < HI)", lineno)
            current = {"lo": lo, "hi": hi, "line": lineno, "eta": {}, "c": Const(0.0)}
            pieces.append(current)
            continue
        m = _ASSIGN.match(stripped)
        if not m or current is None:
            raise ProblemFileError(f"cannot parse {stripped!r}", lineno)
        target, idx, rhs = m.group("name"), m.group("idx"), m.group("rhs")
        expr = parse_expression(rhs, {"t"}, lineno)
        if target == "eta":
            if idx is None or not idx.isdigit():
                raise ProblemFileError("eta needs an index like eta[0]", lineno)
            current["eta"][int(idx)] = expr
            eta_lines.setdefault(int(idx), lineno)
        elif target == "c":
            current["c"] = expr
        else:
            raise ProblemFileError(f"unknown field {target!r}", lineno)
    if not pieces:
        raise ProblemFileError("no pieces defined")
    for i, line in eta_lines.items():
        if i >= n:
            raise ProblemFileError(f"eta[{i}] out of range for dims n = {n}", line)
    pieces.sort(key=lambda p: p["lo"])
    for prev, piece in zip(pieces, pieces[1:]):
        if piece["lo"] != prev["hi"]:
            raise ProblemFileError(
                f"piece {piece['lo']} {piece['hi']} must start where the piece "
                f"before it ends, at {prev['hi']}", piece["line"])

    memo: dict = {}   # one fold for all pieces

    def affine(c: Expr, eta: dict) -> Callable:
        """c(t) + sum_i eta_i(t) x_i, added up in index order, on (t, x)."""
        for i, e in eta.items():
            c = Add(c, Mul(e, Var(f"x{i}")))
        return _entry_evaluator({(): c}, (), ("x", n), memo=memo)

    for piece in pieces:   # S_t is differentiated once, here
        c, eta = piece["c"], piece["eta"]
        eta_t = {i: e.diff("t") for i, e in eta.items()}
        piece.update(S=affine(c, eta), S_t=affine(c.diff("t"), eta_t),
                     S_x=_entry_evaluator({(i,): e for i, e in eta.items()}, (n,), memo=memo))
    upper = np.array([float(p["hi"]) for p in pieces[:-1]])

    def by_piece(key: str, shape: tuple) -> Callable:
        """(t, x) -> the piece's ``key`` field on the piece owning each time."""
        def many(ts, X):
            X = np.asarray(X, dtype=float).reshape(len(ts), n)
            owner = np.searchsorted(upper, ts, side="right")
            out = np.zeros((len(ts),) + shape)
            for k in np.flatnonzero(np.bincount(owner)):   # each piece owning rows
                rows = owner == k
                out[rows] = pieces[k][key].many(ts[rows], X[rows])
            return out
        return array_field(many)

    return ValueFunctionCandidate(S=by_piece("S", ()), S_t=by_piece("S_t", ()),
                                  S_x=by_piece("S_x", (n,)))


def load_value_function(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_value_function(fh.read())
