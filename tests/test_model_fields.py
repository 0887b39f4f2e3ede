"""The table of model fields (``problems.MODEL_FIELDS``) and its three
readers: ``model_arrays``, ``model_partials`` and the problem-file parser.

The oracle below is written from the model equations, not read from the
table: which slots among x, y, u, v each field reads after t, and its
shape in n and m.  A partial F_dw reads F's slots and appends the
dimension of w to F's shape.
"""

import re

import numpy as np
import pytest

from retard_oc.errors import ProblemFileError
from retard_oc.probfile import parse_problem
from retard_oc.problems import (MODEL_FIELDS, DelayedProblem, StateLinearProblem,
                                array_form, model_arrays, model_partials)
from retard_oc.registry import REGISTRY

FIELDS = {"A": ("", "nn"), "A_D": ("", "nn"), "g": ("u", "n"), "g_D": ("v", "n"),
          "f0x": ("xy", ""), "f0u": ("uv", ""), "phi": ("", "n"), "psi": ("", "m"),
          "f": ("xyuv", "n"), "f0": ("xyuv", "")}
SLOT_DIM = {"x": "n", "y": "n", "u": "m", "v": "m"}
PARTIALS = ["f0x_dx", "f0x_dy", "g_du", "gD_dv", "f0u_du", "f0u_dv"] + [
    f"{fn}_d{w}" for fn in ("f", "f0") for w in "xyuv"]
FILE_FIELDS = ["A", "A_D", "g", "g_D", "f0x", "f0u", "phi", "psi"]


def expected(name: str) -> tuple:
    of = re.fullmatch(r"(\w+)_d([xyuv])", name)
    if of is None:
        return FIELDS[name]
    slots, shape = FIELDS[{"gD": "g_D"}.get(of[1], of[1])]
    return slots, shape + SLOT_DIM[of[2]]


def dims(letters: str, p) -> tuple:
    return tuple({"n": p.n, "m": p.m}[c] for c in letters)


# n = m = 2, and n = 3, m = 2 so that a slot of the wrong dimension shows
TWO_BY_TWO = """\
problem two-by-two
kind state-linear
horizon a = 0  b = 3
delays r = 1  s = 1/2
dims n = 2  m = 2
A[0,1] = t^2 - 1
A[1,0] = exp(t)/3
AD[1,1] = 0.5*t
g[0] = u0^2 + t*u1
g[1] = u0*u1 - u1^3
gD[0] = v1^2/2
gD[1] = t*v0
f0x = x0^2 + x1*y0 + (1/2)*y1^2 + t*x1
f0u = u0^2 + u1^2*v0 + exp(v1)
phi[0] = 1 + t
phi[1] = t^2
psi[0] = t
psi[1] = 2
"""
THREE_BY_TWO = """\
problem three-by-two
kind state-linear
horizon a = 0  b = 2
delays r = 1  s = 1/2
dims n = 3  m = 2
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
PROBLEMS = {name: REGISTRY[name].make_problem for name in REGISTRY}
PROBLEMS.update({"two-by-two": lambda: parse_problem(TWO_BY_TWO),
                 "three-by-two": lambda: parse_problem(THREE_BY_TWO)})


def test_every_row_follows_the_model():
    assert sorted(MODEL_FIELDS) == sorted(list(FIELDS) + PARTIALS)
    for name in MODEL_FIELDS:
        assert MODEL_FIELDS[name] == expected(name), name


def _rows(p, slots: str, K: int, rng) -> list:
    return [rng.normal(size=(K, dims(SLOT_DIM[w], p)[0])) for w in slots]


@pytest.mark.parametrize("problem, name", [
    (problem, name) for problem, make in PROBLEMS.items() for name in MODEL_FIELDS
    if getattr(make(), name, None) is not None])
def test_model_arrays_give_each_rows_shape(problem, name):
    p, rng = PROBLEMS[problem](), np.random.default_rng(0)
    slots, shape = expected(name)
    many, = model_arrays(p, name)
    for K in (0, 3):
        ts = rng.uniform(float(p.a), float(p.b), K)
        assert many(ts, *_rows(p, slots, K, rng)).shape == (K,) + dims(shape, p)


def _declared(p) -> tuple:
    """The names of the slot partials of f0 and of f, in the slot order x, y, u, v."""
    if isinstance(p, StateLinearProblem):
        return ("f0x_dx", "f0x_dy", "f0u_du", "f0u_dv"), ("A", "A_D", "g_du", "gD_dv")
    return tuple(tuple(f"{fn}_d{w}" for w in "xyuv") for fn in ("f0", "f"))


@pytest.mark.parametrize("problem", list(PROBLEMS))
def test_declared_partials_are_the_fields_array_forms_bit_for_bit(problem):
    p, rng = PROBLEMS[problem](), np.random.default_rng(1)
    ts = rng.uniform(float(p.a), float(p.b), 7)
    args = dict(zip("xyuv", _rows(p, "xyuv", 7, rng)))
    for names, partials in zip(_declared(p), model_partials(p)[:2]):
        for name, partial in zip(names, partials):
            if getattr(p, name) is None:
                continue
            slots, shape = expected(name)
            want = array_form(getattr(p, name), dims(shape, p))(ts, *(args[w] for w in slots))
            got = partial(ts, *(args[w] for w in "xyuv"))
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def test_declared_state_linear_partials_read_only_their_slots():
    # the costate leaves the control out for declared f0x partials
    p = PROBLEMS["three-by-two"]()
    rng = np.random.default_rng(2)
    ts, X, Y = rng.uniform(0, 2, 4), rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    (f0_dx, f0_dy, *_), (f_dx, f_dy, *_), _ = model_partials(p)
    assert f0_dx(ts, X, Y).shape == f0_dy(ts, X, Y).shape == (4, 3)
    assert f_dx(ts, X, Y).shape == f_dy(ts, X, Y).shape == (4, 3, 3)


def test_a_missing_partial_is_taken_by_differences_of_all_five_arguments():
    p = PROBLEMS["ocp-d-goellmann"]()
    bare = DelayedProblem(a=p.a, b=p.b, r=p.r, s=p.s, n=p.n, m=p.m, f0=p.f0, f=p.f,
                          phi=p.phi, psi=p.psi)
    rng = np.random.default_rng(3)
    args = (rng.uniform(0, 3, 5),) + tuple(rng.normal(size=(5, 1)) for _ in range(4))
    for declared, differences in zip(model_partials(p)[:2], model_partials(bare)[:2]):
        for exact, approx in zip(declared, differences):
            np.testing.assert_allclose(approx(*args), exact(*args), atol=1e-6)


# -- problem files ----------------------------------------------------------------

def _with_line(line: str) -> tuple:
    """THREE_BY_TWO with ``line`` after its dims line, and that line's number."""
    lines = THREE_BY_TWO.splitlines()
    at = lines.index("dims n = 3  m = 2") + 1
    return "\n".join(lines[:at] + [line] + lines[at:]), at + 1


def _file_error(line: str) -> tuple:
    """The error of THREE_BY_TWO with ``line`` added, and that line's number."""
    text, lineno = _with_line(line)
    with pytest.raises(ProblemFileError) as info:
        parse_problem(text)
    return info.value, lineno


@pytest.mark.parametrize("name", FILE_FIELDS)
def test_a_file_field_is_indexed_by_its_shape(name):
    spelling, (_, shape) = name.replace("_", ""), expected(name)
    bound = dims(shape, parse_problem(THREE_BY_TWO))
    cases = ([(f"{spelling}[0] = 1", f"{spelling} is scalar, drop the index")] if not shape
             else [(f"{spelling} = 1", f"{spelling} needs an index like {spelling}[0]")])
    for axis in range(len(bound)):
        index = tuple(b if k == axis else 0 for k, b in enumerate(bound))
        cases.append((f"{spelling}[{','.join(map(str, index))}] = 1",
                      f"index {index} out of range for {spelling} with dims {bound}"))
    for text, message in cases:
        error, lineno = _file_error(text)
        assert (str(error), error.line) == (f"line {lineno}: {message}", lineno)


@pytest.mark.parametrize("name", FILE_FIELDS)
def test_a_file_field_reads_only_its_slots(name):
    (slots, shape), n, m = expected(name), 3, 2   # the dims of THREE_BY_TWO
    target = name.replace("_", "") + (f"[{','.join('0' * len(shape))}]" if shape else "")
    allowed = sorted({"t"} | {f"{w}{i}" for w in slots for i in range(n if w in "xy" else m)})
    for w in "xyuv":
        if w in slots:
            parse_problem(_with_line(f"{target} = {w}{n - 1 if w in 'xy' else m - 1}")[0])
            continue
        error, lineno = _file_error(f"{target} = {w}0")
        assert (str(error), error.line) == (
            f"line {lineno}: variables ['{w}0'] not allowed here (allowed: {allowed})", lineno)
