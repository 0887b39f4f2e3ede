"""Problem definitions for the two delayed optimal control classes.

Both classes share the five-argument conventions

    dynamics(t, x, y, u, v)      y = x(t - r), v = u(t - s)
    running_cost(t, x, y, u, v)

so integrators, quadrature and solvers treat them uniformly.  The
state-linear class pins the structure

    xdot = A(t) x + A_D(t) x(t-r) + g(t, u(t)) + g_D(t, u(t-s))
    running cost = f0x(t, x, x(t-r)) + f0u(t, u, u(t-s))

that the linear sufficiency theorem requires.  A model callable takes one
time; it may carry an array form over K times at once (:func:`batched`).
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .lattice import CommensurabilityLattice, Rational, as_rational, make_lattice
from .numdiff import grad_scalar_slot, gradient, partial_vec_slot
from .trajectory import Trajectory, delayed_rows

Vec = np.ndarray
Mat = np.ndarray


# -- admissible sets ----------------------------------------------------------

@dataclass(frozen=True)
class ControlSet:
    """Admissible control values: all of R^m or an axis-aligned box."""

    m: int
    lo: Optional[Vec] = None
    hi: Optional[Vec] = None

    @staticmethod
    def free(m: int) -> "ControlSet":
        return ControlSet(m=m)

    @staticmethod
    def box(lo, hi) -> "ControlSet":
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape or not np.all((lo <= hi) & np.isfinite(lo) & np.isfinite(hi)):
            raise ValueError("invalid box bounds (need finite lo <= hi)")
        return ControlSet(m=len(lo), lo=lo, hi=hi)

    @property
    def is_free(self) -> bool:
        return self.lo is None

    def project(self, u: Vec) -> Vec:
        u = np.asarray(u, dtype=float).reshape(self.m)
        if self.is_free:
            return u
        return np.clip(u, self.lo, self.hi)

    def contains(self, u: Vec, tol: float = 1e-12) -> bool:
        if self.is_free:
            return True
        u = np.asarray(u, dtype=float).reshape(self.m)
        return bool(np.all(u >= self.lo - tol) and np.all(u <= self.hi + tol))

    def sample(self, rng: np.random.Generator, center: Vec) -> Vec:
        """One random probe point: the tests' per-time reference for the
        probes that the maximality checker takes in one draw."""
        center = np.asarray(center, dtype=float).reshape(self.m)
        if self.is_free:
            return center + rng.normal(size=self.m) * (1.0 + np.abs(center))
        return rng.uniform(self.lo, self.hi)


@dataclass(frozen=True)
class TerminalSet:
    """Terminal constraint: free (all of R^n) or a single fixed point."""

    n: int
    point: Optional[Vec] = None

    @staticmethod
    def free(n: int) -> "TerminalSet":
        return TerminalSet(n=n)

    @staticmethod
    def fixed(point) -> "TerminalSet":
        point = np.atleast_1d(np.asarray(point, dtype=float))
        return TerminalSet(n=len(point), point=point)

    @property
    def is_free(self) -> bool:
        return self.point is None

    def contains(self, x: Vec, tol: float = 1e-9) -> bool:
        if self.is_free:
            return True
        return bool(np.max(np.abs(np.asarray(x) - self.point)) <= tol)


def _zero_terminal_cost(x: Vec) -> float:
    return 0.0


# -- array forms of model callables ---------------------------------------------

def batched(scalar: Callable, many: Callable) -> Callable:
    """``scalar`` (a function of its own, such as a lambda) with its array
    form attached as ``.many``, so scalar calls cost nothing extra.  ``many``
    takes K times and (K, dim) arrays for the vectors and returns the K
    values stacked; a field replaced on a problem drops it with the callable.
    """
    scalar.many = many
    return scalar


def array_field(many: Callable) -> Callable:
    """A model callable written once, as its array form ``many`` over K
    times and (K, dim) vectors: the scalar call is ``many`` on one row."""
    return batched(lambda t, *args: many(np.array([float(t)]), *(
        np.asarray(arg, dtype=float).reshape(1, -1) for arg in args))[0], many)


def array_form(fn: Callable, shape: tuple) -> Callable:
    """``fn`` over an array of times, values of ``shape`` stacked: its
    declared ``.many``, or a loop calling ``fn`` once per time, in order,
    whose values are the scalar calls' bit for bit, converted in one call
    after the last (so ``fn`` must return a new value each call)."""
    many = getattr(fn, "many", None)

    def loop(ts, *args):
        rows = [fn(t, *row) for t, *row in zip(map(float, ts), *args)]
        with suppress(TypeError, ValueError, OverflowError):   # ragged or mis-sized rows:
            return np.array(rows, dtype=float).reshape((len(rows),) + shape)
        out = np.empty((len(rows),) + shape)   # row by row, raising at the first bad one
        for i, row in enumerate(rows):
            out[i] = np.asarray(row, dtype=float).reshape(shape)
        return out

    def resolved(ts, *args):
        ts = np.asarray(ts, dtype=float)
        return np.asarray((many or loop)(ts, *args), dtype=float).reshape(
            ts.shape + shape)
    return resolved


def int_power(values: np.ndarray, k: int) -> np.ndarray:
    """``v ** k`` of each float v of ``values`` as Python's float power (libm pow; numpy's
    square can differ in the last bit): a NaN kept, an overflow an :class:`OverflowError`."""
    try:
        with np.errstate(over="raise"):
            out = np.float_power(values, k)
    except FloatingPointError as exc:
        raise OverflowError(str(exc)) from None
    np.copyto(out, values, where=np.isnan(values) & (k != 0))   # nan ** 0 is 1.0
    return out


# -- problem classes ----------------------------------------------------------

@dataclass(frozen=True)
class _Problem:
    """What both problem classes share: exact rational horizon and delays,
    the dimensions, a free control set by default, the control history and
    the lattice."""

    a: Rational
    b: Rational
    r: Rational
    s: Rational
    n: int
    m: int

    def __post_init__(self):
        for key in ("a", "b", "r", "s"):
            object.__setattr__(self, key, as_rational(getattr(self, key)))
        if self.control_set is None:
            object.__setattr__(self, "control_set", ControlSet.free(self.m))

    @property
    def control_history_start(self) -> Rational:
        return self.a - self.s

    def lattice(self) -> CommensurabilityLattice:
        return make_lattice(self.a, self.b, self.r, self.s)


@dataclass(frozen=True)
class DelayedProblem(_Problem):
    """General nonlinear problem with one state delay r and one control delay s.

    ``phi`` supplies the state history on [a - r - s, a] and ``psi`` the
    control history on [a - s, a[.  Optional analytic partials accelerate the
    adjoint integrator and the discrete adjoint; central finite differences
    are used when they are absent.
    """

    f0: Callable[[float, Vec, Vec, Vec, Vec], float]
    f: Callable[[float, Vec, Vec, Vec, Vec], Vec]
    phi: Callable[[float], Vec]
    psi: Callable[[float], Vec]
    g0: Callable[[Vec], float] = _zero_terminal_cost
    control_set: ControlSet = None  # type: ignore[assignment]
    terminal_set: TerminalSet = None  # type: ignore[assignment]
    f_dx: Optional[Callable] = None
    f_dy: Optional[Callable] = None
    f_du: Optional[Callable] = None
    f_dv: Optional[Callable] = None
    f0_dx: Optional[Callable] = None
    f0_dy: Optional[Callable] = None
    f0_du: Optional[Callable] = None
    f0_dv: Optional[Callable] = None
    g0_grad: Optional[Callable[[Vec], Vec]] = None
    name: str = ""

    def __post_init__(self):
        super().__post_init__()
        if self.terminal_set is None:
            object.__setattr__(self, "terminal_set", TerminalSet.free(self.n))

    # the state history conventions differ between the two classes
    @property
    def state_history_start(self) -> Rational:
        return self.a - self.r - self.s

    def dynamics(self, t, x, y, u, v) -> Vec:
        return np.asarray(self.f(t, x, y, u, v), dtype=float).reshape(self.n)

    def running_cost(self, t, x, y, u, v) -> float:
        return float(self.f0(t, x, y, u, v))

    def terminal_cost(self, x) -> float:
        return float(self.g0(x))


@dataclass(frozen=True)
class StateLinearProblem(_Problem):
    """Problem with dynamics linear in the current and delayed state.  Any
    optional partial left out is taken by central finite differences; the
    arguments and shape of each field are its row of :data:`MODEL_FIELDS`."""

    A: Callable[[float], Mat]
    A_D: Callable[[float], Mat]
    g: Callable[[float, Vec], Vec]
    g_D: Callable[[float, Vec], Vec]
    f0x: Callable[[float, Vec, Vec], float]
    f0u: Callable[[float, Vec, Vec], float]
    phi: Callable[[float], Vec]
    psi: Callable[[float], Vec]
    control_set: ControlSet = None  # type: ignore[assignment]
    f0x_dx: Optional[Callable] = None   # d f0x / d x
    f0x_dy: Optional[Callable] = None   # d f0x / d x(t-r)
    g_du: Optional[Callable] = None     # d g / d u
    gD_dv: Optional[Callable] = None    # d g_D / d u(t-s)
    f0u_du: Optional[Callable] = None   # d f0u / d u
    f0u_dv: Optional[Callable] = None   # d f0u / d u(t-s)
    name: str = ""

    @property
    def state_history_start(self) -> Rational:
        return self.a - self.r

    def dynamics(self, t, x, y, u, v) -> Vec:
        return array_field(dynamics_array(self))(t, x, y, u, v)

    def running_cost(self, t, x, y, u, v) -> float:
        return float(self.f0x(float(t), x, y)) + float(self.f0u(float(t), u, v))

    def terminal_cost(self, x) -> float:
        return 0.0


AnyProblem = DelayedProblem | StateLinearProblem


# Every model field of both classes: the slots among x, y, u, v it reads
# after t, and its shape, one letter per axis (n or m; "nm" is (n, m)).  The
# partial of field F in slot w is named F_dw, F without its underscore.
MODEL_FIELDS = {
    "A": ("", "nn"), "A_D": ("", "nn"), "g": ("u", "n"), "g_D": ("v", "n"),
    "f0x": ("xy", ""), "f0u": ("uv", ""), "phi": ("", "n"), "psi": ("", "m"),
    "f0x_dx": ("xy", "n"), "f0x_dy": ("xy", "n"), "g_du": ("u", "nm"),
    "gD_dv": ("v", "nm"), "f0u_du": ("uv", "m"), "f0u_dv": ("uv", "m"),
    "f": ("xyuv", "n"), "f0": ("xyuv", ""),
    "f_dx": ("xyuv", "nn"), "f_dy": ("xyuv", "nn"), "f_du": ("xyuv", "nm"),
    "f_dv": ("xyuv", "nm"), "f0_dx": ("xyuv", "n"), "f0_dy": ("xyuv", "n"),
    "f0_du": ("xyuv", "m"), "f0_dv": ("xyuv", "m"),
}


def field_layout(name: str, n: int, m: int) -> tuple[list, tuple]:
    """The row of :data:`MODEL_FIELDS` for ``name`` at dimensions n and m:
    its slots as (letter, dimension) pairs, and its shape."""
    dim = {"x": n, "y": n, "u": m, "v": m, "n": n, "m": m}
    slots, shape = MODEL_FIELDS[name]
    return [(w, dim[w]) for w in slots], tuple(dim[axis] for axis in shape)


def as_delayed(problem: AnyProblem) -> DelayedProblem:
    """View a state-linear problem through the general nonlinear interface.

    The composed problem declares, through :func:`array_field`, the array
    forms :func:`model_partials` resolves for ``problem``: exact state
    Jacobians (A and A_D), the declared partials, finite differences
    otherwise.  Already-general problems pass through unchanged.
    """
    if isinstance(problem, DelayedProblem):
        return problem
    p = problem
    f0_d, f_d, _ = model_partials(p)
    return DelayedProblem(
        a=p.a, b=p.b, r=p.r, s=p.s, n=p.n, m=p.m,
        f0=p.running_cost, f=p.dynamics, phi=p.phi, psi=p.psi,
        control_set=p.control_set,
        **{f"{fn}_d{w}": array_field(many) for fn, partials in (("f0", f0_d), ("f", f_d))
           for w, many in zip("xyuv", partials)},
        name=p.name,
    )


def model_arrays(problem: AnyProblem, *names: str) -> tuple:
    """The :func:`array_form` of each named field, its shape from
    :data:`MODEL_FIELDS`."""
    return tuple(array_form(getattr(problem, name), field_layout(name, problem.n, problem.m)[1])
                 for name in names)


def model_arguments(problem: AnyProblem, lattice: CommensurabilityLattice, T: np.ndarray,
                    x: np.ndarray, u: Optional[np.ndarray] = None) -> tuple:
    """The model's arguments (t, x, x(t-r), u, u(t-s)) at the times ``T``, row
    i in lattice cell i, from the block-major rows ``x`` and ``u`` there, the
    delayed ones by :func:`~retard_oc.trajectory.delayed_rows`; without ``u``,
    (t, x, x(t-r))."""
    phi, psi = model_arrays(problem, "phi", "psi")
    args = (T.ravel(), x, delayed_rows(phi, T, x, float(lattice.r), lattice.state_shift))
    if u is None:
        return args
    return args + (u, delayed_rows(psi, T, u, float(lattice.s), lattice.control_shift))


def running_cost_array(problem: AnyProblem) -> Callable:
    """The running cost over K times, (ts, X, Y, U, V) -> (K,), with the
    values of ``running_cost``: f0x + f0u for a state-linear problem, f0
    otherwise, one call of each array form."""
    if isinstance(problem, StateLinearProblem):
        f0x, f0u = model_arrays(problem, "f0x", "f0u")
        return lambda ts, x, y, u, v: f0x(ts, x, y) + f0u(ts, u, v)
    return model_arrays(problem, "f0")[0]


def dynamics_array(problem: AnyProblem) -> Callable:
    """The dynamics over K times, (ts, X, Y, U, V) -> (K, n), with the values
    of ``dynamics``: A x + A_D y + g + g_D, in that order, for a state-linear
    problem, one call of each array form; the array form of f otherwise."""
    if isinstance(problem, StateLinearProblem):
        A, A_D, g, g_D = model_arrays(problem, "A", "A_D", "g", "g_D")
        return lambda ts, x, y, u, v: ((A(ts) @ x[:, :, None] + A_D(ts) @ y[:, :, None])[:, :, 0]
                                       + g(ts, u) + g_D(ts, v))
    return model_arrays(problem, "f")[0]


def model_partials(problem: AnyProblem) -> tuple[tuple, tuple, Optional[Callable]]:
    """Slot partials of the model of ``problem``, resolved once per
    integration or gradient: ``(f0, f, g0)``.

    ``f0`` and ``f`` hold, for the slots x, y, u, v in that order, the array
    forms of d f0 / d slot and d f / d slot over (ts, X, Y, U, V).  A declared
    partial reads only its slots of :data:`MODEL_FIELDS`, so later arguments
    may be left out; finite differences of the model, where none is
    declared, read all five.  A state-linear problem's f partials in x and
    y are A and A_D.  ``g0`` maps x to the terminal-cost gradient, or is
    None when the class has no terminal cost.
    """
    p, n = problem, problem.n
    if isinstance(p, StateLinearProblem):
        names = (("f0x_dx", "f0x_dy", "f0u_du", "f0u_dv"), ("A", "A_D", "g_du", "gD_dv"))
        f0_fn, f_fn, g0 = p.running_cost, p.dynamics, None
    else:
        names = [[f"{fn}_d{w}" for w in "xyuv"] for fn in ("f0", "f")]
        f0_fn, f_fn = p.f0, p.f
        g0 = ((lambda x: np.asarray(p.g0_grad(x), dtype=float).reshape(n)) if p.g0_grad is not None
              else lambda x: gradient(lambda z: float(p.g0(z)), np.asarray(x, float)))
    differences = (lambda k, args: grad_scalar_slot(f0_fn, k, args),
                   lambda k, args: partial_vec_slot(f_fn, k, args, n))

    def resolve(name: str, k: int, difference: Callable) -> Callable:
        (slots, shape), fn = field_layout(name, n, p.m), getattr(p, name)
        if fn is None:
            return array_form(lambda *args: difference(k, args), shape)
        many, picks = array_form(fn, shape), ["xyuv".index(w) for w, _ in slots]
        return lambda ts, *args: many(ts, *(args[i] for i in picks))
    f0, f = (tuple(resolve(name, k, difference) for k, name in enumerate(row, 1))
             for row, difference in zip(names, differences))
    return f0, f, g0


# -- candidate pairs ----------------------------------------------------------

@dataclass
class CandidateSolution:
    """State/control pair sharing the problem's horizon and delays."""

    state: Trajectory
    control: Trajectory
    cost: Optional[float] = None


def validate_candidate(problem: AnyProblem, cand: CandidateSolution,
                       samples: int = 64) -> None:
    """Spot-check coverage, control admissibility, and terminal membership."""
    if not cand.state.covers(problem.state_history_start, problem.b):
        raise ValueError("state trajectory does not cover the required domain")
    if not cand.control.covers(problem.control_history_start, problem.b):
        raise ValueError("control trajectory does not cover the required domain")
    for t in np.linspace(float(problem.a), float(problem.b), samples):
        if not problem.control_set.contains(cand.control.eval(t), tol=1e-9):
            raise ValueError(f"control leaves the admissible set near t={t}")
    terminal = getattr(problem, "terminal_set", None)
    if terminal is not None and not terminal.contains(cand.state.eval(problem.b),
                                                      tol=1e-6):
        raise ValueError("terminal state misses the terminal set")
