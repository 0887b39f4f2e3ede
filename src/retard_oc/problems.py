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

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .lattice import CommensurabilityLattice, Rational, as_rational, make_lattice
from .numdiff import grad_scalar_slot, gradient, partial_vec_slot
from .trajectory import Trajectory

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
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValueError("invalid box bounds")
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
    declared ``.many``, or a loop calling ``fn`` once per time whose values
    are the scalar calls' bit for bit, written into one preallocated array."""
    many = getattr(fn, "many", None)

    def loop(ts, *args):
        out = np.empty((len(ts),) + shape)
        for i, (t, *row) in enumerate(zip(map(float, ts), *args)):
            out[i] = np.asarray(fn(t, *row), dtype=float).reshape(shape)
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

class _Problem:
    """What both problem classes share: exact rational horizon and delays, a
    free control set by default, the control history and the lattice."""

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

    a: Rational
    b: Rational
    r: Rational
    s: Rational
    n: int
    m: int
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
    optional partial left out is taken by central finite differences."""

    a: Rational
    b: Rational
    r: Rational
    s: Rational
    n: int
    m: int
    A: Callable[[float], Mat]
    A_D: Callable[[float], Mat]
    g: Callable[[float, Vec], Vec]
    g_D: Callable[[float, Vec], Vec]
    f0x: Callable[[float, Vec, Vec], float]
    f0u: Callable[[float, Vec, Vec], float]
    phi: Callable[[float], Vec]
    psi: Callable[[float], Vec]
    control_set: ControlSet = None  # type: ignore[assignment]
    f0x_dx: Optional[Callable] = None   # d f0x / d x, shape (n,)
    f0x_dy: Optional[Callable] = None   # d f0x / d x(t-r), shape (n,)
    g_du: Optional[Callable] = None     # d g / d u at (t, u), shape (n, m)
    gD_dv: Optional[Callable] = None    # d g_D / d u(t-s) at (t, v), shape (n, m)
    f0u_du: Optional[Callable] = None   # d f0u / d u at (t, u, v), shape (m,)
    f0u_dv: Optional[Callable] = None   # d f0u / d u(t-s) at (t, u, v), shape (m,)
    name: str = ""

    @property
    def state_history_start(self) -> Rational:
        return self.a - self.r

    def dynamics(self, t, x, y, u, v) -> Vec:
        t, n = float(t), self.n
        return (np.asarray(self.A(t), dtype=float).reshape(n, n) @ np.asarray(x, float)
                + np.asarray(self.A_D(t), dtype=float).reshape(n, n) @ np.asarray(y, float)
                + np.asarray(self.g(t, np.asarray(u, float)), float).reshape(n)
                + np.asarray(self.g_D(t, np.asarray(v, float)), float).reshape(n))

    def running_cost(self, t, x, y, u, v) -> float:
        return float(self.f0x(float(t), x, y)) + float(self.f0u(float(t), u, v))

    def terminal_cost(self, x) -> float:
        return 0.0


AnyProblem = DelayedProblem | StateLinearProblem


def as_delayed(problem: AnyProblem) -> DelayedProblem:
    """View a state-linear problem through the general nonlinear interface.

    The composed problem declares the partials :func:`model_partials`
    resolves for ``problem``: exact state Jacobians (A and A_D), the f0x
    partials where given, finite differences otherwise.  Already-general
    problems pass through unchanged.
    """
    if isinstance(problem, DelayedProblem):
        return problem
    p = problem
    f0_d, f_d, _ = model_partials(p)
    return DelayedProblem(
        a=p.a, b=p.b, r=p.r, s=p.s, n=p.n, m=p.m,
        f0=p.running_cost, f=p.dynamics, phi=p.phi, psi=p.psi,
        control_set=p.control_set,
        terminal_set=TerminalSet.free(p.n),
        f_dx=f_d[1], f_dy=f_d[2], f_du=f_d[3], f_dv=f_d[4],
        f0_dx=f0_d[1], f0_dy=f0_d[2], f0_du=f0_d[3], f0_dv=f0_d[4],
        name=p.name,
    )


def model_arrays(problem: AnyProblem, *names: str) -> tuple:
    """The :func:`array_form` of each named field: ``A`` and ``A_D`` of shape
    (K, n, n); ``g``, ``g_D``, the f0x partials and ``phi`` (K, n); ``psi``
    (K, m); ``f0x`` and ``f0u`` (K,)."""
    n = problem.n
    shapes = {"A": (n, n), "A_D": (n, n), "g": (n,), "g_D": (n,), "f0x": (),
              "f0u": (), "f0x_dx": (n,), "f0x_dy": (n,), "phi": (n,), "psi": (problem.m,)}
    return tuple(array_form(getattr(problem, name), shapes[name]) for name in names)


def running_cost_array(problem: AnyProblem) -> Callable:
    """The running cost over K times, (ts, X, Y, U, V) -> (K,), with the
    values of ``running_cost``: f0x + f0u for a state-linear problem, f0
    otherwise, one call of each array form."""
    if isinstance(problem, StateLinearProblem):
        f0x, f0u = model_arrays(problem, "f0x", "f0u")
        return lambda ts, x, y, u, v: f0x(ts, x, y) + f0u(ts, u, v)
    return array_form(problem.f0, ())


def dynamics_array(problem: AnyProblem) -> Callable:
    """The dynamics over K times, (ts, X, Y, U, V) -> (K, n), with the values
    of ``dynamics``: A x + A_D y + g + g_D, in that order, for a state-linear
    problem, one call of each array form; the array form of f otherwise."""
    if isinstance(problem, StateLinearProblem):
        A, A_D, g, g_D = model_arrays(problem, "A", "A_D", "g", "g_D")
        return lambda ts, x, y, u, v: ((A(ts) @ x[:, :, None] + A_D(ts) @ y[:, :, None])[:, :, 0]
                                       + g(ts, u) + g_D(ts, v))
    return array_form(problem.f, (problem.n,))


def _shaped(fn: Optional[Callable], shape: tuple,
            pick: Callable = lambda *args: args) -> Optional[Callable]:
    """``fn`` on ``pick(*args)`` as a float array of ``shape``, with the
    array form of ``fn`` on the same picks; or None."""
    if fn is None:
        return None
    many = array_form(fn, shape)
    return batched(lambda *args: np.asarray(fn(*pick(*args)), dtype=float).reshape(shape),
                   lambda *args: many(*pick(*args)))


def model_partials(problem: AnyProblem) -> tuple[tuple, tuple, Optional[Callable]]:
    """Slot partials of the model of ``problem``, resolved once per
    integration or gradient: ``(f0, f, g0)``.

    ``f0[k]`` and ``f[k]`` take the five arguments (t, x, y, u, v) and return
    d f0 / d(slot k), shape (dim,), and d f / d(slot k), shape (n, dim), for
    the slots k = 1..4 (x, y, u, v; index 0 is unused).  ``g0`` maps x to the
    terminal-cost gradient, or is None when the class has no terminal cost.
    Declared partials are used where given, central finite differences of
    the model functions otherwise; a state-linear problem supplies A and A_D
    directly, and its declared f0x, g, g_D and f0u partials.
    """
    p, n = problem, problem.n
    dims = (None, n, n, p.m, p.m)
    if isinstance(p, StateLinearProblem):
        f0_fn, f_fn, g0 = p.running_cost, p.dynamics, None
        txy, tuv = (lambda t, x, y, u, v: (t, x, y)), (lambda t, x, y, u, v: (t, u, v))
        f0 = [None, _shaped(p.f0x_dx, (n,), txy), _shaped(p.f0x_dy, (n,), txy),
              _shaped(p.f0u_du, (p.m,), tuv), _shaped(p.f0u_dv, (p.m,), tuv)]
        f = [None,
             _shaped(p.A, (n, n), lambda t, x, y, u, v: (t,)),
             _shaped(p.A_D, (n, n), lambda t, x, y, u, v: (t,)),
             _shaped(p.g_du, (n, p.m), lambda t, x, y, u, v: (t, u)),
             _shaped(p.gD_dv, (n, p.m), lambda t, x, y, u, v: (t, v))]
    else:
        f0_fn, f_fn = p.f0, p.f
        f0 = [None] + [_shaped(fn, (dims[k],)) for k, fn in
                       enumerate((p.f0_dx, p.f0_dy, p.f0_du, p.f0_dv), 1)]
        f = [None] + [_shaped(fn, (n, dims[k])) for k, fn in
                      enumerate((p.f_dx, p.f_dy, p.f_du, p.f_dv), 1)]
        g0 = _shaped(p.g0_grad, (n,)) or (
            lambda x: gradient(lambda z: float(p.g0(z)), np.asarray(x, float)))
    for k in range(1, 5):
        f0[k] = f0[k] or (lambda *args, k=k: grad_scalar_slot(f0_fn, k, args))
        f[k] = f[k] or (lambda *args, k=k: partial_vec_slot(f_fn, k, args, n))
    return tuple(f0), tuple(f), g0


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
