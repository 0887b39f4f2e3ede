"""Executable hypothesis checkers for the two sufficient-optimality theorems.

Every check returns a structured record (pass flag, worst residual, worst
location) rather than raising; a certificate is the conjunction of its
checks together with the tolerances and random seed that produced it.

Indicator windows such as chi_[a, b-s] switch exactly at lattice points.
Sample grids are therefore generated as exact rationals and membership is
decided in rational arithmetic, with the closed-interval convention: the
endpoint t = b - s is inside the window.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .cost import evaluate_cost
from .dde import (AdjointTrajectory, IntegratorConfig, integrate_adjoint_linear)
from .errors import UnboundedCriterionError
from .lattice import CommensurabilityLattice, Rational, as_rational
from .numdiff import central_scalar, gradient, hessian
from .problems import (CandidateSolution, ControlSet, DelayedProblem,
                       StateLinearProblem, array_form, model_arrays)
from .trajectory import Trajectory

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# rounding allowance of a criterion value, relative to its size: 16 ulps
ROUNDING_FLOOR = 16 * np.finfo(float).eps


def _closed(t: float, lo, hi):
    """lo <= t <= hi for a float t, each end widened by 1e-12 of its size;
    elementwise over arrays of ends."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    snap = 1e-12 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    return (lo - snap <= t) & (t <= hi + snap)


# -- certificates ---------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    worst_residual: float
    worst_location: object = None
    detail: str = ""


@dataclass
class Certificate:
    """Structured pass/fail report of every hypothesis checked."""

    title: str
    checks: list[CheckResult] = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)
    seed: int = 0
    metrics: dict = field(default_factory=dict)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_text(self) -> str:
        lines = [f"certificate: {self.title}",
                 f"overall: {'PASS' if self.overall else 'FAIL'}",
                 f"seed: {self.seed}"]
        for key in sorted(self.tolerances):
            lines.append(f"tol.{key}: {self.tolerances[key]:g}")
        for key in sorted(self.metrics):
            lines.append(f"metric.{key}: {self.metrics[key]!r}")
        for c in self.checks:
            loc = "" if c.worst_location is None else f" at {c.worst_location}"
            lines.append(f"check.{c.name}: {'PASS' if c.passed else 'FAIL'} "
                         f"worst={c.worst_residual:.6e}{loc}")
            if c.detail:
                lines.append(f"  note: {c.detail}")
        return "\n".join(lines) + "\n"

    def to_mapping(self) -> dict:
        return {
            "title": self.title,
            "overall": self.overall,
            "seed": self.seed,
            "tolerances": dict(self.tolerances),
            "metrics": {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                        for k, v in self.metrics.items()},
            "checks": [
                {"name": c.name, "passed": c.passed,
                 "worst_residual": float(c.worst_residual),
                 "worst_location": (None if c.worst_location is None
                                    else str(c.worst_location)),
                 "detail": c.detail}
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_mapping(), indent=2, sort_keys=True)


def _scored(name: str, gaps: np.ndarray, where: Sequence, tol: float,
            detail: str = "") -> CheckResult:
    """The check ``name`` from the gaps (none negative) at the locations
    ``where``: the first largest gap, gated at ``tol``.  A non-finite gap
    fails the check at the first location that has one."""
    bad = ~np.isfinite(gaps)
    if np.any(bad):
        return CheckResult(name, False, np.nan, where[int(np.argmax(bad))],
                           "non-finite value")
    worst = float(np.max(gaps, initial=0.0))
    at = where[int(np.argmax(gaps))] if worst > 0.0 else None
    return CheckResult(name, worst <= tol, worst, at, detail)


@dataclass(frozen=True)
class VerifyConfig:
    """Tolerances and sampling density for certificate construction.

    The defaults suit closed-form candidates; ``numeric()`` loosens
    residual-style gates to 1e-3 for solver-produced candidates.
    """

    integrator: IntegratorConfig = IntegratorConfig()
    quadrature_steps_per_cell: int = 512
    grid_points_per_cell: int = 24
    probes_per_point: int = 32
    seed: int = 0
    tol_maximality: float = 1e-6
    tol_transversality: float = 1e-9
    tol_convexity: float = 1e-6
    tol_continuity: float = 1e-5
    tol_terminal: float = 1e-8
    tol_residual: float = 1e-6
    tol_feedback: float = 1e-6
    tol_smoothness: float = 1e-6
    tol_cost: float = 1e-6
    tube_radius: float = 1e-6
    tube_tol: float = 1e-2
    convexity_pairs: int = 1000
    convexity_halfwidth: float = 1.0

    def __post_init__(self):
        for name, low in (("grid_points_per_cell", 1), ("probes_per_point", 0),
                          ("convexity_pairs", 1), ("convexity_halfwidth", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if self.quadrature_steps_per_cell < 2 or self.quadrature_steps_per_cell % 2:
            raise ValueError("quadrature_steps_per_cell must be a positive even integer")

    @staticmethod
    def numeric(**overrides) -> "VerifyConfig":
        base = dict(tol_maximality=1e-3, tol_residual=1e-3, tol_feedback=1e-3,
                    tol_cost=1e-3, tol_terminal=1e-6)
        base.update(overrides)
        return VerifyConfig(**base)

    def tolerance_record(self, *names: str) -> dict:
        """The named tolerances: those the certificate gates on."""
        return {k: getattr(self, k) for k in names}


# -- Hamiltonians ----------------------------------------------------------------

def hamiltonian_state_linear(problem: StateLinearProblem, p: int, t, x, y, u, v,
                             eta) -> float:
    """Two-parameter Hamiltonian of the state-linear theorem:

        H^p = -[f0x(t,x,y) + f0u(t,u,v)]
              + eta [A(t) x + A_D(t) y + p g(t,u) + (1-p) g_D(t,v)]
    """
    if p not in (0, 1):
        raise ValueError("p must be 0 or 1")
    t, n, m = float(t), problem.n, problem.m
    x, y, eta = (np.asarray(w, float).reshape(n) for w in (x, y, eta))
    u, v = (np.asarray(w, float).reshape(m) for w in (u, v))
    drift = (np.asarray(problem.A(t), float).reshape(n, n) @ x
             + np.asarray(problem.A_D(t), float).reshape(n, n) @ y
             + np.asarray(problem.g(t, u) if p == 1 else problem.g_D(t, v),
                          float).reshape(n))
    return (-(float(problem.f0x(t, x, y)) + float(problem.f0u(t, u, v)))
            + float(eta @ drift))


def hamiltonian_nonlinear(problem: DelayedProblem, t, x, y, u, v, eta) -> float:
    """H(t,x,y,u,v,eta) = -f0(t,x,y,u,v) + eta f(t,x,y,u,v)."""
    t = float(t)
    eta = np.asarray(eta, float).reshape(problem.n)
    return (-float(problem.f0(t, x, y, u, v))
            + float(eta @ np.asarray(problem.f(t, x, y, u, v), float).reshape(problem.n)))


# -- sample times ----------------------------------------------------------------

@dataclass(frozen=True)
class _SampleTimes:
    """Where both certificates read their arguments at fixed sample times:
    exact for a rational (or integer) time, in float arithmetic for a float
    one.  ``ahead`` and ``ahead_delayed`` hold the gated times only."""

    t: np.ndarray
    delayed_state: np.ndarray     # t - r
    delayed_control: np.ndarray   # t - s
    delayed_both: np.ndarray      # t - s - r
    before_start: np.ndarray      # t - s < a: the history psi gives u(t - s)
    gated: np.ndarray             # chi_[a, b-s](t)
    ahead: np.ndarray             # t + s
    ahead_delayed: np.ndarray     # t + s - r
    cells: np.ndarray             # closed lattice cells holding t


def _sample_times(lattice: CommensurabilityLattice, times: Sequence) -> _SampleTimes:
    a, b, r, s, h = lattice.a, lattice.b, lattice.r, lattice.s, lattice.h
    exact = [t for t in times if isinstance(t, (Fraction, int))]
    D = math.lcm(*(x.denominator for x in [a, b, r, s, h, *exact]))
    # a rational time is held as the integer t D, so its shifts and tests are
    # exact integer arithmetic; a float time meets the lattice as floats
    unit = lambda x: x.numerator * (D // x.denominator)
    ts = [unit(t) if isinstance(t, (Fraction, int)) else float(t) for t in times]
    floats = lambda xs: np.array([x / D if type(x) is int else x for x in xs], dtype=float)

    def minus(xs, c):
        C, F = unit(c), float(c)
        return [x - C if type(x) is int else x - F for x in xs]

    A, B, G, H = unit(a), unit(b), unit(b - s), unit(h)
    ends = np.array(lattice.breakpoints, dtype=float) if len(exact) < len(ts) else None
    gated = [A <= t <= G if type(t) is int else bool(_closed(t, a, b - s)) for t in ts]
    cells = [int(A <= t <= B) + int(A < t < B and (t - A) % H == 0) if type(t) is int
             else int(np.count_nonzero(_closed(t, ends[:-1], ends[1:]))) for t in ts]
    control, ahead = minus(ts, s), minus([t for t, g in zip(ts, gated) if g], -s)
    return _SampleTimes(
        t=floats(ts), delayed_state=floats(minus(ts, r)), delayed_control=floats(control),
        delayed_both=floats(minus(control, r)),
        before_start=np.array([v < A if type(v) is int else v < float(a) - 1e-12
                               for v in control], dtype=bool),
        gated=np.array(gated, dtype=bool), ahead=floats(ahead),
        ahead_delayed=floats(minus(ahead, r)), cells=np.array(cells, dtype=int))


# -- maximality ------------------------------------------------------------------

class _Criterion:
    """The two-term criterion at every sample time of a :class:`_SampleTimes`.

    The u-independent parts (drift, f0x, eta, v = u(t - s) and the gated
    H^0 parts at t + s) are computed once per time, from one curve lookup
    per curve and argument.  :meth:`values` then scores any number of
    (time, control) pairs in array passes, in the operation order of
    :func:`hamiltonian_state_linear`, with one call of each model field's
    array form per term.
    """

    def __init__(self, problem: StateLinearProblem, cand: CandidateSolution,
                 eta: AdjointTrajectory, times: _SampleTimes):
        self.problem, self.t = problem, times.t.tolist()
        self.model = model_arrays(problem, "A", "A_D", "f0x", "g", "g_D", "f0u")
        self.ahead = np.where(times.gated, np.cumsum(times.gated) - 1, -1)
        self.now = self._parts(cand, eta, times.t, times.delayed_state,
                               times.delayed_control)
        self.later = self._parts(cand, eta, times.ahead, times.ahead_delayed,
                                 times.ahead)

    def _parts(self, cand, eta, t, t_delayed, t_control):
        """(t, w = u(t_control), eta, drift A(t) x + A_D(t) x(t - r), f0x)."""
        A, A_D, f0x = self.model[:3]
        x, y = cand.state.eval_many(t), cand.state.eval_many(t_delayed)
        drift = (A(t) @ x[:, :, None] + A_D(t) @ y[:, :, None])[:, :, 0]
        return t, cand.control.eval_many(t_control), eta.eval_many(t), drift, f0x(t, x, y)

    def _terms(self, p: int, parts, rows: np.ndarray, U: np.ndarray) -> np.ndarray:
        """H^p at ``rows`` of ``parts`` with U in the slot of u (p = 1) or
        of the delayed control v (p = 0)."""
        g, g_D, f0u = self.model[3:]
        ts, w, eta, drift, f0x = parts
        t = ts[rows]
        u, v = (U, w[rows]) if p == 1 else (w[rows], U)
        drift = drift[rows] + (g(t, u) if p == 1 else g_D(t, v))
        return -(f0x[rows] + f0u(t, u, v)) + np.sum(eta[rows] * drift, axis=1)

    def values(self, k, U) -> np.ndarray:
        """Criterion at the times ``k`` (an index array) of the controls U, (K, m)."""
        U = np.asarray(U, float).reshape(len(k), self.problem.m)
        val = self._terms(1, self.now, k, U)
        hit = self.ahead[k] >= 0
        val[hit] = val[hit] + self._terms(0, self.later, self.ahead[k][hit], U[hit])
        return val

    def at(self, k: int) -> Callable[[np.ndarray], float]:
        """The criterion at time ``k`` alone, as a function of u."""
        return lambda u: float(self.values(np.array([k]), u)[0])


def maximality_criterion(problem: StateLinearProblem, cand: CandidateSolution,
                         eta: AdjointTrajectory, t) -> Callable[[np.ndarray], float]:
    """Two-term criterion maximised by the optimal control at time t:

        u -> H^1(t, x(t), x(t-r), u, u(t-s), eta(t))
             + H^0(t+s, x(t+s), x(t+s-r), u(t+s), u, eta(t+s)) chi_[a, b-s](t)
    """
    return _Criterion(problem, cand, eta, _sample_times(problem.lattice(), [t])).at(0)


def _golden_max(fn, lo: float, hi: float, tol: float = 1e-11) -> float:
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while abs(b - a) > tol * (1.0 + abs(a) + abs(b)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def _shape_tolerances(c0, cp, cm):
    """(fit, curvature) tolerances of the quadratic test from the criterion at
    u = 0, 1, -1: relative to the u-dependent differences, plus the values'
    rounding floor, so a constant offset in the criterion widens neither."""
    scale = np.maximum(1.0, np.maximum(np.abs(cp - c0), np.abs(cm - c0)))
    floor = ROUNDING_FLOOR * np.maximum(np.abs(c0), np.maximum(np.abs(cp), np.abs(cm)))
    return 1e-8 * scale + floor, 1e-12 * scale + floor


def _argmax_scalar(fn, control_set: ControlSet) -> np.ndarray:
    """Maximise a scalar-control criterion: closed form for concave
    quadratics, golden-section otherwise."""
    c0, cp, cm = fn(0.0), fn(1.0), fn(-1.0)
    fit_tol, tiny = _shape_tolerances(c0, cp, cm)
    a2 = 0.5 * (cp + cm) - c0
    a1 = 0.5 * (cp - cm)
    # quadratic means the 3-point fit predicts fresh probe points
    quadratic = all(
        abs(fn(z) - (c0 + a1 * z + a2 * z * z)) <= fit_tol
        for z in (2.0, 0.5, -1.5))
    if quadratic:
        if a2 < -tiny:
            vertex = -a1 / (2.0 * a2)
            return control_set.project(np.array([vertex]))
        if control_set.is_free:
            if abs(a2) <= tiny and abs(a1) <= tiny:
                return np.array([0.0])  # constant criterion: any u maximises
            raise UnboundedCriterionError(
                "criterion is not strictly concave and U is unbounded")
        lo, hi = float(control_set.lo[0]), float(control_set.hi[0])
        return np.array([lo if fn(lo) >= fn(hi) else hi])
    if not control_set.is_free:
        lo, hi = float(control_set.lo[0]), float(control_set.hi[0])
    else:
        # expand a bracket around 0 until the maximum is interior
        width = 1.0
        while True:
            lo, hi = -width, width
            if fn(lo) < fn(0.0) > fn(hi):
                break
            width *= 4.0
            if width > 1e8:
                raise UnboundedCriterionError("criterion keeps growing; no "
                                              "finite maximiser found")
    best = _golden_max(fn, lo, hi)
    return np.array([best])


def _argmax_vector(fn, control_set: ControlSet, m: int,
                   rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Projected gradient ascent with multistart for box-constrained m > 1."""
    if control_set.is_free:
        # quadratic model via finite differences; require negative definiteness
        H = hessian(lambda u: fn(u), np.zeros(m))
        g0 = gradient(lambda u: fn(u), np.zeros(m))
        eig = np.linalg.eigvalsh(H)
        if np.max(eig) < -1e-10:
            u = np.linalg.solve(-H, g0)
            probe = fn(u)
            if all(fn(u + d) <= probe + 1e-9 * (1 + abs(probe))
                   for d in (np.eye(m) * 1e-3)):
                return u
        raise UnboundedCriterionError(
            "criterion is not negative definite and U is unbounded")
    rng = rng or np.random.default_rng(0)
    starts = [0.5 * (control_set.lo + control_set.hi), control_set.lo.copy(),
              control_set.hi.copy()]
    starts += [rng.uniform(control_set.lo, control_set.hi) for _ in range(4)]
    best_u, best_v = None, -np.inf
    for u in starts:
        u = control_set.project(u)
        step = 1.0
        for _ in range(200):
            g = gradient(lambda z: fn(z), u)
            nxt = control_set.project(u + step * g)
            if fn(nxt) > fn(u):
                u = nxt
                step *= 1.5
            else:
                step *= 0.5
                if step < 1e-12:
                    break
        v = fn(u)
        if v > best_v:
            best_u, best_v = u, v
    return best_u


def _argmax_all(problem: StateLinearProblem, crit: _Criterion,
                rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Maximiser at every time of ``crit``, shape (len(crit.t), m).

    For a scalar control the quadratic test of :func:`_argmax_scalar` runs
    on arrays over all times, and a concave quadratic takes its (projected)
    vertex.  Every other time runs the scalar code through its one-time
    view, in the order given, so the first unbounded time is the one named.
    """
    N, cs = len(crit.t), problem.control_set
    out = np.empty((N, problem.m))
    rest = range(N)
    if problem.m == 1:
        z = np.array([0.0, 1.0, -1.0, 2.0, 0.5, -1.5])   # as in _argmax_scalar
        f = crit.values(np.repeat(np.arange(N), 6), np.tile(z, N)).reshape(N, 6)
        c0, cp, cm = f[:, 0], f[:, 1], f[:, 2]
        fit_tol, tiny = _shape_tolerances(c0, cp, cm)
        a2 = (0.5 * (cp + cm) - c0)[:, None]
        a1 = (0.5 * (cp - cm))[:, None]
        z = z[3:]
        fits = np.abs(f[:, 3:] - (c0[:, None] + a1 * z + a2 * z * z)) <= fit_tol[:, None]
        vertex = np.all(fits, axis=1) & (a2[:, 0] < -tiny)
        u = -a1[vertex] / (2.0 * a2[vertex])
        out[vertex] = u if cs.is_free else np.clip(u, cs.lo, cs.hi)
        rest = np.flatnonzero(~vertex).tolist()
    for k in rest:
        fn = crit.at(k)
        try:
            out[k] = (_argmax_scalar(lambda z: fn(np.array([z])), cs) if problem.m == 1
                      else _argmax_vector(fn, cs, problem.m, rng))
        except UnboundedCriterionError as exc:
            raise UnboundedCriterionError(str(exc), time=crit.t[k]) from None
    return out


def argmax_control_state_linear(problem: StateLinearProblem,
                                cand: CandidateSolution,
                                eta: AdjointTrajectory, t,
                                rng: Optional[np.random.Generator] = None
                                ) -> np.ndarray:
    """Maximiser of the two-term criterion over the admissible control set.

    ``t`` is one time (result shape (m,)) or a sequence of times (result
    shape (len(t), m), bit for bit the stacked one-time results); the curve
    values at all times are looked up together.  A solver whose sample times
    never change passes them prepared once by ``_sample_times``.
    """
    single = not isinstance(t, (Sequence, np.ndarray, _SampleTimes))
    if not isinstance(t, _SampleTimes):
        t = _sample_times(problem.lattice(), [t] if single else t)
    out = _argmax_all(problem, _Criterion(problem, cand, eta, t), rng)
    return out[0] if single else out


def _rational_grid(lattice: CommensurabilityLattice, per_cell: int,
                   interior_only: bool = False) -> list[Rational]:
    ts = [lo + (hi - lo) * Fraction(j, per_cell) for _, lo, hi in lattice.cells()
          for j in range(1 if interior_only else 0, per_cell)]
    return ts if interior_only else ts + [lattice.b]


def check_maximality(problem: StateLinearProblem, cand: CandidateSolution,
                     eta: AdjointTrajectory, grid_points_per_cell: int = 24,
                     tol: float = 1e-6, probes: int = 32,
                     seed: int = 0) -> CheckResult:
    """Verify the candidate control maximises the two-term criterion.

    At each rational sample time the candidate value is compared against the
    computed argmax and against random probes in U; the worst positive gap
    and its location are recorded.  A non-finite criterion value at any of
    these controls fails the check at the first time it occurs.
    """
    rng = np.random.default_rng(seed)
    lattice = problem.lattice()
    crit = _Criterion(problem, cand, eta, _sample_times(
        lattice, _rational_grid(lattice, grid_points_per_cell)))
    cs, u_c = problem.control_set, cand.control.eval_many(crit.t)
    N, m = u_c.shape
    # one draw for all times, in the stream order of per-time sampling
    if cs.is_free:
        tries = (u_c[:, None] + rng.normal(size=(N, probes, m))
                 * (1.0 + np.abs(u_c))[:, None])
    else:
        tries = rng.uniform(cs.lo, cs.hi, size=(N, probes, m))
    U = np.concatenate([u_c[:, None], tries], axis=1)
    f = crit.values(np.repeat(np.arange(N), probes + 1), U).reshape(N, probes + 1)
    if np.all(np.isfinite(f)):
        try:
            best = _argmax_all(problem, crit)
        except UnboundedCriterionError as exc:
            return CheckResult("maximality", False, np.inf, exc.time,
                               "criterion unbounded over U")
        f = np.column_stack((f, crit.values(np.arange(N), best)))
    bad = ~np.all(np.isfinite(f), axis=1)
    if np.any(bad):
        return CheckResult("maximality", False, np.nan, crit.t[int(np.argmax(bad))],
                           "non-finite criterion value")
    gap = np.max(f[:, 1:] - f[:, :1], axis=1)
    return _scored("maximality", np.where(gap > 0.0, gap, 0.0), crit.t, tol)


# -- convexity, transversality, continuity ---------------------------------------

def _candidate_state_box(problem, cand: CandidateSolution,
                         halfwidth: float) -> tuple[np.ndarray, np.ndarray]:
    vals = cand.state.eval_many(np.linspace(float(problem.a - problem.r),
                                            float(problem.b), 201))
    return vals.min(axis=0) - halfwidth, vals.max(axis=0) + halfwidth


def check_convexity_f0x(problem: StateLinearProblem, cand: CandidateSolution,
                        tol: float = 1e-6, pairs: int = 1000,
                        halfwidth: float = 1.0, seed: int = 0) -> CheckResult:
    """Midpoint-convexity sampling of f0x in (x, x(t-r)) plus a PSD check of
    its finite-difference Hessian, over a box around the candidate's range;
    the worst violation is gated at ``tol``."""
    rng = np.random.default_rng(seed)
    lo, hi = _candidate_state_box(problem, cand, halfwidth)
    n = problem.n
    a, b = float(problem.a), float(problem.b)
    noise = 1e-6    # Hessian eigenvalues above -noise count as zero
    # one draw for all pairs, in the stream order of drawing (t, p, q) pair
    # by pair with rng.uniform
    draw = rng.random((pairs, 1 + 4 * n))
    box_lo, box_hi = np.concatenate([lo, lo]), np.concatenate([hi, hi])
    t = a + (b - a) * draw[:, 0]
    p, q = (box_lo + (box_hi - box_lo) * draw[:, k:k + 2 * n] for k in (1, 1 + 2 * n))
    mid = 0.5 * (p + q)
    f0x, = model_arrays(problem, "f0x")
    at = lambda z: f0x(t, z[:, :n], z[:, n:])
    viol = at(mid) - 0.5 * (at(p) + at(q))
    viol = np.where(viol > 0.0, viol, 0.0)
    k = int(np.argmax(viol))   # the first pair with the worst violation
    worst, worst_loc = ((float(viol[k]), (float(t[k]), tuple(np.round(mid[k], 6).tolist())))
                        if viol[k] > 0.0 else (0.0, None))
    for _ in range(32):
        t = rng.uniform(a, b)
        z = rng.uniform(box_lo, box_hi)
        H = hessian(lambda w: float(problem.f0x(t, w[:n], w[n:])), z)
        neg = -float(np.min(np.linalg.eigvalsh(H)))
        if neg > max(worst, noise):
            worst, worst_loc = neg, (t, tuple(np.round(z, 6).tolist()))
    return CheckResult("convexity_f0x", worst <= tol, worst, worst_loc,
                       detail=f"box halfwidth {halfwidth}, {pairs} midpoint pairs, "
                              f"Hessian eigenvalues above -{noise:g} taken as noise")


def check_transversality(eta: AdjointTrajectory, tol: float = 1e-9) -> CheckResult:
    """Terminal adjoint must vanish (free terminal state)."""
    residual = float(np.max(np.abs(eta.eval(eta.end))))
    return CheckResult("transversality", residual <= tol, residual,
                       float(eta.end))


def check_continuity_spot(problem: StateLinearProblem, tol: float = 1e-5,
                          samples: int = 120) -> CheckResult:
    """Finite-and-stable spot check of the declared coefficient functions.

    Compares values at t and t + delta for a tiny delta; a blow-up, NaN, or
    jump of order one over delta ~ 1e-7 flags the hypothesis.
    """
    a, b = float(problem.a), float(problem.b)
    delta = 1e-7 * max(1.0, b - a)
    ts = np.linspace(a, b - delta, samples)
    x = np.tile(np.asarray(problem.phi(a), float).reshape(problem.n), (samples, 1))
    u = np.zeros((samples, problem.m))
    A, A_D, g, g_D, f0x, f0u = model_arrays(problem, "A", "A_D", "g", "g_D", "f0x", "f0u")
    # every coefficient value at each time, one row per time
    v0, v1 = (np.column_stack([A(t).reshape(samples, -1), A_D(t).reshape(samples, -1),
                               g(t, u), g_D(t, u), f0x(t, x, x), f0u(t, u, u)])
              for t in (ts, ts + delta))
    finite = np.all(np.isfinite(v0) & np.isfinite(v1), axis=1)
    if not np.all(finite):
        return CheckResult("continuity", False, np.inf, float(ts[np.argmin(finite)]),
                           "non-finite coefficient value")
    return _scored("continuity", np.max(np.abs(v1 - v0), axis=1), ts.tolist(), tol,
                   detail=f"value change over delta={delta:g}")


def verify_state_linear(problem: StateLinearProblem, cand: CandidateSolution,
                        cfg: VerifyConfig = VerifyConfig(),
                        adjoint_override: Optional[AdjointTrajectory] = None
                        ) -> Certificate:
    """Full hypothesis run for the state-linear sufficiency theorem.

    Continuity (i), convexity of f0x (ii), then the adjoint system with its
    transversality condition and the maximality condition (iii).  An overall
    pass certifies optimality of the candidate; the candidate's quadrature
    cost is reported in the metrics.  ``adjoint_override`` substitutes a
    caller-supplied multiplier: one already integrated, or a documented
    negative fixture.
    """
    cert = Certificate(title=f"verify-state-linear {problem.name or '(unnamed)'}",
                       seed=cfg.seed, tolerances=cfg.tolerance_record(
                           "tol_continuity", "tol_convexity", "tol_transversality",
                           "tol_maximality"))
    cert.checks.append(check_continuity_spot(problem, tol=cfg.tol_continuity))
    cert.checks.append(check_convexity_f0x(
        problem, cand, tol=cfg.tol_convexity, pairs=cfg.convexity_pairs,
        halfwidth=cfg.convexity_halfwidth, seed=cfg.seed))
    eta = adjoint_override or integrate_adjoint_linear(problem, cand, cfg.integrator)
    cert.checks.append(check_transversality(eta, tol=cfg.tol_transversality))
    cert.checks.append(check_maximality(
        problem, cand, eta, grid_points_per_cell=cfg.grid_points_per_cell,
        tol=cfg.tol_maximality, probes=cfg.probes_per_point, seed=cfg.seed))
    cert.metrics["cost"] = evaluate_cost(problem, cand,
                                         cfg.quadrature_steps_per_cell)
    return cert


# -- Hamilton-Jacobi verification --------------------------------------------------

@dataclass(frozen=True)
class ValueFunctionCandidate:
    """Scalar verification function S(t, x) with optional analytic partials.

    Missing partials fall back to central finite differences; the time
    derivative is one-sided unreliable across lattice breakpoints, so
    analytic S_t is strongly preferred for piecewise-defined functions.
    """

    S: Callable[[float, np.ndarray], float]
    S_t: Optional[Callable[[float, np.ndarray], float]] = None
    S_x: Optional[Callable[[float, np.ndarray], np.ndarray]] = None

    def value(self, t, x) -> float:
        return float(self.S(float(t), np.asarray(x, float)))

    def dt(self, t, x) -> float:
        if self.S_t is not None:
            return float(self.S_t(float(t), np.asarray(x, float)))
        return central_scalar(lambda tt: self.value(tt, x), float(t))

    def dx(self, t, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, float))
        if self.S_x is not None:
            return np.asarray(self.S_x(float(t), x), float).reshape(x.shape)
        return gradient(lambda z: self.value(t, z), x)


def active_cells(lattice: CommensurabilityLattice, t) -> int:
    """How many closed cells [a+ih, a+(i+1)h] contain t: one for an interior
    point, two for an interior breakpoint.  The count multiplies the braced
    term of the verification equation, which is evaluated as written.  A
    float t up to 1e-12 of a cell's size outside it counts as inside."""
    return int(_sample_times(lattice, [as_rational(t) if isinstance(t, str) else t]).cells[0])


def _closed_loop(problem: DelayedProblem, S: ValueFunctionCandidate, feedback: Callable,
                 state_traj: Trajectory, t: np.ndarray, t_delayed: np.ndarray, dx=None):
    """Feedback control u*(t, x, x(t-r), S_x(t, x)) at the float times ``t``
    and x = x(t) + dx, and its arguments: (u, x, x(t-r), S_x), in array passes."""
    x = state_traj.eval_many(t)
    if dx is not None:
        x = x + np.asarray(dx, dtype=float)
    y = state_traj.eval_many(t_delayed)
    eta = array_form(S.dx, (problem.n,))(t, x)
    return array_form(feedback, (problem.m,))(t, x, y, eta), x, y, eta


def hj_residual(problem: DelayedProblem, S: ValueFunctionCandidate,
                feedback: Callable, lattice: CommensurabilityLattice, t,
                state_traj: Trajectory, dx: Optional[np.ndarray] = None
                ) -> float | np.ndarray:
    """Left-hand side of the verification equation at time t:

        S_t(t, x(t)) + k(t) [ -f0(t, x(t), x(t-r), u*(t), u*(t-s))
                              + S_x(t, x(t)) f(t, x(t), x(t-r), u*(t), u*(t-s)) ]

    where k(t) counts the active closed cells and controls come from the
    feedback law u*(t, x(t), x(t-r), S_x(t, x(t))), with the history psi
    standing in when t - s precedes the horizon start.

    ``t`` is one time (a float result) or a sequence of times (an array, bit
    for bit the stacked one-time results), each term one array-form call.
    ``dx`` displaces the current state x(t) off the trajectory: one
    displacement, or one row per time.  The delayed argument x(t-r) and the
    control u*(t-s) stay on the centerline: the equation is stated along
    trajectories, so this only probes robustness of S in x.
    """
    single = not isinstance(t, (Sequence, np.ndarray))
    times = _sample_times(lattice, [t] if single else t)
    u, x, y, eta = _closed_loop(problem, S, feedback, state_traj, times.t,
                                times.delayed_state, dx)
    early, lag = times.before_start, ~times.before_start
    v = np.empty_like(u)
    v[early] = model_arrays(problem, "psi")[0](times.delayed_control[early])
    v[lag] = _closed_loop(problem, S, feedback, state_traj, times.delayed_control[lag],
                          times.delayed_both[lag])[0]
    args = (times.t, x, y, u, v)
    braced = (-array_form(problem.f0, ())(*args)
              + np.sum(eta * array_form(problem.f, (problem.n,))(*args), axis=1))
    res = array_form(S.dt, ())(times.t, x) + times.cells * braced
    return float(res[0]) if single else res


def verify_nonlinear_hj(problem: DelayedProblem, cand: CandidateSolution,
                        S: ValueFunctionCandidate, feedback: Callable,
                        cfg: VerifyConfig = VerifyConfig()) -> Certificate:
    """Certificate for the nonlinear verification theorem, five checks:

    1. terminal condition S(b, x(b)) = -g0(x(b));
    2. verification-equation residual along the candidate (strict gate) and
       on a small perturbation tube around it (heuristic robustness gate;
       breakpoint samples, where two closed cells overlap, are reported in
       the detail rather than gated);
    3. the feedback law reproduces the candidate control;
    4. value and S_x continuity of S across interior breakpoints (two-sided
       Richardson-extrapolated limits);
    5. -S(a, x_a) equals the candidate's quadrature cost.
    """
    lattice = problem.lattice()
    rng = np.random.default_rng(cfg.seed)
    cert = Certificate(title=f"verify-nonlinear-hj {problem.name or '(unnamed)'}",
                       seed=cfg.seed, tolerances=cfg.tolerance_record(
                           "tol_terminal", "tol_residual", "tube_radius", "tube_tol",
                           "tol_feedback", "tol_smoothness", "tol_cost"))

    xb = cand.state.eval(problem.b)
    term = abs(S.value(problem.b, xb) + problem.terminal_cost(xb))
    cert.checks.append(CheckResult("terminal_value", term <= cfg.tol_terminal,
                                   term, float(problem.b)))

    interior = _rational_grid(lattice, cfg.grid_points_per_cell, interior_only=True)
    breakpoints = list(lattice.breakpoints[1:-1])
    tube_times = [t for t in interior[:: max(1, len(interior) // 40)] for _ in range(4)]
    # one draw, in the stream order of drawing the directions sample by sample
    directions = rng.normal(size=(len(tube_times), problem.n))
    directions /= np.maximum(np.linalg.norm(directions, axis=1, keepdims=True), 1e-30)
    res, bp_res, tube = (
        hj_residual(problem, S, feedback, lattice, ts, cand.state, dx) for ts, dx in
        ((interior, None), (breakpoints, None), (tube_times, cfg.tube_radius * directions)))
    tube_worst = float(np.max(np.abs(tube), initial=0.0))
    bp_notes = "; ".join(f"t={bp}: {value:.3e} (two cells active)"
                         for bp, value in zip(breakpoints, bp_res))
    # the breakpoint and tube samples weigh in here only when non-finite
    gaps = [np.abs(res)] + [np.where(np.isfinite(v), 0.0, np.inf) for v in (bp_res, tube)]
    check = _scored("hj_residual", np.concatenate(gaps),
                    [float(t) for t in interior + breakpoints + tube_times], cfg.tol_residual,
                    detail=(f"tube worst {tube_worst:.3e} at radius {cfg.tube_radius:g}; "
                            f"breakpoint samples: {bp_notes or 'none'}"))
    check.passed = check.passed and tube_worst <= cfg.tube_tol
    cert.checks.append(check)

    grid = _sample_times(lattice, _rational_grid(lattice, cfg.grid_points_per_cell))
    u = _closed_loop(problem, S, feedback, cand.state, grid.t, grid.delayed_state)[0]
    cert.checks.append(_scored(
        "feedback_consistency", np.max(np.abs(u - cand.control.eval_many(grid.t)), axis=1),
        grid.t.tolist(), cfg.tol_feedback))

    eps = 1e-6 * max(1.0, float(problem.b) - float(problem.a))
    lo_box, hi_box = _candidate_state_box(problem, cand, 0.5)
    xs = [lo_box + frac * (hi_box - lo_box) for frac in (0.0, 0.25, 0.5, 0.75, 1.0)]
    tb = np.repeat(np.array(breakpoints, dtype=float), len(xs))
    x = np.tile(xs, (len(breakpoints), 1))
    # value and S_x from either side: a two-point Richardson limit removes
    # the O(eps) drift from the one-sided time slope
    limit = lambda fn, shape, h: (2.0 * array_form(fn, shape)(tb + h, x)
                                  - array_form(fn, shape)(tb + 2 * h, x))
    left, right = (np.column_stack([limit(S.value, (), h), limit(S.dx, (problem.n,), h)])
                   for h in (-eps, eps))
    cert.checks.append(_scored(
        "value_smoothness", np.max(np.abs(left - right), axis=1),
        [(t, tuple(np.round(z, 6).tolist())) for t, z in zip(tb.tolist(), x)],
        cfg.tol_smoothness, detail="value and S_x matched across interior breakpoints"))

    cost = evaluate_cost(problem, cand, cfg.quadrature_steps_per_cell)
    predicted = -S.value(problem.a, np.asarray(problem.phi(float(problem.a)),
                                               float).reshape(problem.n))
    gap = abs(cost - predicted)
    cert.checks.append(CheckResult("cost_consistency", gap <= cfg.tol_cost,
                                   gap, float(problem.a)))
    cert.metrics["cost"] = cost
    cert.metrics["minus_S_at_start"] = predicted
    return cert
