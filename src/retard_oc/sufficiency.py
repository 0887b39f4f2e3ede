"""Executable hypothesis checkers for the two sufficient-optimality theorems.

Every check returns a structured record (pass flag, worst residual, worst
location) rather than raising; a certificate is the conjunction of its
checks together with the tolerances and random seed that produced it.
Each check makes one pass: it evaluates each curve and model field once,
over all of its sample sets together, and splits the rows afterwards.

Indicator windows such as chi_[a, b-s] switch exactly at lattice points.
Lattice sample grids are therefore integer numerators over one common
denominator, and membership is decided in integer arithmetic, with the
closed-interval convention: the endpoint t = b - s is inside the window.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .cost import evaluate_cost
from .dde import (AdjointTrajectory, IntegratorConfig, _check_settings,
                  integrate_adjoint_linear)
from .errors import UnboundedCriterionError
from .lattice import (CommensurabilityLattice, _joined, _lattice_grid, _sample_times,
                      _SampleTimes, as_rational)
from .numdiff import central_scalar, gradient, hessians
from .problems import (AnyProblem, CandidateSolution, ControlSet, DelayedProblem,
                       StateLinearProblem, array_form, dynamics_array, model_arrays,
                       running_cost_array)
from .trajectory import Trajectory

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# rounding allowance of a criterion value, relative to its size: 16 ulps
ROUNDING_FLOOR = 16 * np.finfo(float).eps


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
        _check_settings(self, {"grid_points_per_cell": 1, "probes_per_point": 0, "seed": 0,
                               "convexity_pairs": 1, "quadrature_steps_per_cell": 2},
                        [name for name in vars(self) if name.startswith(("tol_", "tube_"))]
                        + ["convexity_halfwidth"])
        if self.quadrature_steps_per_cell % 2:
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

def hamiltonian(problem: AnyProblem) -> Callable:
    """H = -f0 + eta f over K times, (ts, X, Y, U, V, E) -> (K,), for either
    class: one call of the running cost's and the dynamics' array forms."""
    f0, f = running_cost_array(problem), dynamics_array(problem)
    return lambda ts, x, y, u, v, eta: (-f0(ts, x, y, u, v)
                                        + np.sum(eta * f(ts, x, y, u, v), axis=1))


# -- maximality ------------------------------------------------------------------

class _Criterion:
    """The criterion of :func:`maximality_criterion` at every sample time of
    a :class:`_SampleTimes`, for either problem class.

    The u-independent arguments of both terms, at t and at t + s, are
    computed in one pass, one curve lookup per curve; :meth:`values` then
    scores any number of (time, control) pairs in array passes, one call per
    term.
    """

    def __init__(self, problem: AnyProblem, cand: CandidateSolution,
                 eta: AdjointTrajectory, times: _SampleTimes):
        self.problem, self.t = problem, times.t.tolist()
        if isinstance(problem, StateLinearProblem):
            self.model = model_arrays(problem, "A", "A_D", "f0x", "g", "g_D", "f0u")
        else:
            self.model, self.H = None, hamiltonian(problem)
        self.ahead = np.where(times.gated, np.cumsum(times.gated) - 1, -1)
        K, join = len(times.t), np.concatenate
        both = self._parts(cand, eta, join([times.t, times.ahead]),
                           join([times.delayed_state, times.ahead_delayed]),
                           join([times.delayed_control, times.ahead]))
        self.now, self.later = tuple(p[:K] for p in both), tuple(p[K:] for p in both)

    def _parts(self, cand, eta, t, t_delayed, t_control):
        """(t, w = u(t_control), eta, x, y = x(t_delayed)), then for a
        state-linear problem its drift A(t) x + A_D(t) y and f0x."""
        x, y = np.split(cand.state.eval_many(np.concatenate([t, t_delayed])), [len(t)])
        parts = (t, cand.control.eval_many(t_control), eta.eval_many(t), x, y)
        if self.model is not None:
            A, A_D, f0x = self.model[:3]
            parts += ((A(t) @ x[:, :, None] + A_D(t) @ y[:, :, None])[:, :, 0], f0x(t, x, y))
        return parts

    def _terms(self, p: int, parts, rows: np.ndarray, U: np.ndarray) -> np.ndarray:
        """H at ``rows`` of ``parts`` with U in the slot of u (p = 1) or of the
        delayed control v (p = 0): one :func:`hamiltonian` call, or for a
        state-linear problem H^p, one call of each control field's array form."""
        ts, w, eta, x, y, *linear = parts
        t = ts[rows]
        u, v = (U, w[rows]) if p == 1 else (w[rows], U)
        if self.model is None:
            return self.H(t, x[rows], y[rows], u, v, eta[rows])
        (drift, f0x), (g, g_D, f0u) = linear, self.model[3:]
        drift = drift[rows] + (g(t, u) if p == 1 else g_D(t, v))
        return -(f0x[rows] + f0u(t, u, v)) + np.sum(eta[rows] * drift, axis=1)

    def values(self, k, U) -> np.ndarray:
        """Criterion at the times ``k`` (an index array) of the controls U, (K, m)."""
        if not len(k):
            return np.zeros(0)
        U = np.asarray(U, float).reshape(len(k), self.problem.m)
        val = self._terms(1, self.now, k, U)
        hit = self.ahead[k] >= 0
        val[hit] = val[hit] + self._terms(0, self.later, self.ahead[k][hit], U[hit])
        return val

    def at(self, k: int) -> Callable[[np.ndarray], float]:
        """The criterion at time ``k`` alone, as a function of u."""
        return lambda u: float(self.values(np.array([k]), u)[0])


def maximality_criterion(problem: AnyProblem, cand: CandidateSolution,
                         eta: AdjointTrajectory, t) -> Callable[[np.ndarray], float]:
    """Two-term criterion maximised by the optimal control at time t:

        u -> H(t, x(t), x(t-r), u, u(t-s), eta(t))
             + H(t+s, x(t+s), x(t+s-r), u(t+s), u, eta(t+s)) chi_[a, b-s](t)

    with eta in the sign of :func:`~retard_oc.dde.integrate_adjoint_linear`.
    A state-linear problem's terms are H^1 and H^0 of its theorem, which drop
    the parts of H that do not depend on the control scored.
    """
    return _Criterion(problem, cand, eta, _sample_times(problem.lattice(), [t])).at(0)


def _argmax_vector(fn, control_set: ControlSet, m: int,
                   rng: Optional[np.random.Generator] = None, time=None) -> np.ndarray:
    """Projected gradient ascent with multistart for box-constrained m > 1;
    ``time`` is the criterion's sample time, named if it is unbounded."""
    if control_set.is_free:
        # quadratic model via finite differences; require negative definiteness
        H = hessians(lambda U: np.array([fn(u) for u in U]), np.zeros((1, m)))[0]
        g0 = gradient(fn, np.zeros(m))
        eig = np.linalg.eigvalsh(H)
        if np.max(eig) < -1e-10:
            u = np.linalg.solve(-H, g0)
            probe = fn(u)
            if all(fn(u + d) <= probe + 1e-9 * (1 + abs(probe))
                   for d in (np.eye(m) * 1e-3)):
                return u
        raise UnboundedCriterionError(
            "criterion is not negative definite and U is unbounded", time)
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


def _bracket(crit: _Criterion, k: np.ndarray, f0: np.ndarray) -> np.ndarray:
    """Half-width w = 1, 4, 16, ... <= 1e8 at each time of k, the first with the
    criterion at -w and at w below its value f0 at 0, in lockstep; NaN if none is."""
    w, open_, width = np.full(len(k), np.nan), np.arange(len(k)), 1.0
    while open_.size and width <= 1e8:
        f_lo, f_hi = crit.values(np.tile(k[open_], 2),
                                 np.repeat([-width, width], open_.size)).reshape(2, -1)
        done = (f_lo < f0[open_]) & (f0[open_] > f_hi)
        w[open_[done]] = width
        open_, width = open_[~done], width * 4.0
    return w


def _golden_section(crit: _Criterion, k: np.ndarray, a: np.ndarray, b: np.ndarray,
                    tol: float = 1e-11) -> np.ndarray:
    """Golden-section maxima on [a, b] at the times k in lockstep, each as a search alone."""
    c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    fc, fd = crit.values(np.tile(k, 2), np.concatenate([c, d])).reshape(2, -1)
    live = np.arange(len(k))
    while (live := live[np.abs(b[live] - a[live])
                        > tol * (1.0 + np.abs(a[live]) + np.abs(b[live]))]).size:
        left = fc[live] > fd[live]
        i, j = live[left], live[~left]
        b[i], d[i], fd[i] = d[i], c[i], fc[i]
        c[i] = b[i] - GOLDEN * (b[i] - a[i])
        a[j], c[j], fc[j] = c[j], d[j], fd[j]
        d[j] = a[j] + GOLDEN * (b[j] - a[j])
        f = crit.values(k[live], np.where(left, c[live], d[live]))
        fc[i], fd[j] = f[left], f[~left]
    return 0.5 * (a + b)


def _argmax_all(problem: AnyProblem, crit: _Criterion,
                rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Maximiser at every time of ``crit`` (either problem class, eta in the
    sign of :func:`maximality_criterion`), shape (len(crit.t), m).

    A scalar control runs at all times in array passes.  Where the quadratic
    fit at u = 0, 1, -1 predicts the values at 2, 0.5 and -1.5, a strictly
    concave quadratic takes its (projected) vertex, a constant one 0 on a
    free U, any other the better end of a box (the lower on a tie); other
    times take a golden-section search on the box or a bracket grown around
    0.  A criterion unbounded over a free U raises at its first time.  A
    vector control runs :func:`_argmax_vector` time by time."""
    N, cs = len(crit.t), problem.control_set
    if problem.m > 1:
        return np.array([_argmax_vector(crit.at(k), cs, problem.m, rng, crit.t[k])
                         for k in range(N)]).reshape(N, problem.m)
    z = np.array([0.0, 1.0, -1.0, 2.0, 0.5, -1.5])
    f = crit.values(np.repeat(np.arange(N), 6), np.tile(z, N)).reshape(N, 6)
    c0, cp, cm = f[:, 0], f[:, 1], f[:, 2]
    # fit and curvature tolerances: relative to the u-dependent differences,
    # plus the values' rounding floor, so a constant offset widens neither
    scale = np.maximum(1.0, np.maximum(np.abs(cp - c0), np.abs(cm - c0)))
    floor = ROUNDING_FLOOR * np.maximum(np.abs(c0), np.maximum(np.abs(cp), np.abs(cm)))
    fit_tol, tiny = 1e-8 * scale + floor, 1e-12 * scale + floor
    a2, a1, z = 0.5 * (cp + cm) - c0, 0.5 * (cp - cm), z[3:]
    # quadratic means the 3-point fit predicts fresh probe points
    quadratic = np.all(np.abs(f[:, 3:] - (c0[:, None] + a1[:, None] * z + a2[:, None] * z * z))
                       <= fit_tol[:, None], axis=1)
    vertex = quadratic & (a2 < -tiny)
    out, u = np.zeros((N, 1)), -a1[vertex] / (2.0 * a2[vertex])
    out[vertex, 0] = u if cs.is_free else np.clip(u, cs.lo, cs.hi)
    k, search = np.flatnonzero(quadratic & ~vertex), np.flatnonzero(~quadratic)
    if cs.is_free:   # a constant criterion takes 0
        w = _bracket(crit, search, c0[search])
        flat = (np.abs(a2[k]) <= tiny[k]) & (np.abs(a1[k]) <= tiny[k])
        failed = sorted(k[~flat].tolist() + search[np.isnan(w)].tolist())
        if failed:
            raise UnboundedCriterionError(
                "criterion keeps growing; no finite maximiser found" if failed[0] in search
                else "criterion is not strictly concave and U is unbounded", time=crit.t[failed[0]])
        lo, hi = -w, w
    else:
        lo, hi = float(cs.lo[0]), float(cs.hi[0])
        f_lo, f_hi = crit.values(np.tile(k, 2), np.repeat([lo, hi], len(k))).reshape(2, -1)
        out[k, 0] = np.where(f_lo >= f_hi, lo, hi)
        lo, hi = np.full(len(search), lo), np.full(len(search), hi)
    out[search, 0] = _golden_section(crit, search, lo, hi)
    return out


def _one_or_many(lattice: CommensurabilityLattice, t) -> tuple[_SampleTimes, bool]:
    """The sample times of ``t`` and whether it is one time (of ``np.ndim`` 0: a
    float, a ``Fraction``, a 0-d array) rather than many or ``_SampleTimes``."""
    if isinstance(t, _SampleTimes):
        return t, False
    single = np.ndim(t) == 0
    return _sample_times(lattice, [t] if single else t), single


def argmax_control_state_linear(problem: AnyProblem,
                                cand: CandidateSolution,
                                eta: AdjointTrajectory, t,
                                rng: Optional[np.random.Generator] = None
                                ) -> np.ndarray:
    """Maximiser of :func:`maximality_criterion` over the admissible control
    set, for either problem class, eta in the sign stated there.

    ``t`` is one time (result shape (m,)) or a sequence of times (result
    shape (len(t), m), bit for bit the stacked one-time results); the curve
    values at all times are looked up together.  A solver whose sample times
    never change passes them prepared once, as a ``_SampleTimes``.
    """
    times, single = _one_or_many(problem.lattice(), t)
    out = _argmax_all(problem, _Criterion(problem, cand, eta, times), rng)
    return out[0] if single else out


def check_maximality(problem: AnyProblem, cand: CandidateSolution,
                     eta: AdjointTrajectory, grid_points_per_cell: int = 24,
                     tol: float = 1e-6, probes: int = 32,
                     seed: int = 0) -> CheckResult:
    """Verify the candidate control maximises :func:`maximality_criterion`,
    for either problem class, eta in the sign stated there.

    At each rational sample time the candidate value is compared against the
    computed argmax and against random probes in U; the worst positive gap
    and its location are recorded.  A non-finite criterion value at any of
    these controls fails the check at the first time it occurs.
    """
    rng = np.random.default_rng(seed)
    lattice = problem.lattice()
    crit = _Criterion(problem, cand, eta, _lattice_grid(lattice, grid_points_per_cell))
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
    z = np.concatenate([mid, p, q])   # one f0x call at the midpoints and both ends
    f_mid, f_p, f_q = f0x(np.tile(t, 3), z[:, :n], z[:, n:]).reshape(3, pairs)
    viol = f_mid - 0.5 * (f_p + f_q)
    viol = np.where(viol > 0.0, viol, 0.0)
    k = int(np.argmax(viol))   # the first pair with the worst violation
    worst, worst_loc = ((float(viol[k]), (float(t[k]), tuple(np.round(mid[k], 6).tolist())))
                        if viol[k] > 0.0 else (0.0, None))
    # the Hessian at 32 points, drawn (t, z) point by point in the stream
    # order of rng.uniform, each probe of each point in one f0x call
    draw = rng.random((32, 1 + 2 * n))
    t = a + (b - a) * draw[:, 0]
    z = box_lo + (box_hi - box_lo) * draw[:, 1:]
    H = hessians(lambda w: f0x(np.repeat(t, len(w) // len(t)), w[:, :n], w[:, n:]), z)
    neg = -np.min(np.linalg.eigvalsh(H), axis=1)
    k = int(np.argmax(neg))   # the first point with the most negative eigenvalue
    if neg[k] > max(worst, noise):
        worst, worst_loc = float(neg[k]), (float(t[k]), tuple(np.round(z[k], 6).tolist()))
    return CheckResult("convexity_f0x", worst <= tol, worst, worst_loc,
                       detail=f"box halfwidth {halfwidth}, {pairs} midpoint pairs, "
                              f"Hessian eigenvalues above -{noise:g} taken as noise")


def check_transversality(eta: AdjointTrajectory, tol: float = 1e-9) -> CheckResult:
    """Terminal adjoint must vanish (free terminal state)."""
    residual = float(np.max(np.abs(eta.eval_many([float(eta.end)]))))
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
    phi, A, A_D, g, g_D, f0x, f0u = model_arrays(problem, "phi", "A", "A_D", "g", "g_D",
                                                 "f0x", "f0u")
    t = np.concatenate([ts, ts + delta])
    x, u = np.tile(phi(np.array([a])), (len(t), 1)), np.zeros((len(t), problem.m))
    # every coefficient value at each time, one row per time, in one pass over both
    v0, v1 = np.column_stack([A(t).reshape(len(t), -1), A_D(t).reshape(len(t), -1),
                              g(t, u), g_D(t, u), f0x(t, x, x), f0u(t, u, u)]
                             ).reshape(2, samples, -1)
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

    Missing partials are central finite differences of S, set once here;
    the time derivative is one-sided unreliable across lattice breakpoints,
    so analytic S_t is strongly preferred for piecewise-defined functions.
    """

    S: Callable[[float, np.ndarray], float]
    S_t: Optional[Callable[[float, np.ndarray], float]] = None
    S_x: Optional[Callable[[float, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.S_t is None:
            object.__setattr__(self, "S_t", lambda t, x: central_scalar(
                lambda tt: self.value(tt, x), float(t)))
        if self.S_x is None:
            object.__setattr__(self, "S_x", lambda t, x: gradient(
                lambda z: self.value(t, z), np.atleast_1d(np.asarray(x, float))))

    def value(self, t, x) -> float:
        return float(self.S(float(t), np.asarray(x, float)))

    def dt(self, t, x) -> float:
        return float(self.S_t(float(t), np.asarray(x, float)))

    def dx(self, t, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, float))
        return np.asarray(self.S_x(float(t), x), float).reshape(x.shape)


def active_cells(lattice: CommensurabilityLattice, t) -> int:
    """How many closed cells [a+ih, a+(i+1)h] contain t: one for an interior
    point, two for an interior breakpoint.  The count multiplies the braced
    term of the verification equation, which is evaluated as written.  A
    float t up to 1e-12 of a cell's size outside it counts as inside."""
    return int(_sample_times(lattice, [as_rational(t) if isinstance(t, str) else t]).cells[0])


def _closed_loop(problem: DelayedProblem, S: ValueFunctionCandidate, feedback: Callable,
                 state_traj: Trajectory, t: np.ndarray, t_delayed: np.ndarray, dx=None):
    """Feedback control u*(t, x, x(t-r), S_x(t, x)) at the float times ``t``
    and x = x(t) + dx, dx holding rows for the first times only, and its
    arguments: (u, x, x(t-r), S_x), in array passes, one state lookup for x
    and x(t-r)."""
    x, y = np.split(state_traj.eval_many(np.concatenate([t, t_delayed])), [len(t)])
    if dx is not None:
        x = np.concatenate([x[:len(dx)] + dx, x[len(dx):]])
    eta = array_form(S.S_x, (problem.n,))(t, x)
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
    for bit the stacked one-time results, also when prepared as a
    ``_SampleTimes``), each term one array-form call.
    ``dx`` displaces the current state x(t) off the trajectory: one
    displacement, or one row per time.  The delayed argument x(t-r) and the
    control u*(t-s) stay on the centerline: the equation is stated along
    trajectories, so this only probes robustness of S in x.
    """
    times, single = _one_or_many(lattice, t)
    K, early, lag = len(times.t), times.before_start, ~times.before_start
    # u*(t), then u*(t - s) on the lag rows appended undisplaced: one pass
    u, x, y, eta = _closed_loop(
        problem, S, feedback, state_traj, np.concatenate([times.t, times.delayed_control[lag]]),
        np.concatenate([times.delayed_state, times.delayed_both[lag]]),
        None if dx is None else np.broadcast_to(np.asarray(dx, dtype=float), (K, problem.n)))
    v = np.empty((K, problem.m))
    v[early] = model_arrays(problem, "psi")[0](times.delayed_control[early])
    v[lag], x = u[K:], x[:K]
    braced = hamiltonian(problem)(times.t, x, y[:K], u[:K], v, eta[:K])
    res = array_form(S.S_t, ())(times.t, x) + times.cells * braced
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

    xb = cand.state.eval_many([float(problem.b)])[0]
    term = abs(S.value(problem.b, xb) + problem.terminal_cost(xb))
    cert.checks.append(CheckResult("terminal_value", term <= cfg.tol_terminal,
                                   term, float(problem.b)))

    interior = _lattice_grid(lattice, cfg.grid_points_per_cell, interior_only=True)
    tube = np.repeat(np.arange(len(interior.t))[:: max(1, len(interior.t) // 40)], 4)
    tube_times = _lattice_grid(lattice, cfg.grid_points_per_cell, interior_only=True, rows=tube)
    breakpoints = list(lattice.breakpoints[1:-1])
    # one draw, in the stream order of drawing the directions sample by sample
    directions = rng.normal(size=(len(tube_times.t), problem.n))
    directions /= np.maximum(np.linalg.norm(directions, axis=1, keepdims=True), 1e-30)
    # one residual pass over the interior grid, the breakpoints and the tube;
    # the rows off the tube take dx = -0.0, as x + -0.0 is x bit for bit
    times = _joined(interior, _sample_times(lattice, breakpoints), tube_times)
    dx = np.full((len(times.t), problem.n), -0.0)
    dx[len(times.t) - len(tube_times.t):] = cfg.tube_radius * directions
    res, bp_res, tube = np.split(hj_residual(problem, S, feedback, lattice, times, cand.state, dx),
                                 [len(interior.t), len(interior.t) + len(breakpoints)])
    tube_worst = float(np.max(np.abs(tube), initial=0.0))
    bp_notes = "; ".join(f"t={bp}: {value:.3e} (two cells active)"
                         for bp, value in zip(breakpoints, bp_res))
    # the breakpoint and tube samples weigh in here only when non-finite
    gaps = [np.abs(res)] + [np.where(np.isfinite(v), 0.0, np.inf) for v in (bp_res, tube)]
    check = _scored("hj_residual", np.concatenate(gaps),
                    interior.t.tolist() + [float(t) for t in breakpoints] + tube_times.t.tolist(),
                    cfg.tol_residual,
                    detail=(f"tube worst {tube_worst:.3e} at radius {cfg.tube_radius:g}; "
                            f"breakpoint samples: {bp_notes or 'none'}"))
    check.passed = check.passed and tube_worst <= cfg.tube_tol
    cert.checks.append(check)

    grid = _lattice_grid(lattice, cfg.grid_points_per_cell)
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
    # the O(eps) drift from the one-sided time slope; one S and one S_x call
    # at tb - eps, tb - 2 eps, tb + eps and tb + 2 eps
    t4, x4 = np.concatenate([tb + k * h for h in (-eps, eps) for k in (1, 2)]), np.tile(x, (4, 1))
    f = np.column_stack([array_form(fn, shape)(t4, x4) for fn, shape in
                         ((S.S, ()), (S.S_x, (problem.n,)))]).reshape(4, len(tb), 1 + problem.n)
    left, right = 2.0 * f[0] - f[1], 2.0 * f[2] - f[3]
    cert.checks.append(_scored(
        "value_smoothness", np.max(np.abs(left - right), axis=1),
        [(t, tuple(np.round(z, 6).tolist())) for t, z in zip(tb.tolist(), x)],
        cfg.tol_smoothness, detail="value and S_x matched across interior breakpoints"))

    cost = evaluate_cost(problem, cand, cfg.quadrature_steps_per_cell)
    predicted = -S.value(problem.a, model_arrays(problem, "phi")[0](
        np.array([float(problem.a)]))[0])
    gap = abs(cost - predicted)
    cert.checks.append(CheckResult("cost_consistency", gap <= cfg.tol_cost,
                                   gap, float(problem.a)))
    cert.metrics["cost"] = cost
    cert.metrics["minus_S_at_start"] = predicted
    return cert
