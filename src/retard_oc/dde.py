"""Method-of-steps integration of the delayed state and adjoint equations.

Stepping is fixed and aligned to lattice cells: smoothness is lost exactly
at cell boundaries, so each cell is an ordinary smooth initial value
problem once the delayed (or advanced) arguments are resolved against
already-finalized segments.  Delayed lookups are resolved by integer cell
index, never by floating-point boundary comparison, and always against
finalized curves; an ordering violation raises instead of extrapolating.

Each substep advances with a step-doubled classical RK4 pair combined by
one Richardson level.  Locally that is O(dt^6), comfortably inside the
O(dt^5) budget a plain RK4 substep would give, and it is what lets the
default 64 substeps per cell hold 1e-8 absolute error on stiff-ish
benchmark horizons.  Dense output stores value/slope nodes at half-substep
spacing, so cubic Hermite reconstruction does not dominate the node error.

The stage times of a fixed-step cell are known before it is marched, and
every delayed or advanced argument a cell reads is already final, so all of
them are resolved in one vectorised lookup per curve before the march; only
the current-cell state is sequential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteStateError, OutOfDomainError
from .lattice import CommensurabilityLattice, Rational
from .numdiff import grad_scalar_slot, gradient, partial_vec_slot
from .problems import AnyProblem, CandidateSolution, DelayedProblem, as_delayed
from .trajectory import (CallableCurve, HermiteCurve, Segment, Trajectory,
                         cell_values)


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step configuration: RK4 substeps per lattice cell."""

    substeps_per_cell: int = 64

    def __post_init__(self):
        if self.substeps_per_cell < 1:
            raise ValueError("substeps_per_cell must be >= 1")


@dataclass(frozen=True)
class AdjointTrajectory:
    """Row-covector adjoint over [a, b]; terminal value stored exactly."""

    trajectory: Trajectory
    terminal_value: np.ndarray

    def eval(self, t) -> np.ndarray:
        return self.trajectory.eval(t)

    __call__ = eval

    def eval_many(self, ts) -> np.ndarray:
        return self.trajectory.eval_many(ts)

    @property
    def end(self) -> Rational:
        return self.trajectory.end


# -- steppers -----------------------------------------------------------------

# rhs evaluations per substep: RK4 over the substep, then over its two halves
_STAGES = 12


def _cell_schedule(t_start: float, t_end: float, substeps: int):
    """Substep widths and the times at which a cell march evaluates the
    right-hand side, in call order: ``_STAGES`` per substep, then the
    endpoint.  ``t_end < t_start`` marches backward.

    The march steps with exactly these floats, so inputs resolved at them
    ahead of the march are the ones each stage reads.
    """
    span = t_end - t_start
    widths, times = [], []
    for j in range(substeps):
        t0 = t_start + span * (j / substeps)
        t1 = t_end if j == substeps - 1 else t_start + span * ((j + 1) / substeps)
        dt = t1 - t0
        h = dt / 2.0
        tm = t0 + h
        widths.append(dt)
        times += [t0, tm, tm, t0 + dt,
                  t0, t0 + h / 2.0, t0 + h / 2.0, tm,
                  tm, tm + h / 2.0, tm + h / 2.0, tm + h]
    times.append(t_end)
    return widths, times


def _rk4(rhs, k: int, times: list, y: np.ndarray, dt: float):
    """Classical RK4 step from stage ``k`` of the schedule."""
    k1 = rhs(k, times[k], y)
    k2 = rhs(k + 1, times[k + 1], y + (dt / 2.0) * k1)
    k3 = rhs(k + 2, times[k + 2], y + (dt / 2.0) * k2)
    k4 = rhs(k + 3, times[k + 3], y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), k1


def _integrate_cell(rhs, widths: list, times: list, y0: np.ndarray):
    """March one cell along its :func:`_cell_schedule`.

    ``rhs(k, t, y)`` is called with the schedule index ``k`` and time
    ``t = times[k]``.  Each substep is a step-doubled RK4 pair combined by
    one Richardson level.  Returns node arrays (ascending in time, a node at
    every substep start and midpoint) and the endpoint value.
    """
    ts, ys, ds = [], [], []
    y = np.asarray(y0, dtype=float).copy()
    for j, dt in enumerate(widths):
        k = _STAGES * j
        full, k1 = _rk4(rhs, k, times, y, dt)
        half1, _ = _rk4(rhs, k + 4, times, y, dt / 2.0)
        half2, k_mid = _rk4(rhs, k + 8, times, half1, dt / 2.0)
        ts += [times[k], times[k + 8]]
        ys += [y, half1]
        ds += [k1, k_mid]
        y = half2 + (half2 - full) / 15.0
    ts.append(times[-1]); ys.append(y); ds.append(rhs(len(times) - 1, times[-1], y))
    ts = np.asarray(ts); ys = np.asarray(ys); ds = np.asarray(ds)
    if times[-1] < times[0]:
        ts, ys, ds = ts[::-1], ys[::-1], ds[::-1]
    return ts, ys, ds, y


def _march(name: str, lattice: CommensurabilityLattice, substeps: int,
           y: np.ndarray, cell_rhs, backward: bool = False) -> list[HermiteCurve]:
    """Method of steps over the lattice cells, left to right or right to left.

    ``cell_rhs(i, times, curves)`` resolves every input cell ``i`` reads at
    the float array of its stage ``times`` (``curves`` holds the cells
    finalized so far) and returns the cell's ``rhs(k, t, y)``.  The value at
    each cell seam must be finite.
    """
    curves: list = [None] * lattice.n_cells
    order = range(lattice.n_cells)
    for i in (reversed(order) if backward else order):
        lo, hi = lattice.cell(i)
        start, end = (hi, lo) if backward else (lo, hi)
        widths, times = _cell_schedule(float(start), float(end), substeps)
        rhs = cell_rhs(i, np.array(times), curves)
        ts, ys, ds, y = _integrate_cell(rhs, widths, times, y)
        if not np.all(np.isfinite(y)):
            raise NonFiniteStateError(
                f"{name}: non-finite value at the end of cell {i} [{lo}, {hi}]")
        curves[i] = HermiteCurve(ts, ys, ds)
    return curves


def _assemble(problem, lattice, cell_curves, history: Optional[Callable],
              history_start: Rational) -> Trajectory:
    segments = []
    if history is not None and history_start < lattice.a:
        segments.append(Segment(history_start, lattice.a,
                                CallableCurve(history, problem.n)))
    for i, lo, hi in lattice.cells():
        segments.append(Segment(lo, hi, cell_curves[i]))
    return Trajectory(
        dimension=problem.n,
        history_start=segments[0].lo,
        main_start=lattice.a,
        end=lattice.b,
        segments=tuple(segments),
    )


# -- forward state integration -------------------------------------------------

def integrate_forward(problem: AnyProblem, control: Trajectory,
                      cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate the delayed state equation under ``control``.

    Within a cell the delayed arguments x(t-r) and u(t-s) are read from
    finalized earlier cells (or the histories), so each cell is a plain IVP.
    The output is continuous at breakpoints by construction.
    """
    lattice = problem.lattice()
    if not control.covers(problem.control_history_start, problem.b):
        raise OutOfDomainError("control must cover [a - s, b]")
    n, m = problem.n, problem.m
    k_r, k_s = lattice.state_shift, lattice.control_shift
    rf, sf = float(lattice.r), float(lattice.s)
    u_cells = control.cell_curves(lattice)

    def cell_rhs(i, ts, x_cells):
        u = u_cells[i].eval_many(ts)
        ud = u if k_s == 0 else cell_values(u_cells, i - k_s, ts - sf, problem.psi, m)
        xd = None if k_r == 0 else cell_values(x_cells, i - k_r, ts - rf, problem.phi, n)

        def rhs(k, t, x):
            return problem.dynamics(t, x, x if xd is None else xd[k], u[k], ud[k])
        return rhs

    y0 = np.asarray(problem.phi(float(lattice.a)), dtype=float).reshape(n)
    state_cells = _march("integrate_forward", lattice, cfg.substeps_per_cell,
                         y0, cell_rhs)
    return _assemble(problem, lattice, state_cells, problem.phi,
                     problem.state_history_start)


# -- adjoint of the state-linear problem ----------------------------------------

def integrate_adjoint_linear(problem, cand: CandidateSolution,
                             cfg: IntegratorConfig = IntegratorConfig()
                             ) -> AdjointTrajectory:
    """Backward method of steps for the state-linear adjoint equation

        etadot(t) = d2 f0x(t, x(t), x(t-r)) + d3 f0x(t+r, x(t+r), x(t)) chi(t)
                    - eta(t) A(t) - eta(t+r) A_D(t+r) chi(t)

    with eta(b) = 0 (free terminal state).  Cells are processed right to
    left so the advanced values eta(t+r) always hit finalized segments; the
    window chi = chi_[a, b-r] is resolved per cell in exact integer
    arithmetic.
    """
    lattice = problem.lattice()
    n = problem.n
    if not cand.state.covers(problem.a - problem.r, problem.b):
        raise OutOfDomainError("candidate state must cover [a - r, b]")
    k_r = lattice.state_shift
    rf = float(lattice.r)
    x_cells = cand.state.cell_curves(lattice)

    if problem.f0x_dx is not None:
        f0x_dx = lambda t, x, y: np.asarray(problem.f0x_dx(t, x, y), float).reshape(n)
    else:
        f0x_dx = lambda t, x, y: grad_scalar_slot(
            lambda tt, xx, yy: problem.f0x(tt, xx, yy), 1, (t, x, y))
    if problem.f0x_dy is not None:
        f0x_dy = lambda t, x, y: np.asarray(problem.f0x_dy(t, x, y), float).reshape(n)
    else:
        f0x_dy = lambda t, x, y: grad_scalar_slot(
            lambda tt, xx, yy: problem.f0x(tt, xx, yy), 2, (t, x, y))

    def cell_rhs(i, ts, eta_cells):
        chi = i + k_r <= lattice.n_cells - 1
        x = x_cells[i].eval_many(ts)
        xd = x if k_r == 0 else cell_values(x_cells, i - k_r, ts - rf, problem.phi, n)
        if chi:
            ts_adv = ts + rf
            xa = x if k_r == 0 else x_cells[i + k_r].eval_many(ts_adv)
            ea = None if k_r == 0 else eta_cells[i + k_r].eval_many(ts_adv)
            ts_adv = ts_adv.tolist()

        def rhs(k, t, eta_t):
            val = f0x_dx(t, x[k], xd[k]) - eta_t @ np.asarray(
                problem.A(t), float).reshape(n, n)
            if chi:
                tr = ts_adv[k]
                e = eta_t if ea is None else ea[k]
                val = val + f0x_dy(tr, xa[k], x[k]) - e @ np.asarray(
                    problem.A_D(tr), float).reshape(n, n)
            return val
        return rhs

    # transversality: exact zero terminal row covector
    eta_cells = _march("integrate_adjoint_linear", lattice, cfg.substeps_per_cell,
                       np.zeros(n), cell_rhs, backward=True)
    traj = _assemble(problem, lattice, eta_cells, None, lattice.a)
    return AdjointTrajectory(trajectory=traj, terminal_value=np.zeros(n))


# -- adjoint of the general nonlinear problem ------------------------------------

def _f0_partial(p: DelayedProblem, slot: int, args) -> np.ndarray:
    fn = (None, p.f0_dx, p.f0_dy, p.f0_du, p.f0_dv)[slot]
    dim = p.n if slot in (1, 2) else p.m
    if fn is not None:
        return np.asarray(fn(*args), float).reshape(dim)
    return grad_scalar_slot(p.f0, slot, args)


def _f_jacobian(p: DelayedProblem, slot: int, args) -> np.ndarray:
    fn = (None, p.f_dx, p.f_dy, p.f_du, p.f_dv)[slot]
    cols = p.n if slot in (1, 2) else p.m
    if fn is not None:
        return np.asarray(fn(*args), float).reshape(p.n, cols)
    return partial_vec_slot(p.f, slot, args, p.n)


def _g0_gradient(p: DelayedProblem, x) -> np.ndarray:
    if p.g0_grad is not None:
        return np.asarray(p.g0_grad(x), float).reshape(p.n)
    return gradient(lambda z: float(p.g0(z)), np.asarray(x, float))


def integrate_adjoint_nonlinear(problem, cand: CandidateSolution,
                                cfg: IntegratorConfig = IntegratorConfig()
                                ) -> AdjointTrajectory:
    """Costate of the general delayed problem along a candidate pair.

    Backward method of steps for

        etadot(t) = - d2 f0[t] - d3 f0[t+r] chi(t)
                    - eta(t) d2 f[t] - eta(t+r) d3 f[t+r] chi(t)

    with eta(b) = -grad g0(x(b)), where [t] abbreviates the tuple
    (t, x(t), x(t-r), u(t), u(t-s)).  This orientation reproduces the
    multiplier d2 S(t, x(t)) of the verification function, i.e. the costate
    the feedback law consumes.  Partials come from declared derivatives when
    present, otherwise central finite differences.
    """
    p = as_delayed(problem)
    lattice = p.lattice()
    n = p.n
    if not cand.state.covers(p.a - p.r, p.b):
        raise OutOfDomainError("candidate state must cover [a - r, b]")
    if not cand.control.covers(p.control_history_start, p.b):
        raise OutOfDomainError("candidate control must cover [a - s, b]")
    k_r, k_s = lattice.state_shift, lattice.control_shift
    rf, sf = float(lattice.r), float(lattice.s)
    x_cells = cand.state.cell_curves(lattice)
    u_cells = cand.control.cell_curves(lattice)

    def states(idx, ts):
        return cell_values(x_cells, idx, ts, p.phi, n)

    def controls(idx, ts):
        return cell_values(u_cells, idx, ts, p.psi, p.m)

    def cell_rhs(i, ts, eta_cells):
        chi = i + k_r <= lattice.n_cells - 1
        x = states(i, ts)
        xd = x if k_r == 0 else states(i - k_r, ts - rf)
        u = controls(i, ts)
        ud = u if k_s == 0 else controls(i - k_s, ts - sf)
        if chi:
            ts_adv = ts + rf
            xa = x if k_r == 0 else states(i + k_r, ts_adv)
            ua = u if k_r == 0 else controls(i + k_r, ts_adv)
            uad = ua if k_s == 0 else controls(i + k_r - k_s, ts_adv - sf)
            ea = None if k_r == 0 else eta_cells[i + k_r].eval_many(ts_adv)
            ts_adv = ts_adv.tolist()

        def rhs(k, t, eta_t):
            args = (t, x[k], xd[k], u[k], ud[k])
            val = -_f0_partial(p, 1, args) - eta_t @ _f_jacobian(p, 1, args)
            if chi:
                args_adv = (ts_adv[k], xa[k], x[k], ua[k], uad[k])
                e = eta_t if ea is None else ea[k]
                val = val - _f0_partial(p, 2, args_adv) - e @ _f_jacobian(p, 2, args_adv)
            return val
        return rhs

    xb = cand.state.eval(p.b)
    terminal = -_g0_gradient(p, xb)
    eta_cells = _march("integrate_adjoint_nonlinear", lattice, cfg.substeps_per_cell,
                       terminal, cell_rhs, backward=True)
    traj = _assemble(p, lattice, eta_cells, None, lattice.a)
    return AdjointTrajectory(trajectory=traj, terminal_value=terminal)
