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

import numpy as np

from .errors import NonFiniteStateError, OutOfDomainError
from .lattice import CommensurabilityLattice, Rational
from .problems import AnyProblem, CandidateSolution, model_partials
from .trajectory import HermiteCurve, Trajectory, cell_trajectory, cell_values


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

# rhs evaluations per substep: RK4 over the substep, then over its two
# halves; the first half step reuses the full step's initial slope
_STAGES = 11


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
                  t0 + h / 2.0, t0 + h / 2.0, tm,
                  tm, tm + h / 2.0, tm + h / 2.0, tm + h]
    times.append(t_end)
    return widths, times


def _rk4(rhs, k: int, times: list, y: np.ndarray, dt: float, k1: np.ndarray):
    """Classical RK4 step with initial slope ``k1``; the other three stages
    are schedule entries ``k``, ``k + 1`` and ``k + 2``."""
    k2 = rhs(k, times[k], y + (dt / 2.0) * k1)
    k3 = rhs(k + 1, times[k + 1], y + (dt / 2.0) * k2)
    k4 = rhs(k + 2, times[k + 2], y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
        k1 = rhs(k, times[k], y)
        full = _rk4(rhs, k + 1, times, y, dt, k1)
        half1 = _rk4(rhs, k + 4, times, y, dt / 2.0, k1)
        k_mid = rhs(k + 7, times[k + 7], half1)
        half2 = _rk4(rhs, k + 8, times, half1, dt / 2.0, k_mid)
        ts += [times[k], times[k + 7]]
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
    return cell_trajectory(lattice, n, state_cells,
                           problem.state_history_start, problem.phi)


# -- adjoint equations -----------------------------------------------------------

def _costate(p: AnyProblem, cand: CandidateSolution, cfg: IntegratorConfig,
             name: str):
    """Lattice, cell curves and terminal value of the general costate (see
    :func:`integrate_adjoint_nonlinear`); ``name`` labels march errors."""
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
    f0_d, f_d, g0_grad = model_partials(p)
    f0_dx, f0_dy, f_dx, f_dy = f0_d[1], f0_d[2], f_d[1], f_d[2]

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
            val = -f0_dx(*args) - eta_t @ f_dx(*args)
            if chi:
                args_adv = (ts_adv[k], xa[k], x[k], ua[k], uad[k])
                e = eta_t if ea is None else ea[k]
                val = val - f0_dy(*args_adv) - e @ f_dy(*args_adv)
            return val
        return rhs

    terminal = np.zeros(n) if g0_grad is None else -g0_grad(cand.state.eval(p.b))
    cells = _march(name, lattice, cfg.substeps_per_cell, terminal, cell_rhs,
                   backward=True)
    return lattice, cells, terminal


def integrate_adjoint_nonlinear(problem: AnyProblem, cand: CandidateSolution,
                                cfg: IntegratorConfig = IntegratorConfig()
                                ) -> AdjointTrajectory:
    """Costate of the general delayed problem along a candidate pair.

    Backward method of steps for

        etadot(t) = - d2 f0[t] - d3 f0[t+r] chi(t)
                    - eta(t) d2 f[t] - eta(t+r) d3 f[t+r] chi(t)

    with eta(b) = -grad g0(x(b)), where [t] abbreviates the tuple
    (t, x(t), x(t-r), u(t), u(t-s)) and chi = chi_[a, b-r] is resolved per
    cell in exact integer arithmetic.  Cells are processed right to left so
    the advanced values eta(t+r) always hit finalized segments.  This
    orientation reproduces the multiplier d2 S(t, x(t)) of the verification
    function, i.e. the costate the feedback law consumes.  Partials come
    from :func:`~retard_oc.problems.model_partials`.
    """
    lattice, cells, terminal = _costate(problem, cand, cfg,
                                        "integrate_adjoint_nonlinear")
    return AdjointTrajectory(trajectory=cell_trajectory(lattice, problem.n, cells),
                             terminal_value=terminal)


def integrate_adjoint_linear(problem, cand: CandidateSolution,
                             cfg: IntegratorConfig = IntegratorConfig()
                             ) -> AdjointTrajectory:
    """Adjoint of the state-linear theorem,

        etadot(t) = d2 f0x(t, x(t), x(t-r)) + d3 f0x(t+r, x(t+r), x(t)) chi(t)
                    - eta(t) A(t) - eta(t+r) A_D(t+r) chi(t)

    with eta(b) = 0 (free terminal state, stored exactly).  This is the
    general costate of :func:`integrate_adjoint_nonlinear` with its sign
    flipped; rounding is symmetric, so the flip loses nothing.
    """
    lattice, cells, _ = _costate(problem, cand, cfg, "integrate_adjoint_linear")
    flipped = [HermiteCurve(c.ts, -c.ys, -c.ds) for c in cells]
    return AdjointTrajectory(trajectory=cell_trajectory(lattice, problem.n, flipped),
                             terminal_value=np.zeros(problem.n))
