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

Where the slope is affine in the marched value (the costate of every
problem class, the state of a state-linear problem), each substep is an
affine map of its start value; a cell's maps are built in one batched pass
and only their chaining is sequential.  This agrees with the stage-by-stage
march to rounding (about 1e-13), not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteStateError, OutOfDomainError
from .lattice import CommensurabilityLattice, Rational
from .problems import (AnyProblem, CandidateSolution, StateLinearProblem,
                       array_form, model_arrays, model_partials)
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
    ahead of the march are the ones each stage reads; a substep ends at the
    one float its successor starts at.
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
        times += [t0, tm, tm, t1,
                  t0 + h / 2.0, t0 + h / 2.0, tm,
                  tm, tm + h / 2.0, tm + h / 2.0, t1]
    times.append(t_end)
    return widths, times


def _rk4(rhs, k: int, times: list, y: np.ndarray, dt: float, k1: np.ndarray):
    """Classical RK4 step with initial slope ``k1``; the other three stages
    are schedule entries ``k``, ``k + 1`` and ``k + 2``."""
    k2 = rhs(k, times[k], y + (dt / 2.0) * k1)
    k3 = rhs(k + 1, times[k + 1], y + (dt / 2.0) * k2)
    k4 = rhs(k + 2, times[k + 2], y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _substep(rhs, k: int, times: list, y: np.ndarray, dt):
    """Step-doubled RK4 pair over schedule entries k .. k + 10 from ``y``,
    Richardson-combined: initial slope, midpoint value and slope, end value.
    Elementwise in ``y`` and ``dt``, so it also steps a batch."""
    k1 = rhs(k, times[k], y)
    full = _rk4(rhs, k + 1, times, y, dt, k1)
    half1 = _rk4(rhs, k + 4, times, y, dt / 2.0, k1)
    k_mid = rhs(k + 7, times[k + 7], half1)
    half2 = _rk4(rhs, k + 8, times, half1, dt / 2.0, k_mid)
    return k1, half1, k_mid, half2 + (half2 - full) / 15.0


def _node_index(substeps: int) -> np.ndarray:
    """Schedule entries of the nodes: substep starts and midpoints, endpoint."""
    return np.append(_STAGES * np.arange(substeps)[:, None] + [0, 7], _STAGES * substeps)


def _nodes(times: list, ys, ds):
    """Node arrays of a marched cell, ascending in time, from the values and
    slopes at the :func:`_node_index` entries in march order."""
    ts = np.asarray(times)[_node_index(len(times) // _STAGES)]
    ys, ds = np.asarray(ys), np.asarray(ds)
    if ts[-1] < ts[0]:
        ts, ys, ds = ts[::-1], ys[::-1], ds[::-1]
    return ts, ys, ds


def _integrate_cell(rhs, widths: list, times: list, y0: np.ndarray):
    """March one cell along its :func:`_cell_schedule`, one :func:`_substep`
    at a time; ``rhs(k, t, y)`` gets the schedule index k and t = times[k].
    Returns the :func:`_nodes` arrays and the endpoint value."""
    ys, ds = [], []
    y = np.asarray(y0, dtype=float).copy()
    for j, dt in enumerate(widths):
        k1, half1, k_mid, y_next = _substep(rhs, _STAGES * j, times, y, dt)
        ys += [y, half1]
        ds += [k1, k_mid]
        y = y_next
    ys.append(y); ds.append(rhs(len(times) - 1, times[-1], y))
    return (*_nodes(times, ys, ds), y)


def _affine_cell(slope_terms, widths: list, times: list, y0: np.ndarray):
    """:func:`_integrate_cell` for a slope ``y @ M[k] + c[k]`` at schedule
    index k.  ``slope_terms(ts)`` gives M, shape (len(ts), n, n), and c,
    shape (len(ts), n), at the schedule's distinct times ``ts`` (equal
    floats read equal inputs).  Each :func:`_substep` is an affine map
    [y, 1] @ Z of its start value: the pair applied to the rows of
    Z = [I; 0], c acting on the last row, all substeps in one batch."""
    ts, inv = np.unique(times, return_inverse=True)
    M, c = (terms[inv] for terms in slope_terms(ts))
    S, n = len(widths), M.shape[-1]
    Ms = M[:-1].reshape(S, _STAGES, n, n)
    cs = np.zeros((S, _STAGES, n + 1, n))
    cs[:, :, n] = c[:-1].reshape(S, _STAGES, n)
    # the slope terms are indexed by stage; the stage times are not read
    _, mid_maps, _, maps = _substep(lambda k, t, Z: Z @ Ms[:, k] + cs[:, k], 0,
                                    times, np.eye(n + 1, n),
                                    np.asarray(widths)[:, None, None])
    ys = np.ones((S + 1, n + 1))
    ys[0, :n] = y0
    for j in range(S):
        ys[j + 1, :n] = ys[j] @ maps[j]
    mids = np.einsum("ji,jik->jk", ys[:-1], mid_maps)
    node_ys = np.vstack((np.stack((ys[:-1, :n], mids), axis=1).reshape(-1, n),
                         ys[-1, :n]))
    k = _node_index(S)
    node_ds = np.einsum("ji,jik->jk", node_ys, M[k]) + c[k]
    return (*_nodes(times, node_ys, node_ds), ys[-1, :n])


def _march(name: str, lattice: CommensurabilityLattice, substeps: int,
           y: np.ndarray, march_cell, backward: bool = False) -> list[HermiteCurve]:
    """Method of steps over the lattice cells, left to right or right to left.

    ``march_cell(i, widths, times, y, curves)`` resolves every input cell
    ``i`` reads at its :func:`_cell_schedule` (``curves`` holds the cells
    finalized so far), marches it from ``y`` with :func:`_integrate_cell`
    or :func:`_affine_cell` and returns what they return.  The value at
    each cell seam must be finite.
    """
    curves: list = [None] * lattice.n_cells
    order = range(lattice.n_cells)
    for i in (reversed(order) if backward else order):
        lo, hi = lattice.cell(i)
        start, end = (hi, lo) if backward else (lo, hi)
        widths, times = _cell_schedule(float(start), float(end), substeps)
        ts, ys, ds, y = march_cell(i, widths, times, y, curves)
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
    The output is continuous at breakpoints by construction.  A
    :class:`~retard_oc.problems.StateLinearProblem` has the affine slope
    x A^T + A_D x(t-r) + g + g_D (A_D joins the matrix when r = 0).
    """
    lattice = problem.lattice()
    if not control.covers(problem.control_history_start, problem.b):
        raise OutOfDomainError("control must cover [a - s, b]")
    n = problem.n
    k_r, k_s = lattice.state_shift, lattice.control_shift
    rf, sf = float(lattice.r), float(lattice.s)
    u_cells = control.cell_curves(lattice)
    phi, psi = model_arrays(problem, "phi", "psi")

    def inputs(i, ts, x_cells):
        u = u_cells[i].eval_many(ts)
        ud = u if k_s == 0 else cell_values(u_cells, i - k_s, ts - sf, psi)
        xd = None if k_r == 0 else cell_values(x_cells, i - k_r, ts - rf, phi)
        return u, ud, xd

    if isinstance(problem, StateLinearProblem):
        A, A_D, g, g_D = model_arrays(problem, "A", "A_D", "g", "g_D")

    def slope_terms(i, ts, x_cells):
        u, ud, xd = inputs(i, ts, x_cells)
        if k_r == 0:
            return np.swapaxes(A(ts) + A_D(ts), 1, 2), g(ts, u) + g_D(ts, ud)
        return (np.swapaxes(A(ts), 1, 2),
                (A_D(ts) @ xd[:, :, None])[:, :, 0] + g(ts, u) + g_D(ts, ud))

    def march_cell(i, widths, times, y, x_cells):
        if isinstance(problem, StateLinearProblem):
            return _affine_cell(lambda ts: slope_terms(i, ts, x_cells), widths, times, y)
        u, ud, xd = inputs(i, np.array(times), x_cells)

        def rhs(k, t, x):
            return problem.dynamics(t, x, x if xd is None else xd[k], u[k], ud[k])
        return _integrate_cell(rhs, widths, times, y)

    y0 = np.asarray(problem.phi(float(lattice.a)), dtype=float).reshape(n)
    state_cells = _march("integrate_forward", lattice, cfg.substeps_per_cell,
                         y0, march_cell)
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
    f0_dx, f0_dy = (array_form(fn, (n,)) for fn in f0_d[1:3])
    f_dx, f_dy = (array_form(fn, (n, n)) for fn in f_d[1:3])
    # declared state-linear partials never read the control; finite
    # differences of the running cost do, since f0u enters their rounding
    reads_control = not (isinstance(p, StateLinearProblem)
                         and p.f0x_dx is not None and p.f0x_dy is not None)

    phi, psi = model_arrays(p, "phi", "psi")

    def states(idx, ts):
        return cell_values(x_cells, idx, ts, phi)

    def controls(idx, ts):
        if not reads_control:
            return [None] * len(ts)
        return cell_values(u_cells, idx, ts, psi)

    def slope_terms(i, ts, eta_cells):
        """eta' = eta @ M + c: M = -d2 f[t] (also -d3 f[t+r] when r = 0)."""
        x = states(i, ts)
        xd = x if k_r == 0 else states(i - k_r, ts - rf)
        u = controls(i, ts)
        ud = u if k_s == 0 else controls(i - k_s, ts - sf)
        M, c = -f_dx(ts, x, xd, u, ud), -f0_dx(ts, x, xd, u, ud)
        if i + k_r <= lattice.n_cells - 1:      # chi_[a, b-r], exact per cell
            ts_adv = ts + rf
            xa = x if k_r == 0 else states(i + k_r, ts_adv)
            ua = u if k_r == 0 else controls(i + k_r, ts_adv)
            uad = ua if k_s == 0 else controls(i + k_r - k_s, ts_adv - sf)
            f_dy_adv = f_dy(ts_adv, xa, x, ua, uad)
            c = c - f0_dy(ts_adv, xa, x, ua, uad)
            if k_r == 0:
                M = M - f_dy_adv
            else:
                c = c - np.einsum("ji,jik->jk", eta_cells[i + k_r].eval_many(ts_adv),
                                  f_dy_adv)
        return M, c

    def march_cell(i, widths, times, y, eta_cells):
        return _affine_cell(lambda ts: slope_terms(i, ts, eta_cells), widths, times, y)

    terminal = np.zeros(n) if g0_grad is None else -g0_grad(cand.state.eval(p.b))
    cells = _march(name, lattice, cfg.substeps_per_cell, terminal, march_cell,
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
