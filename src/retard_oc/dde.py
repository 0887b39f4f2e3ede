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

The stage times of every cell are known before the march, and a delay of
k cells is a shift by k blocks (:func:`~retard_oc.trajectory.delayed_rows`),
so every input a march does not produce itself is resolved once for all
cells, one array-form call per model term.  Per cell only the finalized
cell r/h away is read, at its own stage times; only the current-cell state
is sequential, and where f reads none (:func:`_state_free_cell`) each state
component is marched alone on Python floats (:func:`_state_free_march`).

Where the slope is affine in the marched value (the costate of every
problem class, the state of a state-linear problem), each substep is an
affine map of its start value; a cell's maps are built in one batched pass
and only their chaining is sequential.  This agrees with the stage-by-stage
march to rounding (about 1e-13), not bit for bit.  The direct solver's
costate recursion is one doubling scan per lattice cell (:func:`_affine_scan`).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import NonFiniteStateError, OutOfDomainError
from .lattice import CommensurabilityLattice, Rational
from .problems import (AnyProblem, CandidateSolution, StateLinearProblem,
                       dynamics_array, model_arguments, model_arrays, model_partials)
from .trajectory import (HermiteCurve, Trajectory, block_rows, cell_trajectory,
                         delayed_rows)


def _check_settings(cfg, counts: dict, tolerances=()) -> None:
    """Refuse a bad setting of a config when it is built, by name: each of
    ``counts`` is an integer (Python or numpy, not a bool) of at least its
    minimum, each of ``tolerances`` a finite number >= 0."""
    for name, low in counts.items():
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
            raise ValueError(f"{name} must be >= {low} and an integer, not {value!r}")
    for name in tolerances:
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, Real) or not 0 <= value < np.inf:
            raise ValueError(f"{name} must be a finite number >= 0, not {value!r}")


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step configuration: RK4 substeps per lattice cell."""

    substeps_per_cell: int = 64

    def __post_init__(self):
        _check_settings(self, {"substeps_per_cell": 1})


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

# the distinct-time slots of substep j, less 4 j: its start, quarter,
# midpoint and three quarters are 0 .. 3, and its end is 4, the next
# substep's start (the same float) or the cell's end; the slots its stages
# read, in call order, and those of its two nodes (start and midpoint)
_STAGE_SLOTS, _NODE_SLOTS = [0, 2, 2, 4, 1, 1, 2, 2, 3, 3, 4], [0, 2]


def _slots(substeps: int, pattern: list) -> np.ndarray:
    """``pattern`` over every substep of a cell, then the slot of its end."""
    return np.append(4 * np.arange(substeps)[:, None] + pattern, 4 * substeps)


def _cell_schedule(t_start, t_end, substeps: int):
    """Substep widths and the 4 ``substeps`` + 1 distinct times at which a
    cell march evaluates the right-hand side, in march order (see
    :func:`_slots`).  ``t_end < t_start`` marches backward.  Elementwise in
    the cell ends: arrays of N of them give N schedules, one row each.

    The march steps with exactly these floats, so inputs resolved at them
    ahead of the march are the ones each stage reads.
    """
    t_start, t_end = np.asarray(t_start)[..., None], np.asarray(t_end)[..., None]
    t0 = t_start + (t_end - t_start) * (np.arange(substeps) / substeps)
    dt = np.concatenate((t0[..., 1:], t_end), axis=-1) - t0
    h = dt / 2.0
    times = np.stack((t0, t0 + h / 2.0, t0 + h, t0 + h + h / 2.0), axis=-1)
    return dt, np.concatenate((times.reshape(*t0.shape[:-1], -1), t_end), axis=-1)


def _schedules(lattice: CommensurabilityLattice, substeps: int, backward: bool = False):
    """:func:`_cell_schedule` of every lattice cell, from its right end when
    ``backward``: widths and distinct stage times T, row i for cell i."""
    edges = lattice.edges
    ends = (edges[1:], edges[:-1]) if backward else (edges[:-1], edges[1:])
    return _cell_schedule(*ends, substeps)


def _rk4(rhs, k: int, y: np.ndarray, dt: float, k1: np.ndarray):
    """Classical RK4 step with initial slope ``k1``; the other three stages
    are ``k``, ``k + 1`` and ``k + 2``."""
    k2 = rhs(k, y + (dt / 2.0) * k1)
    k3 = rhs(k + 1, y + (dt / 2.0) * k2)
    k4 = rhs(k + 2, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _substep(rhs, k: int, y: np.ndarray, dt):
    """Step-doubled RK4 pair over stages k .. k + 10 from ``y``,
    Richardson-combined: initial slope, midpoint value and slope, end value.
    Elementwise in ``y`` and ``dt``, so it also steps a batch."""
    k1 = rhs(k, y)
    full = _rk4(rhs, k + 1, y, dt, k1)
    half1 = _rk4(rhs, k + 4, y, dt / 2.0, k1)
    k_mid = rhs(k + 7, half1)
    half2 = _rk4(rhs, k + 8, half1, dt / 2.0, k_mid)
    return k1, half1, k_mid, half2 + (half2 - full) / 15.0


def _nodes(ts: np.ndarray, ys: np.ndarray, ds: np.ndarray):
    """Node arrays of a marched cell, ascending in time, from the values and
    slopes at its node times ``ts`` (the node slots of its distinct times)."""
    if ts[-1] < ts[0]:
        ts, ys, ds = ts[::-1], ys[::-1], ds[::-1]
    return ts, ys, ds


def _integrate_cell(rhs, widths, times: np.ndarray, y0: np.ndarray):
    """March one cell along its :func:`_cell_schedule`, one :func:`_substep`
    at a time; ``rhs(k, t, y)`` gets the slot k and t = times[k].  Returns
    the state read at each stage j (slot ``_slots(S, _STAGE_SLOTS)[j]``),
    and the :func:`_nodes` arrays and the endpoint value."""
    S, slots, ts = len(widths), _slots(len(widths), _STAGE_SLOTS).tolist(), times.tolist()
    y = np.asarray(y0, dtype=float).copy()
    states, slopes = np.empty((2, len(slots), len(y)))

    def stage(k, x):
        states[k], slopes[k] = x, rhs(slots[k], ts[slots[k]], x)
        return slopes[k]
    for j, dt in enumerate(widths):
        y = _substep(stage, _STAGES * j, y, dt)[3]
    stage(-1, y)
    # a substep's nodes are read by its stages 0 (start) and 7 (midpoint)
    nodes = np.append(_STAGES * np.arange(S)[:, None] + [0, 7], -1)
    return states, (*_nodes(times[_slots(S, _NODE_SLOTS)], states[nodes], slopes[nodes]), y)


def _state_free_march(F: np.ndarray, widths, times: np.ndarray, y0: np.ndarray):
    """:func:`_integrate_cell` on slopes ``F[k]`` at slot k that read no state: each
    component alone on Python floats through the elementwise :func:`_substep`, bit for bit."""
    S, slots = len(widths), _slots(len(widths), _STAGE_SLOTS)
    states = np.empty((len(slots), F.shape[1]))
    for c, (y, col) in enumerate(zip(np.asarray(y0, dtype=float).tolist(), F[slots].T.tolist())):
        read = []   # the state each stage reads, in call order
        for j, dt in enumerate(np.asarray(widths).tolist()):
            y = _substep(lambda k, x: read.append(x) or col[k], _STAGES * j, y, dt)[3]
        states[:, c] = read + [y]
    nodes, k = np.append(_STAGES * np.arange(S)[:, None] + [0, 7], -1), _slots(S, _NODE_SLOTS)
    return states, (*_nodes(times[k], states[nodes], F[k]), states[-1].copy())


def _state_free_cell(problem: AnyProblem, k_r: int, x0: np.ndarray, args: tuple,
                     march, rows=slice(None)):
    """The state-free cell step of both marches (RK4 here, Euler in
    :mod:`~retard_oc.solve`), for a general f with an array form and k_r > 0.
    F is f at the cell's (t, y, u, v) rows ``args`` with the start state
    ``x0`` on every row; ``march(F)`` marches on F and returns (states, out),
    state j read with row ``rows[j]`` of F and one more only the cell's end.
    Where f at those states gives those rows bit for bit and all values are
    finite, that is the march on f itself, returned.  Else None (f reads x,
    or a value overflows; numpy's warnings silenced): march stage by stage."""
    if isinstance(problem, StateLinearProblem) or k_r == 0 or not hasattr(problem.f, "many"):
        return None
    f_many, (t, y, u, v) = dynamics_array(problem), args
    with np.errstate(all="ignore"):
        F = f_many(t, np.broadcast_to(x0, y.shape), y, u, v)
        (states, out), read = march(F), F[rows]
        if np.isfinite(read).all() and np.isfinite(states).all() and f_many(
                t[rows], states[:len(read)], y[rows], u[rows], v[rows]).tobytes() == read.tobytes():
            return states, out


def _affine_cell(M: np.ndarray, c: np.ndarray, widths, times: np.ndarray,
                 y0: np.ndarray):
    """:func:`_integrate_cell` for a slope ``y @ M[k] + c[k]`` at slot k:
    M, shape (4 S + 1, n, n), and c, (4 S + 1, n), hold the slope terms at
    the distinct ``times``.  Each :func:`_substep` is an affine map
    [y, 1] @ Z of its start value: the pair applied to the rows of
    Z = [I; 0], c acting on the last row, all substeps in one batch."""
    S, n = len(widths), M.shape[-1]
    stages = _slots(S, _STAGE_SLOTS)[:-1]
    Ms = M[stages].reshape(S, _STAGES, n, n)
    cs = np.zeros((S, _STAGES, n + 1, n))
    cs[:, :, n] = c[stages].reshape(S, _STAGES, n)
    _, mid_maps, _, maps = _substep(lambda k, Z: Z @ Ms[:, k] + cs[:, k], 0,
                                    np.eye(n + 1, n), np.asarray(widths)[:, None, None])
    ys = np.ones((S + 1, n + 1))
    ys[0, :n] = y0
    for j in range(S):
        ys[j + 1, :n] = ys[j] @ maps[j]
    mids = np.einsum("ji,jik->jk", ys[:-1], mid_maps)
    node_ys = np.vstack((np.stack((ys[:-1, :n], mids), axis=1).reshape(-1, n),
                         ys[-1, :n]))
    k = _slots(S, _NODE_SLOTS)
    node_ds = np.einsum("ji,jik->jk", node_ys, M[k]) + c[k]
    return (*_nodes(times[k], node_ys, node_ds), ys[-1, :n])


def _affine_scan(y0: np.ndarray, P: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Rows y_1 .. y_L of y_{j+1} = y_j @ P[j] + q[j], P (L, n, n), q (L, n):
    the maps [[P_j, 0], [q_j, 1]] composed by Hillis-Steele doubling in
    ceil(log2 L) batched matmuls (Blelloch, "Prefix sums...", 1990)."""
    L, n = q.shape
    Z = np.zeros((L, n + 1, n + 1))
    Z[:, :n, :n], Z[:, n, :n], Z[:, n, n] = P, q, 1.0
    for d in (2 ** k for k in range((L - 1).bit_length())):
        Z[d:] = Z[:-d] @ Z[d:]
    return np.append(y0, 1.0) @ Z[:, :, :n]


def _march(name: str, lattice: CommensurabilityLattice, schedule, y: np.ndarray,
           march_cell, backward: bool = False, unit: str = "cell") -> list[HermiteCurve]:
    """Method of steps over the lattice cells, left to right or right to left.

    ``schedule`` is the pair of :func:`_schedules`.  ``march_cell(i, widths,
    times, y, curves)`` marches cell ``i`` from ``y`` with its schedule row
    (``curves`` holds the cells finalized so far) and returns the nodes and
    end value of :func:`_integrate_cell`.  A non-finite seam raises, naming ``unit`` i.
    """
    widths, T = schedule
    curves: list = [None] * lattice.n_cells
    order = range(lattice.n_cells)
    for i in (reversed(order) if backward else order):
        ts, ys, ds, y = march_cell(i, widths[i], T[i], y, curves)
        if not np.all(np.isfinite(y)):
            lo, hi = lattice.cell(i)
            raise NonFiniteStateError(
                f"{name}: non-finite value at the end of {unit} {i} [{lo}, {hi}]")
        curves[i] = HermiteCurve(ts, ys, ds)
    return curves


# -- forward state integration -------------------------------------------------

def integrate_forward(problem: AnyProblem, control: Trajectory,
                      cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate the delayed state equation under ``control``.

    u(t) and u(t-s) at every stage of every cell, and for a
    :class:`~retard_oc.problems.StateLinearProblem` A, A_D, g and g_D, are
    resolved once, one array-form call each.  Per cell only x(t-r) is read:
    the finalized cell i - r/h at its own stage times, or phi before a.  So
    each cell is a plain IVP, continuous at breakpoints by construction.  A
    state-linear slope is the affine x A^T + A_D x(t-r) + g + g_D (A_D joins
    the matrix when r = 0).
    """
    lattice = problem.lattice()
    if not control.covers(problem.control_history_start, problem.b):
        raise OutOfDomainError("control must cover [a - s, b]")
    schedule = _schedules(lattice, cfg.substeps_per_cell)
    state_cells = _forward_cells(problem, control.cell_curves(lattice), lattice,
                                 schedule, "integrate_forward")
    return cell_trajectory(lattice, problem.n, state_cells,
                           problem.state_history_start, problem.phi)


def _forward_cells(problem: AnyProblem, control_cells, lattice: CommensurabilityLattice,
                   schedule, name: str, unit: str = "cell") -> list[HermiteCurve]:
    """The state's cell curves under ``control_cells``, marched along
    ``schedule`` (as :func:`_schedules` gives it); see :func:`_march`."""
    k_r = lattice.state_shift
    T, K = schedule[1], schedule[1].shape[1]
    phi, psi = model_arrays(problem, "phi", "psi")
    u = block_rows(control_cells, T)
    ud = delayed_rows(psi, T, u, float(lattice.s), lattice.control_shift)
    x_hist = phi(T[:k_r].ravel() - float(lattice.r))
    linear = isinstance(problem, StateLinearProblem)
    if linear:
        A, A_D = (F(T.ravel()) for F in model_arrays(problem, "A", "A_D"))
        g, g_D = (F(T.ravel(), v) for F, v in zip(model_arrays(problem, "g", "g_D"), (u, ud)))
        M = np.swapaxes(A + A_D if k_r == 0 else A, 1, 2)

    def march_cell(i, widths, times, y, x_cells):
        cell = slice(i * K, (i + 1) * K)
        xd = (None if k_r == 0 else x_hist[cell] if i < k_r
              else x_cells[i - k_r].eval_many(T[i - k_r]))
        if linear:
            c = (g[cell] + g_D[cell] if xd is None
                 else (A_D[cell] @ xd[:, :, None])[:, :, 0] + g[cell] + g_D[cell])
            return _affine_cell(M[cell], c, widths, times, y)
        u_i, ud_i = u[cell], ud[cell]
        if kept := _state_free_cell(problem, k_r, y, (times, xd, u_i, ud_i),
                                    lambda F: _state_free_march(F, widths, times, y),
                                    _slots(len(widths), _STAGE_SLOTS)):
            return kept[1]
        return _integrate_cell(lambda k, t, x: problem.dynamics(
            t, x, x if xd is None else xd[k], u_i[k], ud_i[k]), widths, times, y)[1]

    y0 = phi(np.array([float(lattice.a)]))[0]
    return _march(name, lattice, schedule, y0, march_cell, unit=unit)


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
    k_r, schedule = lattice.state_shift, _schedules(lattice, cfg.substeps_per_cell, True)
    T = schedule[1]
    N, K = T.shape
    (f0_dx, f0_dy, *_), (f_dx, f_dy, *_), g0_grad = model_partials(p)
    # the tuple [t] = (t, x(t), x(t-r), u(t), u(t-s)) at every stage;
    # declared state-linear partials never read the control, so it is left
    # out; finite differences of the running cost do, since f0u enters their rounding
    x = block_rows(cand.state.cell_curves(lattice), T)
    u = (None if isinstance(p, StateLinearProblem) and p.f0x_dx is not None
         and p.f0x_dy is not None else block_rows(cand.control.cell_curves(lattice), T))
    args = model_arguments(p, lattice, T, x, u)
    # eta' = eta @ M + c: M = -d2 f[t] (also -d3 f[t+r] when r = 0), and
    # chi_[a, b-r] holds exactly on the cells i < N - k_r, whose advanced
    # tuple [t+r] is block i + k_r of the same arrays
    M, c = -f_dx(*args), -f0_dx(*args)
    if k_r < N:
        adv = [arg[k_r * K:] for arg in args]
        f_dy_adv = f_dy(*adv)
        c[:len(f_dy_adv)] -= f0_dy(*adv)
        if k_r == 0:
            M = M - f_dy_adv

    def march_cell(i, widths, times, y, eta_cells):
        cell = slice(i * K, (i + 1) * K)
        c_i = c[cell]
        if 0 < k_r < N - i:
            c_i = c_i - np.einsum("ji,jik->jk", eta_cells[i + k_r].eval_many(T[i + k_r]),
                                  f_dy_adv[cell])
        return _affine_cell(M[cell], c_i, widths, times, y)

    terminal = np.zeros(n) if g0_grad is None else -g0_grad(cand.state.eval(p.b))
    cells = _march(name, lattice, schedule, terminal, march_cell, backward=True)
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
