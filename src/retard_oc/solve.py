"""Numerical solvers: indirect forward-backward sweep and direct Euler
transcription with a projected-gradient optimizer.

Both solvers re-score their output with the continuous quadrature cost;
iteration diagnostics stream as structured log lines (iteration, cost,
step size, gradient norm) on this module's logger.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cost import evaluate_cost
from .dde import (IntegratorConfig, _affine_scan, _check_settings, _state_free_cell,
                  integrate_adjoint_linear, integrate_forward)
from .errors import NoConvergenceError, UnboundedDescentError
from .lattice import _lattice_grid
from .problems import (AnyProblem, CandidateSolution, StateLinearProblem,
                       array_field, model_arrays, model_partials, running_cost_array)
from .sufficiency import argmax_control_state_linear
from .trajectory import (CallableCurve, Trajectory, cell_trajectory,
                         hermite_from_samples, shifted_rows)

log = logging.getLogger(__name__)

# sufficient-decrease constant of the direct solver's Armijo line search
ARMIJO_C = 1e-4
# accepted steps in a row leaving the cost bit-identical that stop the direct
# solver (runs of three precede convergence on ld-lq-tenth at N = 400)
STALL_STEPS = 4
# Walker & Ni's window: the sweep mixes the newest residual with at most
# this many earlier ones
ANDERSON_WINDOW = 5


# ---------------------------------------------------------------------------
# forward-backward sweep (state-linear problems)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    """Sweep iteration parameters; ``omega`` weighs the relaxed fallback step."""

    max_iterations: int = 100
    omega: float = 0.5
    tol: float = 1e-9
    integrator: IntegratorConfig = IntegratorConfig()

    def __post_init__(self):
        if not 0.0 < self.omega <= 1.0:
            raise ValueError("relaxation weight must lie in (0, 1]")
        _check_settings(self, {"max_iterations": 1}, ("tol",))


@dataclass
class SweepSolution(CandidateSolution):
    """Candidate pair plus sweep diagnostics."""

    converged: bool = False
    iterations: int = 0
    history: list = field(default_factory=list)


def _anderson_mix(kept: list) -> np.ndarray:
    """Anderson mix of (node control, argmax) pairs, oldest first: the newest
    argmax minus the argmax differences weighted by the least-squares fit of
    the residual differences to the newest residual (one pair: full step)."""
    U, G = (np.stack([pair[i].ravel() for pair in kept], axis=1) for i in (0, 1))
    gamma = np.linalg.lstsq(np.diff(G - U), (G - U)[:, -1], rcond=None)[0]
    return kept[-1][1] - (np.diff(G) @ gamma).reshape(kept[-1][1].shape)


def solve_fbsm(problem: StateLinearProblem,
               init_control: Optional[Trajectory] = None,
               cfg: SweepConfig = SweepConfig()) -> SweepSolution:
    """Forward-backward sweep for the state-linear problem.

    Each iteration marches the state and the adjoint, takes the argmax at
    the control nodes and moves the node control u towards the fixed point
    of u -> argmax(u) by Anderson mixing (Walker & Ni, SIAM J. Numer. Anal.
    49, 2011) of the residuals r = argmax(u) - u of the last
    ``ANDERSON_WINDOW`` + 1 iterates (of one iterate: the full step u + r),
    until the control moves at most ``tol`` in sup norm.  At the iteration
    cap the best iterate is returned with ``converged=False``.

    A mix of two or more iterates is kept only if the residual shrinks in
    sup norm; otherwise the mixing history is cleared and the relaxed step
    u <- (1 - omega) u + omega argmax(u) is taken from the iterate before;
    omega halves (logged) when a relaxed step moves the control at least
    as far as the relaxed step before.
    """
    lattice = problem.lattice()
    control = init_control
    if control is None:
        zero = CallableCurve(array_field(lambda ts: np.zeros((len(ts), problem.m))), problem.m)
        control = cell_trajectory(lattice, problem.m, [zero] * lattice.n_cells,
                                  problem.control_history_start, problem.psi)
    omega = cfg.omega
    nodes_per_cell = 2 * cfg.integrator.substeps_per_cell
    nodes = _lattice_grid(lattice, nodes_per_cell, both_ends=True)
    cell_ts = np.split(nodes.t, lattice.n_cells)

    history: list[dict] = []
    best: Optional[SweepSolution] = None
    us = control.eval_many(nodes.t)
    kept: list = []     # (node control, argmax) pairs mixed over, oldest first
    # a mix of two or more pairs must beat kept[-1]'s sup residual
    kept_residual, prev_relaxed = np.inf, np.inf

    state = integrate_forward(problem, control, cfg.integrator)
    for it in range(1, cfg.max_iterations + 1):
        cand = CandidateSolution(state=state, control=control)
        eta = integrate_adjoint_linear(problem, cand, cfg.integrator)
        target = argmax_control_state_linear(problem, cand, eta, nodes)
        residual = float(np.max(np.abs(target - us)))
        relaxed = len(kept) > 1 and residual >= kept_residual
        if relaxed:
            log.info("fbsm mixed step rejected: residual %.3e", residual)
            (us, target), kept, step = kept[-1], [], omega
            nxt = (1.0 - omega) * us + omega * target
        else:
            kept = (kept + [(us, target)])[-ANDERSON_WINDOW - 1:]
            kept_residual, step = residual, 1.0
            nxt = _anderson_mix(kept)
        change = float(np.max(np.abs(nxt - us)))
        us = nxt
        # per-cell Hermite control: jumps stay confined to cell boundaries
        control = cell_trajectory(
            lattice, problem.m,
            [hermite_from_samples(t, u)
             for t, u in zip(cell_ts, np.split(us, lattice.n_cells))],
            problem.control_history_start, problem.psi)
        state = integrate_forward(problem, control, cfg.integrator)
        cost = evaluate_cost(problem, CandidateSolution(state=state, control=control),
                             quadrature_steps_per_cell=128)
        record = {"iteration": it, "cost": cost, "step": step, "change": change}
        history.append(record)
        log.info("fbsm iteration=%d cost=%.9f step=%.3g change=%.3e",
                 it, cost, step, change)
        sol = SweepSolution(state=state, control=control, cost=cost,
                            converged=change <= cfg.tol, iterations=it,
                            history=history)
        if best is None or cost <= best.cost:
            best = sol
        if change <= cfg.tol:
            sol.cost = evaluate_cost(problem, sol, 512)
            return sol
        if relaxed:
            if change >= prev_relaxed:
                omega = max(omega / 2.0, 1e-3)
                log.info("fbsm oscillation guard: relaxation halved to %.4g", omega)
            prev_relaxed = change

    best.converged = False
    best.cost = evaluate_cost(problem, best, 512)
    log.warning("fbsm stopped at iteration cap %d without converging",
                cfg.max_iterations)
    return best


# ---------------------------------------------------------------------------
# direct transcription: forward Euler, states eliminated
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TranscriptionConfig:
    """Euler grid and optimizer options for the direct solver.

    ``n_steps`` must be a positive multiple of the lattice's cell count so
    delayed indices are exact integer shifts of the Euler grid.
    """

    n_steps: int = 1000
    max_iterations: int = 500
    grad_tol: float = 1e-8

    def __post_init__(self):
        _check_settings(self, {"n_steps": 1, "max_iterations": 1}, ("grad_tol",))


@dataclass
class DirectSolution(CandidateSolution):
    converged: bool = False
    iterations: int = 0
    discrete_objective: float = 0.0
    control_samples: Optional[np.ndarray] = None
    history: list = field(default_factory=list)


class _EulerGrid:
    """The forward-Euler grid of one direct solve and every model term on it
    that no control changes: the stage times ``T``, the history rows
    phi(t_i - r) and psi(t_i - s), the array forms of the running cost and
    of the slot partials and, for a state-linear problem, A(t_i) and
    A_D(t_i).  Built once per solve, so a line-search trial evaluates only
    the terms that read the control, each in one call over all stages."""

    def __init__(self, p: AnyProblem, cfg: TranscriptionConfig):
        lattice = p.lattice()
        if cfg.n_steps % lattice.n_cells != 0:
            raise ValueError(
                f"n_steps must be a positive multiple of {lattice.n_cells}")
        delta = (lattice.b - lattice.a) / cfg.n_steps
        k_r, k_s = lattice.r / delta, lattice.s / delta
        assert k_r.denominator == 1 and k_s.denominator == 1
        self.p, self.lattice, self.M = p, lattice, cfg.n_steps
        self.k_r, self.k_s, self.df = int(k_r), int(k_s), float(delta)
        T = self.T = float(lattice.a) + self.df * np.arange(self.M)
        phi, psi = model_arrays(p, "phi", "psi")
        self.x0 = phi(T[:1])[0]   # T[0] is a
        self.x_hist = phi(T[:self.k_r] - float(lattice.r))
        self.u_hist = psi(T[:self.k_s] - float(lattice.s))
        self.running_cost = running_cost_array(p)
        self.f0_d, self.f_d, self.g0_grad = model_partials(p)
        self.L = self.M // lattice.n_cells   # Euler stages per lattice cell
        self.A = self.A_D = None   # stay None for a general problem
        if isinstance(p, StateLinearProblem):
            self.A, self.A_D = (many(T) for many in model_arrays(p, "A", "A_D"))
            self.g, self.g_D = model_arrays(p, "g", "g_D")


def _euler_forward(grid: _EulerGrid, u: np.ndarray):
    """Euler recursion x_{i+1} = x_i + delta f(t_i, x_i, x_{i-k_r}, u_i, v_i)
    by the method of steps; returns the states x_0..x_M and the discrete
    cost, both bit for bit those of one model call per stage.

    The march takes one lattice cell of L stages at a time.  Since k_r is 0
    or a multiple of L, a cell's delayed rows are a finished block k_r
    stages back or history rows, unless k_r = 0, when they are its own.
    With k_r > 0:

    - a general problem whose f declares an array form first tries the cell
      as a :func:`~retard_oc.dde._state_free_cell`, its states the running
      sums x_lo, x_lo + delta F_0, ... (``np.cumsum``, strictly in order);
    - a state-linear problem with n = 1 marches on Python floats, in
      numpy's order of operations.

    Every other march is one numpy row step per stage.  The delayed
    controls, g, g_D and the running cost are resolved over all stages at
    once, the cost summed in stage order."""
    p, M, L, k_r, df, T = grid.p, grid.M, grid.L, grid.k_r, grid.df, grid.T
    A, A_D = grid.A, grid.A_D
    vs = shifted_rows(grid.u_hist, u)
    if A is None:
        rhs = lambda i, x, y: p.dynamics(float(T[i]), x, y, u[i], vs[i])
    else:
        G, GD = grid.g(T, u), grid.g_D(T, vs)
        rhs = lambda i, x, y: A[i] @ x + A_D[i] @ y + G[i] + GD[i]
    floats = A is not None and p.n == 1 and k_r > 0
    xs = np.empty((M + 1, p.n))
    xs[0] = grid.x0
    for lo in range(0, M, L):
        cell, run = slice(lo, lo + L), xs[lo:lo + L + 1]
        # a view: at k_r = 0 row i of the cell is x_i once stage i is reached
        ys = xs[lo - k_r:lo - k_r + L] if lo >= k_r else grid.x_hist[cell]

        def euler_sum(F):
            run[1:] = df * F
            return np.cumsum(run, axis=0, out=run), None
        if _state_free_cell(p, k_r, run[0], (T[cell], ys, u[cell], vs[cell]), euler_sum):
            continue
        if floats:
            x, out = float(run[0, 0]), []
            cols = (A[cell, 0, 0], A_D[cell, 0, 0], ys[:, 0], G[cell, 0], GD[cell, 0])
            for a, ad, y, g, gd in zip(*(col.tolist() for col in cols)):
                # + 0.0: a 1 x 1 matmul sums from 0.0, turning a -0.0 product
                # into 0.0; the rest is numpy's A x + A_D y + g + g_D
                x = x + df * (a * x + ad * y + 0.0 + g + gd)
                out.append(x)
            run[1:, 0] = out
        else:
            for i in range(lo, lo + L):
                xs[i + 1] = xs[i] + df * rhs(i, xs[i], ys[i - lo])
    running = df * grid.running_cost(T, xs[:M], shifted_rows(grid.x_hist, xs[:M]), u, vs)
    return xs, float(np.cumsum(running)[-1]) + p.terminal_cost(xs[M])


def _adjoint_gradient(grid: _EulerGrid, xs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """:func:`discrete_adjoint_gradient` at the control samples ``u``, whose
    Euler states ``xs`` are given.  Each slot partial is one array-form call
    over the stages it enters, and the costate recursion is one
    :func:`~retard_oc.dde._affine_scan` per lattice cell, right to left."""
    p, M, L, k_r, k_s, df, T = grid.p, grid.M, grid.L, grid.k_r, grid.k_s, grid.df, grid.T
    f0_dx, f0_dy, f0_du, f0_dv = grid.f0_d
    f_dx, f_dy, f_du, f_dv = grid.f_d
    # stage i reads (t_i, x_i, x(t_i - r), u_i, u(t_i - s))
    ys, vs = shifted_rows(grid.x_hist, xs[:M]), shifted_rows(grid.u_hist, u)

    def stages(fn, first=0):
        return fn(T[first:], xs[first:M], ys[first:], u[first:], vs[first:])

    c_x, c_y = stages(f0_dx), stages(f0_dy, k_r)
    if grid.A is None:
        j_x, j_y = stages(f_dx), stages(f_dy, k_r)
    else:
        j_x, j_y = grid.A, grid.A_D[k_r:]
    lam = np.zeros((M + 1, p.n))
    if grid.g0_grad is not None:
        lam[M] = grid.g0_grad(xs[M])
    # lam_i = lam_{i+1} @ P_i + q_i, one scan per cell of L stages; the delayed
    # coupling lam_{i+k_r+1} @ j_y_i reads a final cell, or joins P if k_r = 0
    P, q = np.eye(p.n) + df * j_x, df * c_x
    if k_r == 0:
        P, q = P + df * j_y, q + df * c_y
    for lo in range(M - L, -1, -L):
        cell = slice(lo, lo + L)
        if 0 < k_r < M - lo:   # x_i is the delayed argument of stage i + k_r
            q[cell] += df * (c_y[cell] + np.einsum(
                "ki,kij->kj", lam[lo + k_r + 1:lo + k_r + L + 1], j_y[cell]))
        lam[cell] = _affine_scan(lam[lo + L], P[cell][::-1], q[cell][::-1])[::-1]

    grad = df * (stages(f0_du) + np.einsum("ki,kij->kj", lam[1:], stages(f_du)))
    if k_s < M:   # u_j is the delayed argument of stage j + k_s
        grad[:M - k_s] += df * (stages(f0_dv, k_s) + np.einsum(
            "ki,kij->kj", lam[k_s + 1:], stages(f_dv, k_s)))
    return grad


def discrete_adjoint_gradient(problem: AnyProblem, control_samples: np.ndarray,
                              cfg: TranscriptionConfig) -> np.ndarray:
    """Exact gradient of the Euler-discretized cost w.r.t. control samples.

    Reverse accumulation through the recursion, including the delayed-index
    couplings: state node i feeds stage i, stage i + r/delta (as the delayed
    argument), and the two matching transitions; control node j feeds stage
    j and stage j + s/delta.  A zero shift couples a node to its own stage.
    The costate recursion is one affine scan per lattice cell; only the
    forward Euler march is one step per stage.
    """
    grid = _EulerGrid(problem, cfg)
    u = np.asarray(control_samples, float).reshape(grid.M, problem.m)
    return _adjoint_gradient(grid, _euler_forward(grid, u)[0], u)


def _interpolated_candidate(grid: _EulerGrid, u: np.ndarray,
                            integrator: IntegratorConfig) -> CandidateSolution:
    """Continuous control reconstructed from the Euler samples, state of
    ``p`` itself (not its general view) re-integrated by the main integrator.

    Sample u_j acts on the whole Euler cell [t_j, t_j + delta), so its value
    is placed at the cell midpoint (the cell-average location, second-order
    accurate); lattice-cell edges take the linear extension of the two
    nearest midpoints, and interpolation never bridges a lattice breakpoint.
    """
    p, lattice, df, per_cell = grid.p, grid.lattice, grid.df, grid.L
    half = df * (np.arange(per_cell) + 0.5)
    curves = []
    for (_, lo, hi), vals in zip(lattice.cells(),
                                 u.reshape(lattice.n_cells, per_cell, p.m)):
        if per_cell >= 2:
            left = 1.5 * vals[0] - 0.5 * vals[1]
            right = 1.5 * vals[-1] - 0.5 * vals[-2]
        else:
            left = right = vals[0]
        ts = np.concatenate(([float(lo)], float(lo) + half, [float(hi)]))
        curves.append(hermite_from_samples(
            ts, np.vstack([left[None, :], vals, right[None, :]])))
    control = cell_trajectory(lattice, p.m, curves, p.control_history_start, p.psi)
    state = integrate_forward(p, control, integrator)
    return CandidateSolution(state=state, control=control)


def solve_direct_euler(problem: AnyProblem,
                       cfg: TranscriptionConfig = TranscriptionConfig(),
                       integrator: IntegratorConfig = IntegratorConfig()
                       ) -> DirectSolution:
    """Single-shooting direct transcription on the forward-Euler grid.

    Decision variables are the control samples, started at zero projected
    onto U; states are eliminated by the Euler recursion, the gradient comes
    from the discrete adjoint, and the iteration is projected gradient with a
    backtracking Armijo line search.
    The accepted cost sequence is monotone non-increasing by construction.

    Raises :class:`NoConvergenceError` (best iterate attached) at the
    iteration cap or on a stall (:data:`STALL_STEPS`), and
    :class:`UnboundedDescentError` when no finite decrease exists along the
    projected direction.
    """
    grid = _EulerGrid(problem, cfg)
    cs = problem.control_set
    proj_all = (lambda w: w) if cs.is_free else (lambda w: np.clip(w, cs.lo, cs.hi))

    u = proj_all(np.zeros((grid.M, problem.m)))
    xs, J = _euler_forward(grid, u)
    history = [{"iteration": 0, "cost": J, "step": 0.0, "grad_norm": np.nan}]
    step = 1.0
    converged = False
    it = stalls = 0
    prev_u = prev_g = None
    for it in range(1, cfg.max_iterations + 1):
        g = _adjoint_gradient(grid, xs, u)
        stationarity = float(np.max(np.abs(u - proj_all(u - g))))
        log.info("direct iteration=%d cost=%.9f step=%.3g grad_norm=%.3e",
                 it, J, step, stationarity)
        history.append({"iteration": it, "cost": J, "step": step,
                        "grad_norm": stationarity})
        if stationarity <= cfg.grad_tol:
            converged = True
            break
        if prev_g is not None:
            # Barzilai-Borwein spectral step: exact for isotropic quadratics,
            # a good curvature guess otherwise
            du, dg = u - prev_u, g - prev_g
            denom = float(np.sum(du * dg))
            if denom > 0:
                step = float(np.sum(du * du)) / denom
        prev_u, prev_g = u.copy(), g.copy()
        accepted = False
        while step >= 1e-18:
            trial = proj_all(u - step * g)
            xs_trial, J_trial = _euler_forward(grid, trial)
            decrease = float(np.sum(g * (u - trial)))
            if np.isfinite(J_trial) and J_trial <= J - ARMIJO_C * decrease:
                assert J_trial <= J + 1e-12 * (1.0 + abs(J)), \
                    "accepted step must not increase the cost"
                stalls = stalls + 1 if J_trial == J else 0
                u, J, xs = trial, J_trial, xs_trial
                accepted = True
                break
            step *= 0.5
        if not accepted:
            raise UnboundedDescentError(
                "line search found no finite decrease along the projected "
                "gradient direction")
        if stalls == STALL_STEPS:
            break

    cand = _interpolated_candidate(grid, u, integrator)
    cost = evaluate_cost(problem, cand, 512)
    sol = DirectSolution(state=cand.state, control=cand.control, cost=cost,
                         converged=converged, iterations=it,
                         discrete_objective=J, control_samples=u,
                         history=history)
    if not converged:
        reason = (f"stalled at rounding: {STALL_STEPS} accepted steps left the "
                  f"cost at {J!r}" if stalls == STALL_STEPS else
                  f"not within {cfg.max_iterations} iterations")
        raise NoConvergenceError(
            f"projected gradient did not reach tol {cfg.grad_tol:g}, {reason}",
            best=sol, diagnostics={"history": history, "reason": reason})
    return sol
