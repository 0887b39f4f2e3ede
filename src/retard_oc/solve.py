"""Numerical solvers: indirect forward-backward sweep and direct Euler
transcription with a projected-gradient optimizer.

Both solvers re-score their output with the continuous quadrature cost;
iteration diagnostics stream as structured log lines (iteration, cost,
step size, gradient norm) on this module's logger.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .cost import evaluate_cost
from .dde import IntegratorConfig, integrate_adjoint_linear, integrate_forward
from .errors import NoConvergenceError, UnboundedDescentError
from .problems import (AnyProblem, CandidateSolution, StateLinearProblem,
                       as_delayed, model_partials)
from .sufficiency import _criterion_times, argmax_control_state_linear
from .trajectory import (CallableCurve, Trajectory, cell_trajectory,
                         constant_history, hermite_from_samples)

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# forward-backward sweep (state-linear problems)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    """Relaxed fixed-point iteration parameters for the sweep solver."""

    max_iterations: int = 100
    omega: float = 0.5
    tol: float = 1e-9
    integrator: IntegratorConfig = IntegratorConfig()

    def __post_init__(self):
        if not 0.0 < self.omega <= 1.0:
            raise ValueError("relaxation weight must lie in (0, 1]")


@dataclass
class SweepSolution(CandidateSolution):
    """Candidate pair plus sweep diagnostics."""

    converged: bool = False
    iterations: int = 0
    history: list = field(default_factory=list)


def solve_fbsm(problem: StateLinearProblem,
               init_control: Optional[Trajectory] = None,
               cfg: SweepConfig = SweepConfig()) -> SweepSolution:
    """Forward-backward sweep for the state-linear problem.

    Iterates state integration, adjoint integration, and the relaxed control
    update u <- (1 - omega) u + omega argmax until the control stops moving
    in sup norm.  On stagnation-free convergence the returned pair satisfies
    the maximality condition on the sweep's own grid by construction.  If
    the iteration cap is reached the best iterate is returned with
    ``converged=False`` and the history carries the diagnostics.

    The relaxation weight halves (logged) when the sweep stops contracting,
    i.e. the control moves at least as far as the iteration before.  The
    cost is no guide: it nears its limit from below in rounding-sized rises.
    """
    lattice = problem.lattice()
    control = init_control
    if control is None:
        zero = CallableCurve(constant_history(problem.m, 0.0), problem.m)
        control = cell_trajectory(lattice, problem.m, [zero] * lattice.n_cells,
                                  problem.control_history_start, problem.psi)
    omega = cfg.omega
    nodes_per_cell = 2 * cfg.integrator.substeps_per_cell
    nodes = _criterion_times(problem, [
        lo + (hi - lo) * Fraction(j, nodes_per_cell)
        for _, lo, hi in lattice.cells() for j in range(nodes_per_cell + 1)])
    cell_ts = np.split(nodes.t, lattice.n_cells)

    history: list[dict] = []
    best: Optional[SweepSolution] = None
    prev_change = np.inf

    state = integrate_forward(problem, control, cfg.integrator)
    for it in range(1, cfg.max_iterations + 1):
        cand = CandidateSolution(state=state, control=control)
        eta = integrate_adjoint_linear(problem, cand, cfg.integrator)

        target = argmax_control_state_linear(problem, cand, eta, nodes)
        old = control.eval_many(nodes.t)
        us = (1.0 - omega) * old + omega * target
        change = float(np.max(np.abs(us - old)))
        # per-cell Hermite control: jumps stay confined to cell boundaries
        control = cell_trajectory(
            lattice, problem.m,
            [hermite_from_samples(t, u)
             for t, u in zip(cell_ts, np.split(us, lattice.n_cells))],
            problem.control_history_start, problem.psi)
        state = integrate_forward(problem, control, cfg.integrator)
        cost = evaluate_cost(problem, CandidateSolution(state=state, control=control),
                             quadrature_steps_per_cell=128)
        record = {"iteration": it, "cost": cost, "step": omega, "change": change}
        history.append(record)
        log.info("fbsm iteration=%d cost=%.9f step=%.3g change=%.3e",
                 it, cost, omega, change)
        sol = SweepSolution(state=state, control=control, cost=cost,
                            converged=change <= cfg.tol, iterations=it,
                            history=history)
        if best is None or cost <= best.cost:
            best = sol
        if change <= cfg.tol:
            sol.cost = evaluate_cost(problem, sol, 512)
            return sol
        if change >= prev_change:
            omega = max(omega / 2.0, 1e-3)
            log.info("fbsm oscillation guard: relaxation halved to %.4g", omega)
        prev_change = change

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
    seed: int = 0
    armijo_c: float = 1e-4
    initial_control: Optional[np.ndarray] = None


@dataclass
class DirectSolution(CandidateSolution):
    converged: bool = False
    iterations: int = 0
    discrete_objective: float = 0.0
    control_samples: Optional[np.ndarray] = None
    history: list = field(default_factory=list)


def _euler_grid(problem, cfg: TranscriptionConfig):
    lattice = problem.lattice()
    if cfg.n_steps <= 0 or cfg.n_steps % lattice.n_cells != 0:
        raise ValueError(
            f"n_steps must be a positive multiple of {lattice.n_cells}")
    delta = (lattice.b - lattice.a) / cfg.n_steps
    k_r = lattice.r / delta
    k_s = lattice.s / delta
    assert k_r.denominator == 1 and k_s.denominator == 1
    return lattice, delta, int(k_r), int(k_s)


def _euler_forward(p, cfg: TranscriptionConfig, u: np.ndarray):
    """Euler recursion with delayed index lookups; returns states, cost and
    the argument tuple (t, x, x(t-r), u, u(t-s)) of every step."""
    lattice, delta, k_r, k_s = _euler_grid(p, cfg)
    M = cfg.n_steps
    df = float(delta)
    af = float(lattice.a)
    xs = np.empty((M + 1, p.n))
    xs[0] = np.asarray(p.phi(af), float).reshape(p.n)
    cost = 0.0
    stages = []
    for i in range(M):
        t = af + df * i
        xd = xs[i - k_r] if i - k_r >= 0 else np.asarray(
            p.phi(t - float(lattice.r)), float).reshape(p.n)
        ud = u[i - k_s] if i - k_s >= 0 else np.asarray(
            p.psi(t - float(lattice.s)), float).reshape(p.m)
        args = (t, xs[i], xd, u[i], ud)
        stages.append(args)
        cost += df * p.running_cost(*args)
        xs[i + 1] = xs[i] + df * p.dynamics(*args)
    cost += p.terminal_cost(xs[M])
    return xs, cost, stages


def discrete_adjoint_gradient(problem: AnyProblem, control_samples: np.ndarray,
                              cfg: TranscriptionConfig) -> np.ndarray:
    """Exact gradient of the Euler-discretized cost w.r.t. control samples.

    Reverse accumulation through the recursion, including the delayed-index
    couplings: state node i feeds stage i, stage i + r/delta (as the delayed
    argument), and the two matching transitions; control node j feeds stage
    j and stage j + s/delta.  A zero shift couples a node to its own stage.
    """
    p = problem
    _, delta, k_r, k_s = _euler_grid(p, cfg)
    M = cfg.n_steps
    df = float(delta)
    u = np.asarray(control_samples, float).reshape(M, p.m)
    xs, _, stages = _euler_forward(p, cfg, u)
    f0_d, f_d, g0_grad = model_partials(p)
    f0_dx, f0_dy, f0_du, f0_dv = f0_d[1:]
    f_dx, f_dy, f_du, f_dv = f_d[1:]

    lam = np.zeros((M + 1, p.n))
    if g0_grad is not None:
        lam[M] = g0_grad(xs[M])
    for i in range(M - 1, -1, -1):
        args = stages[i]
        lam[i] = lam[i + 1] + df * (f0_dx(*args) + lam[i + 1] @ f_dx(*args))
        if i + k_r <= M - 1:
            adv = stages[i + k_r]
            lam[i] += df * (f0_dy(*adv) + lam[i + k_r + 1] @ f_dy(*adv))

    grad = np.zeros((M, p.m))
    for j in range(M):
        args = stages[j]
        grad[j] = df * (f0_du(*args) + lam[j + 1] @ f_du(*args))
        if j + k_s <= M - 1:
            adv = stages[j + k_s]
            grad[j] += df * (f0_dv(*adv) + lam[j + k_s + 1] @ f_dv(*adv))
    return grad


def _interpolated_candidate(p, cfg: TranscriptionConfig, u: np.ndarray,
                            integrator: IntegratorConfig) -> CandidateSolution:
    """Continuous control reconstructed from the Euler samples, state of
    ``p`` itself (not its general view) re-integrated by the main integrator.

    Sample u_j acts on the whole Euler cell [t_j, t_j + delta), so its value
    is placed at the cell midpoint (the cell-average location, second-order
    accurate); lattice-cell edges take the linear extension of the two
    nearest midpoints, and interpolation never bridges a lattice breakpoint.
    """
    lattice, delta, _, _ = _euler_grid(p, cfg)
    M = cfg.n_steps
    per_cell = M // lattice.n_cells
    df = float(delta)
    curves = []
    for i, lo, hi in lattice.cells():
        base = i * per_cell
        mids = np.array([float(lo) + df * (k + 0.5) for k in range(per_cell)])
        vals = np.asarray([u[base + k] for k in range(per_cell)], dtype=float)
        if per_cell >= 2:
            left = 1.5 * vals[0] - 0.5 * vals[1]
            right = 1.5 * vals[-1] - 0.5 * vals[-2]
        else:
            left = right = vals[0]
        ts = np.concatenate(([float(lo)], mids, [float(hi)]))
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

    Decision variables are the control samples; states are eliminated by the
    Euler recursion, the gradient comes from the discrete adjoint, and the
    iteration is projected gradient with a backtracking Armijo line search.
    The accepted cost sequence is monotone non-increasing by construction.

    Raises :class:`NoConvergenceError` (best iterate attached) at the
    iteration cap and :class:`UnboundedDescentError` when no finite decrease
    exists along the projected direction.
    """
    p = as_delayed(problem)
    _euler_grid(p, cfg)
    M = cfg.n_steps
    if cfg.initial_control is not None:
        u = np.asarray(cfg.initial_control, float).reshape(M, p.m).copy()
    else:
        u = np.zeros((M, p.m))
    project = p.control_set.project

    def proj_all(w):
        return np.stack([project(w[i]) for i in range(M)]) if not p.control_set.is_free else w

    u = proj_all(u)
    J = _euler_forward(p, cfg, u)[1]
    history = [{"iteration": 0, "cost": J, "step": 0.0, "grad_norm": np.nan}]
    step = 1.0
    converged = False
    it = 0
    prev_u = prev_g = None
    for it in range(1, cfg.max_iterations + 1):
        g = discrete_adjoint_gradient(p, u, cfg)
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
            J_trial = _euler_forward(p, cfg, trial)[1]
            decrease = float(np.sum(g * (u - trial)))
            if np.isfinite(J_trial) and J_trial <= J - cfg.armijo_c * decrease:
                assert J_trial <= J + 1e-12 * (1.0 + abs(J)), \
                    "accepted step must not increase the cost"
                u, J = trial, J_trial
                accepted = True
                break
            step *= 0.5
        if not accepted:
            raise UnboundedDescentError(
                "line search found no finite decrease along the projected "
                "gradient direction")

    cand = _interpolated_candidate(problem, cfg, u, integrator)
    cost = evaluate_cost(problem, cand, 512)
    sol = DirectSolution(state=cand.state, control=cand.control, cost=cost,
                         converged=converged, iterations=it,
                         discrete_objective=J, control_samples=u,
                         history=history)
    if not converged:
        raise NoConvergenceError(
            f"projected gradient did not reach tol {cfg.grad_tol:g} within "
            f"{cfg.max_iterations} iterations", best=sol,
            diagnostics={"history": history})
    return sol
