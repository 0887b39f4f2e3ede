"""Reduction of a delayed problem to an equivalent non-delayed one.

The trajectory on [a, b] is cut into the N lattice cells and stacked: block
i at local time sigma in [0, h] represents original time a + i h + sigma.
Delayed arguments become inter-block references with exact integer offsets
r/h and s/h; references reaching before the horizon start are baked-in
evaluations of the histories, keeping the stacked dimension at n N.  Block
boundaries are linked by hard equality X_{i+1}(0) = X_i(h).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cost import _simpson_weights
from .dde import IntegratorConfig, _cell_schedule, _integrate_cell
from .errors import MismatchedLatticeError, SeamMismatchError
from .lattice import CommensurabilityLattice
from .problems import AnyProblem, CandidateSolution
from .trajectory import (CallableCurve, HermiteCurve, Segment, Trajectory)


@dataclass(frozen=True)
class AugmentedProblem:
    """Delay-free equivalent of a delayed problem on its lattice.

    The stacked state X lives in R^{n N} (layout: block-major), the stacked
    control W in R^{m N}, both as functions of sigma in [0, h].
    """

    problem: AnyProblem
    lattice: CommensurabilityLattice

    @property
    def n_blocks(self) -> int:
        return self.lattice.n_cells

    @property
    def block_length(self):
        return self.lattice.h

    @property
    def stacked_state_dim(self) -> int:
        return self.problem.n * self.n_blocks

    @property
    def stacked_control_dim(self) -> int:
        return self.problem.m * self.n_blocks

    @property
    def state_offset(self) -> int:
        """Inter-block shift realising x(t - r): exact integer r/h."""
        return self.lattice.state_shift

    @property
    def control_offset(self) -> int:
        return self.lattice.control_shift

    def block_time(self, i: int, sigma: float) -> float:
        return float(self.lattice.a) + i * float(self.lattice.h) + float(sigma)

    def _delayed_state(self, i: int, sigma: float, blocks: np.ndarray) -> np.ndarray:
        j = i - self.state_offset
        if self.state_offset == 0:
            return blocks[i]
        if j >= 0:
            return blocks[j]
        t = self.block_time(i, sigma) - float(self.lattice.r)
        return np.asarray(self.problem.phi(t), float).reshape(self.problem.n)

    def _delayed_control(self, i: int, sigma: float, wblocks) -> np.ndarray:
        j = i - self.control_offset
        if self.control_offset == 0:
            return wblocks[i]
        if j >= 0:
            return wblocks[j]
        t = self.block_time(i, sigma) - float(self.lattice.s)
        return np.asarray(self.problem.psi(t), float).reshape(self.problem.m)

    def dynamics(self, sigma: float, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Stacked right-hand side; an ordinary ODE in R^{n N}."""
        n, m, N = self.problem.n, self.problem.m, self.n_blocks
        xb = np.asarray(X, float).reshape(N, n)
        wb = np.asarray(W, float).reshape(N, m)
        out = np.empty_like(xb)
        for i in range(N):
            t = self.block_time(i, sigma)
            out[i] = self.problem.dynamics(
                t, xb[i], self._delayed_state(i, sigma, xb),
                wb[i], self._delayed_control(i, sigma, wb))
        return out.reshape(-1)

    def running_cost(self, sigma: float, X: np.ndarray, W: np.ndarray) -> float:
        """Stacked running cost; its sigma-integral over [0, h] equals the
        original cost integral over [a, b] exactly."""
        n, m, N = self.problem.n, self.problem.m, self.n_blocks
        xb = np.asarray(X, float).reshape(N, n)
        wb = np.asarray(W, float).reshape(N, m)
        total = 0.0
        for i in range(N):
            t = self.block_time(i, sigma)
            total += self.problem.running_cost(
                t, xb[i], self._delayed_state(i, sigma, xb),
                wb[i], self._delayed_control(i, sigma, wb))
        return total


def augment(problem: AnyProblem, lattice: CommensurabilityLattice) -> AugmentedProblem:
    """Stack ``problem`` on ``lattice``; the lattice constants must match."""
    own = problem.lattice()
    if (own.a, own.b, own.r, own.s) != (lattice.a, lattice.b, lattice.r, lattice.s):
        raise MismatchedLatticeError(
            f"lattice ({lattice.a},{lattice.b},{lattice.r},{lattice.s}) does not "
            f"match problem ({own.a},{own.b},{own.r},{own.s})")
    return AugmentedProblem(problem=problem, lattice=lattice)


@dataclass
class AugmentedSolution:
    """Stacked trajectories on the local interval [0, h].

    ``state_blocks[i]`` and ``control_blocks[i]`` are curves of local time
    sigma; block i carries original time a + i h + sigma.
    """

    aug: AugmentedProblem
    state_blocks: list
    control_blocks: list

    def linkage_residual(self) -> float:
        """Worst block-boundary mismatch |X_i(h) - X_{i+1}(0)|_inf."""
        h = float(self.aug.block_length)
        worst = 0.0
        for left, right in zip(self.state_blocks, self.state_blocks[1:]):
            worst = max(worst, float(np.max(np.abs(left(h) - right(0.0)))))
        return worst

    def stacked_state(self, sigma: float) -> np.ndarray:
        return np.concatenate([blk(float(sigma)) for blk in self.state_blocks])

    def stacked_control(self, sigma: float) -> np.ndarray:
        return np.concatenate([blk(float(sigma)) for blk in self.control_blocks])


def _shifted_cell_curve(traj: Trajectory, lo, hi) -> Callable[[float], np.ndarray]:
    curve = traj.cell_curve(lo, hi)
    offset = float(lo)
    return lambda sigma: curve(offset + float(sigma))


def stack_candidate(aug: AugmentedProblem, cand: CandidateSolution) -> AugmentedSolution:
    """Slice a candidate pair into stacked block curves (the forward half of
    the round trip; ``reassemble`` is its inverse)."""
    state_blocks = [_shifted_cell_curve(cand.state, lo, hi)
                    for _, lo, hi in aug.lattice.cells()]
    control_blocks = [_shifted_cell_curve(cand.control, lo, hi)
                      for _, lo, hi in aug.lattice.cells()]
    return AugmentedSolution(aug=aug, state_blocks=state_blocks,
                             control_blocks=control_blocks)


def integrate_augmented(aug: AugmentedProblem, control: Trajectory,
                        cfg: IntegratorConfig = IntegratorConfig()
                        ) -> AugmentedSolution:
    """Integrate the stacked system as a plain ODE, no delay machinery.

    The block linkage makes the initial condition part of the unknown, so
    the stacked IVP is swept to a fixed point: each sweep integrates all
    blocks simultaneously over sigma in [0, h], then feeds X_i(h) into
    X_{i+1}(0) for the next sweep.  The dependency chain has length N, so at
    most N + 1 sweeps are needed; convergence is checked and usually earlier.
    """
    lattice = aug.lattice
    N, n, m = aug.n_blocks, aug.problem.n, aug.problem.m
    hf = float(lattice.h)
    control_blocks = [_shifted_cell_curve(control, lo, hi)
                      for _, lo, hi in lattice.cells()]

    def W(sigma: float) -> np.ndarray:
        return np.concatenate([blk(sigma) for blk in control_blocks])

    def rhs(k, sigma, X):
        return aug.dynamics(sigma, X, W(sigma))

    widths, times = _cell_schedule(0.0, hf, cfg.substeps_per_cell)

    starts = np.tile(np.asarray(aug.problem.phi(float(lattice.a)),
                                float).reshape(n), N)
    curve: Optional[HermiteCurve] = None
    for _ in range(N + 1):
        ts, ys, ds, y_end = _integrate_cell(rhs, widths, times, starts)
        curve = HermiteCurve(ts, ys, ds)
        new_starts = starts.copy()
        ends = y_end.reshape(N, n)
        new_starts[n:] = ends[:-1].reshape(-1)
        if np.max(np.abs(new_starts - starts)) <= 1e-14 * (1 + np.max(np.abs(starts))):
            starts = new_starts
            break
        starts = new_starts
    ts, ys, ds, _ = _integrate_cell(rhs, widths, times, starts)
    curve = HermiteCurve(ts, ys, ds)

    def block_curve(i: int):
        return lambda sigma: curve(float(sigma))[i * n:(i + 1) * n]

    return AugmentedSolution(aug=aug, state_blocks=[block_curve(i) for i in range(N)],
                             control_blocks=control_blocks)


def reassemble(aug_solution: AugmentedSolution, lattice: CommensurabilityLattice,
               tol: float = 1e-9) -> CandidateSolution:
    """Concatenate stacked blocks back into trajectories on [a, b].

    Linkage is enforced as hard equality: a seam residual above ``tol``
    raises :class:`SeamMismatchError` instead of smoothing it over.
    """
    aug = aug_solution.aug
    problem = aug.problem
    residual = aug_solution.linkage_residual()
    if residual > tol:
        raise SeamMismatchError(
            f"block linkage residual {residual:.3e} exceeds {tol:g}")

    def unshift(block, lo):
        offset = float(lo)
        return lambda t: block(float(t) - offset)

    state_segments = []
    if problem.state_history_start < lattice.a:
        state_segments.append(Segment(problem.state_history_start, lattice.a,
                                      CallableCurve(problem.phi, problem.n)))
    control_segments = []
    if problem.control_history_start < lattice.a:
        control_segments.append(Segment(problem.control_history_start, lattice.a,
                                        CallableCurve(problem.psi, problem.m)))
    for i, lo, hi in lattice.cells():
        state_segments.append(Segment(lo, hi, CallableCurve(
            unshift(aug_solution.state_blocks[i], lo), problem.n)))
        control_segments.append(Segment(lo, hi, CallableCurve(
            unshift(aug_solution.control_blocks[i], lo), problem.m)))
    state = Trajectory(dimension=problem.n,
                       history_start=state_segments[0].lo,
                       main_start=lattice.a, end=lattice.b,
                       segments=tuple(state_segments))
    control = Trajectory(dimension=problem.m,
                         history_start=control_segments[0].lo,
                         main_start=lattice.a, end=lattice.b,
                         segments=tuple(control_segments))
    return CandidateSolution(state=state, control=control)


def augmented_cost(aug: AugmentedProblem, sol: AugmentedSolution,
                   quadrature_steps: int = 512) -> float:
    """Simpson quadrature of the stacked running cost over [0, h] plus the
    terminal cost read off the last block's endpoint."""
    hf = float(aug.block_length)
    weights = _simpson_weights(quadrature_steps)
    acc = 0.0
    for k in range(quadrature_steps + 1):
        sigma = hf if k == quadrature_steps else hf * (k / quadrature_steps)
        acc += float(weights[k]) * aug.running_cost(sigma, sol.stacked_state(sigma),
                                                    sol.stacked_control(sigma))
    dt = hf / quadrature_steps
    xb = sol.state_blocks[-1](hf)
    return float(acc * dt / 3.0 + aug.problem.terminal_cost(xb))
