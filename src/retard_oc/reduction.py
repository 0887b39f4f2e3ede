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
from typing import Callable

import numpy as np

from .cost import _simpson_weights
from .dde import IntegratorConfig, _cell_schedule, _integrate_cell
from .errors import MismatchedLatticeError, NonFiniteStateError, SeamMismatchError
from .lattice import CommensurabilityLattice
from .problems import AnyProblem, CandidateSolution
from .trajectory import CallableCurve, HermiteCurve, Trajectory, cell_trajectory


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

    def _delayed(self, blocks: np.ndarray, i: int, offset: int, t: float,
                 history) -> np.ndarray:
        """Block ``i - offset``, or the baked-in ``history`` at original time
        ``t`` when that block precedes the horizon start."""
        if i - offset >= 0:
            return blocks[i - offset]
        return np.asarray(history(t), float).reshape(blocks.shape[1])

    def _block_args(self, sigma: float, X: np.ndarray, W: np.ndarray):
        """The original model's arguments (t, x, x(t-r), u, u(t-s)) for each
        block at local time sigma."""
        p, N, lat = self.problem, self.n_blocks, self.lattice
        af, hf, sig, rf, sf = (float(c) for c in (lat.a, lat.h, sigma, lat.r, lat.s))
        kr, ks = lat.state_shift, lat.control_shift   # once per call, not per block
        xb = np.asarray(X, float).reshape(N, p.n)
        wb = np.asarray(W, float).reshape(N, p.m)
        for i in range(N):
            t = af + i * hf + sig
            yield (t, xb[i], self._delayed(xb, i, kr, t - rf, p.phi),
                   wb[i], self._delayed(wb, i, ks, t - sf, p.psi))

    def dynamics(self, sigma: float, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Stacked right-hand side; an ordinary ODE in R^{n N}."""
        return np.concatenate([self.problem.dynamics(*args)
                               for args in self._block_args(sigma, X, W)])

    def running_cost(self, sigma: float, X: np.ndarray, W: np.ndarray) -> float:
        """Stacked running cost; its sigma-integral over [0, h] equals the
        original cost integral over [a, b] exactly."""
        total = 0.0
        for args in self._block_args(sigma, X, W):
            total += self.problem.running_cost(*args)
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
        gaps = [np.max(np.abs(left(h) - right(0.0)))
                for left, right in zip(self.state_blocks, self.state_blocks[1:])]
        return float(np.max(gaps, initial=0.0))   # NaN propagates

    def stacked_state(self, sigma: float) -> np.ndarray:
        return np.concatenate([blk(float(sigma)) for blk in self.state_blocks])

    def stacked_control(self, sigma: float) -> np.ndarray:
        return np.concatenate([blk(float(sigma)) for blk in self.control_blocks])


def _cell_blocks(traj: Trajectory, lattice) -> list[Callable[[float], np.ndarray]]:
    """The curve of ``traj`` on each lattice cell [lo, hi] as a function of
    local time sigma in [0, h]."""
    def block(curve, offset):
        return lambda sigma: curve(offset + float(sigma))
    return [block(traj.cell_curve(lo, hi), float(lo)) for _, lo, hi in lattice.cells()]


def stack_candidate(aug: AugmentedProblem, cand: CandidateSolution) -> AugmentedSolution:
    """Slice a candidate pair into stacked block curves (the forward half of
    the round trip; ``reassemble`` is its inverse)."""
    return AugmentedSolution(aug=aug, state_blocks=_cell_blocks(cand.state, aug.lattice),
                             control_blocks=_cell_blocks(cand.control, aug.lattice))


def integrate_augmented(aug: AugmentedProblem, control: Trajectory,
                        cfg: IntegratorConfig = IntegratorConfig()
                        ) -> AugmentedSolution:
    """Integrate the stacked system as a plain ODE, no delay machinery.

    The block linkage makes the initial condition part of the unknown, so
    the stacked IVP is swept to a fixed point: each sweep integrates all
    blocks simultaneously over sigma in [0, h], then feeds X_i(h) into
    X_{i+1}(0) for the next sweep.  Block i reads only blocks before it, so
    the starts are exact after at most N sweeps; the sweep that reproduces
    its own starts bit for bit is the solution.  A non-finite end value
    raises :class:`NonFiniteStateError` naming its first block.
    """
    lattice = aug.lattice
    N, n = aug.n_blocks, aug.problem.n
    hf = float(lattice.h)
    control_blocks = _cell_blocks(control, lattice)

    def rhs(k, sigma, X):
        return aug.dynamics(sigma, X, np.concatenate([blk(sigma) for blk in control_blocks]))

    widths, times = _cell_schedule(0.0, hf, cfg.substeps_per_cell)

    starts = np.tile(np.asarray(aug.problem.phi(float(lattice.a)),
                                float).reshape(n), N)
    for _ in range(N + 1):
        ts, ys, ds, y_end = _integrate_cell(rhs, widths, times, starts)
        if not np.all(np.isfinite(y_end)):
            i = int(np.flatnonzero(~np.isfinite(y_end))[0]) // n
            lo, hi = lattice.cell(i)
            raise NonFiniteStateError(
                f"integrate_augmented: non-finite value at the end of block {i} [{lo}, {hi}]")
        new_starts = np.concatenate((starts[:n], y_end[:-n]))
        if np.array_equal(new_starts, starts):
            break
        starts = new_starts
    curve = HermiteCurve(ts, ys, ds)

    def block_curve(i: int):
        return lambda sigma: curve(float(sigma))[i * n:(i + 1) * n]

    return AugmentedSolution(aug=aug, state_blocks=[block_curve(i) for i in range(N)],
                             control_blocks=control_blocks)


def reassemble(aug_solution: AugmentedSolution, lattice: CommensurabilityLattice,
               tol: float = 1e-9) -> CandidateSolution:
    """Concatenate stacked blocks back into trajectories on [a, b].

    Linkage is enforced as hard equality: a seam residual above ``tol``,
    or NaN, raises :class:`SeamMismatchError` instead of smoothing it over.
    """
    aug = aug_solution.aug
    problem = aug.problem
    residual = aug_solution.linkage_residual()
    if not residual <= tol:
        raise SeamMismatchError(
            f"block linkage residual {residual:.3e} exceeds {tol:g}")

    def unshifted(blocks, dim):
        return [CallableCurve(lambda t, block=block, offset=float(lo):
                              block(float(t) - offset), dim)
                for block, (_, lo, _) in zip(blocks, lattice.cells())]

    state = cell_trajectory(lattice, problem.n,
                            unshifted(aug_solution.state_blocks, problem.n),
                            problem.state_history_start, problem.phi)
    control = cell_trajectory(lattice, problem.m,
                              unshifted(aug_solution.control_blocks, problem.m),
                              problem.control_history_start, problem.psi)
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
