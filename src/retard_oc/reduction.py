"""Reduction of a delayed problem to an equivalent non-delayed one.

The trajectory on [a, b] is cut into the N lattice cells and stacked: block
i at local time sigma in [0, h] is the cell's own curve at original time
a + i h + sigma.  Delayed arguments become inter-block references with exact
integer offsets r/h and s/h: over the block axis, a delayed block is a row
shift with baked-in history rows in front, keeping the stacked dimension at
n N.  All blocks are resolved in one array pass by the resolver the
integrators and the quadrature use (:func:`~retard_oc.trajectory.delayed_rows`),
and the model is one array-form call over them.
Block boundaries are linked by hard equality X_{i+1}(0) = X_i(h).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import _simpson_weights
from .dde import IntegratorConfig, _cell_schedule, _integrate_cell
from .errors import MismatchedLatticeError, NonFiniteStateError, SeamMismatchError
from .lattice import CommensurabilityLattice
from .problems import (AnyProblem, CandidateSolution, dynamics_array,
                       model_arrays, running_cost_array)
from .trajectory import (HermiteCurve, Trajectory, block_rows, cell_trajectory,
                         delayed_rows)


@dataclass(frozen=True)
class AugmentedProblem:
    """Delay-free equivalent of a delayed problem on its lattice.

    The stacked state X lives in R^{n N} (layout: block-major), the stacked
    control W in R^{m N}, both as functions of sigma in [0, h].
    """

    problem: AnyProblem
    lattice: CommensurabilityLattice

    def __post_init__(self):
        # lattice floats and model array forms, resolved once per problem
        p, lat = self.problem, self.lattice
        for name, value in dict(
                _starts=np.array([float(lo) for _, lo, _ in lat.cells()]),
                _delays=(float(lat.r), float(lat.s)),
                _shifts=(lat.state_shift, lat.control_shift),
                _histories=model_arrays(p, "phi", "psi"),
                _dynamics=dynamics_array(p), _running_cost=running_cost_array(p)).items():
            object.__setattr__(self, name, value)

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

    def _block_rows(self, curves, sigmas) -> np.ndarray:
        """Values of the block ``curves`` at the local times ``sigmas``,
        block-major: row i K + k is block i at ``sigmas[k]``."""
        return block_rows(curves, self._starts[:, None] + np.atleast_1d(sigmas))

    def _arguments(self, sigmas, X: np.ndarray, W: np.ndarray) -> tuple:
        """The original model's arguments (t, x, x(t-r), u, u(t-s)) of every
        block at the K local times ``sigmas``, block-major like ``X`` and
        ``W``: a delay of k blocks is a shift by k K rows."""
        (rf, sf), (kr, ks), (phi, psi) = self._delays, self._shifts, self._histories
        T = self._starts[:, None] + sigmas
        x = np.asarray(X, float).reshape(-1, self.problem.n)
        u = np.asarray(W, float).reshape(-1, self.problem.m)
        return (T.ravel(), x, delayed_rows(phi, T, x, rf, kr),
                u, delayed_rows(psi, T, u, sf, ks))

    def _summed_cost(self, sigmas, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Running cost at each of ``sigmas``, one array-form call, summed block by block."""
        costs = self._running_cost(*self._arguments(sigmas, X, W))
        return np.add.accumulate(costs.reshape(self.n_blocks, -1))[-1]

    def dynamics(self, sigma: float, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Stacked right-hand side; an ordinary ODE in R^{n N}."""
        return self._dynamics(*self._arguments(float(sigma), X, W)).reshape(-1)

    def running_cost(self, sigma: float, X: np.ndarray, W: np.ndarray) -> float:
        """Stacked running cost; its sigma-integral over [0, h] equals the
        original cost integral over [a, b] exactly."""
        return float(self._summed_cost(float(sigma), X, W)[0])


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
    """Stacked trajectories, one curve per block.

    ``state_blocks[i]`` and ``control_blocks[i]`` are the curves of lattice
    cell i in original time: block i at local time sigma in [0, h] is the
    curve's value at a + i h + sigma.
    """

    aug: AugmentedProblem
    state_blocks: list
    control_blocks: list

    def linkage_residual(self) -> float:
        """Worst block-boundary mismatch |X_i(h) - X_{i+1}(0)|_inf at the cell edges."""
        gaps = [np.max(np.abs(left(edge) - right(edge))) for left, right, edge in
                zip(self.state_blocks, self.state_blocks[1:], self.aug._starts[1:])]
        return float(np.max(gaps, initial=0.0))   # NaN propagates

    def stacked_state(self, sigma: float) -> np.ndarray:
        return self.aug._block_rows(self.state_blocks, sigma).reshape(-1)

    def stacked_control(self, sigma: float) -> np.ndarray:
        return self.aug._block_rows(self.control_blocks, sigma).reshape(-1)


def stack_candidate(aug: AugmentedProblem, cand: CandidateSolution) -> AugmentedSolution:
    """Slice a candidate pair into its cell curves, the stacked blocks (the
    forward half of the round trip; ``reassemble`` is its inverse)."""
    return AugmentedSolution(aug=aug, state_blocks=cand.state.cell_curves(aug.lattice),
                             control_blocks=cand.control.cell_curves(aug.lattice))


def integrate_augmented(aug: AugmentedProblem, control: Trajectory,
                        cfg: IntegratorConfig = IntegratorConfig()
                        ) -> AugmentedSolution:
    """Integrate the stacked system as a plain ODE, no delay machinery.

    The block linkage makes the initial condition part of the unknown, so
    the stacked IVP is swept to a fixed point: each sweep integrates all
    blocks simultaneously over sigma in [0, h], then feeds X_i(h) into
    X_{i+1}(0) for the next sweep.  Block i reads only blocks before it, so
    the starts are exact after at most N sweeps; the sweep that reproduces
    its own starts bit for bit is the solution.  The controls are looked up
    before the sweeps; a non-finite end value raises
    :class:`NonFiniteStateError` naming its first block.
    """
    lattice = aug.lattice
    N, n = aug.n_blocks, aug.problem.n
    widths, times = _cell_schedule(0.0, float(lattice.h), cfg.substeps_per_cell)
    control_blocks = control.cell_curves(lattice)
    # the stacked control at every distinct stage time: row k is W at times[k]
    W = np.hstack(np.split(aug._block_rows(control_blocks, times), N))
    rhs = lambda k, sigma, X: aug.dynamics(sigma, X, W[k])
    starts = np.tile(np.asarray(aug.problem.phi(float(lattice.a)), float).reshape(n), N)
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
    blocks = zip(aug._starts, np.split(ys, N, axis=1), np.split(ds, N, axis=1))
    return AugmentedSolution(aug=aug, control_blocks=control_blocks, state_blocks=[
        HermiteCurve(start + ts, y, d) for start, y, d in blocks])


def reassemble(aug_solution: AugmentedSolution, lattice: CommensurabilityLattice,
               tol: float = 1e-9) -> CandidateSolution:
    """Concatenate stacked blocks back into trajectories on [a, b].

    Linkage is enforced as hard equality: a seam residual above ``tol``,
    or NaN, raises :class:`SeamMismatchError` instead of smoothing it over.
    """
    problem = aug_solution.aug.problem
    residual = aug_solution.linkage_residual()
    if not residual <= tol:
        raise SeamMismatchError(
            f"block linkage residual {residual:.3e} exceeds {tol:g}")
    state = cell_trajectory(lattice, problem.n, aug_solution.state_blocks,
                            problem.state_history_start, problem.phi)
    control = cell_trajectory(lattice, problem.m, aug_solution.control_blocks,
                              problem.control_history_start, problem.psi)
    return CandidateSolution(state=state, control=control)


def augmented_cost(aug: AugmentedProblem, sol: AugmentedSolution,
                   quadrature_steps: int = 512) -> float:
    """Simpson quadrature of the stacked running cost over [0, h] plus the
    terminal cost read off the last block's endpoint; all blocks at all
    nodes are looked up at once and scored in one running-cost call."""
    hf = float(aug.block_length)
    sigmas = hf * (np.arange(quadrature_steps + 1) / quadrature_steps)
    sigmas[-1] = hf
    x = aug._block_rows(sol.state_blocks, sigmas)
    totals = aug._summed_cost(sigmas, x, aug._block_rows(sol.control_blocks, sigmas))
    acc = np.cumsum(_simpson_weights(quadrature_steps) * totals)[-1]   # in node order
    return float(acc * (hf / quadrature_steps) / 3.0 + aug.problem.terminal_cost(x[-1]))
