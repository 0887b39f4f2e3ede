"""Reduction of a delayed problem to an equivalent non-delayed one.

The trajectory on [a, b] is cut into the N lattice cells and stacked: block
i at local time sigma in [0, h] is the cell's own curve at original time
a + i h + sigma.  Delayed arguments become inter-block references with exact
integer offsets r/h and s/h: over the block axis, a delayed block is a row
shift with baked-in history rows in front, keeping the stacked dimension at
n N.  All blocks are resolved in one array pass by the resolver the
integrators and the quadrature use (:func:`~retard_oc.trajectory.delayed_rows`),
and the model is one array-form call over them.
Block boundaries are linked by hard equality X_{i+1}(0) = X_i(h).  Block i
reads only blocks before it, so the blocks are marched in order by the
engine of :mod:`~retard_oc.dde`; the stacked right-hand side checks them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import _simpson_weights
from .dde import _NODE_SLOTS, IntegratorConfig, _cell_schedule, _forward_cells, _slots
from .errors import MismatchedLatticeError, SeamMismatchError
from .lattice import CommensurabilityLattice
from .problems import (AnyProblem, CandidateSolution, dynamics_array,
                       model_arguments, running_cost_array)
from .trajectory import Trajectory, block_rows, cell_trajectory


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
                _starts=lat.edges[:-1],
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
        return model_arguments(self.problem, self.lattice, self._starts[:, None] + sigmas,
                               np.asarray(X, float).reshape(-1, self.problem.n),
                               np.asarray(W, float).reshape(-1, self.problem.m))

    def _summed_cost(self, sigmas, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Running cost at each of ``sigmas``, one array-form call, summed block by block."""
        costs = self._running_cost(*self._arguments(sigmas, X, W))
        return np.add.accumulate(costs.reshape(self.n_blocks, -1))[-1]

    def dynamics(self, sigma, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Stacked right-hand side; an ordinary ODE in R^{n N}.  At K local
        times ``sigma`` (a 1-D array), X and W are block-major rows as
        :meth:`_block_rows` gives them; the slopes come in the shape of X."""
        args = self._arguments(np.asarray(sigma, dtype=float), X, W)
        return self._dynamics(*args).reshape(np.shape(X))

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
    ode_residual: float | None = None   # see integrate_augmented; None if stacked

    def linkage_residual(self) -> float:
        """Worst block-boundary mismatch |X_i(h) - X_{i+1}(0)|_inf, each block read at its edges."""
        s = self.aug._starts
        ends = block_rows(self.state_blocks, np.c_[s, np.r_[s[1:], s[-1]]]).reshape(len(s), 2, -1)
        return float(np.max(np.abs(ends[:-1, 1] - ends[1:, 0]), initial=0.0))   # NaN propagates


def stack_candidate(aug: AugmentedProblem, cand: CandidateSolution) -> AugmentedSolution:
    """Slice a candidate pair into its cell curves, the stacked blocks (the
    forward half of the round trip; ``reassemble`` is its inverse)."""
    return AugmentedSolution(aug=aug, state_blocks=cand.state.cell_curves(aug.lattice),
                             control_blocks=cand.control.cell_curves(aug.lattice))


def integrate_augmented(aug: AugmentedProblem, control: Trajectory,
                        cfg: IntegratorConfig = IntegratorConfig()
                        ) -> AugmentedSolution:
    """Integrate the stacked system block by block, then check it as a plain ODE.

    Block i reads only block i - r/h and the end of block i - 1, so one
    pass in block order is exact: each block is marched once over sigma in
    [0, h] at the times start + sigma by the method-of-steps engine of
    :func:`~retard_oc.dde.integrate_forward`, X_i(h) starting block i + 1.
    A non-finite end value raises :class:`NonFiniteStateError` naming the
    block.  The march's node slopes are then checked against the stacked
    right-hand side, one :meth:`AugmentedProblem.dynamics` call over all
    blocks at all node times; the worst gap is ``ode_residual``.
    """
    lattice = aug.lattice
    widths, sigmas = _cell_schedule(0.0, float(lattice.h), cfg.substeps_per_cell)
    control_blocks = control.cell_curves(lattice)
    schedule = (np.broadcast_to(widths, (aug.n_blocks, len(widths))),
                aug._starts[:, None] + sigmas)
    blocks = _forward_cells(aug.problem, control_blocks, lattice, schedule,
                            "integrate_augmented", "block")
    nodes = sigmas[_slots(len(widths), _NODE_SLOTS)]
    slopes = aug.dynamics(nodes, np.concatenate([b.ys for b in blocks]),
                          aug._block_rows(control_blocks, nodes))
    gap = np.max(np.abs(slopes - np.concatenate([b.ds for b in blocks])))
    return AugmentedSolution(aug=aug, state_blocks=blocks, control_blocks=control_blocks,
                             ode_residual=float(gap))


def reassemble(aug_solution: AugmentedSolution, lattice: CommensurabilityLattice,
               tol: float = 1e-9) -> CandidateSolution:
    """Concatenate stacked blocks back into trajectories on [a, b].

    Linkage is enforced as hard equality: a seam or stacked-ODE residual
    above ``tol``, or NaN, raises :class:`SeamMismatchError`.
    """
    problem = aug_solution.aug.problem
    for what, residual in (("block linkage", aug_solution.linkage_residual()),
                           ("stacked ODE", aug_solution.ode_residual)):
        if residual is not None and not residual <= tol:
            raise SeamMismatchError(f"{what} residual {residual:.3e} exceeds {tol:g}")
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
