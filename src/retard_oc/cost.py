"""Cost functional evaluation by per-cell composite Simpson quadrature.

Quadrature panels never straddle a lattice breakpoint: the integrand is
piecewise smooth with kinks exactly at cell boundaries, so integrating cell
by cell preserves Simpson's O(step^4) accuracy.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfDomainError
from .problems import AnyProblem, CandidateSolution, model_arguments, model_arrays


def _simpson_weights(steps: int) -> np.ndarray:
    if steps % 2 != 0 or steps < 2:
        raise ValueError("steps per cell must be a positive even integer")
    w = np.ones(steps + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def evaluate_cost(problem: AnyProblem, cand: CandidateSolution,
                  quadrature_steps_per_cell: int = 512) -> float:
    """Total cost of a candidate pair: terminal cost plus the running
    integral over [a, b].

    The running integrand is sampled on ``quadrature_steps_per_cell`` equal
    subintervals of each lattice cell and integrated with composite Simpson.
    All cells' nodes are resolved in one pass over the block axis
    (:func:`~retard_oc.trajectory.delayed_rows`), the integrand is one call
    of its array forms per quadrature, and the cell sums are added in cell
    order.  Raises :class:`OutOfDomainError` when the candidate does not
    cover the delayed lookups.
    """
    lattice = problem.lattice()
    steps = quadrature_steps_per_cell
    weights = _simpson_weights(steps)

    if not cand.state.covers(problem.state_history_start, problem.b):
        raise OutOfDomainError("state trajectory does not cover [a - delay, b]")
    if not cand.control.covers(problem.control_history_start, problem.b):
        raise OutOfDomainError("control trajectory does not cover [a - s, b]")

    lo, hi = lattice.edges[:-1], lattice.edges[1:]
    span = hi - lo
    T = lo[:, None] + span[:, None] * (np.arange(steps + 1) / steps)
    T[:, -1] = hi
    x, u = cand.state.cell_rows(lattice, T), cand.control.cell_rows(lattice, T)
    f0 = model_arrays(problem, "f0")[0](*model_arguments(problem, lattice, T, x, u))
    acc = np.cumsum(weights * f0.reshape(T.shape), axis=1)[:, -1]   # in node order
    total = np.cumsum(acc * (span / steps) / 3.0)[-1]               # in cell order
    return float(total + problem.terminal_cost(x[-1]))   # x(b): the last node
