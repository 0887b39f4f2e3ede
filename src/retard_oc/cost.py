"""Cost functional evaluation by per-cell composite Simpson quadrature.

Quadrature panels never straddle a lattice breakpoint: the integrand is
piecewise smooth with kinks exactly at cell boundaries, so integrating cell
by cell preserves Simpson's O(step^4) accuracy.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfDomainError
from .problems import (AnyProblem, CandidateSolution, model_arrays,
                       running_cost_array)
from .trajectory import cell_values


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
    subintervals of each lattice cell and integrated with composite Simpson;
    every curve a cell reads is looked up at all of its nodes at once, and
    the integrand is one call of its array forms per cell, summed in order.
    Raises :class:`OutOfDomainError` when the candidate does not cover the
    delayed lookups.
    """
    lattice = problem.lattice()
    steps = quadrature_steps_per_cell
    weights = _simpson_weights(steps)
    fractions = np.arange(steps + 1) / steps

    if not cand.state.covers(problem.state_history_start, problem.b):
        raise OutOfDomainError("state trajectory does not cover [a - delay, b]")
    if not cand.control.covers(problem.control_history_start, problem.b):
        raise OutOfDomainError("control trajectory does not cover [a - s, b]")

    k_r, k_s = lattice.state_shift, lattice.control_shift
    rf, sf = float(lattice.r), float(lattice.s)
    x_cells = cand.state.cell_curves(lattice)
    u_cells = cand.control.cell_curves(lattice)
    phi, psi = model_arrays(problem, "phi", "psi")
    integrand = running_cost_array(problem)
    total = 0.0
    for i, lo, hi in lattice.cells():
        lof, span = float(lo), float(hi) - float(lo)
        ts = lof + span * fractions
        ts[-1] = float(hi)
        x, u = x_cells[i].eval_many(ts), u_cells[i].eval_many(ts)
        xd = x if k_r == 0 else cell_values(x_cells, i - k_r, ts - rf, phi)
        ud = u if k_s == 0 else cell_values(u_cells, i - k_s, ts - sf, psi)
        acc = np.cumsum(weights * integrand(ts, x, xd, u, ud))[-1]   # in node order
        total += float(acc) * (span / steps) / 3.0

    return float(total + problem.terminal_cost(cand.state.eval(problem.b)))
