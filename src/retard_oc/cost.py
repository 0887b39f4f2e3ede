"""Cost functional evaluation by per-cell composite Simpson quadrature.

Quadrature panels never straddle a lattice breakpoint: the integrand is
piecewise smooth with kinks exactly at cell boundaries, so integrating cell
by cell preserves Simpson's O(step^4) accuracy.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfDomainError
from .problems import AnyProblem, CandidateSolution
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
    every curve a cell reads is looked up at all of its nodes at once.
    Raises :class:`OutOfDomainError` when the candidate does not cover the
    delayed lookups.
    """
    lattice = problem.lattice()
    steps = quadrature_steps_per_cell
    weights = _simpson_weights(steps).tolist()
    fractions = np.arange(steps + 1) / steps

    if not cand.state.covers(problem.state_history_start, problem.b):
        raise OutOfDomainError("state trajectory does not cover [a - delay, b]")
    if not cand.control.covers(problem.control_history_start, problem.b):
        raise OutOfDomainError("control trajectory does not cover [a - s, b]")

    k_r, k_s = lattice.state_shift, lattice.control_shift
    rf, sf = float(lattice.r), float(lattice.s)
    x_cells = cand.state.cell_curves(lattice)
    u_cells = cand.control.cell_curves(lattice)
    total = 0.0
    for i, lo, hi in lattice.cells():
        lof, span = float(lo), float(hi) - float(lo)
        ts = lof + span * fractions
        ts[-1] = float(hi)
        x = x_cells[i].eval_many(ts)
        u = u_cells[i].eval_many(ts)
        xd = x if k_r == 0 else cell_values(x_cells, i - k_r, ts - rf, problem.phi,
                                            problem.n)
        ud = u if k_s == 0 else cell_values(u_cells, i - k_s, ts - sf, problem.psi,
                                            problem.m)
        dt = span / steps
        acc = 0.0
        for k, t in enumerate(ts.tolist()):
            acc += weights[k] * problem.running_cost(t, x[k], xd[k], u[k], ud[k])
        total += acc * dt / 3.0

    return float(total + problem.terminal_cost(cand.state.eval(problem.b)))
