import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from retard_oc.dde import IntegratorConfig
from retard_oc.problems import DelayedProblem, array_field
from retard_oc.trajectory import from_pieces
from retard_oc.registry import (make_d_candidate, make_d_problem,
                                make_ld_candidate, make_ld_problem)


@pytest.fixture(scope="session")
def ld_problem():
    return make_ld_problem()


@pytest.fixture(scope="session")
def ld_candidate():
    return make_ld_candidate()


@pytest.fixture(scope="session")
def d_problem():
    return make_d_problem()


@pytest.fixture(scope="session")
def d_candidate():
    return make_d_candidate()


@pytest.fixture(scope="session")
def fast_integrator():
    return IntegratorConfig(substeps_per_cell=16)


@pytest.fixture(scope="session")
def default_integrator():
    return IntegratorConfig(substeps_per_cell=64)


def stage_by_stage(problem):
    """``problem`` with f rewrapped without its array form, so that every
    cell of a march is taken stage by stage: the reference of a state-free
    cell."""
    f = problem.f
    return dataclasses.replace(problem, f=lambda *args: f(*args))


def two_state_free_problem():
    """A two-state problem whose f reads the delayed state and the controls
    but no current state, with a control on [a - s, b]: its cells are
    state-free, one march per state component."""
    problem = DelayedProblem(
        a=0, b=3, r=1, s=Fraction(1, 2), n=2, m=1, f0=lambda t, x, y, u, v: 0.0,
        f=array_field(lambda ts, X, Y, U, V: np.column_stack(
            (Y[:, 1] * V[:, 0] - 0.3 * U[:, 0], ts - Y[:, 0] * U[:, 0]))),
        phi=lambda t: np.array([1.0 + t, -0.5]), psi=lambda t: np.array([0.25]))
    control = from_pieces(1, [(Fraction(-1, 2), 3, lambda t: [np.cos(t)])], main_start=0)
    return problem, control


def max_abs_error(traj, reference, ts):
    return max(abs(float(traj.eval(t)[0]) - reference(float(t))) for t in ts)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
