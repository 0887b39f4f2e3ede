import dataclasses

import numpy as np
import pytest

from retard_oc.dde import IntegratorConfig
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


def max_abs_error(traj, reference, ts):
    return max(abs(float(traj.eval(t)[0]) - reference(float(t))) for t in ts)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
