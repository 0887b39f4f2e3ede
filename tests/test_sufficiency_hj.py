from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from retard_oc.cost import evaluate_cost
from retard_oc.lattice import make_lattice
from retard_oc.registry import (d_feedback, make_d_value_function,
                                make_d_zeroed_candidate, make_zero_candidate,
                                make_zero_problem)
from retard_oc.sufficiency import (ValueFunctionCandidate, VerifyConfig,
                                   active_cells, hj_residual,
                                   verify_nonlinear_hj)


@pytest.fixture(scope="module")
def S():
    return make_d_value_function()


@pytest.fixture(scope="module")
def lattice(d_problem):
    return d_problem.lattice()


def _interior_times(count: int) -> list[Fraction]:
    # 3k/(count+1) is never an integer for count+1 coprime with 3
    return [Fraction(3 * k, count + 1) for k in range(1, count + 1)]


def test_residual_small_along_candidate(d_problem, d_candidate, S, lattice):
    worst = max(abs(hj_residual(d_problem, S, d_feedback, lattice, t,
                                d_candidate.state))
                for t in _interior_times(1000))
    assert worst <= 1e-8


def test_residual_zero_for_trivial_problem():
    problem = make_zero_problem()
    cand = make_zero_candidate()
    zero_S = ValueFunctionCandidate(S=lambda t, x: 0.0,
                                    S_t=lambda t, x: 0.0,
                                    S_x=lambda t, x: np.zeros(1))
    feedback = lambda t, x, y, eta: np.zeros(1)
    lattice = problem.lattice()
    for t in (Fraction(1, 3), Fraction(1), Fraction(7, 4)):
        assert hj_residual(problem, zero_S, feedback, lattice, t,
                           cand.state) == 0.0


def test_shifted_offset_keeps_residual_but_breaks_matching(d_problem,
                                                           d_candidate,
                                                           lattice):
    # adding a constant to the last piece changes nothing under the time
    # derivative inside the piece; only the cross-breakpoint matching breaks
    shifted = make_d_value_function(c3_shift=1.0)
    for t in (Fraction(9, 4), Fraction(5, 2), Fraction(11, 4)):
        res = abs(hj_residual(d_problem, shifted, d_feedback, lattice, t,
                              d_candidate.state))
        assert res <= 1e-8
    cert = verify_nonlinear_hj(d_problem, d_candidate, shifted, d_feedback)
    assert not cert.check("value_smoothness").passed
    assert cert.check("hj_residual").passed


def test_scaled_multiplier_breaks_residual(d_problem, d_candidate, lattice):
    scaled = make_d_value_function(eta3_scale=1.1)
    worst = max(abs(hj_residual(d_problem, scaled, d_feedback, lattice, t,
                                d_candidate.state))
                for t in (Fraction(9, 4), Fraction(5, 2), Fraction(11, 4)))
    assert worst >= 1e-2


def test_active_cells_counts_overlap(lattice):
    assert active_cells(lattice, Fraction(1, 2)) == 1
    assert active_cells(lattice, Fraction(1)) == 2  # interior breakpoint
    assert active_cells(lattice, Fraction(0)) == 1
    assert active_cells(lattice, Fraction(3)) == 1


@settings(max_examples=300, deadline=None)
@given(a=st.fractions(-3, 3, max_denominator=7), h=st.fractions(1, 3, max_denominator=5),
       n_cells=st.integers(1, 6), k=st.integers(-2, 8),
       offset=st.sampled_from([Fraction(0), Fraction(1, 10 ** 12), Fraction(-1, 10 ** 12)])
       | st.fractions(-1, 1, max_denominator=97))
def test_active_cells_is_the_closed_cell_count(a, h, n_cells, k, offset):
    # times on, a hair beside and well off the breakpoints a + k h, against
    # the definition: how many closed cells [a + i h, a + (i + 1) h] hold t
    lattice = make_lattice(a, a + n_cells * h, h, 0)
    t = a + k * h + offset * h
    expected = sum(lo <= t <= hi for _, lo, hi in lattice.cells())
    assert active_cells(lattice, t) == expected


def test_verify_passes_on_benchmark(d_problem, d_candidate, S):
    cert = verify_nonlinear_hj(d_problem, d_candidate, S, d_feedback)
    assert cert.overall
    names = [c.name for c in cert.checks]
    assert names == ["terminal_value", "hj_residual", "feedback_consistency",
                     "value_smoothness", "cost_consistency"]
    assert cert.check("cost_consistency").worst_residual <= 1e-8


def test_verify_zeroed_control_fails_feedback_check(d_problem, S):
    zeroed = make_d_zeroed_candidate()
    cert = verify_nonlinear_hj(d_problem, zeroed, S, d_feedback)
    assert not cert.overall
    fb = cert.check("feedback_consistency")
    assert not fb.passed
    assert 0.0 <= fb.worst_location <= 1.0
    # the residual check stays green: it drives controls from the feedback law
    assert cert.check("hj_residual").passed
    # zeroing the control also shifts the quadrature cost off -S(a, x_a)
    assert not cert.check("cost_consistency").passed


def test_verify_trivial_zero_problem():
    problem = make_zero_problem()
    cand = make_zero_candidate()
    zero_S = ValueFunctionCandidate(S=lambda t, x: 0.0,
                                    S_t=lambda t, x: 0.0,
                                    S_x=lambda t, x: np.zeros(1))
    cert = verify_nonlinear_hj(problem, cand, zero_S,
                               lambda t, x, y, eta: np.zeros(1))
    assert cert.overall
    assert cert.metrics["cost"] == 0.0
    assert cert.metrics["minus_S_at_start"] == 0.0


def test_cost_matches_minus_S_at_start(d_problem, d_candidate, S):
    predicted = -S.value(0.0, [1.0])
    cost = evaluate_cost(d_problem, d_candidate, 512)
    assert abs(cost - predicted) <= 1e-8


def test_fd_gradient_fallback_matches_analytic(S):
    fallback = ValueFunctionCandidate(S=S.S, S_t=None, S_x=None)
    for t in (0.3, 1.4, 2.6):
        for x in (0.7, 1.0, 1.2):
            assert fallback.dx(t, [x])[0] == pytest.approx(
                S.dx(t, [x])[0], abs=1e-6)
            # time derivative away from breakpoints
            assert fallback.dt(t, [x]) == pytest.approx(S.dt(t, [x]), abs=1e-6)


def test_tube_probe_tolerates_affine_value_function(d_problem, d_candidate, S):
    # residual off the centerline grows linearly in the radius; the default
    # tube radius keeps the heuristic gate green for the genuine function
    cfg = VerifyConfig(tube_radius=1e-6, tube_tol=1e-2)
    cert = verify_nonlinear_hj(d_problem, d_candidate, S, d_feedback, cfg)
    assert cert.check("hj_residual").passed
    cfg_wide = VerifyConfig(tube_radius=0.5, tube_tol=1e-8)
    cert = verify_nonlinear_hj(d_problem, d_candidate, S, d_feedback, cfg_wide)
    assert not cert.check("hj_residual").passed
