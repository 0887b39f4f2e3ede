"""Loud, typed failures at construction: config objects refuse bad settings
when they are built, malformed inputs raise their own ValueError, and the
public API is a fixed list."""

import numpy as np
import pytest

import retard_oc
from retard_oc import (ControlSet, HermiteCurve, IntegratorConfig, SweepConfig,
                       TranscriptionConfig, VerifyConfig)

COUNTS = [(IntegratorConfig, "substeps_per_cell"), (SweepConfig, "max_iterations"),
          (TranscriptionConfig, "n_steps"), (TranscriptionConfig, "max_iterations"),
          (VerifyConfig, "grid_points_per_cell"), (VerifyConfig, "probes_per_point"),
          (VerifyConfig, "quadrature_steps_per_cell"), (VerifyConfig, "convexity_pairs"),
          (VerifyConfig, "seed")]
TOLERANCES = [(SweepConfig, "tol"), (TranscriptionConfig, "grad_tol")] + [
    (VerifyConfig, name) for name in (
        "tol_maximality", "tol_transversality", "tol_convexity", "tol_continuity",
        "tol_terminal", "tol_residual", "tol_feedback", "tol_smoothness", "tol_cost",
        "tube_radius", "tube_tol", "convexity_halfwidth")]


@pytest.mark.parametrize("config, name", COUNTS)
@pytest.mark.parametrize("value", [2.5, np.float64(4.0), True, np.bool_(True), "4", None])
def test_a_count_that_is_not_an_integer_is_refused_by_name(config, name, value):
    # 2.5 grid points per cell repeated sample times and failed the genuine
    # ld certificate; 2.5 substeps marched three uneven ones, True one
    with pytest.raises(ValueError, match=name):
        config(**{name: value})


@pytest.mark.parametrize("config, name", COUNTS)
def test_a_count_may_be_a_numpy_integer(config, name):
    assert getattr(config(**{name: np.int64(4)}), name) == 4


def test_no_euler_steps_are_refused_when_the_config_is_built():
    with pytest.raises(ValueError, match="n_steps"):
        TranscriptionConfig(n_steps=0)


@pytest.mark.parametrize("config, name", TOLERANCES)
@pytest.mark.parametrize("value", [np.nan, np.inf, -1e-9, True, "1e-6", None])
def test_a_tolerance_that_is_not_finite_and_non_negative_is_refused_by_name(
        config, name, value):
    # a NaN tolerance can never be met, so a solver would never converge
    with pytest.raises(ValueError, match=name):
        config(**{name: value})


@pytest.mark.parametrize("config, name", TOLERANCES)
@pytest.mark.parametrize("value", [0, 0.0, np.float64(1e-3), 2])
def test_a_tolerance_may_be_any_finite_non_negative_number(config, name, value):
    assert getattr(config(**{name: value}), name) == value


def test_a_box_with_a_nan_bound_is_refused():
    # NaN > 1 is False, so a test for lo > hi let it through to NaN projections
    for lo, hi in (([np.nan], [1.0]), ([0.0], [np.nan]), ([0.0, np.nan], [1.0, 1.0])):
        with pytest.raises(ValueError, match="invalid box bounds"):
            ControlSet.box(lo, hi)


def test_a_seed_is_an_integer_of_at_least_zero():
    # a seed of 2.5 (a count above) reached np.random.default_rng, which
    # raised numpy's bare TypeError
    for value in (-1, np.int64(-3)):
        with pytest.raises(ValueError, match="seed must be >= 0 and an integer"):
            VerifyConfig(seed=value)
    assert VerifyConfig(seed=0).seed == 0


def test_a_box_with_an_infinite_bound_is_refused():
    # the maximality probes drew from rng.uniform, which raised OverflowError
    for lo, hi in (([-np.inf], [np.inf]), ([0.0], [np.inf]), ([-np.inf, 0.0], [1.0, 1.0])):
        with pytest.raises(ValueError, match="invalid box bounds"):
            ControlSet.box(lo, hi)


def test_a_hermite_curve_of_one_dimensional_values_names_the_shapes():
    with pytest.raises(ValueError, match="node array shapes disagree"):
        HermiteCurve([0.0, 1.0], [1.0, 2.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="node array shapes disagree"):
        HermiteCurve([0.0, 1.0], [[1.0], [2.0], [3.0]], [[0.0], [0.0], [0.0]])


@pytest.mark.parametrize("ts", [[0.0, np.nan, 1.0], [np.nan, 0.5, 1.0], [0.0, 0.5, np.nan],
                                [0.0, 0.5, np.inf], [-np.inf, 0.5, 1.0], [0.0, 1.0, 1.0],
                                [0.0, 2.0, 1.0]])
def test_a_hermite_curve_refuses_non_finite_or_non_increasing_node_times(ts):
    # a NaN node passed the check `np.diff(ts) <= 0`, and the curve then
    # evaluated to NaN; a node table's one search needs sorted, finite nodes
    with pytest.raises(ValueError, match="node times must increase"):
        HermiteCurve(ts, np.zeros((3, 1)), np.zeros((3, 1)))


def test_the_public_api_is_this_list():
    # a change to __all__ must be deliberate: it is made here as well
    assert sorted(retard_oc.__all__) == [
        "AdjointTrajectory", "AnyProblem", "AugmentedProblem", "AugmentedSolution",
        "CandidateSolution", "Certificate", "CheckResult", "CommensurabilityLattice",
        "ControlSet", "DelayedProblem", "DirectSolution", "HermiteCurve",
        "IncommensurableDelayError", "IntegratorConfig", "MismatchedLatticeError",
        "NoConvergenceError", "NonFiniteDerivativeError", "NonFiniteStateError",
        "OutOfDomainError", "ProblemFileError", "REGISTRY", "Rational", "RetardOCError",
        "SeamMismatchError", "Segment", "StateLinearProblem", "SweepConfig",
        "SweepSolution", "TerminalSet", "Trajectory", "TranscriptionConfig",
        "UnboundedCriterionError", "UnboundedDescentError", "ValueFunctionCandidate",
        "VerifyConfig", "ZeroDelaysError", "argmax_control_state_linear", "as_delayed",
        "as_rational", "augment", "augmented_cost", "check_convexity_f0x",
        "check_maximality", "check_transversality", "cost", "dde",
        "discrete_adjoint_gradient", "errors", "eval_delayed", "evaluate_cost",
        "from_pieces", "get_example", "hamiltonian_nonlinear", "hamiltonian_state_linear",
        "hermite_from_samples", "hj_residual", "integrate_adjoint_linear",
        "integrate_adjoint_nonlinear", "integrate_augmented", "integrate_forward",
        "lattice", "list_examples", "load_problem", "load_value_function", "make_lattice",
        "maximality_criterion", "numdiff", "parse_problem", "parse_value_function",
        "probfile", "problems", "rational_gcd", "reassemble", "reduction", "registry",
        "solve", "solve_direct_euler", "solve_fbsm", "stack_candidate", "sufficiency",
        "trajectory", "validate_candidate", "verify_nonlinear_hj", "verify_state_linear"]
