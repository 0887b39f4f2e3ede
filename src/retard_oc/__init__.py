"""Optimal control with constant time delays in state and control.

Exact rational time lattices, method-of-steps integration of delayed state
and adjoint equations, executable sufficiency certificates for the
state-linear maximality theorem and the nonlinear Hamilton-Jacobi
verification theorem, reduction to equivalent delay-free problems, and two
numerical solvers (forward-backward sweep, direct Euler transcription).
"""

from .cost import evaluate_cost
from .dde import (AdjointTrajectory, IntegratorConfig, integrate_adjoint_linear,
                  integrate_adjoint_nonlinear, integrate_forward)
from .errors import (IncommensurableDelayError, MismatchedLatticeError,
                     NoConvergenceError, NonFiniteDerivativeError,
                     NonFiniteStateError, OutOfDomainError, ProblemFileError,
                     RetardOCError, SeamMismatchError, UnboundedCriterionError,
                     UnboundedDescentError, ZeroDelaysError)
from .lattice import (CommensurabilityLattice, Rational, as_rational,
                      make_lattice, rational_gcd)
from .probfile import (load_problem, load_value_function, parse_problem,
                       parse_value_function)
from .problems import (AnyProblem, CandidateSolution, ControlSet,
                       DelayedProblem, StateLinearProblem, TerminalSet,
                       as_delayed, validate_candidate)
from .reduction import (AugmentedProblem, AugmentedSolution, augment,
                        augmented_cost, integrate_augmented, reassemble,
                        stack_candidate)
from .registry import REGISTRY, get_example, list_examples
from .solve import (DirectSolution, SweepConfig, SweepSolution,
                    TranscriptionConfig, discrete_adjoint_gradient,
                    solve_direct_euler, solve_fbsm)
from .sufficiency import (Certificate, CheckResult, ValueFunctionCandidate,
                          VerifyConfig, argmax_control_state_linear,
                          check_convexity_f0x, check_maximality,
                          check_transversality, hamiltonian_nonlinear,
                          hamiltonian_state_linear, hj_residual,
                          maximality_criterion, verify_nonlinear_hj,
                          verify_state_linear)
from .trajectory import (HermiteCurve, Segment, Trajectory, eval_delayed,
                         from_pieces, hermite_from_samples)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
