"""Exception types shared across the package."""


class RetardOCError(Exception):
    """Base class for all library errors."""


class OutOfDomainError(RetardOCError):
    """A curve or trajectory was evaluated outside its covered interval."""


class IncommensurableDelayError(RetardOCError):
    """A time quantity could not be represented as an exact rational."""


class ZeroDelaysError(RetardOCError):
    """Both delays are zero; the problem class requires (r, s) != (0, 0)."""


class LatticePrecisionError(RetardOCError):
    """A lattice grid's common denominator is too large for exact float times."""


class MismatchedLatticeError(RetardOCError):
    """A lattice was built from constants that differ from the problem's."""


class UnboundedCriterionError(RetardOCError):
    """The maximality criterion has no finite maximiser over an unbounded set;
    ``time`` is the criterion's sample time when known."""

    def __init__(self, message, time=None):
        super().__init__(message if time is None else f"{message} at t={time!r}")
        self.time = time


class NoConvergenceError(RetardOCError):
    """An iterative solver hit its iteration cap before meeting tolerance.

    The best iterate found so far is attached as ``best`` together with a
    ``diagnostics`` mapping.
    """

    def __init__(self, message, best=None, diagnostics=None):
        super().__init__(message)
        self.best = best
        self.diagnostics = diagnostics or {}


class UnboundedDescentError(RetardOCError):
    """A line search could not find a finite decrease."""


class SeamMismatchError(RetardOCError):
    """Block boundary linkage residual exceeded tolerance during reassembly."""


class NonFiniteDerivativeError(RetardOCError):
    """A finite-difference probe returned NaN or infinity."""


class NonFiniteStateError(RetardOCError):
    """A method-of-steps march produced NaN or infinity at a cell seam; the
    message names the integrator, the cell index and its interval."""


class ProblemFileError(RetardOCError):
    """A declarative problem file failed to parse.

    Carries the 1-based ``line`` of the offending input when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
