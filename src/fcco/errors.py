"""Exception types shared across the library."""


class FccoError(Exception):
    """Base class for library errors."""


class InvalidParameterError(FccoError):
    """A constructor or builder argument is outside its valid range."""


class DomainViolationError(FccoError):
    """A primal point lies outside the box domain."""


class UnsupportedExactEvaluationError(FccoError):
    """Exact objective evaluation requested but an inner oracle cannot provide it."""


class InvalidBatchSizeError(FccoError):
    """Outer batch size outside [1, n]."""


class NotSmoothError(FccoError):
    """Operation requires a smooth outer function."""


class FlatViewUnavailableError(FccoError):
    """Solver needs a flat per-sample loss view the problem does not expose."""


class DegenerateSelectionError(FccoError):
    """A metric's selection rule picked an empty set."""


class InsufficientPointsError(FccoError):
    """Rate fitting needs at least three points."""


class LibsvmParseError(FccoError):
    """Malformed LIBSVM text; carries the 1-based line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DataError(FccoError):
    """Malformed or inconsistent tabular input data."""


class ConfigValidationError(FccoError):
    """Invalid experiment configuration; carries the offending field path."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class DivergenceError(FccoError):
    """A run's iterate or dual/tracker table became non-finite; carries the
    solver label and the iteration."""

    def __init__(self, solver, t):
        super().__init__(f"{solver}: iterate or dual table is not finite at t={t} (diverged)")
        self.solver = solver
        self.t = t
