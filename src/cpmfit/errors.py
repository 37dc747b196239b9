"""Exception hierarchy shared across the toolkit."""


class CpmFitError(Exception):
    """Base class for all toolkit errors.

    ``seed`` is the per-line seed of the fit that raised the error, when
    predict.fit_each_line captured it; None otherwise.
    """

    seed = None


class DomainError(CpmFitError):
    """Coordinate lies outside the valid range of a curve evaluation."""


class DegenerateInputError(CpmFitError):
    """Input data are rank-deficient or span a zero range."""


class NoEllipseError(CpmFitError):
    """Conic fit found no eigenvalue satisfying the ellipse constraint."""


class MetricError(CpmFitError):
    """Invalid input to an error metric (length mismatch, empty, too short)."""


class UndefinedMetricError(MetricError):
    """Metric is undefined for the given data (e.g. every MAPE point skipped)."""


class FitFailureError(CpmFitError):
    """A fit's best candidate scores PENALTY or more; carries it and its objective."""

    def __init__(self, message, best_x=None, best_objective=None):
        super().__init__(message)
        self.best_x = best_x
        self.best_objective = best_objective


class InvalidPredictionError(CpmFitError):
    """Predicted parameter vector violates the BetaVector invariants.

    Signals physically meaningless extrapolation; ``raw_values`` holds the
    polynomial outputs, before curvature is raised to CUR_MIN, for diagnostics.
    """

    def __init__(self, message, raw_values=None):
        super().__init__(message)
        self.raw_values = raw_values


class ParseError(CpmFitError):
    """Malformed input file; ``line`` is the 1-based offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
