"""Exception types shared across the package."""


class CurvlabError(Exception):
    """Base class for all curvlab errors."""


class ConfigurationError(CurvlabError):
    """Invalid configuration: bad resolution, malformed domain, unwritable path."""


class UnsupportedModelError(CurvlabError):
    """Requested (kind, dimension) pair has no built-in model."""


class DegenerateMetricError(CurvlabError):
    """Metric is singular, not finite or not positive definite at a point:
    ``node``, its row in the batch of points, where det g = ``det``."""

    def __init__(self, node: int, det):
        super().__init__(f"metric not positive definite (node {node}, det g = {det:.3e})")
        self.node, self.det = node, det

    def renumbered(self, rows) -> "DegenerateMetricError":
        """The error raised on the rows ``rows`` of a batch, naming its row of
        that batch."""
        return DegenerateMetricError(int(rows[self.node]), self.det)


class DimensionError(CurvlabError):
    """Operation undefined in this dimension, or tensor shapes disagree."""


class PreconditionError(CurvlabError):
    """A documented precondition of an operation is violated."""


class GlobalIntegralUnsupportedError(CurvlabError):
    """Field only supports pointwise evaluation; global quadrature is refused."""


class InvalidModeError(CurvlabError):
    """A constructed perturbation mode violates one of its defining constraints."""


class EigenvalueRangeError(CurvlabError):
    """Spectral parameter lies outside the admissible range."""
