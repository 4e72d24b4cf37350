"""Error types shared across the package."""


class ThermostrobeError(Exception):
    """Base class for package errors."""


class ValidationError(ThermostrobeError, ValueError):
    """Malformed input: wrong shape, non-Hermitian data, negative rate, bad config field."""


class CapacityError(ThermostrobeError):
    """A dimension or step-count guard was exceeded."""


class DomainError(ThermostrobeError, ValueError):
    """A value lies outside the feasible domain of the requested operation."""


class ZeroProbabilityBranchError(DomainError):
    """A selective branch was requested on a state with (numerically) zero weight on it."""


class FitError(ThermostrobeError, RuntimeError):
    """An iterative solve did not reach the requested residual."""


class SingularityError(ThermostrobeError):
    """A required denominator (e.g. heat capacity) vanished."""


class DegenerateAnsatzError(SingularityError):
    """The ansatz response matrix is singular; parameter derivatives are undefined."""


class ContractError(ThermostrobeError, TypeError):
    """An operation was called with an object that does not support it (e.g. a non-linear family)."""


class ConfigError(ThermostrobeError, ValueError):
    """A scenario file could not be interpreted."""
