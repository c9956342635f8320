"""Exception types shared across the package."""


class InputError(ValueError):
    """Base of the package's input errors; the CLI exits 2 on any of them."""


class ConfigurationError(InputError):
    """Invalid or inconsistent configuration input."""


class DomainError(InputError):
    """Argument outside the mathematical domain of an operation."""


class PreconditionError(InputError):
    """A stated hypothesis of a criterion or verification does not hold."""


class UnsupportedOperationError(InputError, TypeError):
    """Operation not defined for the given interaction family."""


class SizeLimitError(InputError):
    """Problem size exceeds the enumeration limits of the method."""


class DegenerateFrequenciesError(InputError):
    """All intrinsic frequencies vanish; caller must use the bipolar path."""


class CriterionInapplicableError(InputError):
    """The hypotheses of a criterion exclude the given interaction."""


class InsufficientDataError(InputError):
    """Not enough samples in a trajectory window for the requested estimate."""


class IntegrationFailure(RuntimeError):
    """Step-size underflow or non-finite state; carries the partial trajectory."""

    def __init__(self, message, partial_trajectory=None):
        super().__init__(message)
        self.partial_trajectory = partial_trajectory
