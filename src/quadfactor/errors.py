"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input is outside the mathematical domain of the operation."""


class ParseError(ValueError):
    """Input text does not conform to the element/polynomial grammar."""


class ResourceLimitError(RuntimeError):
    """A degree or size guard, or a work budget, was exceeded."""


class VerificationError(RuntimeError):
    """A computed result failed its own check (for example, factors that
    do not multiply back to the input): an internal fault, not bad input."""
