"""Exception types shared across the package, and `load`, the one form
of deferred import that its modules use."""

import functools
import importlib


@functools.cache
def load(name: str):
    """The module `name` ("fractions", or ".kpoly" for a layer), imported
    on the first call for that name; a later call is one C-level cache
    hit, with no import machinery run."""
    return importlib.import_module(name, __package__)


class DomainError(ValueError):
    """Input is outside the mathematical domain of the operation."""


class ParseError(ValueError):
    """Input text does not conform to the element/polynomial grammar."""


class ResourceLimitError(RuntimeError):
    """A degree or size guard, or a work budget, was exceeded."""


class VerificationError(RuntimeError):
    """A computed result failed its own check (for example, factors that
    do not multiply back to the input): an internal fault, not bad input."""
