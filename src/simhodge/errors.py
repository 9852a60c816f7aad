"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: invalid input / parse errors exit with 2,
contract violations (a verified internal invariant broke) with 3, resource
limits with 4.
"""


class SimhodgeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(SimhodgeError, ValueError):
    """The caller handed in data that violates a documented precondition."""


class ParseError(InvalidInputError):
    """A text input file is malformed. Carries a 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ContractViolationError(SimhodgeError):
    """An internal invariant that is checked at runtime failed."""


class ResourceLimitError(SimhodgeError):
    """The requested computation exceeds a desk-scale limit of ``budget``."""
