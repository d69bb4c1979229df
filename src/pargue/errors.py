"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract: input problems exit 1,
capacity refusals exit 2. A circuit's structure is not guarded by an
exception: ``circuit.validate`` reports on it.
"""


class PargueError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PargueError):
    """Rejected input: unknown ids, out-of-range values, inconsistent literals."""


class ParseError(InputError):
    """Malformed framework or label text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CapacityError(PargueError):
    """Instance exceeds a stated limit: enumeration, compilation or validation width."""
