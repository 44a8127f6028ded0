"""Exception types shared across the package."""


class GerbecalcError(Exception):
    """Base class for all package errors."""


class InvalidInputError(GerbecalcError, ValueError):
    """An argument violates a documented precondition."""


class StructuralError(GerbecalcError, ValueError):
    """A complex or cover lacks required structure (closed manifold, orientable, connected)."""


class NumericError(GerbecalcError, RuntimeError):
    """A numerical routine failed to produce a usable result."""


class FormatError(InvalidInputError):
    """A datum file does not conform to the JSON interchange schema."""


def _expect(value, kind: type, name: str):
    """The value, if it is a ``kind``; else an InvalidInputError naming the argument
    and the type it has, where an attribute read would raise a bare AttributeError."""
    if not isinstance(value, kind):
        raise InvalidInputError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
    return value
