"""Exception types shared across the package."""


class EquisrError(Exception):
    """Base class for all library errors."""


class ShapeError(EquisrError, ValueError):
    """Operand shapes do not conform."""


class ContractError(EquisrError, ValueError):
    """An operation precondition was violated."""


class InvalidOrderError(EquisrError, ValueError):
    """Rotation group order must be a positive integer."""


class GroupIndexError(EquisrError, IndexError):
    """Group element index outside [0, t)."""


class MatrixError(EquisrError, ValueError):
    """A rotation matrix argument is not orthogonal."""


class GroupError(EquisrError, ValueError):
    """Group orders of two operands do not match."""


class DomainError(EquisrError, ValueError):
    """Coordinate or scale argument outside the valid domain."""


class ConfigError(EquisrError, ValueError):
    """Invalid configuration combination."""


class EvaluationError(EquisrError, ArithmeticError):
    """A numeric evaluation produced a non-finite value."""


class MetricError(EquisrError, ValueError):
    """A metric is undefined for the given inputs (e.g. zero reference norm)."""


class ParseError(EquisrError, ValueError):
    """Malformed file content.

    Carries the byte offset at which parsing failed.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class CheckpointError(EquisrError, ValueError):
    """Malformed checkpoint manifest or blob."""

    def __init__(self, message: str, field: str | None = None):
        if field is not None:
            message = f"{message} (field: {field})"
        super().__init__(message)
        self.field = field
