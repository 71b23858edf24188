"""Exception types shared across the package."""


class MarketvalError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(MarketvalError, ValueError):
    """An argument violates a documented precondition."""


class DomainError(MarketvalError, ValueError):
    """A numeric argument lies outside the mathematical domain of a function."""


class OutOfRangeError(DomainError):
    """A value falls below the range a discretizer is defined on."""


class SchemaError(MarketvalError, ValueError):
    """A CSV header does not match the expected schema."""


class RowParseError(MarketvalError, ValueError):
    """A CSV data row could not be parsed into a valid record.

    Carries the 1-based file row number (the header is row 1) and the
    offending column name.
    """

    def __init__(self, row: int, column: str, message: str) -> None:
        super().__init__(f"row {row}, column {column!r}: {message}")
        self.row = row
        self.column = column


class EncodingError(MarketvalError, ValueError):
    """Input bytes are not valid UTF-8.

    Carries the 0-based byte offset of the first invalid byte.
    """

    def __init__(self, offset: int, message: str) -> None:
        super().__init__(f"byte offset {offset}: {message}")
        self.offset = offset


class DegenerateModelError(MarketvalError):
    """A design matrix has no usable columns (numerical rank zero)."""


class DegenerateResponseError(MarketvalError):
    """The response's total sum of squares is zero or overflows, so fit statistics are undefined."""


class InferenceUnavailableError(MarketvalError):
    """Standard errors and p-values were requested from a fit with no residual degrees of freedom."""


class EmptyDatasetError(MarketvalError):
    """No records survived parsing and filtering."""

