"""Exception types shared across the package."""

from __future__ import annotations


class ParaselfError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(ParaselfError):
    """Operator and state dimensions are incompatible."""


class NonrealResult(ParaselfError):
    """A quantity that must be real came out with a large imaginary part."""


class NotHermitian(ParaselfError):
    """A Hermitian matrix was required."""


class ShapeMismatch(ParaselfError):
    """Expression and table shapes (inputs/outputs/copies) do not match."""


class ZeroPrefixProbability(ParaselfError):
    """A conditional distribution was requested on a prefix whose probability
    is not positive, so the conditional value is undefined."""

    def __init__(self, copy_index: int, prefix_a: int, prefix_b: int,
                 x: int, y: int, probability: float):
        self.copy_index = copy_index
        self.prefix_a = prefix_a
        self.prefix_b = prefix_b
        self.x = x
        self.y = y
        self.probability = probability
        super().__init__(
            f"copy {copy_index}: prefix (a={prefix_a}, b={prefix_b}) has "
            f"probability {probability:.3e} at inputs (x={x}, y={y})"
        )


class EnumerationTooLarge(ParaselfError):
    """The deterministic-strategy enumeration would exceed the hard cap."""


class InvalidAngles(ParaselfError):
    """Measurement angles outside the admissible range."""


class UnsupportedDimension(ParaselfError):
    """Operation only implemented for two-qubit states."""


class SchemeInputMismatch(ParaselfError):
    """Strategies cannot be composed under the requested scheme."""


class CopyCountError(SchemeInputMismatch, ValueError):
    """Fewer copies than a construction needs; also a ``ValueError``, so the
    CLI reports a ``--copies`` below 1 as a bad option value."""


class TableFormatError(ParaselfError):
    """A serialized table or expression file is malformed.  ``pointer`` is a
    JSON pointer to the offending element, left out when empty (the root)."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}" if pointer else message)


class TableEntryError(ParaselfError, ValueError):
    """A probability lies outside [0, 1] or the entries of an input pair do
    not sum to 1.  ``index`` is the offending ``(x, y, a, b)`` or ``(x, y)``."""

    def __init__(self, index: tuple, reason: str):
        self.index = index
        self.reason = reason
        super().__init__(f"{reason} at {''.join(f'[{v}]' for v in index)}")


class ArityError(ShapeMismatch):
    """A table's arity lists are empty, of unequal length, non-positive or (broadcast)
    not shared, or (per-copy) hold too many copies; or an expression's ``m`` or ``o`` is
    not positive.  ``field`` names the offending list, ``input_arities`` or
    ``output_arities``, ``n_copies`` for the copy count, or ``m`` or ``o``."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


class ConfigError(ParaselfError):
    """Invalid run configuration.  ``field`` names the offending option."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
