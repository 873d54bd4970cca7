"""Exception types shared across the package, and ``records``, the one line reader of every input file.

The parsers check each record's fields once and name its line on a fault.
"""

__all__ = ["GradedValidationError", "ConsistencyError", "InputFormatError", "records"]


class GradedValidationError(ValueError):
    """Structural problem in chain/filtration input data."""


class ConsistencyError(RuntimeError):
    """An internal invariant failed (e.g. a barcode interval that never dies)."""


class InputFormatError(ValueError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def records(text: str):
    """(line number, stripped tab-separated fields) of each line that is neither blank nor a ``#`` comment."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, [field.strip() for field in line.split("\t")]
