"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage problems exit 1, contract and
validation failures exit 2, and I/O failures (plain ``OSError``) exit 3.
"""

import json
from pathlib import Path
from typing import Callable


class LexchainError(Exception):
    """Base class for all package-specific errors."""


class UsageError(LexchainError):
    """Bad command-line arguments or option combinations."""


class ValidationError(LexchainError):
    """A data contract was violated (schema, range, invariant)."""


class ShapeError(ValidationError):
    """Tensor dimension mismatch; message names the offending shapes."""


class ParseError(ValidationError):
    """Structured text could not be parsed; carries location info when known."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if field is not None:
            loc.append(f"field {field!r}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.line = line
        self.field = field


class ExtractionError(ValidationError):
    """An extraction response contained no usable triplets."""


class ContractError(LexchainError):
    """An API contract was violated by the caller (e.g. non-scalar loss)."""


class EvaluationError(LexchainError):
    """A numeric evaluation produced a non-finite or unusable value."""


class CapacityError(LexchainError):
    """An input exceeds a configured capacity (e.g. decoder context length)."""


class ConfigurationError(LexchainError):
    """Runtime configuration is inconsistent (e.g. missing chain set for a charge)."""


def parse_json(text: str | bytes, error: Callable[[str, int | None], LexchainError]):
    """``json.loads`` of outside input: malformed JSON, JSON nested too deeply
    for the decoder, and integers past the interpreter's digit limit raise
    ``error(reason, line or None)``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(exc.msg, exc.lineno) from exc
    except RecursionError as exc:
        raise error("nested too deeply", None) from exc
    except ValueError as exc:
        raise error(str(exc), None) from exc


def read_text(path: str | Path, error: Callable[[str], LexchainError]) -> str:
    """The UTF-8 text of the file at ``path``: content that is not UTF-8
    raises ``error(reason)``; a file that cannot be read stays ``OSError``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"not UTF-8 text: {exc}") from exc


def is_a(value, kind: type) -> bool:
    """Whether a decoded JSON value is a ``kind``; a boolean never is (no input field is one)."""
    return isinstance(value, kind) and not isinstance(value, bool)


def require(obj: dict, key: str, kind: type, line: int | None = None, where: str | None = None):
    """``obj[key]`` if it :func:`is_a` ``kind``, else a ParseError at ``line``
    naming the object ``where`` or the field ``where.key`` (or ``key``)."""
    if key not in obj:
        raise ParseError(f"missing required key {key!r}", line, where)
    if not is_a(obj[key], kind):
        raise ParseError(f"key {key!r} must be {kind.__name__}", line,
                         key if where is None else f"{where}.{key}")
    return obj[key]
