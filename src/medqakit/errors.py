"""Exception types shared across the toolkit, the one field check every
reader of outside input uses, and the one writer of warnings.

The CLI maps these to exit codes: ValidationError (and subclasses) -> 1,
OSError -> 2, ContractViolation -> 3.
"""

from __future__ import annotations

import sys
from typing import Any, Callable


class ValidationError(ValueError):
    """Input data violates a documented contract."""


class ParseError(ValidationError):
    """An input file or config value does not have its documented form; the
    message names the file, the line or entry, and the field (or the key)."""


class ConfigError(ValidationError):
    """Configuration cannot be resolved (unknown vocabulary, bad chain, bad path)."""


class ContractViolation(RuntimeError):
    """An internal invariant was broken; indicates a bug, not bad input."""


def warn(module: str, message: str) -> None:
    """Print one warning line, `WARNING {module}: {message}`, to the stderr
    of the moment, so a command goes on past input it can skip."""
    print(f"WARNING {module}: {message}", file=sys.stderr)


def json_kind(value: Any) -> str:
    """The JSON name of a decoded value's type."""
    kinds = {type(None): "null", bool: "boolean", int: "number", float: "number", str: "string"}
    return kinds.get(type(value), "array" if isinstance(value, list) else "object")


def expected(where: str, what: str, value: Any) -> ParseError:
    """The one form of a field error: `{where}: expected {what}, got {json kind}`."""
    return ParseError(f"{where}: expected {what}, got {json_kind(value)}")


def check(what: str, ok: Callable[[Any], bool], convert: Callable[[Any], Any] = lambda v: v):
    """A field check: check(where, value) is convert(value) when ok(value),
    else it raises `expected(where, what, value)`."""

    def checked(where: str, value: Any) -> Any:
        if not ok(value):
            raise expected(where, what, value)
        return convert(value)

    return checked


def is_strings(value: Any) -> bool:
    return type(value) is list and all(type(s) is str for s in value)


STRING = check("a string", lambda v: type(v) is str)
STRINGS = check("an array of strings", is_strings, list)
INTEGER = check("an integer", lambda v: type(v) is int)
