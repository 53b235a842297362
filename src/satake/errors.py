"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: parse failures exit 2, domain
precondition violations exit 3, inconclusive verdicts exit 4, and
mathematical inconsistencies exit 5.  ``json_value`` is the type check the
json file codecs share.
"""
from __future__ import annotations

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_INCONCLUSIVE = 4
EXIT_INCONSISTENT = 5


class SatakeError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ParseError(SatakeError):
    """Malformed input file or weight literal, or an unwritable output file."""

    exit_code = EXIT_PARSE


class InvalidDatumError(ParseError):
    """A root datum violating its construction invariants."""


class DomainError(SatakeError):
    """A precondition violation (non-dominant weight, length mismatch, ...)."""

    exit_code = EXIT_DOMAIN


class InconclusiveError(SatakeError):
    """Truncated data prevents a verdict; raised when the caller needs one."""

    exit_code = EXIT_INCONCLUSIVE


class InconsistencyError(SatakeError):
    """Data contradicts a theorem or itself; signals corruption or a bug."""

    exit_code = EXIT_INCONSISTENT


def json_value(value, kind: type):
    """value itself when its json type is kind; a json boolean never passes
    for an integer.  Raises ParseError otherwise."""
    if type(value) is not kind:
        raise ParseError(f"expected a json {kind.__name__}, got {value!r}")
    return value
