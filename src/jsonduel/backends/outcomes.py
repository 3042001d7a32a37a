"""Final outcomes of running a script on one engine.

Outcomes are the only thing the differential oracle compares, so error
kinds form a closed, engine-neutral vocabulary; engine-specific message
text rides along for humans but never participates in comparison.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union


class ErrorKind(enum.Enum):
    PARSE_ERROR = "ParseError"
    TYPE_CAST_ERROR = "TypeCastError"
    NULL_ACCESS = "NullAccess"
    PATH_ERROR = "PathError"
    FEATURE_UNSUPPORTED = "FeatureUnsupported"
    TIMEOUT = "Timeout"


class BackendError(Exception):
    """Raised by engine operations; folded into an Error outcome."""

    def __init__(self, kind: ErrorKind, message: str):
        super().__init__(message)
        self.kind = kind
        self.message = message


@dataclass(frozen=True)
class Pass:
    pass


@dataclass(frozen=True)
class Fail:
    assertion_index: int
    expected_repr: str
    actual_repr: str


@dataclass(frozen=True)
class Error:
    kind: ErrorKind
    message: str


TestOutcome = Union[Pass, Fail, Error]

PASS = Pass()


def describe(outcome: TestOutcome) -> str:
    """One-line human rendering, used in reports and triage prompts."""
    if isinstance(outcome, Pass):
        return "PASS"
    if isinstance(outcome, Fail):
        return (
            f"FAILURE: assertion {outcome.assertion_index} failed: "
            f"expected {outcome.expected_repr} but was {outcome.actual_repr}"
        )
    return f"ERROR: {outcome.kind.value}: {outcome.message}"


def outcome_to_dict(outcome: TestOutcome) -> dict:
    if isinstance(outcome, Pass):
        return {"result": "pass"}
    if isinstance(outcome, Fail):
        return {
            "result": "fail",
            "assertion_index": outcome.assertion_index,
            "expected": outcome.expected_repr,
            "actual": outcome.actual_repr,
        }
    return {"result": "error", "kind": outcome.kind.value, "message": outcome.message}


def outcome_from_dict(data: dict) -> TestOutcome:
    result = data.get("result")
    if result == "pass":
        return PASS
    if result == "fail":
        index = data["assertion_index"]
        if type(index) is not int or index < 0:  # a bool is an int, but no index
            raise ValueError(f"assertion_index is not a non-negative integer: {index!r}")
        return Fail(index, _text(data, "expected"), _text(data, "actual"))
    if result == "error":
        return Error(ErrorKind(data["kind"]), _text(data, "message", ""))
    raise ValueError(f"unknown outcome encoding: {data!r}")


def _text(data: dict, key: str, default: str | None = None) -> str:
    value = data[key] if default is None else data.get(key, default)
    if not isinstance(value, str):
        raise ValueError(f"{key} is not a string")
    return value
