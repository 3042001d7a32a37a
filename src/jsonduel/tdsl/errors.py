"""Error types raised while parsing or validating test scripts."""

from __future__ import annotations


class DslError(Exception):
    """Base class for all script rejection errors."""


class DslSyntaxError(DslError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.reason = message
        self.line = line
        self.col = col


class UnboundVariableError(DslError):
    def __init__(self, name: str):
        super().__init__(f"variable '{name}' referenced before assignment")


class UnknownBeanError(DslError):
    def __init__(self, name: str):
        super().__init__(f"unknown bean '{name}'")


class UnknownFeatureError(DslError):
    def __init__(self, name: str, expected: str):
        super().__init__(f"unknown {expected} feature '{name}'")


class DslValidationError(DslError):
    """A structural invariant violation (duplicate fields, no assertions, ...)."""
