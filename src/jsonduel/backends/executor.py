"""Deterministic script executor.

Runs a script's statements in order against one engine and folds every
possible event into a single TestOutcome: the first failing assertion
yields Fail, the first engine error yields Error, exhausted limits yield
Error(Timeout), otherwise Pass. Nothing escapes as an exception.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Optional

from ..tdsl import ast
from ..values import canonical, kind, strip_trailing_zeros, values_equal
from .coerce import bind_bean
from .outcomes import PASS, BackendError, Error, ErrorKind, Fail, TestOutcome

OpHook = Callable[[str], None]


@dataclass(frozen=True)
class ExecutionLimits:
    timeout_ms: int = 1000
    max_statements: int = 10_000


DEFAULT_LIMITS = ExecutionLimits()


class _Timeout(Exception):
    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


def execute(
    script: ast.Script,
    backend,
    limits: ExecutionLimits = DEFAULT_LIMITS,
    on_op: Optional[OpHook] = None,
) -> TestOutcome:
    """Run `script` on `backend` and return its final outcome."""
    runner = _Runner(script, backend, limits, on_op)
    try:
        return runner.run()
    except BackendError as exc:
        return Error(exc.kind, exc.message)
    except _Timeout as exc:
        return Error(ErrorKind.TIMEOUT, exc.message)


class _Runner:
    def __init__(self, script, backend, limits, on_op):
        self.script = script
        self.backend = backend
        self.limits = limits
        self.on_op = on_op
        self.beans = script.bean_map()
        self.env: dict[str, object] = {}
        self.deadline = time.monotonic() + limits.timeout_ms / 1000.0
        self.statements_left = limits.max_statements

    def run(self) -> TestOutcome:
        assertion_index = 0
        for stmt in self.script.statements:
            self._charge_statement()
            if isinstance(stmt, ast.Let):
                self.env[stmt.name] = self.eval(stmt.expr)
                continue
            outcome = self._assertion(stmt, assertion_index)
            assertion_index += 1
            if outcome is not None:
                return outcome
        return PASS

    def _charge_statement(self) -> None:
        self.statements_left -= 1
        if self.statements_left < 0:
            raise _Timeout(f"statement budget of {self.limits.max_statements} exhausted")
        if time.monotonic() > self.deadline:
            raise _Timeout(f"wall-clock limit of {self.limits.timeout_ms} ms exceeded")

    def _assertion(self, stmt, index: int) -> Optional[TestOutcome]:
        if isinstance(stmt, ast.AssertEq):
            expected = self.eval(stmt.expected)
            actual = self.eval(stmt.actual)
            if not values_equal(expected, actual):
                return Fail(index, canonical(expected), canonical(actual))
            return None
        if isinstance(stmt, ast.AssertNull):
            value = self.eval(stmt.expr)
            if value is not None:
                return Fail(index, "null", canonical(value))
            return None
        if isinstance(stmt, ast.AssertNotNull):
            value = self.eval(stmt.expr)
            if value is None:
                return Fail(index, "<non-null>", "null")
            return None
        if isinstance(stmt, ast.AssertThrows):
            try:
                value = self.eval(stmt.expr)
            except BackendError:
                return None
            return Fail(index, "<error>", canonical(value))
        raise AssertionError(stmt)

    def _op(self, name: str) -> None:
        if self.on_op is not None:
            self.on_op(name)

    def _text_arg(self, expr: ast.Expr, op: str) -> str:
        value = self.eval(expr)
        if kind(value) != "str":
            raise BackendError(
                ErrorKind.TYPE_CAST_ERROR, f"{op} input must be a string, got {kind(value)}"
            )
        return value

    def eval(self, expr: ast.Expr):
        if isinstance(expr, ast.Lit):
            return expr.value
        if isinstance(expr, ast.Var):
            return self.env[expr.name]
        if isinstance(expr, ast.ParseValue):
            text = self._text_arg(expr.text, "parse")
            self._op("parse")
            return self.backend.parse(text, expr.features)
        if isinstance(expr, ast.ParseTyped):
            text = self._text_arg(expr.text, "parse_typed")
            self._op("parse_typed")
            return self.backend.parse_typed(text, self.beans[expr.bean], self.beans, expr.features)
        if isinstance(expr, ast.Serialize):
            value = self.eval(expr.value)
            self._op("serialize")
            return self.backend.serialize(value, expr.features)
        if isinstance(expr, ast.Get):
            target = self.eval(expr.target)
            self._op("get")
            return self.backend.get(target, expr.accessor, expr.as_type)
        if isinstance(expr, ast.PathEval):
            target = self.eval(expr.target)
            self._op("path_eval")
            return self.backend.path_eval(target, expr.path)
        if isinstance(expr, ast.IsValid):
            text = self._text_arg(expr.text, "is_valid")
            self._op("validate")
            return self.backend.validate(text)
        if isinstance(expr, ast.Size):
            value = self.eval(expr.target)
            if kind(value) in ("arr", "obj"):
                return len(value)
            raise BackendError(ErrorKind.TYPE_CAST_ERROR, f"size of {kind(value)}")
        if isinstance(expr, ast.StripZeros):
            value = self.eval(expr.value)
            if isinstance(value, bool) or not isinstance(value, (int, Decimal)):
                raise BackendError(
                    ErrorKind.TYPE_CAST_ERROR, f"strip_zeros of {kind(value)}"
                )
            return strip_trailing_zeros(value)
        if isinstance(expr, ast.MakeBean):
            assigned = {name: self.eval(value) for name, value in expr.assignments}
            return bind_bean(assigned, self.beans[expr.bean], self.beans)
        raise AssertionError(expr)
