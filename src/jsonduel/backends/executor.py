"""Deterministic script executor.

Runs a script's statements in order against one engine and folds every
possible event into a single TestOutcome: the first failing assertion
yields Fail, the first engine error yields Error, an exhausted work
budget yields Error(Timeout), otherwise Pass. Nothing escapes as an
exception. No clock is read, so an outcome depends only on the script
and the engine, never on machine speed or load.
"""

from __future__ import annotations

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
    """The work a script may do on one engine before it ends in
    Error(Timeout). Each statement costs 1, and each value an expression
    yields costs its size: a string its length, any other value 1, and
    an array or object also the sizes of its members. Realistic scripts
    use at most a few tens of thousands of units."""

    budget: int = 100_000


DEFAULT_LIMITS = ExecutionLimits()


class _Timeout(Exception):
    """The work budget ran out. Not a BackendError, so assert_throws
    cannot catch it."""


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
        return Error(ErrorKind.TIMEOUT, str(exc))


class _Runner:
    def __init__(self, script, backend, limits, on_op):
        self.script = script
        self.backend = backend
        self.limits = limits
        self.on_op = on_op if on_op is not None else (lambda op: None)
        self.beans = {bean.name: bean for bean in script.beans}
        self.env: dict[str, object] = {}
        self.budget = limits.budget

    def run(self) -> TestOutcome:
        assertion_index = 0
        for stmt in self.script.statements:
            self._charge(None)  # a statement costs 1, as None does
            if isinstance(stmt, ast.Let):
                self.env[stmt.name] = self.eval(stmt.expr)
                continue
            outcome = self._assertion(stmt, assertion_index)
            assertion_index += 1
            if outcome is not None:
                return outcome
        return PASS

    def _charge(self, value) -> None:
        """Take `value`'s size from the budget. The walk stops as soon as
        the budget is spent, so sizing a value far larger than the budget
        costs about the budget, not the value's size."""
        pending = [value] if isinstance(value, (list, dict)) else None
        if pending is None:  # a scalar needs no work list
            self.budget -= len(value) if isinstance(value, str) else 1
        while pending and self.budget >= 0:
            value = pending.pop()
            self.budget -= len(value) if isinstance(value, str) else 1
            if isinstance(value, list):
                pending.extend(value)
            elif isinstance(value, dict):
                pending.extend(value.values())
        if self.budget < 0:
            raise _Timeout(f"work budget of {self.limits.budget} exhausted")

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

    def _text_arg(self, expr: ast.Expr, op: str) -> str:
        value = self.eval(expr)
        if kind(value) != "str":
            raise BackendError(
                ErrorKind.TYPE_CAST_ERROR, f"{op} input must be a string, got {kind(value)}"
            )
        return value

    def eval(self, expr: ast.Expr):
        value = self._value(expr)
        self._charge(value)
        return value

    def _value(self, expr: ast.Expr):
        if isinstance(expr, ast.Lit):
            return expr.value
        if isinstance(expr, ast.Var):
            return self.env[expr.name]
        if isinstance(expr, ast.ParseValue):
            text = self._text_arg(expr.text, "parse")
            self.on_op("parse")
            return self.backend.parse(text, expr.features)
        if isinstance(expr, ast.ParseTyped):
            text = self._text_arg(expr.text, "parse_typed")
            self.on_op("parse_typed")
            return self.backend.parse_typed(text, self.beans[expr.bean], self.beans, expr.features)
        if isinstance(expr, ast.Serialize):
            value = self.eval(expr.value)
            self.on_op("serialize")
            return self.backend.serialize(value, expr.features)
        if isinstance(expr, ast.Get):
            target = self.eval(expr.target)
            self.on_op("get")
            return self.backend.get(target, expr.accessor, expr.as_type)
        if isinstance(expr, ast.PathEval):
            target = self.eval(expr.target)
            self.on_op("path_eval")
            return self.backend.path_eval(target, expr.path)
        if isinstance(expr, ast.IsValid):
            text = self._text_arg(expr.text, "is_valid")
            self.on_op("validate")
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
