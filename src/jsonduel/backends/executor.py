"""Deterministic script executor.

Runs a script's statements in order against one engine and folds every
possible event into a single TestOutcome: the first failing assertion
yields Fail, the first engine error yields Error, an exhausted work
budget yields Error(Timeout), otherwise Pass. Nothing escapes as an
exception. Each node is evaluated by its handler, looked up in a table
keyed by node type. No clock is read, so an outcome depends only on the
script and the engine, never on machine speed or load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, get_args

from ..tdsl import ast
from ..values import canonical, kind, strip_trailing_zeros, values_equal
from .coerce import bind_bean
from .outcomes import PASS, BackendError, Error, ErrorKind, Fail, TestOutcome


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
    on_op: Optional[Callable[[str], None]] = None,
) -> TestOutcome:
    """Run `script` on `backend` and return its final outcome."""
    try:
        return _Runner(script, backend, limits, on_op).run()
    except BackendError as exc:
        return Error(exc.kind, exc.message)
    except _Timeout:
        return Error(ErrorKind.TIMEOUT, f"work budget of {limits.budget} exhausted")


class _Runner:
    def __init__(self, script, backend, limits, on_op):
        self.script = script
        self.backend = backend
        self.on_op = on_op if on_op is not None else (lambda op: None)
        self.beans = {bean.name: bean for bean in script.beans}
        self.env: dict[str, object] = {}
        self.budget = limits.budget

    def run(self) -> TestOutcome:
        assertion_index = 0
        for stmt in self.script.statements:
            self.budget -= 1  # a statement costs 1
            if self.budget < 0:
                raise _Timeout
            if type(stmt) is ast.Let:
                self.env[stmt.name] = self.eval(stmt.expr)
                continue
            outcome = _ASSERTIONS[type(stmt)](self, stmt, assertion_index)
            assertion_index += 1
            if outcome is not None:
                return outcome
        return PASS

    def eval(self, expr: ast.Expr):
        value = _VALUES[type(expr)](self, expr)
        if type(value) is list or type(value) is dict:
            self._charge(value)
        else:
            self.budget -= len(value) if type(value) is str else 1
            if self.budget < 0:
                raise _Timeout
        return value

    def _charge(self, value) -> None:
        """Take an array's or object's size from the budget. The walk stops
        as soon as the budget is spent, so sizing a value far larger than
        the budget costs about the budget, not the value's size."""
        pending = [value]
        while pending and self.budget >= 0:
            value = pending.pop()
            self.budget -= len(value) if isinstance(value, str) else 1
            if isinstance(value, list):
                pending.extend(value)
            elif isinstance(value, dict):
                pending.extend(value.values())
        if self.budget < 0:
            raise _Timeout

    def _operand(self, expr: ast.Expr, op: str, text_for: str = ""):
        """`expr`'s value for one `op`; a string if `text_for` names the call that reads it."""
        value = self.eval(expr)
        if text_for and kind(value) != "str":
            raise BackendError(
                ErrorKind.TYPE_CAST_ERROR, f"{text_for} input must be a string, got {kind(value)}"
            )
        self.on_op(op)
        return value

    # Each node's handler is the method named after its class; `_ASSERTIONS`
    # and `_VALUES` below map each node type to it. An assertion's handler
    # returns its Fail, or None; an expression's returns its value uncharged.

    def _AssertEq(self, stmt: ast.AssertEq, index: int) -> Optional[Fail]:
        expected, actual = self.eval(stmt.expected), self.eval(stmt.actual)
        if not values_equal(expected, actual):
            return Fail(index, canonical(expected), canonical(actual))
        return None

    def _AssertNull(self, stmt: ast.AssertNull, index: int) -> Optional[Fail]:
        value = self.eval(stmt.expr)
        return Fail(index, "null", canonical(value)) if value is not None else None

    def _AssertNotNull(self, stmt: ast.AssertNotNull, index: int) -> Optional[Fail]:
        return Fail(index, "<non-null>", "null") if self.eval(stmt.expr) is None else None

    def _AssertThrows(self, stmt: ast.AssertThrows, index: int) -> Optional[Fail]:
        try:
            value = self.eval(stmt.expr)
        except BackendError:
            return None
        return Fail(index, "<error>", canonical(value))

    def _Lit(self, expr: ast.Lit):
        return expr.value

    def _Var(self, expr: ast.Var):
        return self.env[expr.name]

    def _ParseValue(self, expr: ast.ParseValue):
        return self.backend.parse(self._operand(expr.text, "parse", "parse"), expr.features)

    def _ParseTyped(self, expr: ast.ParseTyped):
        text = self._operand(expr.text, "parse_typed", "parse_typed")
        return self.backend.parse_typed(text, self.beans[expr.bean], self.beans, expr.features)

    def _Serialize(self, expr: ast.Serialize):
        return self.backend.serialize(self._operand(expr.value, "serialize"), expr.features)

    def _Get(self, expr: ast.Get):
        return self.backend.get(self._operand(expr.target, "get"), expr.accessor, expr.as_type)

    def _PathEval(self, expr: ast.PathEval):
        return self.backend.path_eval(self._operand(expr.target, "path_eval"), expr.path)

    def _IsValid(self, expr: ast.IsValid):
        return self.backend.validate(self._operand(expr.text, "validate", "is_valid"))

    def _Size(self, expr: ast.Size):
        value = self.eval(expr.target)
        if kind(value) in ("arr", "obj"):
            return len(value)
        raise BackendError(ErrorKind.TYPE_CAST_ERROR, f"size of {kind(value)}")

    def _StripZeros(self, expr: ast.StripZeros):
        value = self.eval(expr.value)
        if kind(value) in ("int", "dec"):
            return strip_trailing_zeros(value)
        raise BackendError(ErrorKind.TYPE_CAST_ERROR, f"strip_zeros of {kind(value)}")

    def _MakeBean(self, expr: ast.MakeBean):
        assigned = {name: self.eval(value) for name, value in expr.assignments}
        return bind_bean(assigned, self.beans[expr.bean], self.beans)


_ASSERTIONS = {node: getattr(_Runner, f"_{node.__name__}")
               for node in get_args(ast.Statement) if node is not ast.Let}
_VALUES = {node: getattr(_Runner, f"_{node.__name__}") for node in get_args(ast.Expr)}
