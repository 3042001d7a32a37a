"""Canonical pretty-printer for test scripts.

Printing is the inverse of parsing: for any valid script s,
parse_script(print_script(s)) is structurally equal to s.
"""

from __future__ import annotations

from ..values import dump_value, quote
from . import ast
from .parser import validate_script


def print_script(script: ast.Script) -> str:
    """Render a script to canonical DSL text (one statement per line)."""
    validate_script(script)
    lines = [_print_bean(bean) for bean in script.beans]
    lines.extend(_print_statement(stmt) for stmt in script.statements)
    return "\n".join(lines) + "\n"


def _print_bean(bean: ast.BeanDef) -> str:
    fields = " ".join(f"{f.name}: {_print_type(f.type)};" for f in bean.fields)
    body = f" {fields} " if fields else " "
    return f"bean {bean.name} {{{body}}}"


def _print_type(ftype: ast.FieldType) -> str:
    if isinstance(ftype, ast.Prim):
        return ftype.name
    if isinstance(ftype, ast.BeanRef):
        return ftype.name
    return f"list<{_print_type(ftype.element)}>"


def _print_statement(stmt: ast.Statement) -> str:
    if isinstance(stmt, ast.Let):
        return f"let {stmt.name} = {print_expr(stmt.expr)};"
    if isinstance(stmt, ast.AssertEq):
        return f"assert_eq({print_expr(stmt.expected)}, {print_expr(stmt.actual)});"
    if isinstance(stmt, ast.AssertNull):
        return f"assert_null({print_expr(stmt.expr)});"
    if isinstance(stmt, ast.AssertNotNull):
        return f"assert_not_null({print_expr(stmt.expr)});"
    if isinstance(stmt, ast.AssertThrows):
        return f"assert_throws({print_expr(stmt.expr)});"
    raise TypeError(f"unknown statement node {type(stmt).__name__}")


def _features(features: tuple) -> str:
    if not features:
        return ""
    return ", [" + ", ".join(f.value for f in features) + "]"


def print_expr(expr: ast.Expr) -> str:
    if isinstance(expr, ast.Lit):
        # Literal text is plain JSON with explicit nulls.
        return dump_value(expr.value, write_nulls=True)
    if isinstance(expr, ast.Var):
        return expr.name
    if isinstance(expr, ast.ParseValue):
        return f"parse({print_expr(expr.text)}{_features(expr.features)})"
    if isinstance(expr, ast.ParseTyped):
        return f"parse_typed({print_expr(expr.text)}, {expr.bean}{_features(expr.features)})"
    if isinstance(expr, ast.Serialize):
        return f"serialize({print_expr(expr.value)}{_features(expr.features)})"
    if isinstance(expr, ast.Get):
        accessor = quote(expr.accessor) if isinstance(expr.accessor, str) else str(expr.accessor)
        return f"get({print_expr(expr.target)}, {accessor}, {expr.as_type.value})"
    if isinstance(expr, ast.PathEval):
        return f"path_eval({print_expr(expr.target)}, {quote(expr.path)})"
    if isinstance(expr, ast.IsValid):
        return f"is_valid({print_expr(expr.text)})"
    if isinstance(expr, ast.Size):
        return f"size({print_expr(expr.target)})"
    if isinstance(expr, ast.StripZeros):
        return f"strip_zeros({print_expr(expr.value)})"
    if isinstance(expr, ast.MakeBean):
        parts = [expr.bean] + [f"{name} = {print_expr(value)}" for name, value in expr.assignments]
        return f"make_bean({', '.join(parts)})"
    raise TypeError(f"unknown expression node {type(expr).__name__}")
