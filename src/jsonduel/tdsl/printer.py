"""Canonical pretty-printer for test scripts.

It prints a script that `parse_script` returned (or a copy of one with
literals replaced) and does not validate it. Printing is the inverse of
parsing: parse_script(print_script(s)) is structurally equal to s.
"""

from __future__ import annotations

from ..values import dump_value
from . import ast


def print_script(script: ast.Script) -> str:
    """Render a script to canonical DSL text (one statement per line)."""
    lines = [_print_bean(bean) for bean in script.beans]
    lines.extend(f"{_print_node(stmt)};" for stmt in script.statements)
    return "\n".join(lines) + "\n"


def _print_bean(bean: ast.BeanDef) -> str:
    fields = " ".join(f"{f.name}: {_print_type(f.type)};" for f in bean.fields)
    body = f" {fields} " if fields else " "
    return f"bean {bean.name} {{{body}}}"


def _print_type(ftype: ast.FieldType) -> str:
    if isinstance(ftype, ast.ListOf):
        return f"list<{_print_type(ftype.element)}>"
    return ftype.name


def _print_node(node) -> str:
    """An expression, or a statement without its ';'. A call or an assert
    prints its keyword, then its EXPR_FIELDS and its other arguments in
    the order the parser reads them."""
    node_type = type(node)
    if node_type is ast.Let:
        return f"let {node.name} = {_print_node(node.expr)}"
    if node_type is ast.Lit:
        # Literal text is plain JSON with explicit nulls.
        return dump_value(node.value, write_nulls=True)
    if node_type is ast.Var:
        return node.name
    args = [_print_node(getattr(node, name)) for name in ast.EXPR_FIELDS[node_type]]
    if node_type is ast.ParseTyped:
        args.append(node.bean)
    elif node_type is ast.Get:
        args += [dump_value(node.accessor), node.as_type.value]
    elif node_type is ast.PathEval:
        args.append(dump_value(node.path))
    elif node_type is ast.MakeBean:
        args.append(node.bean)
        args += (f"{name} = {_print_node(value)}" for name, value in node.assignments)
    if node_type in (ast.ParseValue, ast.ParseTyped, ast.Serialize) and node.features:
        args.append("[" + ", ".join(f.value for f in node.features) + "]")
    return f"{ast.KEYWORDS[node_type]}({', '.join(args)})"
