"""The getter coercion table and typed bean binding.

Every (actual kind, requested type) pair either yields a value or a
TypeCastError; nothing panics. The same table backs typed getters,
bean construction and typed parsing so the semantics cannot drift
apart between engines.
"""

from __future__ import annotations

import re
from decimal import Decimal
from typing import Mapping

from ..jsontext import NUMBER_RE
from ..tdsl import ast
from ..values import INT64_MAX, INT64_MIN, canonical, kind
from .outcomes import BackendError, ErrorKind

_INT_RE = re.compile(r"-?[0-9]+\Z")


def _cast_error(value, target: str) -> BackendError:
    return BackendError(
        ErrorKind.TYPE_CAST_ERROR, f"cannot read {kind(value)} as {target}"
    )


def coerce_value(value, as_type: ast.AsType):
    """Coerce a non-null value to the requested type (may raise)."""
    if as_type is ast.AsType.VALUE:
        return value
    if value is None:
        raise BackendError(ErrorKind.NULL_ACCESS, f"null read as {as_type.value}")
    k = kind(value)
    if as_type is ast.AsType.STRING:
        if k == "str":
            return value
        if k == "bool":
            return "true" if value else "false"
        if k in ("int", "dec", "arr", "obj"):
            return canonical(value)
        raise _cast_error(value, "string")
    if as_type is ast.AsType.INTEGER:
        if k == "int":
            return value
        if k == "dec":
            if value == value.to_integral_value() and INT64_MIN <= value <= INT64_MAX:
                return int(value)
        if k == "str":
            if _INT_RE.match(value):
                try:
                    n = int(value)
                except ValueError:  # over 4300 digits, so out of range anyway
                    raise _cast_error(value, "integer") from None
                if INT64_MIN <= n <= INT64_MAX:
                    return n
        raise _cast_error(value, "integer")
    if as_type is ast.AsType.DECIMAL:
        if k == "dec":
            return value
        if k == "int":
            return Decimal(value)
        if k == "str":
            if NUMBER_RE.fullmatch(value):
                try:
                    return Decimal(value)
                except ArithmeticError:  # an exponent beyond what Decimal can hold
                    raise _cast_error(value, "decimal") from None
        raise _cast_error(value, "decimal")
    if as_type is ast.AsType.BOOLEAN:
        if k == "bool":
            return value
        if k == "str" and value in ("true", "false"):
            return value == "true"
        raise _cast_error(value, "boolean")
    if as_type is ast.AsType.OBJECT:
        if k == "obj":
            return value
        raise _cast_error(value, "object")
    if k == "arr":  # ARRAY, the last AsType
        return value
    raise _cast_error(value, "array")


_PRIM_AS_TYPE = {name: ast.AsType(name) for name in ast.PRIMITIVE_TYPES}


def bind_field(value, ftype: ast.FieldType, beans: Mapping[str, ast.BeanDef]):
    """Coerce one incoming value to a bean field type. Null stays null."""
    if value is None:
        return None
    if isinstance(ftype, ast.Prim):
        return coerce_value(value, _PRIM_AS_TYPE[ftype.name])
    if isinstance(ftype, ast.BeanRef):
        if kind(value) != "obj":
            raise _cast_error(value, f"bean {ftype.name}")
        return bind_bean(value, beans[ftype.name], beans)
    if kind(value) != "arr":  # ListOf, the last FieldType
        raise _cast_error(value, "list")
    return [bind_field(item, ftype.element, beans) for item in value]


def bind_bean(obj: dict, bean: ast.BeanDef, beans: Mapping[str, ast.BeanDef]) -> dict:
    """Shape a parsed object to a bean: declared fields, declared order.

    Missing fields become null; undeclared incoming keys are dropped.
    """
    bound = {}
    for field in bean.fields:  # not a comprehension, which would take a frame per level
        bound[field.name] = bind_field(obj.get(field.name), field.type, beans)
    return bound
