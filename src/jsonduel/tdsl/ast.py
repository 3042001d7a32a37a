"""AST node types for the JSON-test DSL.

A script is the neutral form of a unit test: optional bean definitions
(record schemas for typed (de)serialization) followed by straight-line
statements. There are no loops, conditionals or user-defined functions.
All nodes are immutable slotted dataclasses (no per-node `__dict__`);
structural equality is dataclass equality.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union


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

@dataclass(frozen=True, slots=True)
class Prim:
    """Primitive field type: string, integer, decimal or boolean."""

    name: str


@dataclass(frozen=True, slots=True)
class BeanRef:
    """Field typed as another bean (nested object)."""

    name: str


@dataclass(frozen=True, slots=True)
class ListOf:
    """Field typed as a homogeneous list."""

    element: "FieldType"


FieldType = Union[Prim, BeanRef, ListOf]

PRIMITIVE_TYPES = ("string", "integer", "decimal", "boolean")


@dataclass(frozen=True, slots=True)
class BeanField:
    name: str
    type: FieldType


@dataclass(frozen=True, slots=True)
class BeanDef:
    name: str
    fields: tuple[BeanField, ...]


# --- expressions ---

@dataclass(frozen=True, slots=True)
class Lit:
    """A JSON literal: null, boolean, number, string, array or object,
    as `jsontext.parse_value` reads it."""

    value: object


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class ParseValue:
    text: "Expr"
    features: tuple[ReaderFeature, ...] = ()


@dataclass(frozen=True, slots=True)
class ParseTyped:
    text: "Expr"
    bean: str
    features: tuple[ReaderFeature, ...] = ()


@dataclass(frozen=True, slots=True)
class Serialize:
    value: "Expr"
    features: tuple[WriterFeature, ...] = ()


@dataclass(frozen=True, slots=True)
class Get:
    target: "Expr"
    accessor: Union[str, int]
    as_type: AsType = AsType.VALUE


@dataclass(frozen=True, slots=True)
class PathEval:
    target: "Expr"
    path: str


@dataclass(frozen=True, slots=True)
class IsValid:
    text: "Expr"


@dataclass(frozen=True, slots=True)
class Size:
    target: "Expr"


@dataclass(frozen=True, slots=True)
class MakeBean:
    bean: str
    assignments: tuple[tuple[str, "Expr"], ...] = ()


@dataclass(frozen=True, slots=True)
class StripZeros:
    value: "Expr"


Expr = Union[
    Lit, Var, ParseValue, ParseTyped, Serialize, Get, PathEval,
    IsValid, Size, MakeBean, StripZeros,
]


# --- statements ---

@dataclass(frozen=True, slots=True)
class Let:
    name: str
    expr: Expr


@dataclass(frozen=True, slots=True)
class AssertEq:
    expected: Expr
    actual: Expr


@dataclass(frozen=True, slots=True)
class AssertNull:
    expr: Expr


@dataclass(frozen=True, slots=True)
class AssertNotNull:
    expr: Expr


@dataclass(frozen=True, slots=True)
class AssertThrows:
    expr: Expr


Statement = Union[Let, AssertEq, AssertNull, AssertNotNull, AssertThrows]


# The fields of each expression and statement node that hold a
# sub-expression, in source order. MakeBean's sub-expressions are the
# values of its assignments, so it lists no field.
EXPR_FIELDS: dict[type, tuple[str, ...]] = {
    Lit: (),
    Var: (),
    ParseValue: ("text",),
    ParseTyped: ("text",),
    Serialize: ("value",),
    Get: ("target",),
    PathEval: ("target",),
    IsValid: ("text",),
    Size: ("target",),
    MakeBean: (),
    StripZeros: ("value",),
    Let: ("expr",),
    AssertEq: ("expected", "actual"),
    AssertNull: ("expr",),
    AssertNotNull: ("expr",),
    AssertThrows: ("expr",),
}


@dataclass(frozen=True, slots=True)
class Script:
    """A complete test script: bean definitions plus ordered statements."""

    beans: tuple[BeanDef, ...] = ()
    statements: tuple[Statement, ...] = ()

    def bean_map(self) -> dict[str, BeanDef]:
        return {bean.name: bean for bean in self.beans}


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
