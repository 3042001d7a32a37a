"""Engines with deliberately planted bugs.

Each bug is a documented, minimal deviation from the reference engine,
reproducing a known defect class so the differential oracle's detection
power stays testable in CI. No other module knows the bugs: each lives in
one `PlantedBackend` override of a reference operation, under its
description.
"""

from __future__ import annotations

import enum
from decimal import Decimal
from typing import Iterable, Mapping

from ..tdsl import ast
from ..values import INT64_MAX, INT64_MIN, canonical, kind
from .coerce import bind_bean
from .reference import ReferenceBackend, _parse_path, _step

_AS_STRING = ast.WriterFeature.WRITE_NON_STRING_VALUE_AS_STRING
_BOOL_AS_NUMBER = ast.WriterFeature.WRITE_BOOLEAN_AS_NUMBER


class BugId(enum.Enum):
    L1 = "L1"
    L2 = "L2"
    L3 = "L3"


class PlantedBackend(ReferenceBackend):
    """The reference engine, deviating as each bug in `bugs` prescribes."""

    def __init__(self, name: str, bugs: Iterable[BugId]):
        super().__init__(name)
        self.bugs = frozenset(bugs)

    def path_eval(self, target, path: str):
        """L1: path evaluation disagrees between string and object input.

        With an object target, an index step applied to a scalar returns
        the scalar itself, while the (correct) string-input path returns
        null.
        """
        if BugId.L1 not in self.bugs or isinstance(target, str):
            return super().path_eval(target, path)
        for step in _parse_path(path):
            if isinstance(step, str) or kind(target) not in ("bool", "int", "dec", "str"):
                target = _step(target, step)
        return target

    def serialize(self, value, features: Iterable[ast.WriterFeature] = ()) -> str:
        """L2: WriteNonStringValueAsString quotes numbers but leaves
        booleans unquoted, unless WriteBooleanAsNumber made them numbers.
        """
        flags = set(features)
        if flags and BugId.L2 in self.bugs and _AS_STRING in flags and _BOOL_AS_NUMBER not in flags:
            flags.remove(_AS_STRING)
            value = _numbers_as_text(value)
        return super().serialize(value, flags)

    def parse_typed(self, text: str, bean, beans, features=()) -> dict:
        """L3: typed parsing into a decimal bean field wraps integers that
        exceed the signed 64-bit range instead of keeping them exact.

        Only a number read as such wraps; a numeric string read into a
        decimal field stays exact.
        """
        if BugId.L3 not in self.bugs:
            return super().parse_typed(text, bean, beans, features)
        value = self.parse(text, features)
        if kind(value) != "obj":  # the reference raises its TypeCastError
            return super().parse_typed(text, bean, beans, features)
        return bind_bean(_wrap_overflow(value, ast.BeanRef(bean.name), beans), bean, beans)


def _numbers_as_text(value):
    """`value` with every int and decimal replaced by its canonical text."""
    k = kind(value)
    if k in ("int", "dec"):
        return canonical(value)
    if k == "arr":
        return [_numbers_as_text(item) for item in value]
    if k == "obj":
        return {key: _numbers_as_text(item) for key, item in value.items()}
    return value


def _wrap_overflow(value, ftype: ast.FieldType, beans: Mapping[str, ast.BeanDef]):
    """`value` read as `ftype`, with every integral decimal beyond 64-bit
    range in a decimal field wrapped. Anything that does not fit `ftype`
    stays as it is, for the reference binding to reject."""
    if isinstance(ftype, ast.BeanRef) and kind(value) == "obj":
        fields = beans[ftype.name].fields
        return {f.name: _wrap_overflow(value.get(f.name), f.type, beans) for f in fields}
    if isinstance(ftype, ast.ListOf) and kind(value) == "arr":
        return [_wrap_overflow(item, ftype.element, beans) for item in value]
    if ftype == ast.Prim("decimal") and isinstance(value, Decimal):
        if value == value.to_integral_value() and not INT64_MIN <= value <= INT64_MAX:
            return _wrap_int64(value)
    return value


def _wrap_int64(d: Decimal) -> Decimal:
    """Two's-complement wrap of an integral decimal into 64-bit range.

    Works on the coefficient tuple with modular arithmetic so extreme
    exponents never materialize astronomically large integers. The
    coefficient goes through Decimal, not a digit string, so it may have
    more digits than `int(str)` accepts.
    """
    sign, digits, exponent = d.as_tuple()
    digits = list(digits)
    while exponent < 0 and digits and digits[-1] == 0:
        digits.pop()
        exponent += 1
    # the caller guarantees integrality, so the exponent is now >= 0
    coefficient = int(Decimal((0, tuple(digits), 0)))
    n = coefficient * pow(10, exponent, 1 << 64) % (1 << 64)
    if sign:
        n = -n % (1 << 64)
    return Decimal(((n + 2**63) % 2**64) - 2**63)
