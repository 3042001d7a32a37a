"""Shared JSON value model.

All engines and the script executor exchange JSON data as plain Python
values: ``None``, ``bool``, ``int`` (signed 64-bit), ``decimal.Decimal``
(arbitrary-precision, exact digits), ``str``, ``list`` and ``dict``
(insertion-ordered). Integers outside the signed 64-bit range are always
represented as ``Decimal`` so that exactness never silently degrades.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

_SURROGATE_RE = re.compile("[\ud800-\udfff]")
# Kind names by exact type, so a bool is no int.
_KINDS = {type(None): "null", bool: "bool", int: "int", Decimal: "dec", str: "str",
          list: "arr", dict: "obj"}


def kind(value) -> str:
    """Return the value's kind name: null/bool/int/dec/str/arr/obj."""
    try:
        return _KINDS[type(value)]
    except KeyError:
        raise TypeError(f"not a JSON value: {type(value).__name__}") from None


def values_equal(a, b) -> bool:
    """Structural equality over JSON values.

    Type-strict across kinds (Int 1 != Dec 1, mirroring typed-language
    number classes). Decimals compare by exact digits and scale, so
    Dec 1.0 != Dec 1. Objects compare as maps: same keys and values,
    insertion order not significant. Members are compared off a stack,
    not by recursion, so no nesting depth exhausts the recursion limit.
    """
    pending = [(a, b)]
    while pending:
        a, b = pending.pop()
        ka = kind(a)
        if ka != kind(b):
            return False
        if ka == "arr" and len(a) == len(b):
            pending.extend(zip(a, b))
        elif ka == "obj" and a.keys() == b.keys():
            pending.extend((a[key], b[key]) for key in a)
        elif ka in ("arr", "obj") or (a.as_tuple() != b.as_tuple() if ka == "dec" else a != b):
            return False
    return True


def escape_surrogates(json_text: str) -> str:
    """JSON text with each lone surrogate as a \\uXXXX escape, which reads
    back as itself, because UTF-8 cannot encode it raw."""
    return _SURROGATE_RE.sub(lambda m: f"\\u{ord(m.group()):04x}", json_text)


def quote(text: str) -> str:
    """JSON string literal for `text`, with non-ASCII characters kept raw
    and lone surrogates escaped."""
    return escape_surrogates(json.dumps(text, ensure_ascii=False))


def strip_trailing_zeros(value):
    """Drop trailing zeros from a Decimal's coefficient (scale-adjusting).

    Ints pass through unchanged; Dec 1.10 becomes Dec 1.1 and Dec 100
    becomes Dec 1E+2, matching big-decimal normalization semantics.
    Implemented on the coefficient tuple directly: Decimal.normalize()
    is context-bounded and overflows on extreme exponents.
    """
    if isinstance(value, bool) or not isinstance(value, (int, Decimal)):
        raise TypeError(f"cannot strip zeros from {kind(value)}")
    if isinstance(value, int):
        return value
    sign, digits, exponent = value.as_tuple()
    digits = list(digits)
    while len(digits) > 1 and digits[-1] == 0:
        digits.pop()
        exponent += 1
    if digits == [0]:
        exponent = 0
    return Decimal((sign, tuple(digits), exponent))


def dump_value(
    value,
    *,
    write_nulls: bool = False,
    bool_as_number: bool = False,
    nonstring_as_string: bool = False,
    pretty: bool = False,
) -> str:
    """Serialize a JSON value to text.

    Defaults produce the canonical form: compact separators, insertion
    order preserved, exact decimal digits, null-valued object members
    omitted.
    """
    out: list[str] = []
    _dump(value, out, 0, write_nulls, bool_as_number, nonstring_as_string, pretty)
    return "".join(out)


def canonical(value) -> str:
    """Canonical serialization: the stable text used in failure reprs."""
    return dump_value(value)


def _dump(value, out, depth, write_nulls, bool_as_number, nonstring_as_string, pretty):
    k = kind(value)
    if k == "bool" and bool_as_number:
        value, k = (1 if value else 0), "int"
    if k in ("int", "dec", "bool"):
        if k == "dec" and not value.is_finite():
            raise ValueError("non-finite decimals cannot be serialized")
        text = ("true" if value else "false") if k == "bool" else str(value)
        out.append(json.dumps(text) if nonstring_as_string else text)
        return
    if k == "null":
        out.append("null")
        return
    if k == "str":
        out.append(quote(value))
        return

    indent = "  " * (depth + 1) if pretty else ""
    closing_indent = "  " * depth if pretty else ""
    sep = ",\n" if pretty else ","
    if k == "arr":
        if not value:
            out.append("[]")
            return
        out.append("[\n" if pretty else "[")
        for i, item in enumerate(value):
            if i:
                out.append(sep)
            out.append(indent)
            _dump(item, out, depth + 1, write_nulls, bool_as_number, nonstring_as_string, pretty)
        out.append(f"\n{closing_indent}]" if pretty else "]")
        return

    entries = [(key, item) for key, item in value.items() if write_nulls or item is not None]
    if not entries:
        out.append("{}")
        return
    out.append("{\n" if pretty else "{")
    for i, (key, item) in enumerate(entries):
        if i:
            out.append(sep)
        out.append(indent)
        out.append(quote(key))
        out.append(": " if pretty else ":")
        _dump(item, out, depth + 1, write_nulls, bool_as_number, nonstring_as_string, pretty)
    out.append(f"\n{closing_indent}}}" if pretty else "}")
