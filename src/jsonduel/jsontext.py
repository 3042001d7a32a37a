"""Text-to-value JSON parser for the in-repo engines.

Hand-rolled so engines can control what the standard decoder cannot:
exact decimal digits, the signed-64-bit integer boundary, strict
duplicate-key rejection, and the reader-feature switches (single-quoted
strings, string trimming, native narrowing of integral float literals).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from json.decoder import scanstring as _scan_double_quoted

from .values import INT64_MAX, INT64_MIN

MAX_DEPTH = 256

_WS = " \t\r\n"
NUMBER_RE = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")
_ESCAPES = {
    '"': '"',
    "\\": "\\",
    "/": "/",
    "b": "\b",
    "f": "\f",
    "n": "\n",
    "r": "\r",
    "t": "\t",
}
# Per quote character: the longest run of plain characters in a string.
_PLAIN_RUNS = {q: re.compile(rf"[^{q}\\\x00-\x1f]*").match for q in "\"'"}


class JsonTextError(ValueError):
    """Malformed JSON text; carries the byte offset of the defect."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.reason = message
        self.pos = pos


@dataclass(frozen=True)
class ParseOptions:
    """Mechanical decoding switches; engines map reader features here."""

    single_quotes: bool = False
    trim_strings: bool = False
    narrow_integral_floats: bool = False
    keep_exact_floats: bool = False


DEFAULT_OPTIONS = ParseOptions()


def skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos] in _WS:
        pos += 1
    return pos


def _scan_string(text: str, pos: int) -> tuple[str, int]:
    """Scan a quoted string starting at `pos`; returns (value, end)."""
    quote = text[pos]
    if quote == '"':  # the standard library's scanner reads it alike
        try:
            return _scan_double_quoted(text, pos + 1, True)
        except ValueError:
            pass  # scanned again below, for this reader's error and offset
    out: list[str] = []
    i = pos + 1
    while True:
        end = _PLAIN_RUNS[quote](text, i).end()
        out.append(text[i:end])
        i = end
        if i >= len(text):
            raise JsonTextError("unterminated string", pos)
        ch = text[i]
        if ch == quote:
            return "".join(out), i + 1
        if ch != "\\":
            raise JsonTextError("raw control character in string", i)
        i += 1
        if i >= len(text):
            raise JsonTextError("unterminated escape", i)
        esc = text[i]
        if esc in _ESCAPES or esc == quote:  # \' only inside '...'
            out.append(_ESCAPES.get(esc, esc))
            i += 1
        elif esc == "u":
            code = _hex4(text, i + 1)
            i += 5
            # merge a high surrogate with a following low-surrogate escape
            if 0xD800 <= code <= 0xDBFF and text[i : i + 2] == "\\u":
                low = _hex4(text, i + 2)
                if 0xDC00 <= low <= 0xDFFF:
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                    i += 6
            out.append(chr(code))
        else:
            raise JsonTextError(f"invalid escape '\\{esc}'", i - 1)


def _hex4(text: str, pos: int) -> int:
    digits = text[pos : pos + 4]
    if len(digits) < 4 or any(d not in "0123456789abcdefABCDEF" for d in digits):
        raise JsonTextError("invalid \\u escape", pos)
    return int(digits, 16)


def _scan_number(text: str, pos: int, options: ParseOptions = DEFAULT_OPTIONS) -> tuple[object, int]:
    """Scan a JSON number at `pos`; returns (int | Decimal, end)."""
    match = NUMBER_RE.match(text, pos)
    if match is None:
        raise JsonTextError("invalid number", pos)
    token = match.group()
    # Only a token of at most 20 characters can be a signed 64-bit integer;
    # longer ones skip int(), which refuses more than 4300 digits.
    if len(token) <= 20 and "." not in token and "e" not in token and "E" not in token:
        n = int(token)
        value = n if INT64_MIN <= n <= INT64_MAX else Decimal(token)
        return value, match.end()
    try:
        d = Decimal(token)
    except ArithmeticError:  # an exponent beyond what Decimal can hold
        raise JsonTextError("number out of range", pos) from None
    if options.narrow_integral_floats and not options.keep_exact_floats:
        if d == d.to_integral_value() and INT64_MIN <= d <= INT64_MAX:
            return int(d), match.end()
    return d, match.end()


def parse_value(text: str, pos: int = 0, options: ParseOptions = DEFAULT_OPTIONS, _depth: int = 0):
    """Parse one JSON value starting at `pos`; returns (value, end).

    Arrays and objects recurse straight back into this function, one
    frame per nesting level, because the DSL parser calls it from inside
    deeply nested expressions.
    """
    if _depth > MAX_DEPTH:
        raise JsonTextError("maximum nesting depth exceeded", pos)
    pos = skip_ws(text, pos)
    if pos >= len(text):
        raise JsonTextError("unexpected end of input", pos)
    ch = text[pos]
    if ch == "{":
        obj: dict = {}
        i = skip_ws(text, pos + 1)
        if i < len(text) and text[i] == "}":
            return obj, i + 1
        while True:
            i = skip_ws(text, i)
            if i >= len(text) or not (text[i] == '"' or (text[i] == "'" and options.single_quotes)):
                raise JsonTextError("expected object key", i)
            key, i = _scan_string(text, i)
            if key in obj:
                raise JsonTextError(f"duplicate object key {key!r}", i)
            i = skip_ws(text, i)
            if i >= len(text) or text[i] != ":":
                raise JsonTextError("expected ':' after object key", i)
            value, i = parse_value(text, i + 1, options, _depth + 1)
            obj[key] = value
            i = skip_ws(text, i)
            if i < len(text) and text[i] == ",":
                i += 1
                continue
            if i < len(text) and text[i] == "}":
                return obj, i + 1
            raise JsonTextError("expected ',' or '}' in object", i)
    if ch == "[":
        arr: list = []
        i = skip_ws(text, pos + 1)
        if i < len(text) and text[i] == "]":
            return arr, i + 1
        while True:
            value, i = parse_value(text, i, options, _depth + 1)
            arr.append(value)
            i = skip_ws(text, i)
            if i < len(text) and text[i] == ",":
                i += 1
                continue
            if i < len(text) and text[i] == "]":
                return arr, i + 1
            raise JsonTextError("expected ',' or ']' in array", i)
    if ch == '"' or (ch == "'" and options.single_quotes):
        s, end = _scan_string(text, pos)
        return (s.strip() if options.trim_strings else s), end
    if ch in "-0123456789":
        return _scan_number(text, pos, options)
    for word, value in (("true", True), ("false", False), ("null", None)):
        if text.startswith(word, pos):
            return value, pos + len(word)
    raise JsonTextError(f"unexpected character {ch!r}", pos)


def parse_document(text: str, options: ParseOptions = DEFAULT_OPTIONS):
    """Parse a complete JSON document (any value at the root)."""
    value, end = parse_value(text, 0, options)
    end = skip_ws(text, end)
    if end != len(text):
        raise JsonTextError("trailing data after JSON value", end)
    return value
