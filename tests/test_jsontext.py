"""Tests for the text-to-value JSON parser."""

import json
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jsonduel.jsontext import (
    JsonTextError,
    ParseOptions,
    parse_document,
)
from jsonduel.values import INT64_MAX, INT64_MIN

# Characters that make up JSON text, plus the ones a reader must reject
# or handle with care: control characters, lone surrogates, non-ASCII
# digits and letters, and the single quote of the single-quotes feature.
JSON_ALPHABET = (
    list('{}[],:"\\/ \t\r\n-+.eE0123456789abfnrtuAFls\'')
    + ["\x00", "\x1f", "\x7f", "\ud800", "\udc00", "\u00e9", "\u0663", "\U0001f600"]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
SHORT_ESCAPES = {"\b": "b", "\f": "f", "\n": "n", "\r": "r", "\t": "t"}


@st.composite
def json_texts(draw) -> str:
    """A dumped value with fuzz spliced in; either part may be empty."""
    text = draw(st.just("") | st.builds(json.dumps, JSON_VALUES, ensure_ascii=st.booleans()))
    cut = draw(st.integers(0, len(text)))
    return text[:cut] + draw(st.text(st.sampled_from(JSON_ALPHABET), max_size=12)) + text[cut:]


@st.composite
def single_quoted(draw) -> tuple[str, str]:
    """A string, and that string written single-quoted: `\\'` and `\\\\`
    escaped, each control character escaped in one of the ways JSON
    allows, and everything else, `"` included, as a plain character."""
    value = draw(st.text(st.characters() | st.sampled_from("'\"\\\x00\n\x1f")))
    parts = []
    for ch in value:
        if ch in "'\\":
            parts.append("\\" + ch)
        elif ch < " ":
            escapes = [f"\\u{ord(ch):04x}", f"\\u{ord(ch):04X}"]
            if ch in SHORT_ESCAPES:
                escapes.append("\\" + SHORT_ESCAPES[ch])
            parts.append(draw(st.sampled_from(escapes)))
        else:
            parts.append(ch)
    return value, "'" + "".join(parts) + "'"


def _int_or_decimal(token: str):
    d = Decimal(token)
    return int(d) if INT64_MIN <= d <= INT64_MAX else d


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("duplicate object key")
    return obj


def _no_constants(name: str):
    raise ValueError(f"{name} is not JSON")


def stdlib_parse(text: str):
    """Raises ValueError, or ArithmeticError for an exponent that Decimal
    cannot hold, on text it rejects."""
    return json.loads(
        text,
        parse_float=Decimal,
        parse_int=_int_or_decimal,
        object_pairs_hook=_unique_keys,
        parse_constant=_no_constants,
    )


class TestBasics:
    def test_scalars(self):
        assert parse_document("null") is None
        assert parse_document("true") is True
        assert parse_document("false") is False
        assert parse_document("42") == 42
        assert parse_document('"hi"') == "hi"

    def test_scalar_root_allowed(self):
        assert parse_document(" 1 ") == 1

    def test_structures(self):
        assert parse_document('{"a": [1, {"b": null}]}') == {"a": [1, {"b": None}]}

    def test_object_preserves_insertion_order(self):
        value = parse_document('{"z": 1, "a": 2, "m": 3}')
        assert list(value) == ["z", "a", "m"]

    def test_empty_containers(self):
        assert parse_document("[]") == []
        assert parse_document("{}") == {}

    @pytest.mark.parametrize(
        "text",
        ["", "tru", "{", "[1,]", '{"a":}', '{"a" 1}', "01", "1.", "+1", "nan",
         '"unterminated', "[1] extra", "'single'", "1e1000000000000000000"],
    )
    def test_malformed_inputs_rejected(self, text):
        with pytest.raises(JsonTextError):
            parse_document(text)

    def test_duplicate_keys_rejected(self):
        with pytest.raises(JsonTextError, match="duplicate object key"):
            parse_document('{"a": 1, "a": 2}')

    def test_depth_limit(self):
        deep = "[" * 300 + "]" * 300
        with pytest.raises(JsonTextError, match="nesting depth"):
            parse_document(deep)

    def test_non_ascii_digit_is_an_unexpected_character(self):
        with pytest.raises(JsonTextError, match="unexpected character '٣'"):
            parse_document("[٣]")

    def test_raw_control_char_rejected(self):
        with pytest.raises(JsonTextError, match="control character"):
            parse_document('"a\x01b"')


    @settings(max_examples=300, deadline=None)
    @given(json_texts())
    @example('"\\\'"')
    @example("[-1e1003927222515924992]")
    @example("1" * 4301)
    def test_agrees_with_stdlib(self, text):
        """Accepts what the stdlib decoder accepts, with the same values
        (`repr` tells int from Decimal and keeps digits and key order)."""
        try:
            expected = repr(stdlib_parse(text))
        except (ValueError, ArithmeticError):
            expected = None
        try:
            actual = repr(parse_document(text))
        except JsonTextError:
            actual = None
        assert actual == expected


class TestNumbers:
    def test_int64_boundary(self):
        assert parse_document("9223372036854775807") == 2**63 - 1
        assert parse_document("-9223372036854775808") == -(2**63)

    def test_beyond_int64_becomes_exact_decimal(self):
        value = parse_document("9223372036854775808")
        assert isinstance(value, Decimal)
        assert value == Decimal("9223372036854775808")
        assert parse_document("1" * 4301) == Decimal("1" * 4301)

    def test_fraction_and_exponent_become_decimal(self):
        assert parse_document("1.5") == Decimal("1.5")
        assert parse_document("1e3") == Decimal("1e3")

    def test_exact_digits_preserved(self):
        value = parse_document("0.1000000000000000055511151231257827")
        assert str(value) == "0.1000000000000000055511151231257827"

    def test_negative_zero(self):
        value = parse_document("-0")
        assert value == 0


class TestStringsAndEscapes:
    def test_standard_escapes(self):
        assert parse_document(r'"\n\t\"\\\/"') == '\n\t"\\/'

    def test_unicode_escape(self):
        assert parse_document(r'"é"') == "é"

    def test_surrogate_pair(self):
        assert parse_document(r'"😀"') == "😀"

    def test_invalid_escape(self):
        with pytest.raises(JsonTextError, match="invalid escape"):
            parse_document(r'"\q"')


class TestOptions:
    def test_single_quotes_feature(self):
        options = ParseOptions(single_quotes=True)
        assert parse_document("{'a': 'x'}", options) == {"a": "x"}
        assert parse_document("'it\\'s'", options) == "it's"
        with pytest.raises(JsonTextError):
            parse_document("{'a': 1}")

    @settings(max_examples=300, deadline=None)
    @given(single_quoted())
    @example(('"', "'\"'"))
    @example(("it's \\ \"q\"\n", "'it\\'s \\\\ \"q\"\\n'"))
    def test_single_quoted_string_reads_back(self, case):
        """The stdlib cannot read `'...'`, so this property stands in for
        the stdlib agreement there: a value and a key read back as written."""
        value, written = case
        options = ParseOptions(single_quotes=True)
        assert parse_document(written, options) == value
        assert parse_document(f"{{{written}: [{written}]}}", options) == {value: [value]}

    def test_trim_strings_applies_to_values_not_keys(self):
        options = ParseOptions(trim_strings=True)
        assert parse_document('{" k ": " x "}', options) == {" k ": "x"}

    def test_trim_strings_root_value(self):
        assert parse_document('" x "', ParseOptions(trim_strings=True)) == "x"

    def test_narrow_integral_floats(self):
        options = ParseOptions(narrow_integral_floats=True)
        assert parse_document("1.0", options) == 1
        assert isinstance(parse_document("1.0", options), int)
        assert parse_document("1e2", options) == 100
        assert parse_document("1.5", options) == Decimal("1.5")

    def test_keep_exact_floats_wins_over_narrowing(self):
        options = ParseOptions(narrow_integral_floats=True, keep_exact_floats=True)
        value = parse_document("1.0", options)
        assert isinstance(value, Decimal)
        assert str(value) == "1.0"

    def test_narrowing_leaves_oversized_integrals_exact(self):
        options = ParseOptions(narrow_integral_floats=True)
        value = parse_document("9.223372036854775808E18", options)
        assert isinstance(value, Decimal)
