"""Tests for the shared JSON value model."""

from decimal import Decimal

import pytest

from jsonduel.values import (
    canonical,
    dump_value,
    kind,
    strip_trailing_zeros,
    values_equal,
)


class TestKinds:
    def test_kind_of_each_variant(self):
        assert kind(None) == "null"
        assert kind(True) == "bool"
        assert kind(3) == "int"
        assert kind(Decimal("1.5")) == "dec"
        assert kind("x") == "str"
        assert kind([1]) == "arr"
        assert kind({"a": 1}) == "obj"

    def test_bool_is_not_int(self):
        # bool subclasses int in Python; the model keeps them distinct
        assert kind(True) == "bool"
        assert kind(False) == "bool"
        assert not values_equal(True, 1)

    @pytest.mark.parametrize("value", [1.5, (1,), b"x"], ids=["float", "tuple", "bytes"])
    def test_non_json_value_raises(self, value):
        with pytest.raises(TypeError, match=f"not a JSON value: {type(value).__name__}"):
            kind(value)


class TestEquality:
    def test_decimal_scale_matters(self):
        assert not values_equal(Decimal("1.0"), Decimal("1"))
        assert values_equal(Decimal("1.0"), Decimal("1.0"))

    def test_int_and_decimal_are_distinct(self):
        assert not values_equal(1, Decimal("1"))

    def test_object_equality_ignores_insertion_order(self):
        assert values_equal({"a": 1, "b": 2}, {"b": 2, "a": 1})

    def test_nested_structures(self):
        a = {"a": [1, {"b": Decimal("2.50")}]}
        b = {"a": [1, {"b": Decimal("2.50")}]}
        assert values_equal(a, b)
        b["a"][1]["b"] = Decimal("2.5")
        assert not values_equal(a, b)

    def test_array_order_matters(self):
        assert not values_equal([1, 2], [2, 1])


class TestStripZeros:
    def test_strips_trailing_zeros(self):
        assert strip_trailing_zeros(Decimal("1.10")) == Decimal("1.1")
        assert str(strip_trailing_zeros(Decimal("1.10"))) == "1.1"

    def test_integral_gains_exponent(self):
        assert str(strip_trailing_zeros(Decimal("100"))) == "1E+2"

    def test_no_trailing_zeros_unchanged(self):
        big = Decimal("9223372036854775808")
        assert str(strip_trailing_zeros(big)) == "9223372036854775808"

    def test_int_passthrough(self):
        assert strip_trailing_zeros(100) == 100

    def test_extreme_exponents_do_not_overflow(self):
        assert str(strip_trailing_zeros(Decimal("1E+100000000"))) == "1E+100000000"
        assert str(strip_trailing_zeros(Decimal("1.50E-99999999"))) == "1.5E-99999999"

    def test_zero_normalizes_to_plain_zero(self):
        assert str(strip_trailing_zeros(Decimal("0.000"))) == "0"
        assert str(strip_trailing_zeros(Decimal("-0.0"))) == "-0"
        assert str(strip_trailing_zeros(Decimal("0E+5"))) == "0"

    def test_rejects_non_numbers(self):
        with pytest.raises(TypeError):
            strip_trailing_zeros("1.10")


class TestDump:
    def test_compact_canonical(self):
        value = {"b": True, "n": 1, "d": Decimal("1.10"), "s": "x", "a": [None]}
        assert canonical(value) == '{"b":true,"n":1,"d":1.10,"s":"x","a":[null]}'

    def test_null_members_omitted_by_default(self):
        assert canonical({"a": None, "b": 1}) == '{"b":1}'
        assert dump_value({"a": None}, write_nulls=True) == '{"a":null}'

    def test_array_nulls_always_kept(self):
        assert canonical([None, 1]) == "[null,1]"

    def test_string_escaping(self):
        assert canonical({"k": 'a"b\n'}) == '{"k":"a\\"b\\n"}'
        # a lone surrogate, as key or value, is escaped; other non-ASCII stays raw
        assert canonical({"\udc00": ["\ud800é"]}) == '{"\\udc00":["\\ud800é"]}'

    def test_nonstring_as_string_quotes_scalars(self):
        value = {"b": True, "n": 1, "d": Decimal("2.5"), "s": "x"}
        assert (
            dump_value(value, nonstring_as_string=True)
            == '{"b":"true","n":"1","d":"2.5","s":"x"}'
        )

    def test_nonstring_as_string_leaves_null_alone(self):
        assert dump_value([None], nonstring_as_string=True) == "[null]"

    def test_bool_as_number(self):
        assert dump_value({"b": True, "c": False}, bool_as_number=True) == '{"b":1,"c":0}'

    def test_bool_as_number_then_quoting(self):
        assert (
            dump_value([True], bool_as_number=True, nonstring_as_string=True) == '["1"]'
        )

    def test_pretty_two_space_indent(self):
        value = {"a": [1, 2], "b": {"c": None}, "d": {}}
        expected = (
            '{\n'
            '  "a": [\n'
            '    1,\n'
            '    2\n'
            '  ],\n'
            '  "b": {},\n'
            '  "d": {}\n'
            '}'
        )
        assert dump_value(value, pretty=True) == expected

    def test_exponent_decimals_serialize_exactly(self):
        assert canonical(Decimal("1E+2")) == "1E+2"
        assert canonical(Decimal("-0.001")) == "-0.001"
