"""Tests for the reference engine: features, getters, paths, typed parsing."""

from decimal import Decimal
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jsonduel.backends import resolve_backend
from jsonduel.backends.coerce import bind_field, coerce_value
from jsonduel.backends.outcomes import BackendError, ErrorKind
from jsonduel.backends.reference import ReferenceBackend
from jsonduel.jsontext import MAX_DEPTH
from jsonduel.tdsl.ast import (
    AsType,
    BeanDef,
    BeanField,
    BeanRef,
    ListOf,
    Prim,
    ReaderFeature,
    WriterFeature,
)
from jsonduel.values import INT64_MAX, INT64_MIN, kind, values_equal

from scriptgen import WideScriptGen, generate_scripts

REF = ReferenceBackend()


class TestParse:
    def test_parse_error_kind(self):
        with pytest.raises(BackendError) as info:
            REF.parse("not json")
        assert info.value.kind is ErrorKind.PARSE_ERROR

    def test_trim_string_feature(self):
        value = REF.parse('" x "', [ReaderFeature.TRIM_STRING])
        assert value == "x"

    def test_single_quotes_feature(self):
        value = REF.parse("{'a': 1}", [ReaderFeature.ALLOW_SINGLE_QUOTES])
        assert value == {"a": 1}

    def test_native_object_narrows_integral_floats(self):
        assert REF.parse("[1.0]", [ReaderFeature.USE_NATIVE_OBJECT]) == [1]
        assert isinstance(REF.parse("1.0", [ReaderFeature.USE_NATIVE_OBJECT]), int)

    def test_big_decimal_feature_overrides_narrowing(self):
        features = [ReaderFeature.USE_NATIVE_OBJECT, ReaderFeature.USE_BIG_DECIMAL_FOR_FLOATS]
        value = REF.parse("1.0", features)
        assert isinstance(value, Decimal)

    def test_validate(self):
        assert REF.validate('{"a": [1]}')
        assert not REF.validate("{")


# The writer features that keep every value's meaning.
_VALUE_PRESERVING_FEATURES = [WriterFeature.WRITE_NULLS, WriterFeature.PRETTY_FORMAT]


@st.composite
def _round_trip_values(draw):
    """One `WideScriptGen` value, or several gathered into an array or an
    object wider than the generator makes, next to integral decimals
    within int64, one of the two blind spots."""
    gen = WideScriptGen(draw(st.randoms(use_true_random=True)))
    parts = [gen.json_value() for _ in range(draw(st.integers(1, 6)))]
    parts += map(Decimal, draw(st.lists(st.integers(INT64_MIN, INT64_MAX), max_size=2)))
    if len(parts) == 1:
        return parts[0]
    return parts if draw(st.booleans()) else {gen.text(): part for part in parts}


def _depth(value) -> int:
    """The nesting level of the deepest value inside `value`, counted as
    jsontext counts it: the outermost value is at level 0."""
    if isinstance(value, dict):
        value = list(value.values())
    if not isinstance(value, list):
        return 0
    return max((1 + _depth(item) for item in value), default=0)


def _read_back(value, write_nulls: bool):
    """What `value` reads back as after serialize then parse: itself,
    except that an object member holding null is dropped unless
    `write_nulls`, and an integral scale-0 decimal within int64 reads back
    as an integer."""
    if isinstance(value, dict):
        return {
            key: _read_back(member, write_nulls)
            for key, member in value.items()
            if write_nulls or member is not None
        }
    if isinstance(value, list):
        return [_read_back(item, write_nulls) for item in value]
    if (
        isinstance(value, Decimal)
        and value.as_tuple().exponent == 0
        and INT64_MIN <= value <= INT64_MAX
    ):
        return int(value)
    return value


class TestSerializeRoundTrip:
    def test_listing_value_with_quoting_feature(self):
        out = REF.serialize({"b": True}, [WriterFeature.WRITE_NON_STRING_VALUE_AS_STRING])
        assert out == '{"b":"true"}'

    @settings(max_examples=300, deadline=None)
    @given(_round_trip_values(), st.sets(st.sampled_from(_VALUE_PRESERVING_FEATURES)))
    @example(reduce(lambda value, _: [value], range(MAX_DEPTH + 1), 0), set())
    @example(reduce(lambda value, _: [value], range(MAX_DEPTH), {"a": None}), set())
    def test_round_trip_property(self, value, features):
        """parse(serialize(v)) == v, but for the two blind spots in
        docs/features.md (see `_read_back`), and for a value written nested
        deeper than the documented cap, which serializes but parses as an
        error. A dropped null member can leave the written value one level
        shallower than `v`, so the depth is that of what reads back."""
        text = REF.serialize(value, features)
        expected = _read_back(value, WriterFeature.WRITE_NULLS in features)
        if _depth(expected) > MAX_DEPTH:
            with pytest.raises(BackendError) as info:
                REF.parse(text)
            assert info.value.kind is ErrorKind.PARSE_ERROR
            return
        assert values_equal(REF.parse(text), expected)

    def test_null_members_need_write_nulls(self):
        assert REF.serialize({"a": None}) == "{}"
        assert REF.serialize({"a": None}, [WriterFeature.WRITE_NULLS]) == '{"a":null}'

    def test_pretty_format(self):
        out = REF.serialize({"a": 1}, [WriterFeature.PRETTY_FORMAT])
        assert out == '{\n  "a": 1\n}'

    def test_boolean_as_number(self):
        out = REF.serialize([True, False], [WriterFeature.WRITE_BOOLEAN_AS_NUMBER])
        assert out == "[1,0]"


BEAN_BOX = BeanDef("Box", (BeanField("v", Prim("decimal")),))
BEANS = {"Box": BEAN_BOX}


class TestParseTyped:
    def test_bean_shaping_orders_and_fills_fields(self):
        bean = BeanDef(
            "B",
            (BeanField("x", Prim("integer")), BeanField("y", Prim("string"))),
        )
        out = REF.parse_typed('{"y": "s", "extra": 1}', bean, {"B": bean})
        assert list(out) == ["x", "y"]
        assert out == {"x": None, "y": "s"}

    def test_field_coercion(self):
        bean = BeanDef("B", (BeanField("n", Prim("decimal")),))
        out = REF.parse_typed('{"n": 7}', bean, {"B": bean})
        assert out == {"n": Decimal("7")}
        assert isinstance(out["n"], Decimal)

    def test_list_field(self):
        bean = BeanDef("B", (BeanField("xs", ListOf(Prim("integer"))),))
        out = REF.parse_typed('{"xs": [1, 2]}', bean, {"B": bean})
        assert out == {"xs": [1, 2]}

    def test_type_mismatch_is_cast_error(self):
        bean = BeanDef("B", (BeanField("n", Prim("integer")),))
        with pytest.raises(BackendError) as info:
            REF.parse_typed('{"n": true}', bean, {"B": bean})
        assert info.value.kind is ErrorKind.TYPE_CAST_ERROR

    def test_non_object_root_is_cast_error(self):
        with pytest.raises(BackendError) as info:
            REF.parse_typed("[1]", BEAN_BOX, BEANS)
        assert info.value.kind is ErrorKind.TYPE_CAST_ERROR

    def test_oversized_integer_stays_exact(self):
        out = REF.parse_typed('{"v": 9223372036854775808}', BEAN_BOX, BEANS)
        assert out["v"] == Decimal("9223372036854775808")


class TestGetters:
    @pytest.mark.parametrize(
        "value,accessor,as_type,expected",
        [
            ({"a": 1}, "a", AsType.VALUE, 1),
            ({"a": 1}, "a", AsType.STRING, "1"),
            ({"a": "12"}, "a", AsType.INTEGER, 12),
            ({"a": "1.5"}, "a", AsType.DECIMAL, Decimal("1.5")),
            ({"a": True}, "a", AsType.STRING, "true"),
            ({"a": "true"}, "a", AsType.BOOLEAN, True),
            ([5], 0, AsType.VALUE, 5),
            ({"a": Decimal("2")}, "a", AsType.INTEGER, 2),
            ({"a": 2}, "a", AsType.DECIMAL, Decimal("2")),
            ({"a": [1]}, "a", AsType.ARRAY, [1]),
            ({"a": {"b": 1}}, "a", AsType.OBJECT, {"b": 1}),
            ({"a": [1, "x"]}, "a", AsType.STRING, '[1,"x"]'),
            ([1, 2], -1, AsType.VALUE, None),  # a negative index is out of range
        ],
    )
    def test_coercion_table(self, value, accessor, as_type, expected):
        assert values_equal(REF.get(value, accessor, as_type), expected)

    def test_missing_key_as_value_is_null(self):
        assert REF.get({"a": 1}, "b", AsType.VALUE) is None

    def test_missing_key_typed_is_null_access(self):
        with pytest.raises(BackendError) as info:
            REF.get({"a": 1}, "b", AsType.STRING)
        assert info.value.kind is ErrorKind.NULL_ACCESS

    def test_out_of_range_index_behaves_like_missing(self):
        assert REF.get([1], 5, AsType.VALUE) is None

    def test_negative_index_typed_is_null_access(self):
        with pytest.raises(BackendError) as info:
            REF.get([1, 2], -1, AsType.INTEGER)
        assert info.value.kind is ErrorKind.NULL_ACCESS

    def test_null_target_is_null_access(self):
        with pytest.raises(BackendError) as info:
            REF.get(None, "a", AsType.VALUE)
        assert info.value.kind is ErrorKind.NULL_ACCESS

    def test_wrong_container_is_cast_error(self):
        with pytest.raises(BackendError) as info:
            REF.get([1], "key", AsType.VALUE)
        assert info.value.kind is ErrorKind.TYPE_CAST_ERROR

    def test_non_integral_decimal_to_integer_is_cast_error(self):
        with pytest.raises(BackendError) as info:
            REF.get({"a": Decimal("1.5")}, "a", AsType.INTEGER)
        assert info.value.kind is ErrorKind.TYPE_CAST_ERROR

    def test_coercion_totality(self):
        # every (actual kind, as_type) pair returns or raises BackendError
        samples = [
            None, True, 3, Decimal("1.5"), "x", [1], {"a": 1},
            "1" * 5000,  # int() refuses more than 4300 digits
            "1e1000000000000000000",  # beyond Decimal's exponent range
        ]
        for sample in samples:
            for as_type in AsType:
                try:
                    REF.get({"k": sample}, "k", as_type)
                except BackendError:
                    pass


NULL, CAST = ErrorKind.NULL_ACCESS, ErrorKind.TYPE_CAST_ERROR
DIGITS_5000 = "1" * 5000  # int() refuses more than 4300 digits


def _cast(kind: str, target: str):
    return CAST, f"cannot read {kind} as {target}"


# One row per sample; its cells follow AsType's order: value, string,
# integer, decimal, boolean, object, array. A cell is the coerced value
# or the (ErrorKind, message) the coercion raises.
COERCION_MATRIX = [
    (None, [None, (NULL, "null read as string"), (NULL, "null read as integer"),
            (NULL, "null read as decimal"), (NULL, "null read as boolean"),
            (NULL, "null read as object"), (NULL, "null read as array")]),
    (True, [True, "true", _cast("bool", "integer"), _cast("bool", "decimal"), True,
            _cast("bool", "object"), _cast("bool", "array")]),
    (3, [3, "3", 3, Decimal("3"), _cast("int", "boolean"), _cast("int", "object"),
         _cast("int", "array")]),
    (Decimal("1.5"), [Decimal("1.5"), "1.5", _cast("dec", "integer"), Decimal("1.5"),
                      _cast("dec", "boolean"), _cast("dec", "object"), _cast("dec", "array")]),
    (Decimal("2"), [Decimal("2"), "2", 2, Decimal("2"), _cast("dec", "boolean"),
                    _cast("dec", "object"), _cast("dec", "array")]),
    (Decimal("9223372036854775808"), [
        Decimal("9223372036854775808"), "9223372036854775808", _cast("dec", "integer"),
        Decimal("9223372036854775808"), _cast("dec", "boolean"), _cast("dec", "object"),
        _cast("dec", "array")]),
    ("x", ["x", "x", _cast("str", "integer"), _cast("str", "decimal"),
           _cast("str", "boolean"), _cast("str", "object"), _cast("str", "array")]),
    ([1], [[1], "[1]", _cast("arr", "integer"), _cast("arr", "decimal"),
           _cast("arr", "boolean"), _cast("arr", "object"), [1]]),
    ({"a": 1}, [{"a": 1}, '{"a":1}', _cast("obj", "integer"), _cast("obj", "decimal"),
                _cast("obj", "boolean"), {"a": 1}, _cast("obj", "array")]),
    ("-9223372036854775808", [
        "-9223372036854775808", "-9223372036854775808", INT64_MIN,
        Decimal("-9223372036854775808"), _cast("str", "boolean"), _cast("str", "object"),
        _cast("str", "array")]),
    ("9223372036854775808", [
        "9223372036854775808", "9223372036854775808", _cast("str", "integer"),
        Decimal("9223372036854775808"), _cast("str", "boolean"), _cast("str", "object"),
        _cast("str", "array")]),
    (DIGITS_5000, [DIGITS_5000, DIGITS_5000, _cast("str", "integer"), Decimal(DIGITS_5000),
                   _cast("str", "boolean"), _cast("str", "object"), _cast("str", "array")]),
    ("1e999999999999", [
        "1e999999999999", "1e999999999999", _cast("str", "integer"),
        Decimal("1E+999999999999"), _cast("str", "boolean"), _cast("str", "object"),
        _cast("str", "array")]),
    ("1e1000000000000000000", [  # beyond Decimal's exponent range
        "1e1000000000000000000", "1e1000000000000000000", _cast("str", "integer"),
        _cast("str", "decimal"), _cast("str", "boolean"), _cast("str", "object"),
        _cast("str", "array")]),
    ("1.0", ["1.0", "1.0", _cast("str", "integer"), Decimal("1.0"), _cast("str", "boolean"),
             _cast("str", "object"), _cast("str", "array")]),
    (" 1", [" 1", " 1", _cast("str", "integer"), _cast("str", "decimal"),
            _cast("str", "boolean"), _cast("str", "object"), _cast("str", "array")]),
    ("true", ["true", "true", _cast("str", "integer"), _cast("str", "decimal"), True,
              _cast("str", "object"), _cast("str", "array")]),
    ("TRUE", ["TRUE", "TRUE", _cast("str", "integer"), _cast("str", "decimal"),
              _cast("str", "boolean"), _cast("str", "object"), _cast("str", "array")]),
]

BOX = BeanDef("Box", (BeanField("n", Prim("integer")),))


def _coerced(call):
    """What `call()` gives, in a matrix cell's form."""
    try:
        return call()
    except BackendError as exc:
        return exc.kind, str(exc)


def _same(actual, expected) -> bool:
    """Equal and of one type, so 2 and Decimal("2") differ."""
    if type(actual) is not type(expected):
        return False
    if isinstance(expected, (list, tuple)):
        return len(actual) == len(expected) and all(map(_same, actual, expected))
    if isinstance(expected, dict):
        return list(actual) == list(expected) and all(map(_same, actual.values(), expected.values()))
    return actual == expected


class TestCoercionMatrix:
    def test_rows_cover_every_kind(self):
        assert {kind(sample) for sample, _ in COERCION_MATRIX} == {
            "null", "bool", "int", "dec", "str", "arr", "obj"
        }

    @pytest.mark.parametrize(
        "sample,cells", COERCION_MATRIX, ids=[repr(sample)[:24] for sample, _ in COERCION_MATRIX]
    )
    def test_every_as_type(self, sample, cells):
        actual = [_coerced(lambda: coerce_value(sample, as_type)) for as_type in AsType]
        assert len(cells) == len(AsType)
        for as_type, got, want in zip(AsType, actual, cells):
            assert _same(got, want), (as_type, got, want)

    @pytest.mark.parametrize(
        "value,ftype,expected",
        [
            (None, ListOf(Prim("integer")), None),
            ({"a": 1}, ListOf(Prim("integer")), _cast("obj", "list")),
            ("12", ListOf(Prim("integer")), _cast("str", "list")),
            (["1", 2], ListOf(Prim("integer")), [1, 2]),
            (["1", "x"], ListOf(Prim("integer")), _cast("str", "integer")),
            ([[1], 2], ListOf(ListOf(Prim("string"))), _cast("int", "list")),
            ([1], BeanRef("Box"), _cast("arr", "bean Box")),
            ("{}", BeanRef("Box"), _cast("str", "bean Box")),
            ({"n": "7", "x": 1}, BeanRef("Box"), {"n": 7}),
            ({"n": True}, BeanRef("Box"), _cast("bool", "integer")),
            ([{}, {"n": 1}], ListOf(BeanRef("Box")), [{"n": None}, {"n": 1}]),
            (3, Prim("string"), "3"),
            ("3", Prim("integer"), 3),
            (3, Prim("decimal"), Decimal("3")),
            ("false", Prim("boolean"), False),
        ],
    )
    def test_bind_field(self, value, ftype, expected):
        assert _same(_coerced(lambda: bind_field(value, ftype, {"Box": BOX})), expected)


class TestPathEval:
    def test_single_step(self):
        assert REF.path_eval({"data": [1]}, "$.data[0]") == 1
        assert REF.path_eval({"data": [1, 2]}, f"$.data[{'0' * 5000}1]") == 2

    def test_string_target_is_parsed_first(self):
        assert REF.path_eval('{"data": [1]}', "$.data[0]") == 1

    def test_root_only(self):
        assert REF.path_eval({"a": 1}, "$") == {"a": 1}

    def test_unresolved_step_yields_null(self):
        assert REF.path_eval({"data": [1]}, "$.data[0][0]") is None
        assert REF.path_eval({"data": [1]}, "$.ghost") is None
        assert REF.path_eval({"data": [1]}, "$.data[9]") is None
        assert REF.path_eval({"data": [1]}, f"$.data[{'1' * 5000}]") is None
        assert REF.path_eval('{"data": [1]}', f"$.data[0{'1' * 19}]") is None

    def test_malformed_path_is_path_error(self):
        for bad in ("data", "$.", "$[", "$.data[-1]", "$..x", "$.data[0]!"):
            with pytest.raises(BackendError) as info:
                REF.path_eval({}, bad)
            assert info.value.kind is ErrorKind.PATH_ERROR

    def test_unparseable_string_target_is_parse_error(self):
        with pytest.raises(BackendError) as info:
            REF.path_eval("not json", "$.a")
        assert info.value.kind is ErrorKind.PARSE_ERROR


def _result(call, *args):
    """What a call returns, or the error it raises."""
    try:
        return call(*args)
    except BackendError as exc:
        return (exc.kind, exc.message)


class TestNoFeatures:
    """An empty feature tuple or list reads and writes as no features at all."""

    ENGINES = ["reference", "planted:L1", "planted:L2", "planted:L3", "planted:L1+L2+L3"]
    TEXTS = ['" x "', "1.0", "1E2", "{'a': 1}", '{"a": [null, true, 1.50]}', "nope"]
    VALUES = [None, True, 7, Decimal("1.50"), " x ", [1, None, False], {"a": None, "b": [True]}]

    @pytest.mark.parametrize("name", ENGINES)
    def test_parse(self, name):
        engine = resolve_backend(name)
        for text in self.TEXTS:
            expected = _result(engine.parse, text)
            assert _result(engine.parse, text, ()) == expected
            assert _result(engine.parse, text, []) == expected

    @pytest.mark.parametrize("name", ENGINES)
    def test_serialize(self, name):
        engine = resolve_backend(name)
        for value in self.VALUES:
            expected = engine.serialize(value)
            assert engine.serialize(value, ()) == expected
            assert engine.serialize(value, []) == expected


class TestRegistry:
    def test_known_names(self):
        assert resolve_backend("reference").name == "reference"
        assert resolve_backend("reference-copy").name == "reference-copy"
        assert resolve_backend("planted:L2").name == "planted:L2"
        assert resolve_backend("planted:").name == "planted:"

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="^unknown backend 'turbojson'$"):
            resolve_backend("turbojson")

    def test_unknown_bug_code(self):
        with pytest.raises(ValueError, match="^unknown planted bug code 'L9' in 'planted:L9'$"):
            resolve_backend("planted:L9")


class TestDeterminism:
    def test_two_reference_instances_agree_everywhere(self):
        from jsonduel.backends.executor import execute

        ref, copy = ReferenceBackend(), ReferenceBackend(name="reference-copy")
        for script in generate_scripts(seed=23, count=120):
            assert execute(script, ref) == execute(script, copy)
