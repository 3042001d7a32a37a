"""Tests for the planted-bug engines against the reference."""

from hypothesis import given, settings
from hypothesis import strategies as st

from jsonduel.backends import resolve_backend
from jsonduel.backends.executor import execute
from jsonduel.backends.outcomes import Error, ErrorKind, Fail, Pass
from jsonduel.tdsl import ast
from jsonduel.tdsl.parser import parse_script

from scriptgen import WideScriptGen, generate_scripts

LISTING_PATH = """\
let obj = {"data": [1]};
let str = serialize(obj);
assert_eq(path_eval(str, "$.data[0][0]"), path_eval(obj, "$.data[0][0]"));
"""

LISTING_BOOL = """\
bean Bean { b: boolean; }
let b = make_bean(Bean, b = true);
let json = serialize(b, [WriteNonStringValueAsString]);
assert_eq("{\\"b\\":\\"true\\"}", json);
"""

LISTING_DECIMAL = """\
bean Box { v: decimal; }
let d = 9223372036854775808;
let s = serialize(d);
assert_eq("9223372036854775808", s);
let b = parse_typed("{\\"v\\":9223372036854775808}", Box);
assert_eq(strip_zeros(d), get(b, "v", decimal));
"""

REFERENCE = resolve_backend("reference")
L1, L2, L3 = (resolve_backend(f"planted:{code}") for code in ("L1", "L2", "L3"))

AS_STRING = ast.WriterFeature.WRITE_NON_STRING_VALUE_AS_STRING
BOOL_AS_NUMBER = ast.WriterFeature.WRITE_BOOLEAN_AS_NUMBER

# Whether a script node can reach each single-bug engine's deviation.
REACHES = {
    L1: lambda node: isinstance(node, ast.PathEval),
    L2: lambda node: (
        isinstance(node, ast.Serialize)
        and AS_STRING in node.features
        and BOOL_AS_NUMBER not in node.features
    ),
    L3: lambda node: isinstance(node, ast.ParseTyped),
}


def _nodes(node):
    """`node` and every expression under it."""
    yield node
    if isinstance(node, ast.MakeBean):
        children = [value for _, value in node.assignments]
    else:
        children = [getattr(node, field) for field in ast.EXPR_FIELDS[type(node)]]
    for child in children:
        yield from _nodes(child)


class TestPlantedBugs:
    def test_l1_path_string_vs_object(self):
        script = parse_script(LISTING_PATH)
        assert execute(script, REFERENCE) == Pass()
        outcome = execute(script, L1)
        assert isinstance(outcome, Fail)
        assert outcome.expected_repr == "null"  # string input side
        assert outcome.actual_repr == "1"  # object input side returns the value

    def test_l2_boolean_not_quoted(self):
        script = parse_script(LISTING_BOOL)
        assert execute(script, REFERENCE) == Pass()
        outcome = execute(script, L2)
        assert isinstance(outcome, Fail)
        assert outcome.actual_repr == '"{\\"b\\":true}"'

    def test_l3_decimal_overflow_wraps(self):
        script = parse_script(LISTING_DECIMAL)
        assert execute(script, REFERENCE) == Pass()
        outcome = execute(script, L3)
        assert isinstance(outcome, Fail)
        assert outcome.actual_repr == "-9223372036854775808"

    def test_bugs_do_not_interfere(self):
        all_bugs = resolve_backend("planted:L1+L2+L3")
        for text in (LISTING_PATH, LISTING_BOOL, LISTING_DECIMAL):
            assert isinstance(execute(parse_script(text), all_bugs), Fail)

    def test_l2_does_not_affect_numbers(self):
        backend = L2
        script = parse_script(
            'assert_eq("{\\"n\\":\\"1\\"}", serialize({"n": 1}, [WriteNonStringValueAsString]));'
        )
        assert execute(script, backend) == Pass()

    def test_l3_only_triggers_on_decimal_fields_beyond_int64(self):
        backend = L3
        script = parse_script(
            'bean Box { v: decimal; }\n'
            'let b = parse_typed("{\\"v\\":123}", Box);\n'
            'assert_eq(123, get(b, "v", integer));\n'
        )
        assert execute(script, backend) == Pass()

    def test_l3_wrap_handles_extreme_exponents(self):
        # 10^100 is divisible by 2^64, so it wraps all the way to zero;
        # the point is that this terminates and stays in 64-bit range.
        backend = L3
        script = parse_script(
            'bean Box { v: decimal; }\n'
            'let b = parse_typed("{\\"v\\":1E+100000000}", Box);\n'
            'assert_eq("0", get(b, "v", string));\n'
        )
        assert execute(script, backend) == Pass()

    def test_l3_wrap_handles_more_digits_than_int_reads(self):
        # 10^5000 has 5001 digits, past int()'s 4300, and wraps to zero
        backend = L3
        script = parse_script(
            'bean Box { v: decimal; }\n'
            f'let b = parse_typed("{{\\"v\\":1{"0" * 5000}}}", Box);\n'
            'assert_eq("0", get(b, "v", string));\n'
        )
        assert execute(script, backend) == Pass()

    def test_empty_bug_set_matches_reference_behaviorally(self):
        benign = resolve_backend("planted:")
        for script in generate_scripts(seed=77, count=400):
            assert execute(script, benign) == execute(script, REFERENCE)


class TestDeviationEdges:
    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=True).map(lambda rng: WideScriptGen(rng).script()))
    def test_single_bug_engines_match_the_reference_off_their_deviation(self, script):
        nodes = [node for stmt in script.statements for node in _nodes(stmt)]
        expected = execute(script, REFERENCE)
        for engine, reaches in REACHES.items():
            if not any(reaches(node) for node in nodes):
                assert execute(script, engine) == expected, engine.name

    def test_l1_keeps_string_input_and_other_steps(self):
        script = parse_script(
            r'assert_eq(1, path_eval("{\"data\":[1]}", "$.data[0]"));' "\n"
            r'assert_null(path_eval("{\"data\":[1]}", "$.data[0][0]"));' "\n"
            'assert_eq(2, path_eval({"a": [[1, 2]]}, "$.a[0][1]"));\n'
            'assert_null(path_eval({"a": [1]}, "$.a[0].b"));\n'
        )
        assert execute(script, REFERENCE) == Pass()
        assert execute(script, L1) == Pass()

    def test_l2_quotes_every_number_and_no_boolean(self):
        script = parse_script(
            'let v = {"b": true, "n": 1, "d": 2.50, "s": "1", "a": [false, -3, null]};\n'
            r'assert_eq("{\"b\":true,\"n\":\"1\",\"d\":\"2.50\",\"s\":\"1\",\"a\":[false,\"-3\",null]}",'
            " serialize(v, [WriteNonStringValueAsString]));\n"
        )
        assert isinstance(execute(script, REFERENCE), Fail)
        assert execute(script, L2) == Pass()

    def test_l2_boolean_as_number_is_quoted(self):
        for features in (
            "WriteNonStringValueAsString, WriteBooleanAsNumber",
            "WriteBooleanAsNumber, WriteNonStringValueAsString",
        ):
            script = parse_script(
                rf'assert_eq("{{\"b\":\"1\",\"n\":\"2\"}}",'
                f' serialize({{"b": true, "n": 2}}, [{features}]));'
            )
            assert execute(script, REFERENCE) == Pass()
            assert execute(script, L2) == Pass()

    def test_l3_keeps_a_numeric_string_exact(self):
        script = parse_script(
            "bean Box { v: decimal; }\n"
            r'let b = parse_typed("{\"v\":\"9223372036854775808\"}", Box);' "\n"
            'assert_eq(9223372036854775808, get(b, "v", decimal));\n'
        )
        assert execute(script, REFERENCE) == Pass()
        assert execute(script, L3) == Pass()

    def test_l3_wraps_nested_and_listed_decimal_fields(self):
        script = parse_script(
            "bean Inner { d: decimal; }\n"
            "bean Outer { n: Inner; ln: list<Inner>; ll: list<list<decimal>>; }\n"
            r'let b = parse_typed("{\"n\":{\"d\":9223372036854775808},'
            r'\"ln\":[{\"d\":18446744073709551617}],'
            r'\"ll\":[[1,-9223372036854775809],[]]}", Outer);' "\n"
            r'assert_eq("{\"n\":{\"d\":-9223372036854775808},'
            r'\"ln\":[{\"d\":1}],\"ll\":[[1,9223372036854775807],[]]}", serialize(b));'
        )
        assert isinstance(execute(script, REFERENCE), Fail)
        assert execute(script, L3) == Pass()

    def test_l3_rejects_a_non_object_root_as_the_reference_does(self):
        script = parse_script(
            "bean Box { v: decimal; }\n"
            'assert_not_null(parse_typed("[9223372036854775808]", Box));\n'
        )
        expected = Error(ErrorKind.TYPE_CAST_ERROR, "cannot bind arr to bean Box")
        assert execute(script, REFERENCE) == expected
        assert execute(script, L3) == expected
