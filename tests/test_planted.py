"""Tests for the planted-bug engines against the reference."""

import pytest

from jsonduel.backends import resolve_backend
from jsonduel.backends.executor import execute
from jsonduel.backends.planted import BugId, planted_backend
from jsonduel.backends.outcomes import Fail, Pass
from jsonduel.tdsl.parser import parse_script

from scriptgen import generate_scripts

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


class TestPlantedBugs:
    def test_l1_path_string_vs_object(self):
        script = parse_script(LISTING_PATH)
        assert execute(script, REFERENCE) == Pass()
        outcome = execute(script, planted_backend([BugId.L1_PATH_STRING_VS_OBJECT]))
        assert isinstance(outcome, Fail)
        assert outcome.expected_repr == "null"  # string input side
        assert outcome.actual_repr == "1"  # object input side returns the value

    def test_l2_boolean_not_quoted(self):
        script = parse_script(LISTING_BOOL)
        assert execute(script, REFERENCE) == Pass()
        outcome = execute(script, planted_backend([BugId.L2_BOOL_NOT_QUOTED]))
        assert isinstance(outcome, Fail)
        assert outcome.actual_repr == '"{\\"b\\":true}"'

    def test_l3_decimal_overflow_wraps(self):
        script = parse_script(LISTING_DECIMAL)
        assert execute(script, REFERENCE) == Pass()
        outcome = execute(script, planted_backend([BugId.L3_DECIMAL_OVERFLOW]))
        assert isinstance(outcome, Fail)
        assert outcome.actual_repr == "-9223372036854775808"

    def test_bugs_do_not_interfere(self):
        all_bugs = planted_backend(list(BugId))
        for text in (LISTING_PATH, LISTING_BOOL, LISTING_DECIMAL):
            assert isinstance(execute(parse_script(text), all_bugs), Fail)

    def test_l2_does_not_affect_numbers(self):
        backend = planted_backend([BugId.L2_BOOL_NOT_QUOTED])
        script = parse_script(
            'assert_eq("{\\"n\\":\\"1\\"}", serialize({"n": 1}, [WriteNonStringValueAsString]));'
        )
        assert execute(script, backend) == Pass()

    def test_l3_only_triggers_on_decimal_fields_beyond_int64(self):
        backend = planted_backend([BugId.L3_DECIMAL_OVERFLOW])
        script = parse_script(
            'bean Box { v: decimal; }\n'
            'let b = parse_typed("{\\"v\\":123}", Box);\n'
            'assert_eq(123, get(b, "v", integer));\n'
        )
        assert execute(script, backend) == Pass()

    def test_l3_wrap_handles_extreme_exponents(self):
        # 10^100 is divisible by 2^64, so it wraps all the way to zero;
        # the point is that this terminates and stays in 64-bit range.
        backend = planted_backend([BugId.L3_DECIMAL_OVERFLOW])
        script = parse_script(
            'bean Box { v: decimal; }\n'
            'let b = parse_typed("{\\"v\\":1E+100000000}", Box);\n'
            'assert_eq("0", get(b, "v", string));\n'
        )
        assert execute(script, backend) == Pass()

    def test_l3_wrap_handles_more_digits_than_int_reads(self):
        # 10^5000 has 5001 digits, past int()'s 4300, and wraps to zero
        backend = planted_backend([BugId.L3_DECIMAL_OVERFLOW])
        script = parse_script(
            'bean Box { v: decimal; }\n'
            f'let b = parse_typed("{{\\"v\\":1{"0" * 5000}}}", Box);\n'
            'assert_eq("0", get(b, "v", string));\n'
        )
        assert execute(script, backend) == Pass()

    def test_unknown_bug_rejected(self):
        with pytest.raises(ValueError):
            planted_backend(["L9"])

    def test_empty_bug_set_matches_reference_behaviorally(self):
        benign = planted_backend([])
        for script in generate_scripts(seed=77, count=400):
            assert execute(script, benign) == execute(script, REFERENCE)
