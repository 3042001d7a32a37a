"""Tests for the script executor: outcome folding, limits, purity."""

import itertools
import json
import time
from typing import get_args

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsonduel.backends import executor, resolve_backend
from jsonduel.backends.executor import DEFAULT_LIMITS, ExecutionLimits, execute
from jsonduel.backends.outcomes import (
    Error,
    ErrorKind,
    Fail,
    Pass,
    describe,
    outcome_from_dict,
    outcome_to_dict,
)
from jsonduel.tdsl import ast
from jsonduel.tdsl.extract import ExtractionFailure, extract_script
from jsonduel.tdsl.parser import parse_script

import outcome_golden
from outcome_golden import bean_chain, serialize_chain
from scriptgen import WideScriptGen

REF = resolve_backend("reference")
ENGINES = [resolve_backend(name) for name in outcome_golden.ENGINES]


def run(src: str, limits: ExecutionLimits = ExecutionLimits()):
    return execute(parse_script(src), REF, limits)


class TestOutcomes:
    def test_pass(self):
        assert run("assert_eq(1, 1);") == Pass()

    def test_first_failing_assertion_wins(self):
        outcome = run("assert_eq(1, 1); assert_eq(1, 2); assert_eq(1, 3);")
        assert outcome == Fail(1, "1", "2")

    def test_assertion_index_counts_assertions_not_statements(self):
        outcome = run("let a = 1; let b = 2; assert_eq(a, a); assert_eq(a, b);")
        assert outcome.assertion_index == 1

    def test_parse_error_outcome(self):
        outcome = run('let a = parse("not json"); assert_not_null(a);')
        assert outcome == Error(ErrorKind.PARSE_ERROR, outcome.message)

    def test_error_stops_execution(self):
        outcome = run('let a = parse("nope"); assert_eq(1, 2);')
        assert isinstance(outcome, Error)

    def test_objects_with_other_keys_fail(self):
        assert run('assert_eq({"x": 1}, {"y": 1});') == Fail(0, '{"x":1}', '{"y":1}')

    def test_assert_null(self):
        assert run('assert_null(get({"a": 1}, "b", value));') == Pass()
        assert run("assert_null(1);") == Fail(0, "null", "1")

    def test_assert_not_null(self):
        assert run("assert_not_null(1);") == Pass()
        assert run("assert_not_null(null);") == Fail(0, "<non-null>", "null")

    def test_assert_throws_catches_backend_errors(self):
        assert run('assert_throws(parse("not json"));') == Pass()

    def test_assert_throws_fails_on_success(self):
        outcome = run('assert_throws(parse("[1]"));')
        assert outcome == Fail(0, "<error>", "[1]")

    def test_type_errors_from_executor_ops(self):
        assert run("assert_eq(1, size(1));").kind is ErrorKind.TYPE_CAST_ERROR
        assert run("assert_eq(1, strip_zeros(is_valid(\"1\")));").kind is ErrorKind.TYPE_CAST_ERROR
        assert run("assert_eq(1, parse(1));").kind is ErrorKind.TYPE_CAST_ERROR

    def test_size_of_containers(self):
        assert run('assert_eq(2, size([1, 2])); assert_eq(1, size({"a": 1}));') == Pass()

    def test_is_valid(self):
        assert run('assert_eq(true, is_valid("[1]")); assert_eq(false, is_valid("{"));') == Pass()

    def test_make_bean_unassigned_fields_are_null(self):
        src = (
            "bean B { x: integer; y: string; }\n"
            "let b = make_bean(B, x = 1);\n"
            'assert_null(get(b, "y", value));\n'
            'assert_eq(1, get(b, "x", integer));\n'
        )
        assert run(src) == Pass()

    def test_make_bean_coerces_to_field_types(self):
        src = (
            "bean B { d: decimal; }\n"
            "let b = make_bean(B, d = 3);\n"
            'assert_eq("3", get(b, "d", string));\n'
        )
        assert run(src) == Pass()

    def test_nested_bean_binding(self):
        src = (
            "bean Inner { n: integer; }\n"
            "bean Outer { i: Inner; }\n"
            'let o = parse_typed("{\\"i\\": {\\"n\\": 5}}", Outer);\n'
            'assert_eq(5, get(get(o, "i", object), "n", integer));\n'
        )
        assert run(src) == Pass()


class TestLimits:
    def test_statement_budget(self):
        src = "let a = 1;\n" * 50 + "assert_eq(1, 1);"
        outcome = run(src, ExecutionLimits(budget=10))
        assert outcome == Error(ErrorKind.TIMEOUT, "work budget of 10 exhausted")

    def test_generous_budget_passes(self):
        src = "let a = 1;\n" * 50 + "assert_eq(1, 1);"  # 50 * (1 + 1) + (1 + 1 + 1)
        assert run(src, ExecutionLimits(budget=103)) == Pass()

    def test_values_cost_their_size(self):
        # statement 1, array 1 + 1 + 3 + (1 + 2); statement 1, literals 1 + 1
        src = 'let a = [1, "abc", {"k": "de"}];\nassert_eq(1, 1);'
        assert run(src, ExecutionLimits(budget=12)) == Pass()
        assert run(src, ExecutionLimits(budget=11)).kind is ErrorKind.TIMEOUT

    @pytest.mark.parametrize("throws", [False, True], ids=["plain", "assert_throws"])
    @pytest.mark.parametrize("chain", [bean_chain, serialize_chain])
    def test_exponential_chain_runs_out_of_budget(self, chain, throws):
        """Each step doubles the value. The budget ends both chains early
        and alike on every engine, and assert_throws cannot catch it."""
        script = parse_script(chain(40, throws))
        expected = Error(ErrorKind.TIMEOUT, f"work budget of {DEFAULT_LIMITS.budget} exhausted")
        assert [execute(script, engine) for engine in ENGINES] == [expected] * len(ENGINES)

    def test_outcome_does_not_read_the_clock(self, monkeypatch):
        script = parse_script(bean_chain(8) + "\nassert_eq(1, 2);")
        with monkeypatch.context() as patched:
            clock = itertools.count(step=10.0)
            patched.setattr(time, "monotonic", lambda: next(clock))
            outcome = execute(script, REF)
        assert outcome == Fail(1, "1", "2")

    @pytest.mark.parametrize("length", [257, 400])
    def test_deep_bean_chain_never_raises(self, length):
        """Bean B<i> holds B<i-1>, so y<i> nests i + 1 objects deep. The
        deepest chain the parser accepts runs; a deeper one is refused
        at extraction instead of exhausting the recursion limit."""
        beans = ["bean B0 { c: integer; }"]
        beans += [f"bean B{i} {{ c: B{i - 1}; }}" for i in range(1, length)]
        lets = ["let y0 = make_bean(B0, c = 1);"]
        lets += [f"let y{i} = make_bean(B{i}, c = y{i - 1});" for i in range(1, length)]
        result = extract_script("\n".join(beans + lets + [f"assert_not_null(y{length - 1});"]))
        assert isinstance(result, ExtractionFailure) == (length > 257)
        if not isinstance(result, ExtractionFailure):
            result = execute(result, REF)
        assert isinstance(result, (ExtractionFailure, Pass, Fail, Error))


class TestDispatch:
    def test_every_node_has_a_handler_and_nothing_else(self):
        assert set(executor._VALUES) == set(get_args(ast.Expr))
        assert set(executor._ASSERTIONS) == set(get_args(ast.Statement)) - {ast.Let}


class TestGoldenOutcomes:
    def test_outcomes_match_the_golden_file(self):
        """About 2,000 generated and doubling-chain scripts keep their
        outcomes on every engine, and chains their Error(Timeout)."""
        lines = outcome_golden.GOLDEN.read_text(encoding="utf-8").splitlines()
        expected = [json.loads(line) for line in lines]
        actual = [outcome_golden.record(*item, ENGINES) for item in outcome_golden.scripts()]
        assert len(actual) == len(expected) == 2000
        differ = [(e, a) for e, a in zip(expected, actual) if e != a]
        assert not differ, (f"{len(differ)} outcomes differ (regenerate the file only if "
                            f"scriptgen changed on purpose), first: {differ[0]}")


class TestNothingEscapes:
    """WideScriptGen reaches the value edges, and its parse_typed texts put
    integral decimals of up to 5000 digits in bean decimal fields, which
    planted:L3 wraps."""

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=True).map(lambda rng: WideScriptGen(rng).script()))
    def test_every_engine_returns_an_outcome(self, script):
        for engine in ENGINES:
            assert isinstance(execute(script, engine), (Pass, Fail, Error))


class TestDeterminismAndPurity:
    def test_execute_twice_identical(self):
        script = parse_script('let a = parse("[1, 2]"); assert_eq(2, size(a));')
        assert execute(script, REF) == execute(script, REF)

    def test_no_state_leaks_between_scripts(self):
        first = parse_script("let a = 1; assert_eq(a, 1);")
        second = parse_script('assert_eq("[]", serialize([]));')
        for _ in range(3):
            assert execute(first, REF) == Pass()
            assert execute(second, REF) == Pass()


class TestOpHook:
    def test_op_counter_sees_backend_calls(self):
        hits = {}
        script = parse_script(
            'let a = parse("[1]"); let s = serialize(a); '
            "assert_eq(true, is_valid(s)); assert_eq(1, get(a, 0, integer));"
        )
        execute(script, REF, on_op=lambda op: hits.update({op: hits.get(op, 0) + 1}))
        assert hits == {"parse": 1, "serialize": 1, "validate": 1, "get": 1}


class TestOutcomeSerialization:
    @pytest.mark.parametrize(
        "outcome",
        [
            Pass(),
            Fail(2, "1", "2"),
            Error(ErrorKind.PARSE_ERROR, "bad input"),
            Error(ErrorKind.TIMEOUT, "wall clock"),
        ],
    )
    def test_round_trip(self, outcome):
        assert outcome_from_dict(outcome_to_dict(outcome)) == outcome

    def test_describe_lines(self):
        assert describe(Pass()) == "PASS"
        assert describe(Fail(0, "1", "2")) == (
            "FAILURE: assertion 0 failed: expected 1 but was 2"
        )
        assert describe(Error(ErrorKind.NULL_ACCESS, "boom")) == "ERROR: NullAccess: boom"
