"""Tests for the script executor: outcome folding, limits, purity."""

import inspect
import itertools
import json
import sys
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
from jsonduel.jsontext import MAX_DEPTH
from jsonduel.tdsl import ast
from jsonduel.tdsl.extract import PARSE_FAILURE, ExtractionFailure, extract_script
from jsonduel.tdsl.parser import MAX_BEAN_DEPTH, MAX_EXPR_DEPTH, DslError, parse_script

import outcome_golden
from outcome_golden import bean_chain, serialize_chain
from scriptgen import WideScriptGen

REF = resolve_backend("reference")
ENGINES = [resolve_backend(name) for name in outcome_golden.ENGINES]
# The stack frames that parsing and running the deepest script the caps
# admit may take, on every engine: under the default recursion limit of
# 1000 that leaves well over 200 for the caller.
FRAME_BUDGET = 600


def run(src: str, limits: ExecutionLimits = ExecutionLimits()):
    return execute(parse_script(src), REF, limits)


def under_frames(frames: int, fn):
    """`fn()`, called `frames` stack frames deeper than the caller."""
    return fn() if frames == 0 else under_frames(frames - 1, fn)


def text_literal(value) -> str:
    """A DSL string literal holding `value` as JSON text."""
    return json.dumps(json.dumps(value))


def deep_list(depth: int) -> list:
    """An empty array inside `depth` more, the depth jsontext counts."""
    value = []
    for _ in range(depth):
        value = [value]
    return value


def in_calls(calls: int, inner: str) -> str:
    """`inner` as the argument of `calls` nested `is_valid` calls. The first
    whose input is not a string fails, so `inner` must have run."""
    return f"let a = {'is_valid(' * calls}{inner}{')' * calls};\nassert_not_null(a);\n"


def deep_expression(calls: int) -> str:
    """`calls` nested calls; the innermost parses and serializes JSON
    nested to jsontext's cap, which L2 walks with its own recursion."""
    inner = f"serialize(parse({text_literal(deep_list(MAX_DEPTH))}), [WriteNonStringValueAsString])"
    return in_calls(calls - 2, inner)


def nested_n(hops: int, inner: dict) -> dict:
    """`inner` inside `hops` objects, each under key "n"."""
    value = inner
    for _ in range(hops):
        value = {"n": value}
    return value


def chain_beans(hops: int, last: str) -> str:
    """Beans B0 ... B<hops>, each holding the next in field `n`; B<hops> holds `last`."""
    beans = [f"bean B{i} {{ n: B{i + 1}; }}\n" for i in range(hops)]
    return "".join(beans) + f"bean B{hops} {{ {last}; }}\n"


def deep_bean(hops: int) -> str:
    """B0 holds B1 ... holds B<hops>, whose string field is bound from an
    array that nests the text to jsontext's cap; bound inside the deepest
    expression."""
    value = nested_n(hops - 1, {"s": deep_list(MAX_DEPTH - hops)})
    return chain_beans(hops, "s: string") + in_calls(MAX_EXPR_DEPTH - 2, f"make_bean(B0, n = parse({text_literal(value)}))")


def deep_list_field(levels: int) -> str:
    """A field of `levels` nested lists, typed-parsed inside the deepest expression."""
    bean = f"bean L {{ f: {'list<' * levels}integer{'>' * levels}; }}\n"
    text = text_literal({"f": deep_list(levels - 1)})
    return bean + in_calls(MAX_EXPR_DEPTH - 1, f"parse_typed({text}, L)")


def deep_literal(depth: int) -> str:
    """A JSON literal nested `depth` deep, compared and serialized inside
    the deepest expression."""
    literal = json.dumps(deep_list(depth))
    return f"let b = {literal};\nassert_eq(b, {literal});\n" + in_calls(MAX_EXPR_DEPTH - 1, "serialize(b)")


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

    @pytest.mark.parametrize("length", [MAX_BEAN_DEPTH + 1, 257, 400])
    def test_deep_bean_chain_never_raises(self, length):
        """Bean B<i> holds B<i-1>, so y<i> nests i + 1 objects deep. The
        deepest chain the parser accepts runs; a deeper one is refused
        at extraction instead of exhausting the recursion limit."""
        beans = ["bean B0 { c: integer; }"]
        beans += [f"bean B{i} {{ c: B{i - 1}; }}" for i in range(1, length)]
        lets = ["let y0 = make_bean(B0, c = 1);"]
        lets += [f"let y{i} = make_bean(B{i}, c = y{i - 1});" for i in range(1, length)]
        result = extract_script("\n".join(beans + lets + [f"assert_not_null(y{length - 1});"]))
        assert isinstance(result, ExtractionFailure) == (length > MAX_BEAN_DEPTH + 1)
        if not isinstance(result, ExtractionFailure):
            result = execute(result, REF)
        assert isinstance(result, (ExtractionFailure, Pass, Fail, Error))


class TestRecursionBudget:
    """Each recursive path, at the deepest script the parser accepts, runs
    on every engine with only FRAME_BUDGET frames left on the stack, so the
    caps, not the caller's depth, decide what runs. One level more is refused."""

    @pytest.mark.parametrize(
        "script, cap",
        [
            (deep_expression, MAX_EXPR_DEPTH),
            (deep_bean, MAX_BEAN_DEPTH),
            (deep_list_field, MAX_BEAN_DEPTH),
            (deep_literal, MAX_DEPTH),
        ],
        ids=["expression", "bean", "list-field", "json-literal"],
    )
    def test_deepest_accepted_script_reaches_an_outcome(self, script, cap):
        def parse_and_run():
            parsed = parse_script(script(cap))
            return [execute(parsed, engine) for engine in ENGINES]

        outcomes = under_frames(sys.getrecursionlimit() - len(inspect.stack(0)) - FRAME_BUDGET, parse_and_run)
        assert [o.kind for o in outcomes] == [ErrorKind.TYPE_CAST_ERROR] * len(ENGINES)
        assert all(o.message.startswith("is_valid input must be a string") for o in outcomes)
        with pytest.raises(DslError):
            parse_script(script(cap + 1))

    @pytest.mark.parametrize(
        "script, error",
        [
            (
                in_calls(250, f'parse("{"[" * 250}{"]" * 250}")'),
                "expression nesting too deep (line 1, column 594)",
            ),
            (
                chain_beans(256, "v: integer") + in_calls(
                    80, f"make_bean(B0, n = parse({text_literal(nested_n(255, {'v': 1}))}))"
                ).replace("is_valid", "serialize"),
                "expression nesting too deep (line 258, column 659)",
            ),
        ],
        ids=["is_valid-around-deep-json", "serialize-around-deep-bean"],
    )
    def test_scripts_that_exhausted_the_stack_are_refused(self, script, error):
        """Each of these ran out of stack inside `execute` before the caps."""
        result = under_frames(200, lambda: extract_script(script))
        assert result == ExtractionFailure(PARSE_FAILURE, error)


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
