"""Tests for the test DSL: parser, validator, printer, extraction."""

import dataclasses
import json
import re
import time
from decimal import Decimal
from pathlib import Path
from typing import get_args, get_type_hints

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jsonduel.tdsl import ast
from jsonduel.tdsl.ast import (
    AsType,
    AssertEq,
    AssertNotNull,
    Get,
    Let,
    Lit,
    MakeBean,
    ParseValue,
    Prim,
    Script,
    Serialize,
    Var,
    WriterFeature,
)
from jsonduel.tdsl.extract import PARSE_FAILURE, ExtractionFailure, extract_script
from jsonduel.tdsl.parser import MAX_BEAN_DEPTH, MAX_EXPR_DEPTH, DslError, parse_script
from jsonduel.tdsl.printer import print_script

import parse_mutants
from scriptgen import WideScriptGen

GRAMMAR = Path(__file__).resolve().parents[1] / "docs" / "grammar.ebnf"

LISTING_BOOL_QUOTING = """\
bean Bean { b: boolean; }
let b = make_bean(Bean, b = true);
let json = serialize(b, [WriteNonStringValueAsString]);
assert_eq("{\\"b\\":\\"true\\"}", json);
"""


def nested_sizes(depth: int) -> str:
    return f'let a = parse("[]");\nassert_eq(1, {"size(" * depth}a{")" * depth});\n'


def nested_list_field(depth: int) -> str:
    return f"bean B {{ f: {'list<' * depth}integer{'>' * depth}; }}\nassert_eq(1, 1);\n"


def bean_chain(length: int, ring: bool = False) -> str:
    """Beans B0..B<length-1>, each holding the next; the last holds an
    integer, or B0 when `ring` is set."""
    last = "B0" if ring else "integer"
    beans = [f"bean B{i} {{ f: {f'B{i + 1}' if i + 1 < length else last}; }}" for i in range(length)]
    return "\n".join(beans) + "\nassert_eq(1, 1);\n"


class TestParser:
    def test_minimal_script(self):
        script = parse_script('let a = parse("[1]"); assert_eq(get(a, 0, integer), 1);')
        assert len(script.statements) == 2
        let, check = script.statements
        assert let == Let("a", ParseValue(Lit("[1]")))
        assert check == AssertEq(Get(Var("a"), 0, AsType.INTEGER), Lit(1))

    def test_boolean_quoting_transcription(self):
        script = parse_script(LISTING_BOOL_QUOTING)
        assert [b.name for b in script.beans] == ["Bean"]
        assert script.statements == (
            Let("b", MakeBean("Bean", (("b", Lit(True)),))),
            Let("json", Serialize(Var("b"), (WriterFeature.WRITE_NON_STRING_VALUE_AS_STRING,))),
            AssertEq(Lit('{"b":"true"}'), Var("json")),
        )
        serialize = script.statements[1].expr
        assert serialize.features == (WriterFeature.WRITE_NON_STRING_VALUE_AS_STRING,)

    def test_unbound_variable(self):
        with pytest.raises(DslError, match="variable 'a' referenced before assignment"):
            parse_script("assert_eq(get(a, 0, integer), 1);")

    def test_variable_bound_by_its_own_let_is_unbound(self):
        with pytest.raises(DslError, match="variable 'a' referenced before assignment"):
            parse_script("let a = serialize(a); assert_not_null(a);")

    def test_unknown_feature(self):
        with pytest.raises(DslError, match="unknown reader feature 'NoSuchFeature'"):
            parse_script('let a = parse("1", [NoSuchFeature]); assert_not_null(a);')

    def test_writer_feature_rejected_in_reader_position(self):
        with pytest.raises(DslError, match="unknown reader feature 'WriteNulls'"):
            parse_script('let a = parse("1", [WriteNulls]); assert_not_null(a);')

    def test_duplicate_feature(self):
        with pytest.raises(DslError, match="duplicate feature"):
            parse_script('let a = parse("1", [TrimString, TrimString]); assert_not_null(a);')

    def test_unknown_bean(self):
        with pytest.raises(DslError, match="unknown bean 'Ghost'"):
            parse_script('let a = parse_typed("{}", Ghost); assert_not_null(a);')

    def test_unknown_bean_field(self):
        with pytest.raises(DslError, match="no field"):
            parse_script("bean B { x: string; } let a = make_bean(B, y = 1); assert_not_null(a);")

    def test_duplicate_bean_field(self):
        with pytest.raises(DslError, match="duplicate field"):
            parse_script("bean B { x: string; x: integer; } assert_not_null(make_bean(B));")

    def test_recursive_bean_cycle(self):
        src = "bean A { b: B; } bean B { a: A; } assert_not_null(make_bean(A));"
        with pytest.raises(DslError, match="cycle"):
            parse_script(src)

    def test_no_assertions_rejected(self):
        with pytest.raises(DslError, match="no assertions"):
            parse_script('let a = parse("[1]");')

    def test_syntax_error_carries_position(self):
        with pytest.raises(DslError, match="expected an expression") as info:
            parse_script("let a = ;\nassert_null(a);")
        assert info.value.line == 1
        assert info.value.col == 9

    def test_reserved_word_as_variable(self):
        with pytest.raises(DslError, match="'parse' is a reserved word") as info:
            parse_script("let parse = 1; assert_not_null(parse);")
        assert (info.value.line, info.value.col) == (1, 5)

    def test_number_literals_distinguish_int_and_decimal(self):
        script = parse_script("assert_eq(1, 1.0);")
        expected, actual = script.statements[0].expected, script.statements[0].actual
        assert expected == Lit(1)
        assert actual == Lit(Decimal("1.0"))

    def test_big_integer_literal_becomes_decimal(self):
        script = parse_script("assert_eq(9223372036854775808, 1);")
        assert script.statements[0].expected == Lit(Decimal("9223372036854775808"))

    def test_json_object_literal(self):
        script = parse_script('assert_not_null({"a": [1, true, null]});')
        assert script.statements[0].expr == Lit({"a": [1, True, None]})

    @pytest.mark.parametrize(
        "src, reason, line, col",
        [
            ('assert_not_null({"a": 1, "a": 2});', "duplicate object key 'a'", 1, 29),
            ('assert_null(null);\nassert_not_null({"a" 1});', "expected ':' after object key", 2, 22),
            (f"assert_not_null({'[' * 258}{']' * 258});", "maximum nesting depth exceeded", 1, 274),
        ],
        ids=["duplicate-key", "line-2", "too-deep"],
    )
    def test_malformed_literal_rejected(self, src, reason, line, col):
        with pytest.raises(DslError) as info:
            parse_script(src)
        assert (info.value.reason, info.value.line, info.value.col) == (reason, line, col)

    def test_literal_nested_to_the_cap_parses(self):
        value = parse_script(f"assert_not_null({'[' * 257}{']' * 257});").statements[0].expr.value
        for _ in range(256):
            (value,) = value
        assert value == []

    def test_parse_determinism(self):
        src = LISTING_BOOL_QUOTING
        assert parse_script(src) == parse_script(src)

    def test_scripts_share_each_name(self):
        """Every name a node keeps is interned, so two scripts parsed from
        different texts hold one string object per name. The names are
        longer than one character: CPython caches those strings anyway."""

        def names(script):
            (bean,), (let, check) = script.beans, script.statements
            (field,), ((assigned, _),) = bean.fields, let.expr.assignments
            typed = check.expr.text
            return bean.name, field.name, let.name, let.expr.bean, assigned, typed.name, check.expr.bean

        first, second = (
            parse_script(
                f"bean Item {{ count: integer; }}\n"
                f"let obj0 = make_bean(Item, count = {n});\n"
                f"assert_not_null(parse_typed(obj0, Item));\n"
            )
            for n in (1, 2)
        )
        assert names(first) == ("Item", "count", "obj0", "Item", "count", "obj0", "Item")
        assert all(a is b for a, b in zip(names(first), names(second), strict=True))

    def test_expression_nesting_is_capped(self):
        assert parse_script(nested_sizes(MAX_EXPR_DEPTH)).statements[1].expected == Lit(1)
        with pytest.raises(DslError, match="expression nesting too deep"):
            parse_script(nested_sizes(MAX_EXPR_DEPTH + 1))

    def test_list_field_type_nesting_is_capped(self):
        ftype = parse_script(nested_list_field(MAX_BEAN_DEPTH)).beans[0].fields[0].type
        for _ in range(MAX_BEAN_DEPTH):
            ftype = ftype.element
        assert ftype == Prim("integer")
        with pytest.raises(DslError, match="field type nesting too deep") as info:
            parse_script(nested_list_field(MAX_BEAN_DEPTH + 1))
        assert (info.value.line, info.value.col) == (1, 658)

    @pytest.mark.parametrize(
        "length, error",
        [
            pytest.param(129, None, id="129"),
            pytest.param(130, "bean 'B0' nests more than 128 levels", id="130"),
            pytest.param(200, "bean 'B70' nests more than 128 levels", id="200"),
            pytest.param(257, "bean 'B127' nests more than 128 levels", id="257"),
            pytest.param(1500, "bean 'B1370' nests more than 128 levels", id="1500"),
        ],
    )
    def test_long_bean_chain_parses(self, length, error):
        """B0 nests `length` - 1 levels deep; more than 128 is rejected."""
        if error:
            with pytest.raises(DslError, match=error):
                parse_script(bean_chain(length))
            return
        script = parse_script(bean_chain(length))
        assert [b.name for b in script.beans] == [f"B{i}" for i in range(length)]
        assert script.beans[-1].fields[0].type == Prim("integer")

    def test_list_levels_count_toward_bean_nesting(self):
        inner = "bean A { f: integer; }\n"
        deep = "list<" * 127 + "A" + ">" * 127
        parse_script(f"{inner}bean B {{ f: {deep}; }}\nassert_eq(1, 1);")
        with pytest.raises(DslError, match="bean 'C' nests more than 128 levels"):
            parse_script(f"{inner}bean B {{ f: {deep}; }}\nbean C {{ f: B; }}\nassert_eq(1, 1);")

    def test_long_bean_ring_is_a_cycle(self):
        with pytest.raises(DslError, match="recursive bean cycle through 'B0'"):
            parse_script(bean_chain(1500, ring=True))

    @pytest.mark.parametrize(
        "src, message",
        [
            (
                "I'm sorry, but I cannot write test 5 without more context about the library.",
                "unknown statement 'I' (line 1, column 1)",
            ),
            ('let a = ;\nassert_eq("a\tb", 1);', "expected an expression (line 1, column 9)"),
            ('let a = "a\tb";\nlet = 1;', "raw control character in string (line 1, column 11)"),
            ("assert_eq(1;", "expected ',' (line 1, column 12)"),
            ("assert_eq(1, is_valid(1, 2));", "expected ')' (line 1, column 24)"),
            (
                "let x = [1];\nassert_eq(1, get(x, 0, nope));",
                "unknown result type 'nope' (line 2, column 24)",
            ),
            ('parse("1");', "unknown statement 'parse' (line 1, column 1)"),
            ("let a = assert_eq(1, 1);", "expected ';' (line 1, column 18)"),
            ("assert_null(parse(1, [WriteNulls]));", "unknown reader feature 'WriteNulls'"),
        ],
        ids=[
            "prose", "syntax-before-control-character", "control-character-before-syntax",
            "assert-missing-comma", "call-extra-argument", "unknown-result-type",
            "call-as-statement", "assert-as-expression", "writer-feature-in-parse",
        ],
    )
    def test_first_error_in_the_text_wins(self, src, message):
        with pytest.raises(DslError) as info:
            parse_script(src)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "src, position, message",
        [
            ("bean let { x: integer; }\nassert_eq(1, 1);",
             None, "'let' cannot be used as a bean name"),
            ("bean string { x: integer; }\nassert_eq(1, 1);",
             None, "'string' cannot be used as a bean name"),
            ("bean B { x: integer; }\nbean B { y: string; }\nassert_eq(1, 1);",
             None, "duplicate bean 'B'"),
            ("bean B { x: integer; x: string; }\nassert_eq(1, 1);",
             None, "duplicate field 'x' in bean 'B'"),
            ("bean B { x: list<Ghost>; }\nassert_eq(1, 1);", None, "unknown bean 'Ghost'"),
            (bean_chain(300), None, "bean 'B170' nests more than 128 levels"),
            ("bean A { b: B; }\nbean B { a: list<A>; }\nassert_eq(1, 1);",
             None, "recursive bean cycle through 'A'"),
            ("assert_eq(a, 1);", None, "variable 'a' referenced before assignment"),
            ("assert_not_null(make_bean(Ghost));", None, "unknown bean 'Ghost'"),
            ("bean B { x: integer; }\nassert_not_null(make_bean(B, y = 1));",
             None, "bean 'B' has no field 'y'"),
            ("bean B { x: integer; }\nassert_not_null(make_bean(B, x = 1, x = 2));",
             None, "duplicate assignment to 'x'"),
            ('assert_not_null(parse_typed("{}", Ghost));', None, "unknown bean 'Ghost'"),
            ('let a = parse("[1]");', None, "script contains no assertions"),
            # a syntax error anywhere beats any validation error
            ("assert_eq(a, 1);\nlet b = ;", (2, 9), "expected an expression (line 2, column 9)"),
            # beans are checked before statements, wherever they stand
            ("assert_eq(a, 1);\nbean B { x: integer; x: string; }",
             None, "duplicate field 'x' in bean 'B'"),
        ],
        ids=[
            "reserved-bean-name", "primitive-bean-name", "duplicate-bean", "duplicate-field",
            "unknown-field-bean", "bean-too-deep", "bean-cycle", "unbound-variable",
            "unknown-make-bean", "no-such-field", "duplicate-assignment", "unknown-typed-bean",
            "no-assertions", "syntax-beats-unbound", "bean-beats-statement",
        ],
    )
    def test_validator_messages(self, src, position, message):
        """Each message the validator raises, reached through script text,
        and the line and column of the one syntax error among them."""
        with pytest.raises(DslError) as info:
            parse_script(src)
        exc = info.value
        assert (None if exc.line is None else (exc.line, exc.col), str(exc)) == (position, message)

    @pytest.mark.parametrize(
        "src, expected",
        [
            pytest.param(
                "let a = trueX;\nassert_eq(1, 1);",
                ("variable 'trueX' referenced before assignment", None, None),
                id="true-touching-identifier",
            ),
            pytest.param(
                "let a = nullish;\nassert_eq(1, 1);",
                ("variable 'nullish' referenced before assignment", None, None),
                id="null-touching-identifier",
            ),
            pytest.param(
                "assert_eq([trueX], 1);",
                ("expected ',' or ']' in array", 1, 16),
                id="true-touching-identifier-in-array",
            ),
            pytest.param("assert_eq(01, 1);", ("expected ','", 1, 12), id="leading-zero"),
            pytest.param(
                "assert_eq(1., 1);", ("unexpected character '.'", 1, 12), id="trailing-dot"
            ),
            pytest.param("assert_eq(1e, 1);", ("expected ','", 1, 12), id="bare-exponent"),
            pytest.param(
                "assert_eq(1, 1e5x);", ("expected ')'", 1, 17), id="exponent-touching-identifier"
            ),
            pytest.param("assert_eq(-x, 1);", ("invalid number", 1, 11), id="minus-identifier"),
            pytest.param(
                "assert_eq({\"a\": -}, 1);", ("invalid number", 1, 17), id="minus-in-object"
            ),
            pytest.param(
                "assert_eq(-0, 1);",
                Script(statements=(AssertEq(Lit(0), Lit(1)),)),
                id="negative-zero",
            ),
            pytest.param(
                'assert_eq("a;b)c]", "(");',
                Script(statements=(AssertEq(Lit("a;b)c]"), Lit("(")),)),
                id="string-holding-punctuation",
            ),
            pytest.param(
                'assert_eq("q\\"q;", "b\\\\");',
                Script(statements=(AssertEq(Lit('q"q;'), Lit("b\\")),)),
                id="string-holding-escaped-quote-and-backslash",
            ),
            pytest.param(
                'assert_eq("é", ["é"]);',
                Script(statements=(AssertEq(Lit("é"), Lit(["é"])),)),
                id="string-holding-non-ascii",
            ),
            pytest.param(
                'assert_eq("a\x01b", 1);',
                ("raw control character in string", 1, 13),
                id="raw-control-character-in-string",
            ),
            pytest.param(
                'assert_eq("a\nb", 1);',
                ("raw control character in string", 1, 13),
                id="newline-in-string",
            ),
            pytest.param(
                'assert_eq([1, "a\tb"], 1);',
                ("raw control character in string", 1, 17),
                id="raw-control-character-in-array",
            ),
            pytest.param(
                'assert_eq(1, "abc', ("unterminated string", 1, 14), id="unterminated-string"
            ),
            pytest.param(
                'assert_eq(1, "abc\\', ("unterminated escape", 1, 19), id="unterminated-escape"
            ),
            pytest.param(
                "assert_eq(1, é);", ("unexpected character 'é'", 1, 14), id="non-ascii-expression"
            ),
            pytest.param(
                "assert_eq(1, 1);é", ("unexpected character 'é'", 1, 17), id="non-ascii-at-end"
            ),
            pytest.param(
                "let parse é= 1;",
                ("unexpected character 'é'", 1, 11),
                id="non-ascii-before-reserved-word-error",
            ),
            pytest.param(
                'let a = parse("1", [Nope é]);',
                ("unexpected character 'é'", 1, 26),
                id="non-ascii-before-unknown-feature-error",
            ),
            pytest.param(
                'let a = parse("1", [TrimString]);\nassert_eq([1, [2]], a);',
                Script(
                    statements=(
                        Let("a", ParseValue(Lit("1"), (ast.ReaderFeature.TRIM_STRING,))),
                        AssertEq(Lit([1, [2]]), Var("a")),
                    )
                ),
                id="feature-list-and-array-literal",
            ),
            pytest.param(
                'let a = parse("1", []);\nassert_eq([], a);',
                Script(statements=(Let("a", ParseValue(Lit("1"), ())), AssertEq(Lit([]), Var("a")))),
                id="empty-feature-list-and-empty-array",
            ),
            pytest.param(
                'let a = parse("1", ["x"]);\nassert_eq(1, a);',
                ("expected feature name", 1, 21),
                id="string-in-feature-list",
            ),
        ],
    )
    def test_token_edge_cases(self, src, expected):
        """The AST, or the error's reason, line and column (none but for a
        syntax error)."""
        if isinstance(expected, Script):
            assert repr(parse_script(src)) == repr(expected)
            return
        with pytest.raises(DslError) as info:
            parse_script(src)
        assert (info.value.reason, info.value.line, info.value.col) == expected

    def test_parse_time_is_linear_in_script_length(self):
        """Every literal kind, 4k and then 16k statements: linear is 4x. So
        is a text of 1k and then 4k statements that ends in an error: after
        a bracket literal, at a character no token takes, with text after
        it, or at the end."""
        block = (
            'let a = parse("[1]", [TrimString]);\n'
            'assert_eq({"k": [1, -2.5e3, "s\\"", true, false, null]}, get(a, 0, integer));\n'
            "assert_not_null(true);\nassert_null(null);\nassert_eq(false, -7);\n"
        )
        tails = {
            "": None,
            'let b = {"k": [1]} [2];\n': "expected ';'",
            "let b = 1; $ " + block: "unexpected character '$'",
            "let b =": "expected an expression",
        }

        def best_of_3(statements: int, tail: str) -> float:
            text = block * (statements // 5) + tail
            times = []
            for _ in range(3):
                start = time.perf_counter()
                if tails[tail] is None:
                    parse_script(text)
                else:
                    with pytest.raises(DslError, match=re.escape(tails[tail])) as info:
                        parse_script(text)
                    assert info.value.line == statements + 1
                times.append(time.perf_counter() - start)
            return min(times)

        for tail in tails:
            n = 4000 if tails[tail] is None else 1000
            small, large = best_of_3(n, tail), best_of_3(4 * n, tail)
            assert large < 10 * small, f"{tail!r}: {n} statements: {small:.3f} s, {4 * n}: {large:.3f} s"

    def test_mutations_match_the_golden_file(self):
        """2,000 one-character mutations of generated scripts keep their
        error's class, reason, line and column, or their AST."""
        lines = parse_mutants.GOLDEN.read_text(encoding="utf-8").splitlines()
        expected = [json.loads(line) for line in lines]
        actual = [parse_mutants.record(*mutant) for mutant in parse_mutants.mutants()]
        assert len(actual) == len(expected) == 2000
        texts = [(e["text_sha256"], a["text_sha256"]) for e, a in zip(expected, actual)]
        assert all(e == a for e, a in texts), "the mutated texts changed: regenerate the golden file"
        differ = [(e, a) for e, a in zip(expected, actual) if e != a]
        assert not differ, f"{len(differ)} outcomes differ, first: {differ[0]}"

    def test_identifiers_are_ascii(self):
        with pytest.raises(DslError, match="unexpected character 'é'") as info:
            parse_script("let café = 1; assert_eq(café, 1);")
        assert (info.value.line, info.value.col) == (1, 8)
        with pytest.raises(DslError, match="unexpected character '٣'") as info:
            parse_script("assert_eq(٣, 3);")
        assert (info.value.line, info.value.col) == (1, 11)


class TestAst:
    def test_expr_fields_lists_every_sub_expression_field(self):
        """EXPR_FIELDS and KEYWORDS cover every node, and a keyed node's
        fields start with its EXPR_FIELDS, the order in which the parser
        and the printer take its arguments."""
        nodes = get_args(ast.Expr) + get_args(ast.Statement)
        assert set(ast.EXPR_FIELDS) == set(nodes)
        assert set(ast.KEYWORDS) == set(nodes) - {Lit, Var, Let}
        assert len(set(ast.KEYWORDS.values())) == len(ast.KEYWORDS)
        assert set(ast.KEYWORDS.values()) <= ast.RESERVED_WORDS
        for node in nodes:
            fields = tuple(f.name for f in dataclasses.fields(node))
            hints = get_type_hints(node)
            expected = tuple(name for name in fields if hints[name] == ast.Expr)
            assert ast.EXPR_FIELDS[node] == expected, node.__name__
            if node in ast.KEYWORDS:
                assert fields[: len(expected)] == expected, node.__name__

    def test_nodes_are_slotted_frozen_dataclasses(self):
        nodes = [
            value for value in vars(ast).values()
            if isinstance(value, type) and dataclasses.is_dataclass(value)
        ]
        assert set(ast.EXPR_FIELDS) | {Script, ast.BeanDef, ast.BeanField, Prim} <= set(nodes)
        for node in nodes:
            assert "__slots__" in vars(node), node.__name__
        script = parse_script(
            "bean B { x: list<integer>; }\n"
            'let b = make_bean(B, x = [1]);\n'
            'assert_eq("1", get(parse(serialize(b)), "x", string));\n'
        )
        instances = [script, *script.beans, *script.beans[0].fields, script.beans[0].fields[0].type]
        stack = list(script.statements)
        while stack:
            node = stack.pop()
            instances.append(node)
            stack += [getattr(node, name) for name in ast.EXPR_FIELDS[type(node)]]
            stack += [expr for _, expr in getattr(node, "assignments", ())]
        assert {type(node) for node in instances} >= {Let, AssertEq, Get, ParseValue, Serialize, Lit}
        for node in instances:
            assert not hasattr(node, "__dict__"), type(node).__name__
        with pytest.raises(dataclasses.FrozenInstanceError):
            script.statements[0].name = "c"
        assert Lit("x") != Var("x")
        assert Lit("x") == Lit("x") and hash(Lit("x")) == hash(Lit("x"))
        assert {Prim("string"), Prim("string"), ast.BeanRef("string")} == {
            Prim("string"), ast.BeanRef("string")
        }

    def test_grammar_file_matches_the_keyword_table(self):
        grammar = GRAMMAR.read_text()
        # A rule runs from "name =" over the indented lines after it.
        rules = dict(re.findall(r"^(\w+) +=(.*(?:\n +.*)*)", grammar, re.M))
        for rule, union in (("call", ast.Expr), ("assert_stmt", ast.Statement)):
            keyed = [node for node in get_args(union) if node in ast.KEYWORDS]
            assert re.findall(r'"(\w+)" "\("', rules[rule]) == [ast.KEYWORDS[n] for n in keyed]
        reserved = re.search(r"Reserved words \(.*?\):(.*?)\. \*\)", grammar, re.S).group(1)
        assert set(re.findall(r"\w+", reserved)) == ast.RESERVED_WORDS


class TestPrinter:
    def test_round_trip_listing_transcription(self):
        script = parse_script(LISTING_BOOL_QUOTING)
        assert parse_script(print_script(script)) == script

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=True).map(lambda rng: WideScriptGen(rng).script()))
    @example(Script(statements=(AssertNotNull(Lit("a")),)))
    def test_round_trip_property(self, script):
        text = print_script(script)
        again = parse_script(text)
        # repr also tells 1 from True and from Decimal("1"), and sees key order
        assert repr(again) == repr(script), f"round-trip mismatch:\n{text}"
        assert print_script(again) == text
        text.encode("utf-8")  # scripts are written to disk as UTF-8

    def test_feature_list_rendering(self):
        script = parse_script(
            'let a = parse("1", [TrimString, UseNativeObject]); assert_not_null(a);'
        )
        assert "parse(\"1\", [TrimString, UseNativeObject])" in print_script(script)

    def test_empty_feature_list_omitted(self):
        script = parse_script('let a = parse("1", []); assert_not_null(a);')
        assert 'parse("1")' in print_script(script)
        assert script.statements[0].expr.features == ()


class TestExtract:
    def test_fenced_valid_script(self):
        response = "Here is a new test:\n```\nassert_eq(1, 1);\n```\nHope this helps."
        script = extract_script(response)
        assert script == Script(statements=(AssertEq(Lit(1), Lit(1)),))

    def test_language_tag_on_fence(self):
        response = "```tdsl\nassert_eq(1, 1);\n```"
        assert isinstance(extract_script(response), Script)

    def test_prose_only_is_extraction_failure(self):
        result = extract_script("I cannot generate a test for this request.")
        assert isinstance(result, ExtractionFailure)
        assert result.category == PARSE_FAILURE

    def test_first_block_wins_even_if_invalid(self):
        response = (
            "```\nthis is not a script\n```\n"
            "```\nassert_eq(1, 1);\n```"
        )
        result = extract_script(response)
        assert isinstance(result, ExtractionFailure)

    def test_bare_script_without_fences(self):
        assert isinstance(extract_script("assert_eq(1, 1);"), Script)

    def test_too_deep_nesting_is_extraction_failure(self):
        result = extract_script(f"```\n{nested_sizes(600)}```")
        assert isinstance(result, ExtractionFailure)
        assert "too deep" in result.error

    @pytest.mark.parametrize(
        "script", [nested_list_field(2000), bean_chain(1500, ring=True)], ids=["list", "ring"]
    )
    def test_deep_bean_types_are_extraction_failures(self, script):
        assert isinstance(extract_script(f"```\n{script}```"), ExtractionFailure)

    def test_failure_carries_parser_error(self):
        result = extract_script("```\nlet a = ;\n```")
        assert isinstance(result, ExtractionFailure)
        assert "line 1" in result.error
