"""Tokenizer, recursive-descent parser and validator for the test DSL.

Grammar summary (the full EBNF ships in docs/grammar.ebnf): statements
are terminated by ";"; feature lists are bracketed identifier lists.
One regex split turns the text into alternating whitespace and tokens;
a token's kind follows from its first character, and its offset is
summed only when an error or a JSON array or object needs it. Literals
are JSON as the engines' own reader (`jsontext`) reads it: RFC 8259 with
one nesting cap (`jsontext.MAX_DEPTH`). A character no token takes
raises only once it is current, so the first error in the text, lexical
or syntactic, is the one reported. Parsing is deterministic: identical
bytes always yield the identical AST, with every name in it interned.
"""

from __future__ import annotations

import graphlib
import re
import sys
from typing import get_args

from .. import jsontext
from . import ast


class DslError(ValueError):
    """A script the parser rejects; a syntax error also has its `line` and `col`."""

    def __init__(self, reason: str, line: int | None = None, col: int | None = None):
        super().__init__(reason if line is None else f"{reason} (line {line}, column {col})")
        self.reason, self.line, self.col = reason, line, col


# One token per match: a punctuation mark, an identifier, a JSON string or
# number (a lone `"` or `-` where none scans, which the JSON reader then
# rejects), or any other character, which takes the rest of the text with
# it, since parsing stops there. Only a punctuation token has a punctuation
# mark's text, so the text alone tells a mark.
_TOKEN_RE = re.compile(
    r'([{}()\[\],;:=<>]|[A-Za-z_][A-Za-z0-9_]*|"[^"\\\x00-\x1f]*(?:\\.[^"\\\x00-\x1f]*)*"|'
    + jsontext.NUMBER_RE.pattern
    + r'|["-]|[^ \t\r\n][\s\S]*)'
)
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_JSON_START = frozenset('"-0123456789')  # a JSON string's or number's token
_LITERAL_START = _JSON_START | {"[", "{"}
_TOKEN_START = _IDENT_START | _LITERAL_START | frozenset("}()],;:=<>")
_WORDS = {"true": True, "false": False, "null": None}
_READ_FROM_TEXT = frozenset('[{"-')  # an array, an object, a lone `"` or `-`: read from the text

_AS_TYPES = {t.value: t for t in ast.AsType}
_READER_FEATURES = {f.value: f for f in ast.ReaderFeature}
_WRITER_FEATURES = {f.value: f for f in ast.WriterFeature}
_CALLS = {word: node for node, word in ast.KEYWORDS.items() if node in get_args(ast.Expr)}
_ASSERTS = {word: node for node, word in ast.KEYWORDS.items() if node in get_args(ast.Statement)}

# Nesting caps. An engine takes up to 3 stack frames per expression level,
# 2 per bean or list level it binds and 1 per level of a JSON value it reads
# or writes, so the deepest script these admit runs in about 600 frames,
# well inside the interpreter's recursion limit wherever `execute` is called.
MAX_EXPR_DEPTH = 64  # calls nested in one expression
MAX_BEAN_DEPTH = 128  # bean hops plus list levels below a bean


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pieces = _TOKEN_RE.split(text)  # whitespace, token, ..., token, whitespace
        self.tokens = self.pieces[1::2] + [""]  # "" stands for the end
        self.i, self.tok = 0, self.tokens[0]
        self.mark = (0, 0)  # a piece's index and offset
        self.bound: set[str] = set()  # the variables bound so far
        self.asserted = False  # whether an assert statement was parsed
        # In text order: a bean (and field) a statement names, or an error.
        self.checks: list[tuple[str, str | None] | DslError] = []

    # -- token helpers --

    def advance(self) -> str:
        """Consume the current token and return it."""
        tok = self.tok
        self.i += 1
        self.tok = self.tokens[self.i]
        return tok

    def offset(self, index: int) -> int:
        """Token `index`'s offset: the length of the whitespace and tokens
        before it, summed on from the last offset asked for."""
        piece, pos = self.mark if 2 * index + 1 >= self.mark[0] else (0, 0)
        pos += len("".join(self.pieces[piece : 2 * index + 1]))
        self.mark = (2 * index + 1, pos)
        return pos

    def unreadable(self) -> bool:
        """Whether the current token is a character no token takes."""
        return self.tok != "" and self.tok[0] not in _TOKEN_START

    def fail(self, message: str, pos: int | None = None):
        """Raise a syntax DslError at offset `pos`, the current token's by
        default; a current token that is no token at all raises instead."""
        if self.unreadable():
            message, pos = f"unexpected character {self.tok[0]!r}", None
        pos = self.offset(self.i) if pos is None else pos
        line, col = self.text.count("\n", 0, pos) + 1, pos - self.text.rfind("\n", 0, pos)
        raise DslError(message, line, col) from None

    def expect_punct(self, ch: str) -> None:
        if self.tok != ch:
            self.fail(f"expected '{ch}'")
        self.i += 1
        self.tok = self.tokens[self.i]

    def expect_ident(self, what: str) -> str:
        name = self.tok
        if name[:1] not in _IDENT_START:
            self.fail(f"expected {what}")
        self.i += 1
        self.tok = self.tokens[self.i]
        return sys.intern(name)  # one per name across ASTs; dies with the last (3.12: never)

    def json_value(self, allowed: type | tuple = object, what: str = ""):
        """Read the JSON value at the current token; given `what`, it must
        be a string or number that is `allowed`. A word or a string with no
        escape is its token's text; the engines' JSON reader reads any other
        string or number from its token and an array or object from the text,
        after which the token that starts where it ends is current."""
        tok = self.tok
        if what and tok[:1] not in _JSON_START:
            self.fail(f"expected {what}")
        try:
            if tok in _WORDS:
                value = _WORDS[tok]
            elif tok[0] == '"' and "\\" not in tok and tok != '"':
                value = tok[1:-1]
            elif tok in _READ_FROM_TEXT:  # its tokens are those its text splits into
                start = self.offset(self.i)
                value, end = jsontext.parse_value(self.text, start)
                self.i += len(_TOKEN_RE.split(self.text[start:end])) // 2 - 1
            else:
                value = jsontext.parse_value(tok)[0]
        except jsontext.JsonTextError as exc:
            self.fail(exc.reason, exc.pos + (0 if tok in _READ_FROM_TEXT else self.offset(self.i)))
        if not isinstance(value, allowed):
            self.fail(f"expected {what}")
        self.advance()
        return value

    # -- grammar --

    def script(self) -> ast.Script:
        beans: list[ast.BeanDef] = []
        statements: list[ast.Statement] = []
        while self.tok != "":
            if self.tok == "bean":
                beans.append(self.bean_def())
            else:
                statements.append(self.statement())
        return ast.Script(tuple(beans), tuple(statements))

    def bean_def(self) -> ast.BeanDef:
        self.advance()  # 'bean'
        name = self.expect_ident("bean name")
        self.expect_punct("{")
        fields: list[ast.BeanField] = []
        while self.tok != "}":
            fname = self.expect_ident("field name")
            self.expect_punct(":")
            fields.append(ast.BeanField(fname, self.field_type()))
            self.expect_punct(";")
        self.expect_punct("}")
        return ast.BeanDef(name, tuple(fields))

    def field_type(self, depth: int = 0) -> ast.FieldType:
        if depth > MAX_BEAN_DEPTH:
            self.fail("field type nesting too deep")
        name = self.expect_ident("field type")
        if name in ast.PRIMITIVE_TYPES:
            return ast.Prim(name)
        if name == "list":
            self.expect_punct("<")
            element = self.field_type(depth + 1)
            self.expect_punct(">")
            return ast.ListOf(element)
        return ast.BeanRef(name)

    def statement(self) -> ast.Statement:
        word = self.tok
        if word == "let":
            self.advance()
            name = self.expect_ident("variable name")
            if name in ast.RESERVED_WORDS:
                self.fail(f"'{name}' is a reserved word", self.offset(self.i - 1))
            self.expect_punct("=")
            expr = self.expr()
            self.expect_punct(";")
            self.bound.add(name)
            return ast.Let(name, expr)
        node = _ASSERTS.get(word)
        if node is None:
            self.fail(f"unknown statement '{word}'" if word[:1] in _IDENT_START
                      else "expected a statement")
        stmt = self.call(node, 0)
        self.expect_punct(";")
        self.asserted = True
        return stmt

    def expr(self, depth: int = 0) -> ast.Expr:
        if depth > MAX_EXPR_DEPTH:
            self.fail("expression nesting too deep")
        word = self.tok
        node = _CALLS.get(word)
        if node is not None:
            return self.call(node, depth + 1)
        if word[:1] in _LITERAL_START or word in _WORDS:
            return ast.Lit(self.json_value())
        name = self.expect_ident("an expression")
        if name not in self.bound:
            self.checks.append(DslError(f"variable '{name}' referenced before assignment"))
        return ast.Var(name)

    def call(self, node: type, depth: int):
        """A call or an assert statement from its keyword to its closing
        parenthesis: the node's EXPR_FIELDS, comma-separated, then its
        other arguments, in the order of the node's fields."""
        self.advance()
        self.expect_punct("(")
        args: list = []
        for _ in ast.EXPR_FIELDS[node]:
            if args:
                self.expect_punct(",")
            args.append(self.expr(depth))
        if node is ast.ParseTyped:
            self.expect_punct(",")
            args.append(self.expect_ident("bean name"))
            self.checks.append((args[-1], None))
        if node in (ast.ParseValue, ast.ParseTyped):
            args.append(self.optional_features(_READER_FEATURES, "reader"))
        elif node is ast.Serialize:
            args.append(self.optional_features(_WRITER_FEATURES, "writer"))
        elif node is ast.Get:
            self.expect_punct(",")
            args.append(self.json_value((str, int), "a key string or integer index"))
            self.expect_punct(",")
            as_type = self.expect_ident("result type")
            if as_type not in _AS_TYPES:
                self.fail(f"unknown result type '{as_type}'", self.offset(self.i - 1))
            args.append(_AS_TYPES[as_type])
        elif node is ast.PathEval:
            self.expect_punct(",")
            args.append(self.json_value(str, "a path string"))
        elif node is ast.MakeBean:
            args.append(self.expect_ident("bean name"))
            self.checks.append((args[-1], None))
            assignments: list[tuple[str, ast.Expr]] = []
            while self.tok == ",":
                self.advance()
                fname = self.expect_ident("field name")
                self.checks.append((args[-1], fname))
                if any(fname == name for name, _ in assignments):
                    self.checks.append(DslError(f"duplicate assignment to '{fname}'"))
                self.expect_punct("=")
                assignments.append((fname, self.expr(depth)))
            args.append(tuple(assignments))
        self.expect_punct(")")
        return node(*args)

    def optional_features(self, table: dict, flavor: str) -> tuple:
        if self.tok != ",":
            return ()
        self.advance()
        self.expect_punct("[")
        features: list = []
        if self.tok != "]":
            while True:
                name = self.expect_ident("feature name")
                if name not in table or table[name] in features:
                    if self.unreadable():
                        self.fail("")
                    if name not in table:
                        raise DslError(f"unknown {flavor} feature '{name}'")
                    raise DslError(f"duplicate feature '{name}'")
                features.append(table[name])
                if self.tok != ",":
                    break
                self.advance()
        self.expect_punct("]")
        return tuple(features)


def parse_script(text: str) -> ast.Script:
    """Parse DSL source into a Script AST, the one place a script is
    validated: a syntax error comes first, then bean errors, then
    statement errors in text order, each a DslError."""
    parser = _Parser(text)
    script = parser.script()
    beans: dict[str, ast.BeanDef] = {}
    for bean in script.beans:
        if bean.name in ast.RESERVED_WORDS or bean.name in ast.PRIMITIVE_TYPES:
            raise DslError(f"'{bean.name}' cannot be used as a bean name")
        if bean.name in beans:
            raise DslError(f"duplicate bean '{bean.name}'")
        beans[bean.name] = bean
        seen: set[str] = set()
        for field in bean.fields:
            if field.name in seen:
                raise DslError(f"duplicate field '{field.name}' in bean '{bean.name}'")
            seen.add(field.name)
    if beans:  # most scripts define none
        _check_bean_graph(beans)

    for check in parser.checks:
        if isinstance(check, DslError):
            raise check
        name, field = check
        if name not in beans:
            raise DslError(f"unknown bean '{name}'")
        if field is not None and all(f.name != field for f in beans[name].fields):
            raise DslError(f"bean '{name}' has no field '{field}'")
    if not parser.asserted:
        raise DslError("script contains no assertions")
    return script


def _unwrap(ftype: ast.FieldType) -> tuple[int, ast.FieldType]:
    """The number of list levels around a field type, and what they hold."""
    levels = 0
    while isinstance(ftype, ast.ListOf):
        ftype, levels = ftype.element, levels + 1
    return levels, ftype


def _bean_depth(bean: ast.BeanDef, depths: dict[str, int]) -> int:
    """List levels plus bean hops along the deepest path out of `bean`,
    given the depths of the beans it holds."""
    deepest = 0
    for field in bean.fields:
        levels, ftype = _unwrap(field.type)
        if isinstance(ftype, ast.BeanRef):
            levels += 1 + depths[ftype.name]
        deepest = max(deepest, levels)
    return deepest


def _check_bean_graph(beans: dict[str, ast.BeanDef]) -> None:
    """Reject a bean that holds an unknown bean, a bean cycle, or a bean
    nested more than MAX_BEAN_DEPTH levels deep."""
    refs: dict[str, list[str]] = {}  # the beans each bean's fields hold, directly or in lists
    for name, bean in beans.items():
        inner = [_unwrap(field.type)[1] for field in bean.fields]
        refs[name] = [ftype.name for ftype in inner if isinstance(ftype, ast.BeanRef)]
        for ref in refs[name]:
            if ref not in beans:
                raise DslError(f"unknown bean '{ref}'")
    if not any(refs.values()):  # `field_type` caps list levels alone at MAX_BEAN_DEPTH
        return
    depths: dict[str, int] = {}
    try:
        for name in graphlib.TopologicalSorter(refs).static_order():  # held beans first
            depths[name] = _bean_depth(beans[name], depths)
            if depths[name] > MAX_BEAN_DEPTH:
                raise DslError(f"bean '{name}' nests more than {MAX_BEAN_DEPTH} levels")
    except graphlib.CycleError as exc:
        raise DslError(f"recursive bean cycle through '{exc.args[1][0]}'") from None
