"""Tokenizer, recursive-descent parser and validator for the test DSL.

Grammar summary (the full EBNF ships in docs/grammar.ebnf): statements
are terminated by ";"; feature lists are bracketed identifier lists.
One regex pass turns the text into (kind, text, offset) tuples that the
parser walks by index. Every literal (string, number, true, false, null,
array or object) is read by the engines' own JSON reader
(`jsontext.parse_value`), so literals follow RFC 8259 with one nesting
cap (`jsontext.MAX_DEPTH`); parsing resumes at the token where it ends.
An ERROR token raises only once it is current, so the first error in the
text, lexical or syntactic, is the one reported. Parsing is
deterministic: identical bytes always yield the identical AST.
"""

from __future__ import annotations

import re
from typing import get_args

from .. import jsontext
from . import ast
from .errors import (
    DslSyntaxError,
    DslValidationError,
    UnboundVariableError,
    UnknownBeanError,
    UnknownFeatureError,
)

# One match per token, whitespace skipped: a punctuation mark, an identifier,
# a JSON string or number (a lone `"` or `-` where none scans, which the JSON
# reader then rejects), or any other character. Only a punctuation token has
# a punctuation mark's text, so the text alone tells a mark.
_TOKEN_RE = re.compile(
    r"(?P<PUNCT>[{}()\[\],;:=<>])|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
    r'|(?P<JSON>"[^"\\\x00-\x1f]*(?:\\.[^"\\\x00-\x1f]*)*"|'
    + jsontext.NUMBER_RE.pattern
    + r'|["-])|(?P<ERROR>[^ \t\r\n])'
)

_LITERAL_STARTS = frozenset({"[", "{", "true", "false", "null"})

_AS_TYPES = {t.value: t for t in ast.AsType}
_READER_FEATURES = {f.value: f for f in ast.ReaderFeature}
_WRITER_FEATURES = {f.value: f for f in ast.WriterFeature}
_EXPR_TYPES = get_args(ast.Expr)
_STATEMENT_TYPES = get_args(ast.Statement)
_CALLS = {word: node for node, word in ast.KEYWORDS.items() if node in _EXPR_TYPES}
_ASSERTS = {word: node for node, word in ast.KEYWORDS.items() if node in _STATEMENT_TYPES}

_MAX_EXPR_DEPTH = 256
_MAX_TYPE_DEPTH = 256


def _tokenize(text: str, pos: int = 0) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of every token from `pos` on, then EOF."""
    tokens = [(m.lastgroup, m[0], m.start()) for m in _TOKEN_RE.finditer(text, pos)]
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text, self.tokens = text, _tokenize(text)
        self.i, self.tok = -1, None
        self.advance()

    # -- token helpers --

    def advance(self) -> tuple[str, str, int]:
        """Consume the current token and return it; an ERROR token raises
        when it becomes current."""
        tok = self.tok
        self.i += 1
        self.tok = self.tokens[self.i]
        if self.tok[0] == "ERROR":
            self.fail(f"unexpected character {self.tok[1]!r}")
        return tok

    def fail(self, message: str, pos: int | None = None):
        """Raise a DslSyntaxError at offset `pos`, the current token's by default."""
        pos = self.tok[2] if pos is None else pos
        line, col = self.text.count("\n", 0, pos) + 1, pos - self.text.rfind("\n", 0, pos)
        raise DslSyntaxError(message, line, col) from None

    def expect_punct(self, ch: str) -> None:
        if self.tok[1] != ch:
            self.fail(f"expected '{ch}'")
        self.advance()

    def expect_ident(self, what: str = "identifier") -> str:
        if self.tok[0] != "IDENT":
            self.fail(f"expected {what}")
        return self.advance()[1]

    def json_value(self, allowed: type | tuple = object, what: str = ""):
        """Read the JSON value at the current token with the engines' JSON
        reader; given `what`, it must be a string or number that is
        `allowed`. The token that starts where the value ends becomes
        current, or, if a token runs across that end, the first token of
        the text tokenized again from there."""
        if what and self.tok[0] != "JSON":
            self.fail(f"expected {what}")
        try:
            value, end = jsontext.parse_value(self.text, self.tok[2])
        except jsontext.JsonTextError as exc:
            self.fail(exc.reason, exc.pos)
        if not isinstance(value, allowed):
            self.fail(f"expected {what}")
        tokens, i = self.tokens, self.i + 1
        while tokens[i][2] < end:
            i += 1
        _, last, pos = tokens[i - 1]
        if pos + len(last) > end:
            i -= 1
            tokens[i:] = _tokenize(self.text, end)
        self.i = i - 1
        self.advance()
        return value

    # -- grammar --

    def script(self) -> ast.Script:
        beans: list[ast.BeanDef] = []
        statements: list[ast.Statement] = []
        while self.tok[0] != "EOF":
            if self.tok[1] == "bean":
                beans.append(self.bean_def())
            else:
                statements.append(self.statement())
        return ast.Script(tuple(beans), tuple(statements))

    def bean_def(self) -> ast.BeanDef:
        self.advance()  # 'bean'
        name = self.expect_ident("bean name")
        self.expect_punct("{")
        fields: list[ast.BeanField] = []
        while self.tok[1] != "}":
            fname = self.expect_ident("field name")
            self.expect_punct(":")
            fields.append(ast.BeanField(fname, self.field_type()))
            self.expect_punct(";")
        self.expect_punct("}")
        return ast.BeanDef(name, tuple(fields))

    def field_type(self, depth: int = 0) -> ast.FieldType:
        if depth > _MAX_TYPE_DEPTH:
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
        kind, word, _ = self.tok
        if kind != "IDENT":
            self.fail("expected a statement")
        if word == "let":
            self.advance()
            name = self.expect_ident("variable name")
            if name in ast.RESERVED_WORDS:
                self.fail(f"'{name}' is a reserved word", self.tokens[self.i - 1][2])
            self.expect_punct("=")
            expr = self.expr()
            self.expect_punct(";")
            return ast.Let(name, expr)
        node = _ASSERTS.get(word)
        if node is None:
            self.fail(f"unknown statement '{word}'")
        stmt = self.call(node, 0)
        self.expect_punct(";")
        return stmt

    def expr(self, depth: int = 0) -> ast.Expr:
        if depth > _MAX_EXPR_DEPTH:
            self.fail("expression nesting too deep")
        kind, word, _ = self.tok
        if kind == "JSON" or word in _LITERAL_STARTS:
            return ast.Lit(self.json_value())
        if kind == "IDENT":
            node = _CALLS.get(word)
            if node is not None:
                return self.call(node, depth + 1)
            self.advance()
            return ast.Var(word)
        self.fail("expected an expression")

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
                self.fail(f"unknown result type '{as_type}'", self.tokens[self.i - 1][2])
            args.append(_AS_TYPES[as_type])
        elif node is ast.PathEval:
            self.expect_punct(",")
            args.append(self.json_value(str, "a path string"))
        elif node is ast.MakeBean:
            args.append(self.expect_ident("bean name"))
            assignments: list[tuple[str, ast.Expr]] = []
            while self.tok[1] == ",":
                self.advance()
                fname = self.expect_ident("field name")
                self.expect_punct("=")
                assignments.append((fname, self.expr(depth)))
            args.append(tuple(assignments))
        self.expect_punct(")")
        return node(*args)

    def optional_features(self, table: dict, flavor: str) -> tuple:
        if self.tok[1] != ",":
            return ()
        self.advance()
        self.expect_punct("[")
        features: list = []
        if self.tok[1] != "]":
            while True:
                name = self.expect_ident("feature name")
                if name not in table:
                    raise UnknownFeatureError(name, flavor)
                if table[name] in features:
                    raise DslValidationError(f"duplicate feature '{name}'")
                features.append(table[name])
                if self.tok[1] != ",":
                    break
                self.advance()
        self.expect_punct("]")
        return tuple(features)


def parse_script(text: str) -> ast.Script:
    """Parse DSL source into a Script AST, the one place a script is
    validated: a syntax error comes first, then bean errors, then
    statement errors, each a DslError subclass."""
    script = _Parser(text).script()
    beans: dict[str, ast.BeanDef] = {}
    for bean in script.beans:
        if bean.name in ast.RESERVED_WORDS or bean.name in ast.PRIMITIVE_TYPES:
            raise DslValidationError(f"'{bean.name}' cannot be used as a bean name")
        if bean.name in beans:
            raise DslValidationError(f"duplicate bean '{bean.name}'")
        beans[bean.name] = bean
        seen: set[str] = set()
        for field in bean.fields:
            if field.name in seen:
                raise DslValidationError(f"duplicate field '{field.name}' in bean '{bean.name}'")
            seen.add(field.name)

    for bean in script.beans:
        for ref in _bean_refs(bean):
            if ref not in beans:
                raise UnknownBeanError(ref)
    _check_bean_nesting(beans)

    bound: set[str] = set()
    has_assertion = False
    for stmt in script.statements:
        for name in ast.EXPR_FIELDS[type(stmt)]:
            _check_expr(getattr(stmt, name), bound, beans)
        if isinstance(stmt, ast.Let):
            bound.add(stmt.name)
        else:
            has_assertion = True
    if not has_assertion:
        raise DslValidationError("script contains no assertions")
    return script


def _unwrap(ftype: ast.FieldType) -> tuple[int, ast.FieldType]:
    """The number of list levels around a field type, and what they hold."""
    levels = 0
    while isinstance(ftype, ast.ListOf):
        ftype, levels = ftype.element, levels + 1
    return levels, ftype


def _bean_refs(bean: ast.BeanDef) -> list[str]:
    """Names of the beans that `bean`'s fields hold, directly or in lists."""
    inner = [_unwrap(field.type)[1] for field in bean.fields]
    return [ftype.name for ftype in inner if isinstance(ftype, ast.BeanRef)]


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


def _check_bean_nesting(beans: dict[str, ast.BeanDef]) -> None:
    """Reject a bean cycle, or a bean nested more than _MAX_TYPE_DEPTH
    levels deep, which the engines could not bind without exhausting
    the interpreter's recursion limit. Depth-first search with an
    explicit stack, so a long chain of beans cannot exhaust it here."""
    depths: dict[str, int] = {}  # beans whose walk has finished
    for root in beans:
        if root in depths:
            continue
        visiting = {root}
        stack = [(root, iter(_bean_refs(beans[root])))]
        while stack:
            name, refs = stack[-1]
            ref = next(refs, None)
            if ref is None:
                stack.pop()
                visiting.discard(name)
                depths[name] = _bean_depth(beans[name], depths)
                if depths[name] > _MAX_TYPE_DEPTH:
                    raise DslValidationError(f"bean '{name}' nests more than {_MAX_TYPE_DEPTH} levels")
            elif ref in visiting:
                raise DslValidationError(f"recursive bean cycle through '{ref}'")
            elif ref not in depths:
                visiting.add(ref)
                stack.append((ref, iter(_bean_refs(beans[ref]))))


def _check_expr(expr: ast.Expr, bound: set[str], beans: dict) -> None:
    if isinstance(expr, ast.Var):
        if expr.name not in bound:
            raise UnboundVariableError(expr.name)
    elif isinstance(expr, ast.MakeBean):
        if expr.bean not in beans:
            raise UnknownBeanError(expr.bean)
        fields = {f.name for f in beans[expr.bean].fields}
        seen: set[str] = set()
        for name, value in expr.assignments:
            if name not in fields:
                raise DslValidationError(f"bean '{expr.bean}' has no field '{name}'")
            if name in seen:
                raise DslValidationError(f"duplicate assignment to '{name}'")
            seen.add(name)
            _check_expr(value, bound, beans)
    else:
        for name in ast.EXPR_FIELDS[type(expr)]:
            _check_expr(getattr(expr, name), bound, beans)
        if isinstance(expr, ast.ParseTyped) and expr.bean not in beans:
            raise UnknownBeanError(expr.bean)
