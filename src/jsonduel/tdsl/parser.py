"""Lexer, recursive-descent parser and validator for the test DSL.

Grammar summary (the full EBNF ships in docs/grammar.ebnf): statements
are terminated by ";"; feature lists are bracketed identifier lists.
The lexer runs on demand, one token ahead of the parser, and knows only
identifiers and punctuation. Every literal (string, number, true, false,
null, array or object) is read by the engines' own JSON reader
(`jsontext.parse_value`), so literals follow RFC 8259 with one nesting
cap (`jsontext.MAX_DEPTH`). Text is read once, left to right, so the
first error in the text is the one reported, whether lexical or
syntactic. Parsing is deterministic: identical bytes always yield the
identical AST.
"""

from __future__ import annotations

import re
from typing import NamedTuple, get_args

from .. import jsontext
from . import ast
from .errors import (
    DslSyntaxError,
    DslValidationError,
    UnboundVariableError,
    UnknownBeanError,
    UnknownFeatureError,
)

# One match per token: whitespace, then an identifier, a punctuation mark,
# the first character of a string or number (not consumed: `json_value`
# reads the value), the end of the text, or any other character.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)|(?P<PUNCT>[{}()\[\],;:=<>])"
    r'|(?=(?P<JSON>["0-9-]))|(?P<EOF>\Z)|(?P<ERROR>.))'
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


class Token(NamedTuple):
    kind: str  # IDENT | PUNCT | JSON (a string or number starts here) | EOF
    value: str  # the token's text; a JSON token's first character only
    pos: int  # offset of the token's first character
    end: int


def _syntax_error(text: str, message: str, pos: int) -> DslSyntaxError:
    """A DslSyntaxError at offset `pos`, located by line and column."""
    line_start = text.rfind("\n", 0, pos) + 1
    return DslSyntaxError(message, text.count("\n", 0, pos) + 1, pos - line_start + 1)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tok = self.lex(0)

    # -- token helpers --

    def lex(self, pos: int) -> Token:
        """The token at or after `pos`. A JSON token only marks where a
        string or number starts; `json_value` reads it."""
        match = _TOKEN_RE.match(self.text, pos)
        kind = match.lastgroup
        if kind == "ERROR":
            ch = match.group(kind)
            raise _syntax_error(self.text, f"unexpected character {ch!r}", match.start(kind))
        return Token(kind, match.group(kind), match.start(kind), match.end())

    def advance(self) -> Token:
        tok = self.tok
        self.tok = self.lex(tok.end)
        return tok

    def fail(self, message: str, tok: Token | None = None):
        raise _syntax_error(self.text, message, (tok or self.tok).pos)

    def expect_punct(self, ch: str) -> Token:
        if not self.at_punct(ch):
            self.fail(f"expected '{ch}'")
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> Token:
        if self.tok.kind != "IDENT":
            self.fail(f"expected {what}")
        return self.advance()

    def at_punct(self, ch: str) -> bool:
        return self.tok.kind == "PUNCT" and self.tok.value == ch

    def json_value(self, allowed: type | tuple = object, what: str = ""):
        """Read the JSON value at the current token with the engines' JSON
        reader, check that it is `allowed`, and resume lexing after it."""
        try:
            value, end = jsontext.parse_value(self.text, self.tok.pos)
        except jsontext.JsonTextError as exc:
            raise _syntax_error(self.text, exc.reason, exc.pos) from None
        if not isinstance(value, allowed):
            self.fail(f"expected {what}")
        self.tok = self.lex(end)
        return value

    def scalar(self, allowed: type | tuple, what: str):
        """The string or number at the current token, if it is `allowed`."""
        if self.tok.kind != "JSON":
            self.fail(f"expected {what}")
        return self.json_value(allowed, what)

    # -- grammar --

    def script(self) -> ast.Script:
        beans: list[ast.BeanDef] = []
        statements: list[ast.Statement] = []
        while self.tok.kind != "EOF":
            if self.tok.kind == "IDENT" and self.tok.value == "bean":
                beans.append(self.bean_def())
            else:
                statements.append(self.statement())
        return ast.Script(tuple(beans), tuple(statements))

    def bean_def(self) -> ast.BeanDef:
        self.advance()  # 'bean'
        name = self.expect_ident("bean name")
        self.expect_punct("{")
        fields: list[ast.BeanField] = []
        while not self.at_punct("}"):
            fname = self.expect_ident("field name")
            self.expect_punct(":")
            ftype = self.field_type()
            self.expect_punct(";")
            fields.append(ast.BeanField(fname.value, ftype))
        self.expect_punct("}")
        return ast.BeanDef(name.value, tuple(fields))

    def field_type(self, depth: int = 0) -> ast.FieldType:
        if depth > _MAX_TYPE_DEPTH:
            self.fail("field type nesting too deep")
        tok = self.expect_ident("field type")
        if tok.value in ast.PRIMITIVE_TYPES:
            return ast.Prim(tok.value)
        if tok.value == "list":
            self.expect_punct("<")
            element = self.field_type(depth + 1)
            self.expect_punct(">")
            return ast.ListOf(element)
        return ast.BeanRef(tok.value)

    def statement(self) -> ast.Statement:
        tok = self.tok
        if tok.kind != "IDENT":
            self.fail("expected a statement")
        if tok.value == "let":
            self.advance()
            name = self.expect_ident("variable name")
            if name.value in ast.RESERVED_WORDS:
                self.fail(f"'{name.value}' is a reserved word", name)
            self.expect_punct("=")
            expr = self.expr()
            self.expect_punct(";")
            return ast.Let(name.value, expr)
        node = _ASSERTS.get(tok.value)
        if node is None:
            self.fail(f"unknown statement '{tok.value}'")
        stmt = self.call(node, 0)
        self.expect_punct(";")
        return stmt

    def expr(self, depth: int = 0) -> ast.Expr:
        if depth > _MAX_EXPR_DEPTH:
            self.fail("expression nesting too deep")
        tok = self.tok
        if tok.kind == "JSON" or tok.value in _LITERAL_STARTS:
            return ast.Lit(self.json_value())
        if tok.kind == "IDENT":
            node = _CALLS.get(tok.value)
            if node is not None:
                return self.call(node, depth + 1)
            self.advance()
            return ast.Var(tok.value)
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
            args.append(self.expect_ident("bean name").value)
        if node in (ast.ParseValue, ast.ParseTyped):
            args.append(self.optional_features(_READER_FEATURES, "reader"))
        elif node is ast.Serialize:
            args.append(self.optional_features(_WRITER_FEATURES, "writer"))
        elif node is ast.Get:
            self.expect_punct(",")
            args.append(self.scalar((str, int), "a key string or integer index"))
            self.expect_punct(",")
            as_tok = self.expect_ident("result type")
            if as_tok.value not in _AS_TYPES:
                self.fail(f"unknown result type '{as_tok.value}'", as_tok)
            args.append(_AS_TYPES[as_tok.value])
        elif node is ast.PathEval:
            self.expect_punct(",")
            args.append(self.scalar(str, "a path string"))
        elif node is ast.MakeBean:
            args.append(self.expect_ident("bean name").value)
            assignments: list[tuple[str, ast.Expr]] = []
            while self.at_punct(","):
                self.advance()
                fname = self.expect_ident("field name")
                self.expect_punct("=")
                assignments.append((fname.value, self.expr(depth)))
            args.append(tuple(assignments))
        self.expect_punct(")")
        return node(*args)

    def optional_features(self, table: dict, flavor: str) -> tuple:
        if not self.at_punct(","):
            return ()
        self.advance()
        self.expect_punct("[")
        features: list = []
        if not self.at_punct("]"):
            while True:
                tok = self.expect_ident("feature name")
                if tok.value not in table:
                    raise UnknownFeatureError(tok.value, flavor)
                feature = table[tok.value]
                if feature in features:
                    raise DslValidationError(f"duplicate feature '{tok.value}'")
                features.append(feature)
                if self.at_punct(","):
                    self.advance()
                    continue
                break
        self.expect_punct("]")
        return tuple(features)


def parse_script(text: str) -> ast.Script:
    """Parse DSL source into a validated Script AST."""
    script = _Parser(text).script()
    validate_script(script)
    return script


def validate_script(script: ast.Script) -> None:
    """Enforce every structural invariant; raises a DslError subclass."""
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
                raise DslValidationError(
                    f"duplicate field '{field.name}' in bean '{bean.name}'"
                )
            seen.add(field.name)

    for bean in script.beans:
        for ref in _bean_refs(bean):
            if ref not in beans:
                raise UnknownBeanError(ref)
    _check_bean_nesting(beans)

    bound: set[str] = set()
    has_assertion = False
    for stmt in script.statements:
        if not isinstance(stmt, _STATEMENT_TYPES):
            raise DslValidationError(f"unknown statement node {type(stmt).__name__}")
        for name in ast.EXPR_FIELDS[type(stmt)]:
            _check_expr(getattr(stmt, name), bound, beans)
        if isinstance(stmt, ast.Let):
            bound.add(stmt.name)
        else:
            has_assertion = True
    if not has_assertion:
        raise DslValidationError("script contains no assertions")


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
                    raise DslValidationError(
                        f"bean '{name}' nests more than {_MAX_TYPE_DEPTH} levels"
                    )
            elif ref in visiting:
                raise DslValidationError(f"recursive bean cycle through '{ref}'")
            elif ref not in depths:
                visiting.add(ref)
                stack.append((ref, iter(_bean_refs(beans[ref]))))


def _check_expr(expr: ast.Expr, bound: set[str], beans: dict) -> None:
    if not isinstance(expr, _EXPR_TYPES):
        raise DslValidationError(f"unknown expression node {type(expr).__name__}")
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
                raise DslValidationError(
                    f"bean '{expr.bean}' has no field '{name}'"
                )
            if name in seen:
                raise DslValidationError(f"duplicate assignment to '{name}'")
            seen.add(name)
            _check_expr(value, bound, beans)
    else:
        for name in ast.EXPR_FIELDS[type(expr)]:
            _check_expr(getattr(expr, name), bound, beans)
        if isinstance(expr, ast.ParseTyped) and expr.bean not in beans:
            raise UnknownBeanError(expr.bean)
