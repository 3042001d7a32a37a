"""Tokenizer, recursive-descent parser and validator for the test DSL.

Grammar summary (the full EBNF ships in docs/grammar.ebnf): statements
are terminated by ";"; feature lists are bracketed identifier lists.
Strings and numbers are scanned, and array and object literals read, by
the engines' own JSON reader (`jsontext`), so literals follow RFC 8259
with one nesting cap (`jsontext.MAX_DEPTH`). The whole text is tokenized
before parsing starts, so a lexical error anywhere wins over an earlier
syntax error. Parsing is deterministic: identical bytes always yield the
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

_SPACE_RE = re.compile(r"[ \t\r\n]*")
_WORD_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)|[{}()\[\],;:=<>]")

_CALL_NAMES = frozenset(
    {"parse", "parse_typed", "serialize", "get", "path_eval", "is_valid",
     "size", "make_bean", "strip_zeros"}
)

_AS_TYPES = {t.value: t for t in ast.AsType}
_READER_FEATURES = {f.value: f for f in ast.ReaderFeature}
_WRITER_FEATURES = {f.value: f for f in ast.WriterFeature}
_EXPR_TYPES = get_args(ast.Expr)
_STATEMENT_TYPES = get_args(ast.Statement)

_MAX_EXPR_DEPTH = 256
_MAX_TYPE_DEPTH = 256


class Token(NamedTuple):
    kind: str  # IDENT | STRING | NUMBER | PUNCT | EOF
    value: object
    pos: int  # offset of the token's first character


def _syntax_error(text: str, message: str, pos: int) -> DslSyntaxError:
    """A DslSyntaxError at offset `pos`, located by line and column."""
    line_start = text.rfind("\n", 0, pos) + 1
    return DslSyntaxError(message, text.count("\n", 0, pos) + 1, pos - line_start + 1)


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = _SPACE_RE.match(text).end()
    try:
        while pos < len(text):
            ch = text[pos]
            if ch == '"':
                value, end = jsontext.scan_string(text, pos)
                tokens.append(Token("STRING", value, pos))
            elif ch == "-" or "0" <= ch <= "9":
                value, end = jsontext.scan_number(text, pos)
                tokens.append(Token("NUMBER", value, pos))
            else:
                match = _WORD_RE.match(text, pos)
                if match is None:
                    raise _syntax_error(text, f"unexpected character {ch!r}", pos)
                end = match.end()
                tokens.append(Token("IDENT" if match.lastindex else "PUNCT", match.group(), pos))
            pos = _SPACE_RE.match(text, end).end()
    except jsontext.JsonTextError as exc:
        raise _syntax_error(text, exc.reason, exc.pos) from None
    tokens.append(Token("EOF", None, pos))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token helpers --

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise _syntax_error(self.text, message, tok.pos)

    def expect_punct(self, ch: str) -> Token:
        tok = self.peek()
        if tok.kind != "PUNCT" or tok.value != ch:
            self.fail(f"expected '{ch}'")
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "IDENT":
            self.fail(f"expected {what}")
        return self.advance()

    def at_punct(self, ch: str) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.value == ch

    def at_ident(self, name: str) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.value == name

    # -- grammar --

    def script(self) -> ast.Script:
        beans: list[ast.BeanDef] = []
        statements: list[ast.Statement] = []
        while self.peek().kind != "EOF":
            if self.at_ident("bean"):
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
        tok = self.peek()
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
        if tok.value == "assert_eq":
            self.advance()
            self.expect_punct("(")
            expected = self.expr()
            self.expect_punct(",")
            actual = self.expr()
            self.expect_punct(")")
            self.expect_punct(";")
            return ast.AssertEq(expected, actual)
        if tok.value in ("assert_null", "assert_not_null", "assert_throws"):
            self.advance()
            self.expect_punct("(")
            expr = self.expr()
            self.expect_punct(")")
            self.expect_punct(";")
            klass = {
                "assert_null": ast.AssertNull,
                "assert_not_null": ast.AssertNotNull,
                "assert_throws": ast.AssertThrows,
            }[tok.value]
            return klass(expr)
        self.fail(f"unknown statement '{tok.value}'")

    def expr(self, depth: int = 0) -> ast.Expr:
        if depth > _MAX_EXPR_DEPTH:
            self.fail("expression nesting too deep")
        tok = self.peek()
        if tok.kind == "STRING":
            self.advance()
            return ast.Str(tok.value)
        if tok.kind == "NUMBER":
            self.advance()
            return ast.Lit(tok.value)
        if tok.kind == "PUNCT" and tok.value in "{[":
            return ast.Lit(self.literal())
        if tok.kind == "IDENT":
            if tok.value == "true":
                self.advance()
                return ast.Lit(True)
            if tok.value == "false":
                self.advance()
                return ast.Lit(False)
            if tok.value == "null":
                self.advance()
                return ast.Lit(None)
            if tok.value in _CALL_NAMES:
                return self.call(tok.value, depth + 1)
            self.advance()
            return ast.Var(tok.value)
        self.fail("expected an expression")

    def call(self, name: str, depth: int) -> ast.Expr:
        self.advance()
        self.expect_punct("(")
        if name == "parse":
            text = self.expr(depth)
            features = self.optional_features(_READER_FEATURES, "reader")
            self.expect_punct(")")
            return ast.ParseValue(text, features)
        if name == "parse_typed":
            text = self.expr(depth)
            self.expect_punct(",")
            bean = self.expect_ident("bean name")
            features = self.optional_features(_READER_FEATURES, "reader")
            self.expect_punct(")")
            return ast.ParseTyped(text, bean.value, features)
        if name == "serialize":
            value = self.expr(depth)
            features = self.optional_features(_WRITER_FEATURES, "writer")
            self.expect_punct(")")
            return ast.Serialize(value, features)
        if name == "get":
            target = self.expr(depth)
            self.expect_punct(",")
            accessor = self.accessor()
            self.expect_punct(",")
            as_tok = self.expect_ident("result type")
            if as_tok.value not in _AS_TYPES:
                self.fail(f"unknown result type '{as_tok.value}'", as_tok)
            self.expect_punct(")")
            return ast.Get(target, accessor, _AS_TYPES[as_tok.value])
        if name == "path_eval":
            target = self.expr(depth)
            self.expect_punct(",")
            path = self.peek()
            if path.kind != "STRING":
                self.fail("expected a path string")
            self.advance()
            self.expect_punct(")")
            return ast.PathEval(target, path.value)
        if name in ("is_valid", "size", "strip_zeros"):
            inner = self.expr(depth)
            self.expect_punct(")")
            klass = {"is_valid": ast.IsValid, "size": ast.Size, "strip_zeros": ast.StripZeros}[name]
            return klass(inner)
        if name == "make_bean":
            bean = self.expect_ident("bean name")
            assignments: list[tuple[str, ast.Expr]] = []
            while self.at_punct(","):
                self.advance()
                fname = self.expect_ident("field name")
                self.expect_punct("=")
                assignments.append((fname.value, self.expr(depth)))
            self.expect_punct(")")
            return ast.MakeBean(bean.value, tuple(assignments))
        raise AssertionError(name)

    def accessor(self) -> str | int:
        tok = self.peek()
        if tok.kind == "STRING":
            self.advance()
            return tok.value
        if tok.kind == "NUMBER" and isinstance(tok.value, int):
            self.advance()
            return tok.value
        self.fail("expected a key string or integer index")

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

    def literal(self):
        """Read an array or object literal with the engines' JSON reader."""
        try:
            value, end = jsontext.parse_value(self.text, self.peek().pos)
        except jsontext.JsonTextError as exc:
            raise _syntax_error(self.text, exc.reason, exc.pos) from None
        while self.peek().pos < end:
            self.pos += 1
        return value


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
    _check_bean_cycles(beans)

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


def _bean_refs(bean: ast.BeanDef) -> list[str]:
    """Names of the beans that `bean`'s fields hold, directly or in lists."""
    refs = []
    for field in bean.fields:
        ftype = field.type
        while isinstance(ftype, ast.ListOf):
            ftype = ftype.element
        if isinstance(ftype, ast.BeanRef):
            refs.append(ftype.name)
    return refs


def _check_bean_cycles(beans: dict[str, ast.BeanDef]) -> None:
    """Depth-first search with an explicit stack, so a long chain of
    beans cannot exhaust the interpreter's recursion limit."""
    done: set[str] = set()
    for root in beans:
        if root in done:
            continue
        visiting = {root}
        stack = [(root, iter(_bean_refs(beans[root])))]
        while stack:
            name, refs = stack[-1]
            ref = next(refs, None)
            if ref is None:
                stack.pop()
                visiting.discard(name)
                done.add(name)
            elif ref in visiting:
                raise DslValidationError(f"recursive bean cycle through '{ref}'")
            elif ref not in done:
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
