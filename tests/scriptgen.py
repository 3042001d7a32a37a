"""Seeded random script generator for property tests.

Deterministic: the same Random seed always yields the same scripts.
Generated scripts are always valid (assertions present, variables
bound, beans acyclic) and survive the printer/parser round trip, so
they exercise every expression variant without hand-holding.
"""

from __future__ import annotations

import random
import re
import string
from decimal import Decimal

from jsonduel.jsontext import MAX_DEPTH
from jsonduel.tdsl import ast
from jsonduel.values import INT64_MAX, INT64_MIN, dump_value

_KEYS = ["a", "b", "data", "items", "name", "value", "x", "y"]
_FEATURES_R = list(ast.ReaderFeature)
_FEATURES_W = list(ast.WriterFeature)
_AS_TYPES = list(ast.AsType)
_PRIMS = ["string", "integer", "decimal", "boolean"]
_INT64_EDGES = [INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX]
_BEYOND_INT64 = [INT64_MIN - 1, INT64_MAX + 1, 10**30, -(10**30)]
# Non-ASCII, escaped and control characters, and both halves of a
# surrogate pair, which a string may also hold alone.
_WIDE_CHARS = 'aéü中😀"\\/u0\b\f\n\r\t\x00\x1f\x7f\u2028\ud800\udbff\udc00\udfff'
# No JSON text denotes a high surrogate followed by a low one: escaped,
# the pair reads back as one character, and UTF-8 cannot carry it raw.
_SURROGATE_PAIR = re.compile("[\ud800-\udbff](?=[\udc00-\udfff])")


class ScriptGen:
    def __init__(self, rng: random.Random):
        self.rng = rng

    # -- values --

    def json_value(self, depth: int = 0):
        choices = ["null", "bool", "int", "dec", "str"]
        if depth < 2:
            choices += ["arr", "obj"]
        kind = self.rng.choice(choices)
        if kind == "null":
            return None
        if kind == "bool":
            return self.rng.random() < 0.5
        if kind == "int":
            return self.integer()
        if kind == "dec":
            return self.decimal()
        if kind == "str":
            return self.text()
        if kind == "arr":
            return [self.json_value(depth + 1) for _ in range(self.rng.randint(0, 3))]
        return {
            key: self.json_value(depth + 1)
            for key in self.rng.sample(_KEYS, self.rng.randint(0, 3))
        }

    def integer(self) -> int:
        return self.rng.randint(-10_000, 10_000)

    def decimal(self) -> Decimal:
        # Never exponent 0: a scale-0 in-range decimal prints as a bare
        # integer token and would re-parse as Int, not Dec.
        whole = self.rng.randint(-999, 999)
        frac = self.rng.randint(0, 9999)
        if self.rng.random() < 0.3:
            d = Decimal(f"{whole}.{frac}E{self.rng.randint(-6, 6)}")
            if d.as_tuple().exponent != 0:
                return d
        return Decimal(f"{whole}.{frac}")

    def text(self) -> str:
        alphabet = string.ascii_letters + string.digits + ' _-\\"\n\t{}[]'
        n = self.rng.randint(0, 10)
        return "".join(self.rng.choice(alphabet) for _ in range(n))

    # -- script parts --

    def features(self, pool) -> tuple:
        n = self.rng.randint(0, 2)
        return tuple(self.rng.sample(pool, n))

    def beans(self) -> tuple[ast.BeanDef, ...]:
        count = self.rng.choice([0, 0, 1, 2])
        beans: list[ast.BeanDef] = []
        for i in range(count):
            fields = []
            for j in range(self.rng.randint(1, 3)):
                fields.append(ast.BeanField(f"f{j}", self.field_type(beans)))
            beans.append(ast.BeanDef(f"B{i}", tuple(fields)))
        return tuple(beans)

    def field_type(self, beans: list[ast.BeanDef]) -> ast.FieldType:
        ftype: ast.FieldType = ast.Prim(self.rng.choice(_PRIMS))
        if self.rng.random() < 0.2:
            return ast.ListOf(ftype)
        if beans and self.rng.random() < 0.2:
            # only reference earlier beans: acyclic by construction
            return ast.BeanRef(beans[self.rng.randrange(len(beans))].name)
        return ftype

    def expr(self, bound: list[str], beans: tuple[ast.BeanDef, ...], depth: int = 0) -> ast.Expr:
        leafs = ["lit", "str"]
        if bound:
            leafs += ["var", "var"]
        if depth >= 3:
            return self._leaf(self.rng.choice(leafs), bound)
        kinds = leafs + [
            "parse", "parse_typed", "serialize", "get", "path_eval",
            "is_valid", "size", "strip_zeros",
        ]
        if beans:
            kinds.append("make_bean")
        kind = self.rng.choice(kinds)
        if kind in ("lit", "str", "var"):
            return self._leaf(kind, bound)
        if kind == "parse":
            return ast.ParseValue(self.text_expr(bound, beans, depth), self.features(_FEATURES_R))
        if kind == "parse_typed":
            if not beans:
                return self._leaf("lit", bound)
            bean = self.rng.choice(beans)
            return ast.ParseTyped(
                self.typed_text(bean, bound, beans, depth), bean.name, self.features(_FEATURES_R)
            )
        if kind == "serialize":
            return ast.Serialize(self.expr(bound, beans, depth + 1), self.features(_FEATURES_W))
        if kind == "get":
            accessor = (
                self.rng.choice(_KEYS)
                if self.rng.random() < 0.5
                else self.rng.randint(0, 4)
            )
            return ast.Get(
                self.expr(bound, beans, depth + 1), accessor, self.rng.choice(_AS_TYPES)
            )
        if kind == "path_eval":
            return ast.PathEval(self.expr(bound, beans, depth + 1), self.path())
        if kind == "is_valid":
            return ast.IsValid(self.text_expr(bound, beans, depth))
        if kind == "size":
            return ast.Size(self.expr(bound, beans, depth + 1))
        if kind == "strip_zeros":
            return ast.StripZeros(self.expr(bound, beans, depth + 1))
        if kind == "make_bean":
            bean = self.rng.choice(beans)
            names = [f.name for f in bean.fields]
            chosen = self.rng.sample(names, self.rng.randint(0, len(names)))
            return ast.MakeBean(
                bean.name,
                tuple((name, self.expr(bound, beans, depth + 1)) for name in chosen),
            )
        raise AssertionError(kind)

    def _leaf(self, kind: str, bound: list[str]) -> ast.Expr:
        if kind == "var":
            return ast.Var(self.rng.choice(bound))
        if kind == "str":
            return ast.Lit(self.text())
        return ast.Lit(self.json_value())

    def text_expr(self, bound, beans, depth) -> ast.Expr:
        roll = self.rng.random()
        if roll < 0.5:
            return ast.Lit(dump_value(self.json_value(), write_nulls=True))
        if roll < 0.7:
            return ast.Lit(self.text())
        return self.expr(bound, beans, depth + 1)

    def typed_text(self, bean: ast.BeanDef, bound, beans, depth) -> ast.Expr:
        """The text a parse_typed reads into `bean`."""
        return self.text_expr(bound, beans, depth)

    def path(self) -> str:
        steps = []
        for _ in range(self.rng.randint(0, 3)):
            if self.rng.random() < 0.5:
                steps.append("." + self.rng.choice(_KEYS))
            else:
                steps.append(f"[{self.rng.randint(0, 4)}]")
        return "$" + "".join(steps)

    def script(self) -> ast.Script:
        beans = self.beans()
        bound: list[str] = []
        statements: list[ast.Statement] = []
        for i in range(self.rng.randint(0, 5)):
            name = f"v{i}"
            statements.append(ast.Let(name, self.expr(bound, beans)))
            bound.append(name)
        for _ in range(self.rng.randint(1, 3)):
            statements.append(self.assertion(bound, beans))
        return ast.Script(beans, tuple(statements))

    def assertion(self, bound, beans) -> ast.Statement:
        kind = self.rng.choice(["eq", "null", "not_null", "throws"])
        if kind == "eq":
            return ast.AssertEq(self.expr(bound, beans), self.expr(bound, beans))
        if kind == "null":
            return ast.AssertNull(self.expr(bound, beans))
        if kind == "not_null":
            return ast.AssertNotNull(self.expr(bound, beans))
        return ast.AssertThrows(self.expr(bound, beans))


class WideScriptGen(ScriptGen):
    """A ScriptGen whose literals reach the edges the DSL must carry
    exactly: non-ASCII, escaped and lone-surrogate strings, int64 edges,
    decimals beyond int64 and beyond 4300 digits, exponents far beyond
    float range, and arrays and objects nested to jsontext's cap. Its
    beans nest lists deeper, its parse_typed texts mostly fit the bean
    with huge integral decimals in every decimal field, and its paths
    may end in an index of thousands of digits. It still never makes a
    scale-0 decimal within int64 range."""

    def json_value(self, depth: int = 0):
        if depth == 0 and self.rng.random() < 0.05:
            return self.nested(self.rng.randint(1, MAX_DEPTH))
        return super().json_value(depth)

    def nested(self, levels: int):
        value = super().json_value(depth=2)  # a scalar
        for _ in range(levels):
            value = [value] if self.rng.random() < 0.5 else {self.text(): value}
        return value

    def integer(self) -> int:
        if self.rng.random() < 0.5:
            return super().integer()
        return self.rng.choice(_INT64_EDGES)

    def decimal(self) -> Decimal:
        roll = self.rng.random()
        if roll < 0.4:
            return super().decimal()
        if roll < 0.6:
            return Decimal(self.rng.choice(_BEYOND_INT64))
        sign = self.rng.choice(["", "-"])
        if roll < 0.8:  # more digits than int() reads
            digits = str(self.rng.randint(10**49, 10**50 - 1)) * 87
            return Decimal(f"{sign}{digits}{self.rng.choice(['', '.5', 'E-7'])}")
        exponent = self.rng.choice([1, -1]) * self.rng.randint(400, 10**17)
        return Decimal(f"{sign}{self.rng.randint(1, 999)}E{exponent}")

    def text(self) -> str:
        if self.rng.random() < 0.5:
            return super().text()
        text = "".join(self.rng.choice(_WIDE_CHARS) for _ in range(self.rng.randint(1, 10)))
        return _SURROGATE_PAIR.sub(lambda m: m.group() + "a", text)

    def field_type(self, beans: list[ast.BeanDef]) -> ast.FieldType:
        ftype = super().field_type(beans)
        if self.rng.random() < 0.3:
            return ast.ListOf(ftype)
        return ftype

    def typed_text(self, bean: ast.BeanDef, bound, beans, depth) -> ast.Expr:
        """Mostly a document that fits `bean`, whose decimal fields,
        direct, listed or in nested beans, hold integral decimals beyond
        int64 of up to 5000 digits."""
        if self.rng.random() < 0.2:
            return super().typed_text(bean, bound, beans, depth)
        bean_map = {b.name: b for b in beans}
        return ast.Lit(dump_value(self.field_value(ast.BeanRef(bean.name), bean_map)))

    def field_value(self, ftype: ast.FieldType, beans: dict[str, ast.BeanDef]):
        if isinstance(ftype, ast.BeanRef):
            return {f.name: self.field_value(f.type, beans) for f in beans[ftype.name].fields}
        if isinstance(ftype, ast.ListOf):
            return [self.field_value(ftype.element, beans) for _ in range(self.rng.randint(0, 3))]
        if ftype.name == "decimal":
            return self.integral_beyond_int64()
        if ftype.name == "integer":
            return self.integer()
        if ftype.name == "boolean":
            return self.rng.random() < 0.5
        return self.text()

    def path(self) -> str:
        """Sometimes with a last index of 4290 to 5000 digits, around and
        beyond the 4300 that int() reads: out of range, or a small index
        behind leading zeros."""
        if self.rng.random() < 0.8:
            return super().path()
        count = self.rng.randint(4290, 5000)
        if self.rng.random() < 0.5:
            return f"{super().path()}[{self.digits(count)}]"
        return f"{super().path()}[{self.rng.randint(0, 4):0{count}}]"

    def digits(self, count: int) -> str:
        """`count` random decimal digits, the first of them nonzero."""
        first = self.rng.choice("123456789")
        return first + "".join(self.rng.choices(string.digits, k=count - 1))

    def integral_beyond_int64(self) -> Decimal:
        if self.rng.random() < 0.2:
            return Decimal(self.rng.choice(_BEYOND_INT64))
        # mostly more digits than int() reads
        count = self.rng.randint(20, 40) if self.rng.random() < 0.2 else self.rng.randint(4290, 5000)
        digits = self.digits(count)
        sign = self.rng.choice(["", "-"])
        return Decimal(f"{sign}{digits}{self.rng.choice(['', '.000', 'E+3'])}")


def generate_scripts(seed: int, count: int) -> list[ast.Script]:
    gen = ScriptGen(random.Random(seed))
    return [gen.script() for _ in range(count)]
