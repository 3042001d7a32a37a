"""The in-repo JSON engine: the corrected behavior every bug is judged against.
It knows no planted bug; `planted.py` subclasses it to plant them.

Feature semantics (normative; docs/features.md carries the full table):

Reader features
  TrimString               strip leading/trailing whitespace of string
                           values (not keys) at parse time.
  AllowSingleQuotes        additionally accept single-quoted strings/keys.
  UseNativeObject          number literals written with a fraction or
                           exponent that denote an exact signed-64-bit
                           integer decode to a native Int instead of an
                           exact Dec; observable only via getter type.
  UseBigDecimalForFloats   fraction/exponent literals always keep exact
                           decimal digits; overrides UseNativeObject's
                           narrowing when both are set.

Writer features
  WriteNonStringValueAsString  quote non-string scalars (Bool/Int/Dec);
                               null is unaffected.
  WriteBooleanAsNumber         true -> 1, false -> 0 (applied before
                               WriteNonStringValueAsString).
  WriteNulls                   emit null-valued object members, which
                               are omitted by default.
  PrettyFormat                 2-space indented multi-line output.

The JSONPath subset is root `$`, dot members and bracket indexes; a step
that does not resolve yields null rather than an error.

Round-trip note: parse(serialize(v)) == v holds for every value except
two text-format blind spots: object members holding null are omitted
unless WriteNulls is set, and an integral scale-0 Dec within the 64-bit
range prints as a bare integer token, which re-parses as Int (exactly
as a big-decimal 7 serializes to "7" and parses back as a long).
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, Union

from .. import jsontext
from ..tdsl import ast
from ..values import dump_value, kind
from .coerce import bind_bean, coerce_value
from .outcomes import BackendError, ErrorKind

_PATH_STEP_RE = re.compile(r"\.([A-Za-z_][A-Za-z0-9_]*)|\[([0-9]+)\]")

# The ParseOptions field, or dump_value keyword, that each feature turns on.
_SWITCHES = {
    ast.ReaderFeature.TRIM_STRING: "trim_strings",
    ast.ReaderFeature.USE_NATIVE_OBJECT: "narrow_integral_floats",
    ast.ReaderFeature.USE_BIG_DECIMAL_FOR_FLOATS: "keep_exact_floats",
    ast.ReaderFeature.ALLOW_SINGLE_QUOTES: "single_quotes",
    ast.WriterFeature.WRITE_NON_STRING_VALUE_AS_STRING: "nonstring_as_string",
    ast.WriterFeature.WRITE_BOOLEAN_AS_NUMBER: "bool_as_number",
    ast.WriterFeature.WRITE_NULLS: "write_nulls",
    ast.WriterFeature.PRETTY_FORMAT: "pretty",
}


class ReferenceBackend:
    """Deterministic, stateless, feature-complete JSON engine."""

    def __init__(self, name: str = "reference"):
        self.name = name

    # -- parsing --

    def _options(self, features: Iterable[ast.ReaderFeature]) -> jsontext.ParseOptions:
        if not features:  # the common case
            return jsontext.DEFAULT_OPTIONS
        return jsontext.ParseOptions(**{_SWITCHES[feature]: True for feature in features})

    def validate(self, text: str) -> bool:
        try:
            jsontext.parse_document(text)
            return True
        except jsontext.JsonTextError:
            return False

    def parse(self, text: str, features: Iterable[ast.ReaderFeature] = ()):
        try:
            return jsontext.parse_document(text, self._options(features))
        except jsontext.JsonTextError as exc:
            raise BackendError(ErrorKind.PARSE_ERROR, str(exc)) from None

    def parse_typed(
        self,
        text: str,
        bean: ast.BeanDef,
        beans: Mapping[str, ast.BeanDef],
        features: Iterable[ast.ReaderFeature] = (),
    ) -> dict:
        value = self.parse(text, features)
        if kind(value) != "obj":
            raise BackendError(
                ErrorKind.TYPE_CAST_ERROR,
                f"cannot bind {kind(value)} to bean {bean.name}",
            )
        return bind_bean(value, bean, beans)

    # -- serialization --

    def serialize(self, value, features: Iterable[ast.WriterFeature] = ()) -> str:
        return dump_value(value, **{_SWITCHES[feature]: True for feature in features})

    # -- access --

    def get(self, value, accessor: Union[str, int], as_type: ast.AsType):
        if value is None:
            raise BackendError(ErrorKind.NULL_ACCESS, "member access on null")
        if isinstance(accessor, str):
            if kind(value) != "obj":
                raise BackendError(
                    ErrorKind.TYPE_CAST_ERROR, f"key access on {kind(value)}"
                )
            item = value.get(accessor)
        else:
            if kind(value) != "arr":
                raise BackendError(
                    ErrorKind.TYPE_CAST_ERROR, f"index access on {kind(value)}"
                )
            item = value[accessor] if 0 <= accessor < len(value) else None
        if item is None:
            if as_type is ast.AsType.VALUE:
                return None
            raise BackendError(
                ErrorKind.NULL_ACCESS,
                f"missing or null member {accessor!r} read as {as_type.value}",
            )
        return coerce_value(item, as_type)

    # -- paths --

    def path_eval(self, target, path: str):
        steps = _parse_path(path)
        if isinstance(target, str):
            try:
                target = jsontext.parse_document(target)
            except jsontext.JsonTextError as exc:
                raise BackendError(ErrorKind.PARSE_ERROR, str(exc)) from None
        for step in steps:
            target = _step(target, step)
        return target


def _parse_path(path: str) -> list[Union[str, int]]:
    if not path.startswith("$"):
        raise BackendError(ErrorKind.PATH_ERROR, f"path must start with '$': {path!r}")
    steps: list[Union[str, int]] = []
    pos = 1
    while pos < len(path):
        match = _PATH_STEP_RE.match(path, pos)
        if match is None:
            raise BackendError(
                ErrorKind.PATH_ERROR, f"invalid path step at offset {pos} in {path!r}"
            )
        member, index = match.groups()
        # At most 19 significant digits: beyond any array, and int() reads no more than 4300.
        steps.append(member if member is not None else int(index.lstrip("0")[:19] or 0))
        pos = match.end()
    return steps


def _step(current, step: Union[str, int]):
    """One path step from `current`: null where the step does not resolve."""
    if isinstance(step, str):
        return current.get(step) if kind(current) == "obj" else None
    return current[step] if kind(current) == "arr" and step < len(current) else None
