"""Replay-scenario builder for the planted-bug end-to-end fixture.

Mirrors the runner's deterministic rule draws (RNG seed 42, corpus
order, three generations per seed) and records one canned response per
generation context: the first generation of every seed regenerates the
known bug-triggering script for that seed's defect class, the other six
are benign variants that behave identically on every engine.
"""

from __future__ import annotations

import random
from pathlib import Path

from jsonduel.corpus import Corpus
from jsonduel.llm.generation import MutationMode, pick_rule
from jsonduel.llm.prompts import build_context, build_summary_request

from clientfix import RecordingScenario

SUMMARIES = {
    "issue1204": (
        "This unit test focuses on serializing a decimal value and parsing "
        "it back, asserting the round trip preserves the exact value."
    ),
    "issue1874": (
        "This unit test focuses on serializing a bean whose boolean field "
        "is written as a number, asserting the exact JSON output."
    ),
    "issue1965": (
        "This unit test focuses on JSONPath evaluation over an object and "
        "its serialized string, asserting both results are non-null."
    ),
}

BUGGY_SCRIPTS = {
    # decimal seed -> typed-parse overflow of 9223372036854775808
    "issue1204": (
        "bean Box { v: decimal; }\n"
        "let d = 9223372036854775808;\n"
        "let s = serialize(d);\n"
        'assert_eq("9223372036854775808", s);\n'
        'let b = parse_typed("{\\"v\\":9223372036854775808}", Box);\n'
        'assert_eq(strip_zeros(d), get(b, "v", decimal));\n'
    ),
    # boolean seed -> quoting under WriteNonStringValueAsString
    "issue1874": (
        "bean Bean { b: boolean; }\n"
        "let b = make_bean(Bean, b = true);\n"
        "let json = serialize(b, [WriteNonStringValueAsString]);\n"
        'assert_eq("{\\"b\\":\\"true\\"}", json);\n'
    ),
    # path seed -> string-vs-object evaluation of $.data[0][0]
    "issue1965": (
        'let obj = {"data": [1]};\n'
        "let str = serialize(obj);\n"
        'assert_eq(path_eval(str, "$.data[0][0]"), path_eval(obj, "$.data[0][0]"));\n'
    ),
}

BENIGN_SCRIPTS = [
    'let a = parse("[1, 2, 3]");\nassert_eq(3, size(a));\n',
    (
        "bean P { name: string; age: integer; }\n"
        'let p = parse_typed("{\\"name\\":\\"ann\\",\\"age\\":41}", P);\n'
        'assert_eq("ann", get(p, "name", string));\n'
        'assert_eq(41, get(p, "age", integer));\n'
    ),
    'assert_eq(true, is_valid("{}"));\nassert_eq(false, is_valid("nope"));\n',
    (
        'let o = {"data": [5]};\n'
        'assert_eq(5, path_eval(o, "$.data[0]"));\n'
        'assert_eq(5, path_eval(serialize(o), "$.data[0]"));\n'
    ),
    (
        "bean Flag { b: boolean; }\n"
        "let f = make_bean(Flag, b = false);\n"
        'assert_eq("{\\"b\\":0}", serialize(f, [WriteBooleanAsNumber]));\n'
    ),
    (
        'assert_throws(parse("{invalid"));\n'
        'assert_null(get({"a": 1}, "missing", value));\n'
    ),
]


def wrap_response(script_text: str) -> str:
    return f"Here is a new unit test:\n```\n{script_text}```\n"


def build_planted_scenario(
    corpus: Corpus,
    rng_seed: int = 42,
    mutation: MutationMode = MutationMode.RANDOM_ONE,
    n_per_seed: int = 3,
) -> RecordingScenario:
    """Record summaries plus 3 generations per seed (bug first, then benign)."""
    scenario = RecordingScenario()
    for seed in corpus.seeds:
        scenario.record(build_summary_request(seed.script_text), SUMMARIES[seed.id])

    rng = random.Random(rng_seed)
    benign = iter(BENIGN_SCRIPTS)
    for seed in corpus.seeds:
        for replicate in range(n_per_seed):
            rule = pick_rule(rng, mutation)
            context = build_context(build_summary_request(seed.script_text), SUMMARIES[seed.id], rule)
            script = BUGGY_SCRIPTS[seed.id] if replicate == 0 else next(benign)
            scenario.record(context, wrap_response(script))
    return scenario


def write_planted_scenario(corpus: Corpus, path: Path, **kwargs) -> Path:
    build_planted_scenario(corpus, **kwargs).save(path)
    return path
