"""One-character mutations of generated scripts, and what the parser makes
of each: the golden file `data/golden/parse_errors.jsonl` pins them.

Each mutation deletes, inserts or replaces one character of a printed
`ScriptGen` or `WideScriptGen` script. Its outcome is the error's class,
reason, line and column, or, where the text still parses, a SHA-256
digest of the AST's `repr` (the reprs alone run to 1.7 MB). The
mutations are deterministic, so the file only changes when the
parser's behaviour does. To rewrite it after a deliberate change:

    PYTHONPATH=src python tests/parse_mutants.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from jsonduel.tdsl.errors import DslError
from jsonduel.tdsl.parser import parse_script
from jsonduel.tdsl.printer import print_script

from scriptgen import ScriptGen, WideScriptGen

GOLDEN = Path(__file__).parent / "data" / "golden" / "parse_errors.jsonl"
SCRIPTS_PER_GENERATOR = 100
MUTATIONS_PER_SCRIPT = 10
# Token starts and ends, JSON escapes and number parts, whitespace the
# tokenizer skips and some it does not, and characters no token takes.
ALPHABET = '{}()[],;:=<>"\\-+.0123456789eEaxuz_ \t\r\n\'é\x01\x0b/$'


def mutants():
    """(generator, script index, operation, offset, character, text) of
    every mutation, in a fixed order."""
    for gen_type in (ScriptGen, WideScriptGen):
        gen = gen_type(random.Random(f"mutants:{gen_type.__name__}"))
        rng = random.Random(f"mutations:{gen_type.__name__}")
        for index in range(SCRIPTS_PER_GENERATOR):
            text = print_script(gen.script())
            for _ in range(MUTATIONS_PER_SCRIPT):
                op = rng.choice(("delete", "insert", "replace"))
                pos = rng.randrange(len(text) + (op == "insert"))
                char = "" if op == "delete" else rng.choice(ALPHABET)
                mutated = text[:pos] + char + text[pos + (op != "insert"):]
                yield gen_type.__name__, index, op, pos, char, mutated


def outcome(text: str) -> dict:
    """What parsing `text` gives: an error's class, reason, line and
    column, or the digest of the AST's repr."""
    try:
        return {"ast_sha256": _digest(repr(parse_script(text)))}
    except DslError as exc:
        reason = getattr(exc, "reason", str(exc))
        return {"error": [type(exc).__name__, reason, getattr(exc, "line", None), getattr(exc, "col", None)]}


def record(gen: str, index: int, op: str, pos: int, char: str, text: str) -> dict:
    """One golden line: the mutation, a digest of its text and its outcome."""
    return {"gen": gen, "script": index, "op": op, "pos": pos, "char": char,
            "text_sha256": _digest(text), **outcome(text)}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()[:32]


if __name__ == "__main__":
    with GOLDEN.open("w", encoding="utf-8") as out:
        for mutant in mutants():
            out.write(json.dumps(record(*mutant), ensure_ascii=True, sort_keys=True) + "\n")
