"""Engine outcomes of generated scripts: the golden file
`data/golden/outcomes.jsonl` pins them.

Each line covers one script: a fixed-seed `ScriptGen` or `WideScriptGen`
script, or a doubling chain whose value outgrows the work budget, so
that the step where `Error(Timeout)` begins pins how work is charged.
A line names the script and holds one SHA-256 digest over its outcome
`repr`s on `reference`, `reference-copy` and `planted:L1+L2+L3`, in that
order. The scripts are deterministic, so the file only changes when the
executor's or an engine's behaviour does.
To rewrite it after a deliberate change:

    python tests/outcome_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
if __name__ == "__main__":  # check this checkout's src/; under pytest, `pythonpath` picks it
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from jsonduel.backends import resolve_backend
from jsonduel.backends.executor import execute
from jsonduel.tdsl.parser import parse_script

from scriptgen import ScriptGen, WideScriptGen

GOLDEN = Path(__file__).parent / "data" / "golden" / "outcomes.jsonl"
ENGINES = ("reference", "reference-copy", "planted:L1+L2+L3")
SCRIPTS_PER_GENERATOR = 944
# Both chains run out of the default budget from step 14 on. A bean chain
# that does costs about 80 ms per engine, so bean chains stop at step 16.
CHAIN_STEPS = {"bean_chain": range(1, 17), "serialize_chain": range(1, 41)}


def bean_chain(steps: int, throws: bool = False) -> str:
    """Bean B<i> has two B<i-1> fields, so y<i> holds 2^i copies of y0."""
    beans = ["bean B0 { v: integer; }"]
    beans += [f"bean B{i} {{ a: B{i - 1}; b: B{i - 1}; }}" for i in range(1, steps + 1)]
    lets = ["let y0 = make_bean(B0, v = 1);"]
    lets += [f"let y{i} = make_bean(B{i}, a = y{i - 1}, b = y{i - 1});" for i in range(1, steps)]
    last = f"make_bean(B{steps}, a = y{steps - 1}, b = y{steps - 1})"
    return "\n".join(beans + lets + [_last_step(last, throws)])


def serialize_chain(steps: int, throws: bool = False) -> str:
    """s<i> = serialize(s<i-1>) from a lone quote: s<k> has 3 * 2^k - 2
    characters."""
    lets = ['let s0 = "\\"";'] + [f"let s{i} = serialize(s{i - 1});" for i in range(1, steps)]
    return "\n".join(lets + [_last_step(f"serialize(s{steps - 1})", throws)])


def _last_step(expr: str, throws: bool) -> str:
    return f"assert_throws({expr});" if throws else f"assert_not_null({expr});"


def scripts():
    """(source, index, script) of every script the file covers, in a
    fixed order: the source is a generator's name or a chain's."""
    for gen_type in (ScriptGen, WideScriptGen):
        gen = gen_type(random.Random(f"outcomes:{gen_type.__name__}"))
        for index in range(SCRIPTS_PER_GENERATOR):
            yield gen_type.__name__, index, gen.script()
    for chain in (bean_chain, serialize_chain):
        for throws in (False, True):
            source = chain.__name__ + ("+throws" if throws else "")
            for steps in CHAIN_STEPS[chain.__name__]:
                yield source, steps, parse_script(chain(steps, throws))


def record(source: str, index: int, script, engines) -> dict:
    """One golden line: the script and one digest over its outcomes on
    `engines`."""
    outcomes = "\n".join(repr(execute(script, engine)) for engine in engines)
    return {"source": source, "index": index, "outcomes_sha256": _digest(outcomes)}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()[:32]


if __name__ == "__main__":
    engines = [resolve_backend(name) for name in ENGINES]
    with GOLDEN.open("w", encoding="utf-8") as out:
        for source, index, script in scripts():
            line = record(source, index, script, engines)
            out.write(json.dumps(line, separators=(",", ":"), sort_keys=True) + "\n")
