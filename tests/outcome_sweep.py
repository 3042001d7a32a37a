"""Engine outcomes of 12,000 generated scripts at six work budgets: the
golden file `data/golden/outcome_sweep.txt` pins them, one SHA-256 per
budget.

The scripts are one `ScriptGen` and one `WideScriptGen` script per seed,
for seeds 0-5999. Each runs on the engines of `outcome_golden.py`
(`reference`, `reference-copy` and `planted:L1+L2+L3`) at the default
budget and at budgets 5, 20, 60, 300 and 3000. A budget's digest covers
the outcome `repr`s of every script on every engine, in that order, so
a change to how work is charged, or to any engine's outcome, moves at
least one line. The sweep is run by hand, not by tier-1; it takes about
5 s on a 2-vCPU machine. To compare the program with the file (exit
status 1 on any mismatch), or to rewrite it after a deliberate change:

    python tests/outcome_sweep.py --check
    python tests/outcome_sweep.py
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
if __name__ == "__main__":  # check this checkout's src/; under pytest, `pythonpath` picks it
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from jsonduel.backends import resolve_backend
from jsonduel.backends.executor import DEFAULT_LIMITS, ExecutionLimits, execute

from outcome_golden import ENGINES
from scriptgen import ScriptGen, WideScriptGen

GOLDEN = Path(__file__).parent / "data" / "golden" / "outcome_sweep.txt"
SEEDS = range(6000)
BUDGETS = {
    "default": DEFAULT_LIMITS,
    **{str(budget): ExecutionLimits(budget) for budget in (5, 20, 60, 300, 3000)},
}


def scripts():
    """Every script of the sweep, in a fixed order."""
    for seed in SEEDS:
        for gen_type in (ScriptGen, WideScriptGen):
            yield gen_type(random.Random(seed)).script()


def digests() -> dict[str, str]:
    """One SHA-256 per budget over every script's outcomes on every engine."""
    engines = [resolve_backend(name) for name in ENGINES]
    hashes = {name: hashlib.sha256() for name in BUDGETS}
    for script in scripts():
        for name, limits in BUDGETS.items():
            for engine in engines:
                outcome = repr(execute(script, engine, limits)) + "\n"
                hashes[name].update(outcome.encode("utf-8", "surrogatepass"))
    return {name: digest.hexdigest() for name, digest in hashes.items()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the golden file")
    args = parser.parse_args(argv)
    lines = [f"{name} {digest}" for name, digest in digests().items()]
    if not args.check:
        GOLDEN.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return 0
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    mismatched = [line for line in lines if line not in expected]
    for line in mismatched:
        name, digest = line.split()
        print(f"mismatch: budget {name} now gives {digest}")
    return 1 if mismatched or len(expected) != len(lines) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
