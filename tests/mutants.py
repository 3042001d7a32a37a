"""Hand-written one-line mutants of the program, and whether tier-1 kills
each.

Each entry of `MUTANTS` has a name, a file under `src/jsonduel/`, the
text it replaces, the text it puts in its place, and why the change
matters. The old text occurs exactly once in `src/`; a tier-1 test
checks this, so the list cannot go stale unnoticed. An entry marked
`equivalent` cannot change any outcome, and its reason says why; it is
expected to survive.

To score the list (tier-1 once per mutant, so it takes minutes and is not
part of tier-1 itself):

    python tests/mutants.py [pytest arguments, e.g. a subset of tests]

Each mutant is applied alone to a temporary copy of `src/`, tier-1 runs
against that copy, and one line per mutant says `killed` or `survived`;
a killed mutant's line names the first test that failed, so a flaky
failure can be told from a kill. The exit status is 1 if a mutant that is
not equivalent survives. A run without pytest arguments also writes those
lines to `data/mutants.txt`, the committed kill table; a run on a subset
leaves it as it is. A tier-1 test checks that the table names exactly the
mutants listed here, and a test for each killed one.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TABLE = ROOT / "tests" / "data" / "mutants.txt"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/jsonduel
    old: str
    new: str
    reason: str
    equivalent: bool = False


MUTANTS = [
    Mutant(
        "key-count",
        "values.py",
        'elif ka == "obj" and a.keys() == b.keys():',
        'elif ka == "obj" and len(a) == len(b):',
        "objects compare key counts, not key sets: `assert_eq({\"x\": 1}, {\"y\": 1});` "
        "raises KeyError out of `execute`",
    ),
    Mutant(
        "negative-index",
        "backends/reference.py",
        "value[accessor] if 0 <= accessor < len(value) else None",
        "value[accessor] if -len(value) <= accessor < len(value) else None",
        "`get` reads a negative index from the end, where features.md makes it out of range",
    ),
    Mutant(
        "boolean-any-case",
        "backends/coerce.py",
        'if k == "str" and value in ("true", "false"):',
        'if k == "str" and value.lower() in ("true", "false"):',
        "the boolean getter accepts \"TRUE\", where features.md takes \"true\"/\"false\" only",
    ),
    Mutant(
        "pool-smaller-than-window",
        "classify/evaluate.py",
        "ThreadPoolExecutor(max_workers=OPEN_REQUESTS)",
        "ThreadPoolExecutor(max_workers=OPEN_REQUESTS // 2)",
        "triage's pool holds half its send window, so only half the open requests "
        "are in flight at once",
    ),
    Mutant(
        "triage-joins-workers",
        "classify/evaluate.py",
        "pool.shutdown(wait=False,",
        "pool.shutdown(wait=True,",
        "triage joins its idle workers before it returns, and an abort or a close "
        "waits for the votes of later cases that are still running and unread",
    ),
    Mutant(
        "no-case-queued",
        "classify/evaluate.py",
        "cases[: CASES_IN_FLIGHT + 1]",
        "cases[:CASES_IN_FLIGHT]",
        "triage keeps only the open window sent, with no case waiting in the pool's "
        "queue, so the workers a finished case frees sit idle until the next case is sent",
    ),
    Mutant(
        "queued-case-not-cancelled",
        "classify/evaluate.py",
        ", cancel_futures=True)",
        ")",
        "a close or an abort leaves the queued case in the pool's queue, so its votes "
        "are still sent once a worker is free",
    ),
    Mutant(
        "429-fails-fast",
        "llm/client.py",
        " or response.status_code == 429:",
        ":",
        "a 429 (too many requests) is not retried, so one busy moment of a live "
        "service aborts a whole triage or run",
    ),
    Mutant(
        "deep-json-escapes",
        "corpus.py",
        "except RecursionError:",
        "except ():",
        "a JSON input nested too deep for the decoder ends in a RecursionError "
        "traceback, not a usage error naming its file",
    ),
    Mutant(
        "usage-arm-narrow",
        "pipeline/cli.py",
        "except (OSError, ValueError) as exc:",
        "except OSError as exc:",
        "bad input (a config, manifest, script or replay miss) ends in a traceback, "
        "not one `error:` line and exit 1",
    ),
    Mutant(
        "nesting-cap-back",
        "tdsl/parser.py",
        "if depth > MAX_EXPR_DEPTH:",
        "if depth > jsontext.MAX_DEPTH:",
        "expressions nest up to 256 calls again, and a script the parser accepts "
        "can run out of stack inside `execute`",
    ),
    Mutant(
        "json-flag-ignored",
        "pipeline/cli.py",
        "if args.json and not labeled:",
        "if False:",
        "`classify --json` on unlabeled cases prints per-case text and exits 0, "
        "silently dropping the table it was asked for",
    ),
    Mutant(
        "assertion-index-any-number",
        "backends/outcomes.py",
        "if type(index) is not int or index < 0:",
        "if index < 0:",
        "a triage case's assertion index may be any number again: 1.5 and `true` are "
        "taken as they are, and 1e999 reaches the prompt as `inf`",
    ),
    Mutant(
        "case-not-named",
        "classify/evaluate.py",
        'f"case {index}: {exc}"',
        "str(exc)",
        "an aborted triage no longer names the case whose vote request failed: "
        "`classify` exits 2 with `error: classification aborted ...` and no `case <i>:`",
    ),
    Mutant(
        "votes-not-counted",
        "classify/voting.py",
        "sum(f.exception() is None for f in sent)",
        "len(sent)",
        "an aborted case's message counts the failed slot as a vote that arrived, so "
        "`classify` reports six votes where five came back",
    ),
    Mutant(
        "summary-request-rebuilt",
        "pipeline/runner.py",
        "build_context(request, summary, task.rule)",
        "build_context(build_summary_request(task.seed.script_text), summary, task.rule)",
        "each conversation rebuilds its seed's summary request instead of holding the "
        "messages that request sent, so a run keeps one more copy of the seed text per rule",
    ),
    Mutant(
        "names-not-interned",
        "tdsl/parser.py",
        "return sys.intern(name)",
        "return name",
        "names are no longer interned, so every AST keeps its own copy of each bean, "
        "field and variable name",
    ),
    Mutant(
        "names-kept-between-parses",
        "tdsl/parser.py",
        "return sys.intern(name)",
        "return _Parser.__init__.__dict__.setdefault(name, sys.intern(name))",
        "the parser keeps every name it has read in a table that outlives the parse, "
        "so a long campaign holds each distinct name until the process exits",
    ),
    Mutant(
        "path-index-18-digits",
        "backends/reference.py",
        'int(index.lstrip("0")[:19] or 0)',
        'int(index.lstrip("0")[:18] or 0)',
        "a path index keeps 18 significant digits, not 19: only an index of 19 or more "
        "digits changes, and it reads as at least 10**17 either way, beyond any array, "
        "so the step is null in both",
        equivalent=True,
    ),
]


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's old text occurs across `src/`."""
    return sum(
        path.read_text(encoding="utf-8").count(mutant.old) for path in SRC.rglob("*.py")
    )


def first_failure(mutant: Mutant, pytest_args: list[str]) -> str | None:
    """The node id of the first test that fails in tier-1 (or the given
    subset) with `mutant` applied to a temporary copy of `src/`, or None
    if every test passes. A failing run that names no test is described
    by its exit status."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "jsonduel" / mutant.file
        text = target.read_text(encoding="utf-8")
        target.write_text(text.replace(mutant.old, mutant.new, 1), encoding="utf-8")
        # `test_mutants.py` checks this list and the committed table, not the
        # copy, so it cannot tell a mutant; while the table is out of date it
        # fails under every mutant, which would count each one as killed.
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "--ignore=tests/test_mutants.py",
             "-o", f"pythonpath={src}", *pytest_args],
            cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
        )
        if proc.returncode == 0:
            return None
        named = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", proc.stdout, re.M)
        return named[1] if named else f"no test named, exit status {proc.returncode}"


def main(pytest_args: list[str]) -> int:
    missed, lines = 0, []
    for mutant in MUTANTS:
        if occurrences(mutant) != 1:
            raise SystemExit(f"{mutant.file}: old text does not occur exactly once: {mutant.old!r}")
        failure = first_failure(mutant, pytest_args)
        status = "killed" if failure else "survived"
        missed += status == "survived" and not mutant.equivalent
        label = f"{status} (equivalent)" if mutant.equivalent else status
        by = f" by {failure}" if failure else ""
        lines.append(f"{label:<22} {mutant.name} ({mutant.file}){by}: {mutant.reason}")
        print(lines[-1], flush=True)
    if not pytest_args:
        TABLE.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
