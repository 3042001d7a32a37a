"""Builder for the 43-case labeled triage fixture.

The split mirrors the curated sample this harness targets: 10 bad tests
that error (E_bad), 10 good tests that error (E_good), 11 bad tests
that fail assertions (F_bad), 12 good tests that fail assertions
(F_good). Outcomes are real: every script is executed on the reference
engine before being recorded.
"""

from __future__ import annotations

import json
from pathlib import Path

from jsonduel.backends import resolve_backend
from jsonduel.backends.executor import execute
from jsonduel.backends.outcomes import Pass, outcome_to_dict
from jsonduel.classify.evaluate import Category
from jsonduel.tdsl.parser import parse_script

SPLIT = [
    (Category.E_BAD, 10),
    (Category.E_GOOD, 10),
    (Category.F_BAD, 11),
    (Category.F_GOOD, 12),
]

# Mis-classified cases per category (the first K of each), shaping the
# scripted confusion: 7/10, 4/10, 10/11, 10/12 correct.
WRONG = {Category.E_BAD: 3, Category.E_GOOD: 6, Category.F_BAD: 1, Category.F_GOOD: 2}


def _error_script(i: int) -> str:
    return f'let a = parse("broken {i}");\nassert_not_null(a);\n'


def _fail_script(i: int) -> str:
    return f"assert_eq({i}, {i + 1});\n"


def build_case_fixture(root: Path) -> Path:
    """Write scripts plus cases.jsonl under `root`; returns the JSONL path."""
    backend = resolve_backend("reference")
    root.mkdir(parents=True, exist_ok=True)
    lines = []
    counter = 0
    for category, count in SPLIT:
        for _ in range(count):
            source = (
                _error_script(counter)
                if category in (Category.E_BAD, Category.E_GOOD)
                else _fail_script(counter)
            )
            name = f"case{counter:02d}.t"
            (root / name).write_text(source, encoding="utf-8")
            outcome = execute(parse_script(source), backend)
            assert not isinstance(outcome, Pass)
            lines.append(
                json.dumps(
                    {
                        "script_path": name,
                        "outcome": outcome_to_dict(outcome),
                        "category": category.value,
                        "backend": "reference",
                    }
                )
            )
            counter += 1
    path = root / "cases.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def confusion_responses() -> list[str]:
    """Scripted responses: 6 unanimous votes per case, wrong for the
    first WRONG[category] cases of each category."""
    responses = []
    for category, count in SPLIT:
        expected = "good" if category in (Category.E_GOOD, Category.F_GOOD) else "bad"
        flipped = "bad" if expected == "good" else "good"
        for i in range(count):
            label = flipped if i < WRONG[category] else expected
            responses.extend([f"This test is a {label} test."] * 6)
    return responses
