"""Labeled failing cases and per-category triage accuracy.

The labeled-case file is JSONL, one case per line:
{"script_path": ..., "outcome": {...}, "category": "E_bad", "backend": ...}
with script paths relative to the file. Accuracy is reported per
category and as the case-weighted average.
"""

from __future__ import annotations

import enum
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterator

from ..backends.outcomes import Pass, TestOutcome, outcome_from_dict
from ..llm.client import LlmClient, send_ahead
from ..llm.generation import GenParams
from ..tdsl.ast import Script
from ..tdsl.errors import DslError
from ..tdsl.parser import parse_script
from .prompts import ClassifyMode
from .voting import (
    VOTE_COUNT,
    ClassificationAborted,
    ClassificationResult,
    Verdict,
    classify,
    send_votes,
)

# Cases whose votes `classify_cases` keeps open at once, and the most
# model requests that are open at once as a result.
CASES_IN_FLIGHT = 4
OPEN_REQUESTS = VOTE_COUNT * CASES_IN_FLIGHT


class Category(enum.Enum):
    E_BAD = "E_bad"    # bad test that triggered an exception
    E_GOOD = "E_good"  # good test that triggered an exception
    F_BAD = "F_bad"    # bad test that failed at an assertion
    F_GOOD = "F_good"  # good test that failed at an assertion
    UNKNOWN = "unknown"

    @property
    def expected_verdict(self) -> Verdict:
        if self in (Category.E_GOOD, Category.F_GOOD):
            return Verdict.GOOD
        if self in (Category.E_BAD, Category.F_BAD):
            return Verdict.BAD
        raise ValueError("unknown category has no expected verdict")


LABELED_CATEGORIES = (Category.E_BAD, Category.E_GOOD, Category.F_BAD, Category.F_GOOD)


@dataclass(frozen=True)
class FailedCase:
    script: Script
    script_text: str
    outcome: TestOutcome
    backend: str = "reference"
    category: Category = Category.UNKNOWN

    def __post_init__(self):
        if isinstance(self.outcome, Pass):
            raise ValueError("a failed case cannot carry a Pass outcome")


def load_cases(path: Path | str) -> list[FailedCase]:
    """Load a labeled-case JSONL file."""
    path = Path(path)
    cases: list[FailedCase] = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: malformed JSON: {exc.msg}") from None
        if not isinstance(data, dict) or not isinstance(data.get("script_path"), str):
            raise ValueError(f"{path}:{lineno}: not an object with a string script_path")
        script_path = path.parent / data["script_path"]
        try:
            text = script_path.read_text(encoding="utf-8")
            script = parse_script(text)
            if not isinstance(data.get("outcome"), dict):
                raise ValueError("outcome is not an object")
            outcome = outcome_from_dict(data["outcome"])
            category = Category(data.get("category", "unknown"))
            cases.append(FailedCase(script, text, outcome, data.get("backend", "reference"), category))
        except (DslError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}:{lineno}: {script_path}: {exc}") from None
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: outcome has no {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return cases


@dataclass(frozen=True)
class CaseResult:
    category: Category
    expected: Verdict
    result: ClassificationResult

    @property
    def correct(self) -> bool:
        return self.result.final is self.expected


@dataclass(frozen=True)
class AccuracyReport:
    mode: ClassifyMode
    case_results: tuple[CaseResult, ...]

    def counts(self, category: Category) -> tuple[int, int]:
        members = [r for r in self.case_results if r.category is category]
        return sum(1 for r in members if r.correct), len(members)

    def accuracy(self, category: Category) -> float:
        correct, total = self.counts(category)
        if total == 0:
            raise ValueError(f"no cases in category {category.value}")
        return 100.0 * correct / total

    def average(self) -> float:
        correct = sum(1 for r in self.case_results if r.correct)
        return 100.0 * correct / len(self.case_results)


def evaluate_accuracy(
    cases: list[FailedCase],
    mode: ClassifyMode,
    client: LlmClient,
    params: GenParams = GenParams(),
) -> AccuracyReport:
    """Classify every labeled case with `classify_cases` and tabulate
    per-category accuracy."""
    if not cases:
        raise ValueError("nothing to evaluate: empty case list")
    if any(case.category is Category.UNKNOWN for case in cases):
        raise ValueError("evaluation requires ground-truth categories")
    results = tuple(
        CaseResult(case.category, case.category.expected_verdict, result)
        for result, case in zip(classify_cases(cases, mode, client, params), cases)
    )
    return AccuracyReport(mode=mode, case_results=results)


def classify_cases(
    cases: list[FailedCase],
    mode: ClassifyMode,
    client: LlmClient,
    params: GenParams,
) -> Iterator[ClassificationResult]:
    """Classify each case, yielding one result per case in list order.

    Up to `CASES_IN_FLIGHT` cases have their votes open at once, so at
    most `OPEN_REQUESTS` requests are, on one pool of that many workers
    that serves every case. The votes of case k + `CASES_IN_FLIGHT` are
    sent once case k's result is taken (`send_ahead`). Every request is
    prepared on the calling thread in case order, then slot order (see
    `send_votes`).
    The first case in list order with a failed slot decides an abort
    (see `classify`); `ClassificationAborted.case_index` names that case,
    and no request is sent after it.
    """
    with ThreadPoolExecutor(max_workers=OPEN_REQUESTS) as pool:
        send = partial(send_votes, mode=mode, client=client, params=params, pool=pool)
        for index, (_, votes) in enumerate(send_ahead(cases, send, CASES_IN_FLIGHT)):
            try:
                yield classify(votes)
            except ClassificationAborted as exc:
                exc.case_index = index
                raise


def render_accuracy_text(report: AccuracyReport) -> str:
    """Aligned one-row table: per-category accuracies plus the average."""
    present = [c for c in LABELED_CATEGORIES if report.counts(c)[1]]
    headers = [c.value for c in present] + ["avg."]
    values = [f"{report.accuracy(c):.1f}" for c in present] + [f"{report.average():.1f}"]
    label = report.mode.value.upper().replace("-COT", "-CoT")
    width = max(len(h) for h in headers + values) + 2
    head = "mode".ljust(8) + "".join(h.rjust(width) for h in headers)
    row = label.ljust(8) + "".join(v.rjust(width) for v in values)
    return f"{head}\n{row}\n"


def render_accuracy_json(report: AccuracyReport) -> str:
    per_category = {}
    for category in LABELED_CATEGORIES:
        correct, total = report.counts(category)
        if total:
            per_category[category.value] = {
                "correct": correct,
                "total": total,
                "accuracy": round(report.accuracy(category), 1),
            }
    payload = {
        "mode": report.mode.value,
        "per_category": per_category,
        "cases": len(report.case_results),
        "average": round(report.average(), 1),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
