"""Labeled failing cases and per-category triage accuracy.

The labeled-case file is JSONL, one case per line:
{"script_path": ..., "outcome": {...}, "category": "E_bad", "backend": ...}
with script paths relative to the file. Accuracy is reported per
category and as the case-weighted average.
"""

from __future__ import annotations

import enum
import json
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from ..backends.outcomes import Error, Pass, TestOutcome, outcome_from_dict
from ..corpus import decode_json, read_text
from ..llm.client import LlmClient, ModelError, prepare_request
from ..llm.generation import GenParams
from ..tdsl.ast import Script
from ..tdsl.parser import DslError, parse_script
from .prompts import ClassifyMode, build_classify_prompt
from .voting import VOTE_COUNT, ClassificationResult, Verdict, classify

# Cases whose votes `classify_cases` keeps open at once, so the most requests
# open at once (the pool's size); one more case waits in the pool's queue.
CASES_IN_FLIGHT = 8
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
        errored = {"E": True, "F": False}.get(self.category.value[0])  # None: unlabeled
        if errored is not None and errored != isinstance(self.outcome, Error):
            kind = "an error" if errored else "a fail"
            raise ValueError(f"category {self.category.value} needs {kind} outcome")


def load_cases(path: Path | str) -> list[FailedCase]:
    """Load a labeled-case JSONL file."""
    path = Path(path)
    cases: list[FailedCase] = []
    for lineno, line in enumerate(read_text(path, "cases file").splitlines(), 1):
        if not line.strip():
            continue
        try:
            data = decode_json(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed JSON: {exc}") from None
        if not isinstance(data, dict) or not isinstance(data.get("script_path"), str):
            raise ValueError(f"{path}:{lineno}: not an object with a string script_path")
        script_path = path.parent / data["script_path"]
        try:
            text = read_text(script_path, "case script")
            script = parse_script(text)
            if not isinstance(data.get("outcome"), dict):
                raise ValueError("outcome is not an object")
            outcome = outcome_from_dict(data["outcome"])
            backend = data.get("backend", "reference")
            if not isinstance(backend, str):
                raise ValueError("backend is not a string")
            category = Category(data.get("category", "unknown"))
            cases.append(FailedCase(script, text, outcome, backend, category))
        except DslError as exc:
            raise ValueError(f"{path}:{lineno}: {script_path}: {exc}") from None
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: outcome has no {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return cases


@dataclass(frozen=True)
class CaseResult:
    category: Category
    result: ClassificationResult

    @property
    def correct(self) -> bool:
        return self.result.final is self.category.expected_verdict


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
        CaseResult(case.category, result)
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

    One pool of `OPEN_REQUESTS` workers serves every case, so at most that
    many requests are open: the votes of `CASES_IN_FLIGHT` cases. One more
    case waits prepared in the pool's queue, so a worker freed by a finished
    vote takes up the next request at once. Case k + `CASES_IN_FLIGHT` + 1
    is queued as case k is yielded: a caller that stops asking sends at most
    that case, and a close or an abort cancels it while it is queued.
    Requests are prepared on the calling thread (`prepare_request`) in case
    order, then slot order, so an offline client's replies land in the same
    slots on every run. The first case with a failed slot decides an abort
    (see `classify`): its `ModelError` is raised again with the case's index
    in front. The generator returns, raises or is closed without joining the
    pool: idle workers exit on their own, and running votes finish unread.
    """
    pool = ThreadPoolExecutor(max_workers=OPEN_REQUESTS)

    def send(case: FailedCase):
        prompt = tuple(build_classify_prompt(case, mode))
        return [
            pool.submit(prepare_request(client, prompt, params)) for _ in range(VOTE_COUNT)
        ]

    try:
        sent = deque(map(send, cases[: CASES_IN_FLIGHT + 1]))
        for index in range(len(cases)):
            try:
                result = classify(sent.popleft())
            except ModelError as exc:
                raise ModelError(f"case {index}: {exc}") from exc
            if (later := index + 1 + len(sent)) < len(cases):
                sent.append(send(cases[later]))
            yield result
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


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
