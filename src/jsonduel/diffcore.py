"""Cross-engine comparison, candidate-bug verdicts and deduplication.

Outcomes are projected to comparison keys — PASS, FAIL(assertion index)
or ERR(kind) — and a script is inconsistent iff at least two engines
disagree on the key. Message text and value reprs never participate:
the oracle compares final outcomes only, not intermediate output.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, replace
from typing import Mapping

from .backends.outcomes import Error, Fail, Pass, TestOutcome
from .tdsl import ast
from .tdsl.printer import print_script


class VerdictStatus(enum.Enum):
    CONSISTENT = "consistent"
    INCONSISTENT = "inconsistent"


def outcome_key(outcome: TestOutcome) -> tuple:
    if isinstance(outcome, Pass):
        return ("PASS",)
    if isinstance(outcome, Fail):
        return ("FAIL", outcome.assertion_index)
    return ("ERR", outcome.kind.value)  # Error, the last TestOutcome


def compare(outcomes: Mapping[str, TestOutcome]) -> VerdictStatus:
    """Consistent iff every engine's outcome projects to the same key."""
    if len(outcomes) < 2:
        raise ValueError("differential comparison needs at least 2 backends")
    keys = {outcome_key(outcome) for outcome in outcomes.values()}
    return VerdictStatus.CONSISTENT if len(keys) == 1 else VerdictStatus.INCONSISTENT


@dataclass(frozen=True)
class DiffVerdict:
    script_id: str
    script: ast.Script
    outcomes: dict[str, TestOutcome]
    status: VerdictStatus
    signature: str | None  # present iff inconsistent


@dataclass(frozen=True)
class BugReport:
    signature: str
    representative_id: str
    representative_script: ast.Script
    script_ids: tuple[str, ...]
    outcomes: dict[str, TestOutcome]  # of the representative


def divergence_locus(outcomes: Mapping[str, TestOutcome]) -> str:
    """Stable description of where the engines first part ways.

    The smallest failing assertion index wins; with no assertion
    failures, the lexicographically smallest error kind.
    """
    fail_indexes = [
        o.assertion_index for o in outcomes.values() if isinstance(o, Fail)
    ]
    if fail_indexes:
        return f"assert:{min(fail_indexes)}"
    kinds = sorted(o.kind.value for o in outcomes.values() if isinstance(o, Error))
    if kinds:
        return f"error:{kinds[0]}"
    return "pass"


def _mask(node):
    """Copy an expression or statement with every literal and path blanked."""
    if isinstance(node, ast.Lit):
        return ast.Lit("" if isinstance(node.value, str) else None)
    if isinstance(node, ast.MakeBean):
        return ast.MakeBean(
            node.bean, tuple((name, _mask(value)) for name, value in node.assignments)
        )
    changes = {name: _mask(getattr(node, name)) for name in ast.EXPR_FIELDS[type(node)]}
    if isinstance(node, ast.PathEval):
        changes["path"] = ""
    return replace(node, **changes)


def skeleton_hash(script: ast.Script) -> str:
    """Hash the script's shape with every literal stripped.

    Groups literal-variant duplicates of one underlying bug under a
    single signature.
    """
    masked = ast.Script(
        script.beans, tuple(_mask(s) for s in script.statements)
    )
    return hashlib.sha256(print_script(masked).encode("utf-8")).hexdigest()


def signature(script: ast.Script, outcomes: Mapping[str, TestOutcome]) -> str:
    payload = {
        "outcomes": sorted(
            (name, list(outcome_key(outcome))) for name, outcome in outcomes.items()
        ),
        "locus": divergence_locus(outcomes),
        "skeleton": skeleton_hash(script),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def make_verdict(
    script_id: str, script: ast.Script, outcomes: Mapping[str, TestOutcome]
) -> DiffVerdict:
    status = compare(outcomes)
    sig = signature(script, outcomes) if status is VerdictStatus.INCONSISTENT else None
    return DiffVerdict(script_id, script, dict(outcomes), status, sig)


def dedup(verdicts: list[DiffVerdict]) -> list[BugReport]:
    """Group inconsistent verdicts by signature into one report each."""
    groups: dict[str, list[DiffVerdict]] = {}
    for verdict in verdicts:
        if verdict.status is VerdictStatus.INCONSISTENT:
            groups.setdefault(verdict.signature, []).append(verdict)
    reports = []
    for sig in sorted(groups):
        members = groups[sig]
        representative = min(members, key=lambda v: v.script_id)
        reports.append(
            BugReport(
                signature=sig,
                representative_id=representative.script_id,
                representative_script=representative.script,
                script_ids=tuple(sorted(v.script_id for v in members)),
                outcomes=dict(representative.outcomes),
            )
        )
    return reports
