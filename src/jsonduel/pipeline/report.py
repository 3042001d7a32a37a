"""What a run produced, and the artifacts it writes.

`RunReport` holds a finished run's data. `record_line` renders one
generation's provenance as a `records.jsonl` line; `write_reports`
writes `verdicts.jsonl`, `bugs.jsonl` (`render_jsonl`) and `report.txt`
(`render_text`). Every JSONL line is one `_line`, with its keys sorted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..backends.outcomes import Error, Fail, Pass, TestOutcome, outcome_to_dict
from ..diffcore import BugReport, DiffVerdict, divergence_locus
from ..llm.generation import GenerationRecord
from ..tdsl.ast import Script
from ..tdsl.printer import print_script
from ..values import escape_surrogates


@dataclass
class OutcomeCounts:
    passed: int = 0
    failed: int = 0
    errored: int = 0

    def add(self, outcome: TestOutcome) -> None:
        if isinstance(outcome, Pass):
            self.passed += 1
        elif isinstance(outcome, Fail):
            self.failed += 1
        elif isinstance(outcome, Error):
            self.errored += 1


@dataclass
class ModeCounts:
    generated: int = 0
    extraction_failures: int = 0
    per_backend: dict[str, OutcomeCounts] = field(default_factory=dict)

    def executed(self) -> int:
        return self.generated - self.extraction_failures


@dataclass
class RunReport:
    config_echo: dict
    manifest_hash: str
    started_at: str
    counts: dict[str, ModeCounts]
    records: list[tuple[str, GenerationRecord]]  # (script_id, record), in task order
    verdicts: list[DiffVerdict]
    bug_reports: list[BugReport]
    suppressed_signatures: list[str]
    op_counts: dict[str, dict[str, int]]
    seed_load_errors: list[str]
    planned: int  # generations the run set out to make
    complete: bool


def _line(obj) -> str:
    return escape_surrogates(json.dumps(obj, ensure_ascii=False, sort_keys=True)) + "\n"


def record_line(script_id: str, record: GenerationRecord) -> str:
    """One generation's provenance, with its extracted script printed."""
    if isinstance(record.extraction, Script):
        extraction = {"ok": True, "script": print_script(record.extraction)}
    else:
        extraction = {
            "ok": False,
            "category": record.extraction.category,
            "error": record.extraction.error,
        }
    return _line({
        "script_id": script_id,
        "seed_id": record.seed_id,
        "rule": record.rule.value if record.rule else None,
        "messages": [[m.role.value, m.content] for m in record.messages],
        "raw_response": record.raw_response,
        "extraction": extraction,
        "timestamp": record.timestamp,
    })


def write_reports(report: RunReport, out_dir: Path) -> None:
    """Write `verdicts.jsonl`, `bugs.jsonl` and `report.txt`."""
    with (out_dir / "verdicts.jsonl").open("w", encoding="utf-8") as fh:
        fh.writelines(
            _line({
                "script_id": verdict.script_id,
                "status": verdict.status.value,
                "signature": verdict.signature,
                "outcomes": {name: outcome_to_dict(o) for name, o in verdict.outcomes.items()},
            })
            for verdict in report.verdicts
        )
    (out_dir / "bugs.jsonl").write_bytes(render_jsonl(report))
    (out_dir / "report.txt").write_bytes(render_text(report))


def _counts_dict(counts: dict[str, ModeCounts]) -> dict:
    return {
        mode: {
            "generated": mc.generated,
            "extraction_failures": mc.extraction_failures,
            "executed": mc.executed(),
            "per_backend": {
                name: {"pass": oc.passed, "fail": oc.failed, "error": oc.errored}
                for name, oc in mc.per_backend.items()
            },
        }
        for mode, mc in counts.items()
    }


def render_jsonl(report: RunReport) -> bytes:
    """`bugs.jsonl`: a run header, then one line per unique bug."""
    # The run timestamp lives only in this header's "started_at" field.
    header = {
        "type": "run",
        "started_at": report.started_at,
        "complete": report.complete,
        "manifest_hash": report.manifest_hash,
        "config": report.config_echo,
        "counts": _counts_dict(report.counts),
        "suppressed_signatures": report.suppressed_signatures,
        "bugs": len(report.bug_reports),
    }
    lines = [_line(header)]
    for bug in report.bug_reports:
        lines.append(_line({
            "type": "bug",
            "signature": bug.signature,
            "locus": divergence_locus(bug.outcomes),
            "representative_id": bug.representative_id,
            "script_ids": list(bug.script_ids),
            "script": print_script(bug.representative_script),
            "outcomes": {name: outcome_to_dict(o) for name, o in bug.outcomes.items()},
        }))
    return "".join(lines).encode("utf-8")


def _percent(part: int, whole: int) -> str:
    return f"{100.0 * part / whole:.1f}" if whole else "-"


def render_text(report: RunReport) -> bytes:
    """`report.txt`: the human summary."""
    lines: list[str] = []
    lines.append("differential run report")
    lines.append("=======================")
    lines.append(f"complete:      {'yes' if report.complete else 'NO (aborted)'}")
    if not report.complete:
        lost = report.planned - len(report.records)
        lines.append(f"lost:          {lost} of {report.planned} planned generations")
    lines.append(f"corpus hash:   {report.manifest_hash}")
    lines.append(f"backends:      {', '.join(report.config_echo['backends'])}")
    if report.seed_load_errors:
        lines.append(f"seed load errors: {len(report.seed_load_errors)}")
        for error in report.seed_load_errors:
            lines.append(f"  - {error}")
    lines.append("")

    for mode in sorted(report.counts):
        mc = report.counts[mode]
        lines.append(f"[{mode} generation]")
        lines.append(
            f"generated: {mc.generated}   extraction failures: "
            f"{mc.extraction_failures}   executed: {mc.executed()}"
        )
        lines.append("outcome split per backend (percent of generated):")
        lines.append(
            f"  {'backend':<24}{'Pass':>8}{'Failure/Exception':>20}{'Compile Error':>16}"
        )
        for name, oc in sorted(mc.per_backend.items()):
            lines.append(
                f"  {name:<24}"
                f"{_percent(oc.passed, mc.generated):>8}"
                f"{_percent(oc.failed + oc.errored, mc.generated):>20}"
                f"{_percent(mc.extraction_failures, mc.generated):>16}"
            )
        lines.append("")

    lines.append(f"inconsistencies: "
                 f"{sum(1 for v in report.verdicts if v.signature is not None)} "
                 f"of {len(report.verdicts)} executed scripts")
    lines.append(f"unique bugs:     {len(report.bug_reports)}")
    for bug in report.bug_reports:
        keys = ", ".join(
            f"{name}={outcome_to_dict(outcome)['result']}"
            for name, outcome in sorted(bug.outcomes.items())
        )
        lines.append(
            f"  {bug.signature[:12]}  locus={divergence_locus(bug.outcomes)}  "
            f"scripts={len(bug.script_ids)}  [{keys}]"
        )
    if report.suppressed_signatures:
        lines.append(f"suppressed:      {len(report.suppressed_signatures)} signatures")
    lines.append("")

    lines.append("operation hits per backend:")
    for name in sorted(report.op_counts):
        hits = report.op_counts[name]
        rendered = ", ".join(f"{op}={n}" for op, n in sorted(hits.items())) or "none"
        lines.append(f"  {name:<24}{rendered}")
    lines.append("")
    return ("\n".join(lines)).encode("utf-8")
