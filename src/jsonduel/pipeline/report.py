"""Render a run report as machine-readable JSONL or a human summary."""

from __future__ import annotations

import json

from ..backends.outcomes import outcome_to_dict
from ..diffcore import divergence_locus
from ..tdsl import print_script
from .runner import ModeCounts, RunReport


class RenderFormatError(ValueError):
    pass


def _counts_dict(counts: dict[str, ModeCounts]) -> dict:
    out: dict = {}
    for mode in sorted(counts):
        mc = counts[mode]
        out[mode] = {
            "generated": mc.generated,
            "extraction_failures": mc.extraction_failures,
            "executed": mc.executed(),
            "per_backend": {
                name: {"pass": oc.passed, "fail": oc.failed, "error": oc.errored}
                for name, oc in sorted(mc.per_backend.items())
            },
        }
    return out


def report_render(report: RunReport, format: str) -> bytes:
    """Serialize the report; 'jsonl' or 'text'."""
    if format == "jsonl":
        return _render_jsonl(report)
    if format == "text":
        return _render_text(report)
    raise RenderFormatError(f"unknown report format '{format}' (use jsonl|text)")


def _render_jsonl(report: RunReport) -> bytes:
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
    lines = [json.dumps(header, ensure_ascii=False, sort_keys=True)]
    for bug in report.bug_reports:
        lines.append(
            json.dumps(
                {
                    "type": "bug",
                    "signature": bug.signature,
                    "locus": divergence_locus(bug.outcomes),
                    "representative_id": bug.representative_id,
                    "script_ids": list(bug.script_ids),
                    "script": print_script(bug.representative_script),
                    "outcomes": {
                        name: outcome_to_dict(outcome)
                        for name, outcome in sorted(bug.outcomes.items())
                    },
                },
                ensure_ascii=False,
                sort_keys=True,
            )
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def _percent(part: int, whole: int) -> str:
    return f"{100.0 * part / whole:.1f}" if whole else "-"


def _render_text(report: RunReport) -> bytes:
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
