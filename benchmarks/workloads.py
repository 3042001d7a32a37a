"""The benchmark's workloads: inputs, one timed call, correctness checks and
per-layer numbers.

Each workload drives a public entry point: `jsonduel.pipeline.runner.run`
for the two loops and `jsonduel.classify.evaluate_accuracy` for triage.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import fakes
import tracing
from jsonduel import corpus as corpus_mod
from jsonduel import diffcore
from jsonduel.backends import executor, resolve_backend
from jsonduel.backends.outcomes import Error, ErrorKind, Fail
from jsonduel.classify import evaluate as evaluate_mod
from jsonduel.classify import voting
from jsonduel.classify.evaluate import Category, FailedCase, render_accuracy_json
from jsonduel.classify.prompts import ClassifyMode, build_classify_prompt
from jsonduel.llm.generation import GenParams
from jsonduel.llm.prompts import SUMMARIZE_PROMPT
from jsonduel.pipeline import runner
from jsonduel.pipeline.config import CorpusSource, PipelineConfig
from jsonduel.tdsl import Script, extract, parse_script

ENGINES = ("reference", "reference-copy", "planted:L1+L2+L3")


def engine_metric(engine: str) -> str:
    return "backends.exec_s." + re.sub(r"[^A-Za-z0-9_.-]", "-", engine)


# Per-layer metrics of a traced run, with units and the direction that is
# better. Every workload reports all of them; a layer a workload does not
# reach reads 0.
PER_LAYER = (
    ("llm.calls", "count", "lower"),
    ("llm.summary_calls", "count", "lower"),
    ("llm.wait_s", "s", "lower"),
    ("llm.concurrency", "ratio", "higher"),
    ("llm.summary_phase_s", "s", "lower"),
    ("llm.self_s", "s", "lower"),
    ("tdsl.extract_calls", "count", "lower"),
    ("tdsl.extract_s", "s", "lower"),
    ("tdsl.bytes_parsed", "B", "lower"),
    ("tdsl.extract_yield", "ratio", "higher"),
    ("tdsl.self_s", "s", "lower"),
    ("backends.exec_calls", "count", "lower"),
    *((engine_metric(engine), "s", "lower") for engine in ENGINES),
    ("backends.ops", "count", "lower"),
    ("backends.timeouts", "count", "lower"),
    ("backends.self_s", "s", "lower"),
    ("corpus.load_s", "s", "lower"),
    ("corpus.seeds", "count", "higher"),
    ("corpus.self_s", "s", "lower"),
    ("diffcore.verdict_s", "s", "lower"),
    ("diffcore.dedup_s", "s", "lower"),
    ("diffcore.inconsistent", "count", "higher"),
    ("diffcore.bug_reports", "count", "higher"),
    ("diffcore.self_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("pipeline.artifact_files", "count", "lower"),
    ("pipeline.artifact_bytes", "B", "lower"),
    ("classify.cases", "count", "higher"),
    ("classify.votes", "count", "higher"),
    ("classify.unparseable", "count", "lower"),
    ("classify.wait_s", "s", "lower"),
    ("classify.case_ms.p50", "ms", "lower"),
    ("classify.case_ms.p75", "ms", "lower"),
    ("classify.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


@dataclass
class Rep:
    """One call of the workload's entry point."""

    wall_s: float
    items: int
    failed: int
    problems: list[str]
    fingerprint: str  # equal for two calls with the same call number
    layers: dict[str, float] = field(default_factory=dict)  # traced calls only


def _quartiles(values: list[float]) -> tuple[float, float]:
    """Median and upper quartile; (0, 0) for no values."""
    if len(values) < 2:
        return (values[0],) * 2 if values else (0.0, 0.0)
    _, median, upper = statistics.quantiles(values, n=4, method="inclusive")
    return median, upper


def _span_window(spans) -> float:
    return max(s.end for s in spans) - min(s.start for s in spans) if spans else 0.0


class Traced:
    """Wrappers around each layer's public calls, installed for one call."""

    def __init__(self):
        self.tracer = tracing.Tracer()
        t = self.tracer
        self.patch = tracing.Patch({
            corpus_mod.mine_seeds: tracing.wrap(t, "corpus.mine_seeds", corpus_mod.mine_seeds, _seeds),
            corpus_mod.load_corpus: tracing.wrap(t, "corpus.load_corpus", corpus_mod.load_corpus, _seeds),
            extract.extract_script: tracing.wrap(t, "tdsl.extract_script", extract.extract_script, _extracted),
            executor.execute: _traced_execute(t),
            diffcore.make_verdict: tracing.wrap(t, "diffcore.make_verdict", diffcore.make_verdict, _verdict),
            diffcore.dedup: tracing.wrap(t, "diffcore.dedup", diffcore.dedup, _deduped),
            voting.classify: tracing.wrap(t, "classify.classify", voting.classify, _classified),
        })

    def client(self, client):
        client.complete = tracing.wrap(self.tracer, "llm.complete", client.complete, _completed)
        return client

    def call(self, root_name: str, fn, *args):
        with self.patch:
            result, root = self.tracer.run_root(root_name, fn, *args)
        return result, root.duration

    def layers(self) -> dict[str, float]:
        spans = self.tracer.children()

        def named(prefix):
            return [s for s in spans if s.name.startswith(prefix)]

        out = {name: 0.0 for name, _, _ in PER_LAYER}

        llm = named("llm.")
        summaries = [s for s in llm if s.attrs["summary"]]
        out["llm.calls"] = len(llm)
        out["llm.summary_calls"] = len(summaries)
        out["llm.wait_s"] = sum(s.duration for s in llm)
        window = _span_window(llm)
        out["llm.concurrency"] = out["llm.wait_s"] / window if window else 0.0
        out["llm.summary_phase_s"] = _span_window(summaries)

        extracts = named("tdsl.")
        out["tdsl.extract_calls"] = len(extracts)
        out["tdsl.extract_s"] = sum(s.duration for s in extracts)
        out["tdsl.bytes_parsed"] = sum(s.attrs["bytes"] for s in extracts)
        if extracts:
            out["tdsl.extract_yield"] = sum(s.attrs["ok"] for s in extracts) / len(extracts)

        runs = named("backends.")
        out["backends.exec_calls"] = len(runs)
        for s in runs:
            out[engine_metric(s.attrs["engine"])] += s.duration
        out["backends.ops"] = sum(s.attrs["ops"] for s in runs)
        out["backends.timeouts"] = sum(s.attrs["timeout"] for s in runs)

        loads = named("corpus.")
        out["corpus.load_s"] = sum(s.duration for s in loads)
        out["corpus.seeds"] = sum(s.attrs["seeds"] for s in loads)

        verdicts, dedups = named("diffcore.make_verdict"), named("diffcore.dedup")
        out["diffcore.verdict_s"] = sum(s.duration for s in verdicts)
        out["diffcore.dedup_s"] = sum(s.duration for s in dedups)
        out["diffcore.inconsistent"] = sum(s.attrs["inconsistent"] for s in verdicts)
        out["diffcore.bug_reports"] = sum(s.attrs["reports"] for s in dedups)

        cases = named("classify.classify")
        case_ids = {s.id for s in cases}
        out["classify.cases"] = len(cases)
        out["classify.votes"] = sum(s.attrs["votes"] for s in cases)
        out["classify.unparseable"] = sum(s.attrs["unparseable"] for s in cases)
        out["classify.wait_s"] = sum(s.duration for s in llm if s.parent in case_ids)
        out["classify.case_ms.p50"], out["classify.case_ms.p75"] = _quartiles(
            [1000 * s.duration for s in cases]
        )

        for layer, seconds in self.tracer.self_times().items():
            out[f"{layer}.self_s"] = seconds
        out["trace.wall_s"] = self.tracer.root.duration
        out["trace.spans"] = len(spans)
        return out


def _seeds(span, args, kwargs, result):
    span.attrs["seeds"] = len(result[0].seeds)


def _extracted(span, args, kwargs, result):
    span.attrs["bytes"] = len(args[0].encode("utf-8"))
    span.attrs["ok"] = isinstance(result, Script)


def _verdict(span, args, kwargs, result):
    span.attrs["inconsistent"] = result.status is diffcore.VerdictStatus.INCONSISTENT


def _deduped(span, args, kwargs, result):
    span.attrs["reports"] = len(result)


def _classified(span, args, kwargs, result):
    span.attrs["votes"] = len(result.votes)
    span.attrs["unparseable"] = sum(v is voting.Verdict.UNPARSEABLE for v in result.votes)


def _completed(span, args, kwargs, result):
    span.attrs["summary"] = args[0][-1].content.endswith(SUMMARIZE_PROMPT)


def _traced_execute(tracer):
    original = executor.execute

    def execute(script, backend, limits=executor.DEFAULT_LIMITS, on_op=None):
        ops = 0

        def count(op):  # counts through the caller's own hook
            nonlocal ops
            ops += 1
            if on_op is not None:
                on_op(op)

        span = tracer.open("backends.execute")
        try:
            result = original(script, backend, limits, on_op=count)
        finally:
            tracer.close(span)
        span.attrs.update(
            engine=backend.name,
            ops=ops,
            timeout=isinstance(result, Error) and result.kind is ErrorKind.TIMEOUT,
        )
        return result

    return execute


def _artifacts(out_dir: Path) -> tuple[int, int]:
    files = size = 0
    for folder, _, names in os.walk(out_dir):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(folder, name))
    return files, size


@dataclass(frozen=True)
class LoopInputs:
    seed: int
    seeds_dir: Path
    family_seeds: dict[str, str]


@dataclass(frozen=True)
class LoopWorkload:
    """The full run loop on a generated corpus against the fake model."""

    name: str
    why: str
    seeds: int
    n_per_seed: int
    latency_s: float
    in_flight: int
    engines: tuple[str, ...]
    items_label: str = "generations"

    @property
    def tasks(self) -> int:
        return self.seeds * self.n_per_seed

    def ideal_s(self) -> float:
        return (self.seeds + self.tasks) * self.latency_s / self.in_flight

    def inputs(self, workdir: Path, seed: int) -> LoopInputs:
        """Write the seed corpus."""
        seeds_dir = workdir / "seeds"
        seeds_dir.mkdir(parents=True)
        family = {}
        for filename, text, bug in fakes.seed_corpus(seed, self.seeds):
            (seeds_dir / filename).write_text(text, encoding="utf-8")
            if bug:
                family[text] = bug
        return LoopInputs(seed, seeds_dir, family)

    def setup(self, inputs: LoopInputs) -> PipelineConfig:
        """The program's set-up for a run: the configuration validated, with
        every engine resolved, and the seed corpus mined and parsed."""
        config = PipelineConfig(
            corpus=CorpusSource(root=inputs.seeds_dir),
            backends=self.engines,
            params=GenParams(n_per_seed=self.n_per_seed, seed=inputs.seed),
            in_flight=self.in_flight,
        )
        config.validate()
        corpus, errors = corpus_mod.mine_seeds(inputs.seeds_dir, config.corpus.keyword)
        if errors or len(corpus.seeds) != self.seeds:
            raise RuntimeError(f"mined {len(corpus.seeds)} of {self.seeds} seeds: {errors}")
        return config

    def repeat_check(self, workdir: Path, seed: int) -> list[str]:
        """Run REPEAT_CHECK twice with the same replies."""
        w = REPEAT_CHECK
        inputs = w.inputs(workdir / "inputs", seed)
        first, second = (w.call(inputs, w.setup(inputs), 0, workdir / f"out{i}", None)
                         for i in (1, 2))
        problems = [f"{w.name}: {problem}" for problem in first.problems + second.problems]
        if first.fingerprint != second.fingerprint:
            problems.append(f"{w.name}: artifacts differ between two runs with the same replies")
        return problems

    def call(self, inputs: LoopInputs, config: PipelineConfig, number: int, out_dir: Path,
             traced: Traced | None) -> Rep:
        model = fakes.LoopModel(inputs.seed, number, self.latency_s, inputs.family_seeds)
        config = dataclasses.replace(config, out_dir=out_dir)
        if traced is None:
            start = time.perf_counter()
            report = runner.run(config, model)
            wall = time.perf_counter() - start
        else:
            report, wall = traced.call("pipeline.run", runner.run, config, traced.client(model))
        problems = self.check(report, model)
        rep = Rep(wall, self.tasks, self.tasks - len(report.records), problems,
                  self.fingerprint(report, out_dir))
        if traced is not None:
            rep.layers = traced.layers()
            files, size = _artifacts(out_dir)
            rep.layers["pipeline.artifact_files"] = files
            rep.layers["pipeline.artifact_bytes"] = size
        return rep

    def check(self, report, model: fakes.LoopModel) -> list[str]:
        problems = []
        if not report.complete:
            problems.append("run is not complete")
        ids = [script_id for script_id, _ in report.records]
        if len(ids) != self.tasks or len(set(ids)) != self.tasks:
            problems.append(f"{len(set(ids))} distinct records for {self.tasks} tasks")
        if model.calls != self.seeds + self.tasks or model.summary_calls != self.seeds:
            problems.append(
                f"model got {model.calls} calls ({model.summary_calls} summaries), "
                f"expected {self.seeds + self.tasks} ({self.seeds})"
            )
        failures = sum(c.extraction_failures for c in report.counts.values())
        if failures != model.sent[fakes.UNUSABLE]:
            problems.append(
                f"{failures} extraction failures for {model.sent[fakes.UNUSABLE]} unusable replies"
            )
        kind = {sid: model.kind_of.get(record.raw_response) for sid, record in report.records}
        for sid, record in report.records:
            if (record.extracted_script is None) != (kind[sid] == fakes.UNUSABLE):
                problems.append(f"{sid}: extraction disagrees with the {kind[sid]} reply")
        for verdict in report.verdicts:
            flagged = verdict.status is diffcore.VerdictStatus.INCONSISTENT
            if flagged != (kind[verdict.script_id] in fakes.TRIGGERS):
                problems.append(f"{verdict.script_id}: {kind[verdict.script_id]} reply, "
                                f"verdict {verdict.status.value}")
            keys = {n: diffcore.outcome_key(o) for n, o in verdict.outcomes.items()}
            if "reference-copy" in keys and keys["reference-copy"] != keys["reference"]:
                problems.append(f"{verdict.script_id}: reference and reference-copy disagree")
            if any(isinstance(o, Error) and o.kind is ErrorKind.TIMEOUT
                   for o in verdict.outcomes.values()):
                problems.append(f"{verdict.script_id}: an engine timed out")
        reported = {kind[sid] for bug in report.bug_reports for sid in bug.script_ids}
        if reported != set(fakes.TRIGGERS):
            problems.append(f"bug classes reported: {sorted(reported)}")
        return problems

    def fingerprint(self, report, out_dir: Path) -> str:
        # With one request in flight the artifacts must repeat byte for byte;
        # with more, identical conversations race for their samples (the
        # replay-order issue), so only order-free summaries must repeat.
        digest = hashlib.sha256()
        if self.in_flight == 1:
            digest.update((out_dir / "verdicts.jsonl").read_bytes())
            digest.update((out_dir / "report.txt").read_bytes())
            digest.update((out_dir / "bugs.jsonl").read_bytes().split(b"\n", 1)[1])
        else:
            keys = Counter(
                tuple(sorted((n, diffcore.outcome_key(o)) for n, o in v.outcomes.items()))
                for v in report.verdicts
            )
            digest.update(repr(sorted(keys.items())).encode())
            digest.update(repr(sorted(b.signature for b in report.bug_reports)).encode())
        return digest.hexdigest()


@dataclass(frozen=True)
class TriageInputs:
    seed: int
    specs: list[fakes.CaseSpec]


@dataclass(frozen=True)
class TriageWorkload:
    """Six votes per labelled failing case, through `evaluate_accuracy`."""

    name: str
    why: str
    latency_s: float
    mode: ClassifyMode = ClassifyMode.FS_COT
    items_label: str = "cases"

    @property
    def tasks(self) -> int:
        return sum(count for _, count in fakes.TRIAGE_SPLIT)

    def ideal_s(self) -> float:
        return self.tasks * voting.VOTE_COUNT * self.latency_s

    def inputs(self, workdir: Path, seed: int) -> TriageInputs:
        return TriageInputs(seed, fakes.triage_scripts(seed))

    def setup(self, inputs: TriageInputs) -> list[FailedCase]:
        """The program's set-up for triage: each failing script parsed and
        run on the reference engine."""
        reference = resolve_backend("reference")
        cases = []
        for spec in inputs.specs:
            script = parse_script(spec.text)
            outcome = executor.execute(script, reference)
            expected = Error if spec.category.startswith("E") else Fail
            if not isinstance(outcome, expected):
                raise RuntimeError(f"triage input {spec.text!r} gave {outcome}")
            cases.append(FailedCase(script, spec.text, outcome, "reference",
                                    Category(spec.category)))
        return cases

    def repeat_check(self, workdir: Path, seed: int) -> list[str]:
        """Nothing to add: every triage call already compares the table
        with the votes handed out."""
        return []

    def call(self, inputs: TriageInputs, cases: list[FailedCase], number: int, out_dir: Path,
             traced: Traced | None) -> Rep:
        model = fakes.TriageModel(inputs.seed, number, self.latency_s)
        args = (cases, self.mode)
        if traced is None:
            start = time.perf_counter()
            report = evaluate_mod.evaluate_accuracy(*args, model)
            wall = time.perf_counter() - start
        else:
            report, wall = traced.call("classify.evaluate_accuracy",
                                       evaluate_mod.evaluate_accuracy, *args,
                                       traced.client(model))
        table = render_accuracy_json(report)
        rep = Rep(wall, self.tasks, self.tasks - len(report.case_results),
                  self.check(cases, report, table, model),
                  hashlib.sha256(table.encode()).hexdigest())
        if traced is not None:
            rep.layers = traced.layers()
        return rep

    def check(self, cases: list[FailedCase], report, table: str, model) -> list[str]:
        """The table must be the one the handed-out votes imply."""
        problems = []
        per_category: dict[str, list[int]] = {}
        for case, result in zip(cases, report.case_results):
            conv = model.conversation_key(build_classify_prompt(case, self.mode))
            handed = model.votes.get(conv, [])
            if len(handed) != voting.VOTE_COUNT:
                problems.append(f"case got {len(handed)} votes")
            got = Counter(v.value.lower() for v in result.result.votes)
            if got != Counter(handed):
                problems.append(f"case votes {dict(got)} differ from handed out {handed}")
            final = "good" if handed.count("good") > handed.count("bad") else "bad"
            correct = final == ("good" if case.category.value.endswith("good") else "bad")
            tally = per_category.setdefault(case.category.value, [0, 0])
            tally[0] += correct
            tally[1] += 1
        if model.calls != self.tasks * voting.VOTE_COUNT:
            problems.append(f"model got {model.calls} calls")
        total_correct = sum(c for c, _ in per_category.values())
        expected = {
            "mode": self.mode.value,
            "cases": self.tasks,
            "average": round(100.0 * total_correct / self.tasks, 1),
            "per_category": {
                name: {"correct": c, "total": t, "accuracy": round(100.0 * c / t, 1)}
                for name, (c, t) in per_category.items()
            },
        }
        if json.loads(table) != expected:
            problems.append(f"accuracy table {table!r} differs from the votes handed out")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        LoopWorkload(
            name="loop-llm",
            why="LLM-bound run loop (100 seeds x 4, 20 ms per call, in_flight 2): moves "
                "with how the loop schedules model calls; CPU layers are a small share",
            seeds=100, n_per_seed=4, latency_s=0.020, in_flight=2,
            engines=("reference", "planted:L1+L2+L3"),
        ),
        LoopWorkload(
            name="loop-cpu",
            why="CPU-bound run loop (300 seeds x 5, no latency, in_flight 1, three "
                "engines): moves with parse, execute and artifact-writing cost",
            seeds=300, n_per_seed=5, latency_s=0.0, in_flight=1,
            engines=ENGINES,
        ),
        TriageWorkload(
            name="triage",
            why="Triage of 43 labelled failing cases x 6 votes at 10 ms per call: the "
                "only workload that reaches classify; each prompt is sent six times",
            latency_s=0.010,
        ),
    )
}


# A small run loop with one request in flight and all three engines, run
# twice with the same replies by every loop workload. It holds the checks
# that need `reference-copy` or a race-free order: the copy never disagrees
# with `reference`, and the artifacts repeat byte for byte. 70 seeds reach
# the family seeds of all three planted bugs.
REPEAT_CHECK = LoopWorkload(
    name="repeat-check",
    why="70 seeds x 2, no latency, in_flight 1, three engines, run twice",
    seeds=70, n_per_seed=2, latency_s=0.0, in_flight=1, engines=ENGINES,
)

