"""The full loop: corpus -> summarize -> generate -> execute -> diff -> report.

Summaries and generations share one pool of `in_flight` request slots.
The calling thread builds every request and prepares it with
`prepare_request`, in request order, so worker threads only wait on the
model: one summary per distinct seed text first, then each task's
generation, in task order, once its seed's summary is in, with at most
`OPEN_PER_SLOT * in_flight` generations sent but not yet handled.
It handles each reply as it arrives, while later requests are still
out: extracts, executes and judges it, and writes `scripts/<id>.t` if
the engines disagree. Each record and verdict is stored at its task's
place. A record joins `records.jsonl` once all before it have, or at
the end if an abort dropped one; that file and `verdicts.jsonl`,
`bugs.jsonl` and `report.txt`, written at the end, are in task order.

Reproducibility contract: with a fixed config, corpus, replay scenario
and RNG seed, two runs produce identical reports (verdicts.jsonl,
report.txt, and bugs.jsonl up to the run timestamp, which is isolated
to one header field) and identical flagged scripts. Each line of
records.jsonl carries its own timestamp and is otherwise identical too.
Replies are picked in request order, so none of these (apart from the
config echoed in the bugs.jsonl header) depend on `in_flight` either.
"""

from __future__ import annotations

import logging
import random
import re
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from queue import SimpleQueue
from typing import Iterator

from ..backends import resolve_backend
from ..backends.executor import execute
from ..backends.outcomes import TestOutcome
from ..corpus import SeedTest, load_corpus, mine_seeds
from ..diffcore import DiffVerdict, VerdictStatus, dedup, make_verdict
from ..llm.client import HttpChatClient, LlmClient, ModelError, prepare_request
from ..llm.generation import GenerationRecord, pick_rule
from ..llm.messages import ChatMessage
from ..llm.mock import ReplayClient
from ..llm.prompts import build_context, build_summary_request
from ..llm.rules import MutationRule
from ..tdsl.extract import CONTEXT_OVERFLOW, ExtractionFailure, extract_script
from ..tdsl.printer import print_script
from .config import PipelineConfig
from .report import ModeCounts, OutcomeCounts, RunReport, record_line, write_reports

log = logging.getLogger(__name__)

# Generations sent but not yet handled, at most, per request slot. Once
# that many are, replies are handled until one per slot is left, and then
# the next batch is sent: a model that answers at once then wakes a
# worker once per batch, not once per generation.
OPEN_PER_SLOT = 32


@dataclass(frozen=True)
class _Task:
    script_id: str
    seed: SeedTest
    rule: MutationRule | None


def _sanitize(seed_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", seed_id)


def _build_client(config: PipelineConfig) -> LlmClient:
    if config.mock_scenario is not None:
        return ReplayClient.from_file(config.mock_scenario)
    return HttpChatClient(endpoint=config.endpoint, open_requests=config.in_flight)


def run(config: PipelineConfig, client: LlmClient | None = None) -> RunReport:
    """Execute the whole pipeline and write artifacts under out_dir.

    A transport failure stops the run from sending further requests.
    Every generation that already completed is still executed and
    written, and the report is flagged incomplete.
    """
    config.validate()
    root = config.corpus.root
    if root is not None and config.out_dir.resolve().is_relative_to(root.resolve()):
        raise ValueError(f"out_dir {config.out_dir} is under corpus root {root}: a run would mine its output")
    client = client if client is not None else _build_client(config)
    backends = [resolve_backend(name) for name in config.backends]
    started_at = datetime.now(timezone.utc).isoformat()

    if root is None:
        corpus, load_errors = load_corpus(config.corpus.manifest)
    else:
        corpus, load_errors = mine_seeds(root, config.corpus.keyword)
    log.info("corpus: %d seeds (%d load errors)", len(corpus.seeds), len(load_errors))

    seed_of: dict[str, str] = {}  # sanitized id -> seed id
    for seed in corpus.seeds:
        name = _sanitize(seed.id)
        if seed_of.setdefault(name, seed.id) != seed.id:
            raise ValueError(f"seed ids '{seed_of[name]}' and '{seed.id}' both sanitize to '{name}'")
    # Rules are pre-drawn in one deterministic sweep so that parallel
    # generation cannot perturb the sequence.
    rng = random.Random(config.params.seed)
    tasks = [
        _Task(f"{_sanitize(seed.id)}-g{k}", seed, pick_rule(rng, config.mutation))
        for seed in corpus.seeds
        for k in range(config.params.n_per_seed)
    ]

    (config.out_dir / "scripts").mkdir(parents=True, exist_ok=True)
    reports = [config.out_dir / name for name in ("verdicts.jsonl", "bugs.jsonl", "report.txt")]
    for stale in [*(config.out_dir / "scripts").glob("*.t"), *reports]:  # an earlier run's output
        stale.unlink(missing_ok=True)
    # Replies are handled as they arrive, so each lands at its task's index.
    record_at: list[tuple[str, GenerationRecord] | None] = [None] * len(tasks)
    written = 0  # records.jsonl holds record_at[:written]
    verdict_at: list[DiffVerdict | None] = [None] * len(tasks)
    counts: dict[str, ModeCounts] = {}
    op_counts: dict[str, dict[str, int]] = {b.name: {} for b in backends}
    stop = threading.Event()

    def handle(index: int, task: _Task, messages: tuple[ChatMessage, ...], reply) -> None:
        nonlocal written
        raw, extraction = "", reply
        if isinstance(reply, Future):
            try:
                raw = reply.result()
            except _Stopped:
                return
            except ModelError as exc:
                log.error("aborting run, generation %s failed: %s", task.script_id, exc)
                return
            extraction = extract_script(raw)
        record = GenerationRecord(task.seed.id, task.rule, messages, raw, extraction)
        record_at[index] = task.script_id, record
        while written < len(tasks) and record_at[written] is not None:
            records_file.write(record_line(*record_at[written]))
            written += 1
        mode = "mutate" if record.rule is not None else "plain"
        mode_counts = counts.setdefault(mode, ModeCounts())
        mode_counts.generated += 1
        script = record.extracted_script
        if script is None:
            mode_counts.extraction_failures += 1
            return
        outcomes: dict[str, TestOutcome] = {}
        for backend in backends:
            hits = op_counts[backend.name]

            def count_op(op: str, hits=hits) -> None:
                hits[op] = hits.get(op, 0) + 1

            outcome = execute(script, backend, on_op=count_op)
            outcomes[backend.name] = outcome
            mode_counts.per_backend.setdefault(backend.name, OutcomeCounts()).add(outcome)
        verdict = verdict_at[index] = make_verdict(task.script_id, script, outcomes)
        if verdict.status is VerdictStatus.INCONSISTENT:
            script_path = config.out_dir / "scripts" / f"{task.script_id}.t"
            script_path.write_text(print_script(script), encoding="utf-8")

    with (config.out_dir / "records.jsonl").open("w", encoding="utf-8") as records_file, \
            ThreadPoolExecutor(max_workers=config.in_flight) as pool:

        def send(messages) -> Future:
            return pool.submit(_guarded, stop, prepare_request(client, messages, config.params))

        try:
            # One summary per distinct seed text, queued first: the pool takes
            # work in submission order, so they go out before any generation.
            summaries: dict[str, Future] = {}
            for seed in corpus.seeds:
                if seed.script_text not in summaries:
                    summaries[seed.script_text] = send(build_summary_request(seed.script_text))
            conversations = _conversations(tasks, summaries, config.context_limit_chars, stop)
            arrived: SimpleQueue[Future] = SimpleQueue()
            pending: dict[Future, tuple[int, _Task, tuple]] = {}  # sent, not yet handled

            def handle_until(left: int) -> None:
                while len(pending) > left:
                    reply = arrived.get()
                    handle(*pending.pop(reply), reply)

            for index, (task, messages, failure) in enumerate(conversations):
                if failure:
                    handle(index, task, messages, failure)
                    continue
                future = send(messages)
                pending[future] = index, task, messages
                future.add_done_callback(arrived.put)
                if len(pending) == OPEN_PER_SLOT * config.in_flight:
                    handle_until(config.in_flight)
            handle_until(0)
        finally:
            stop.set()  # queued requests are dropped if the loop ends early
            records_file.writelines(record_line(*r) for r in record_at[written:] if r is not None)

    records = [record for record in record_at if record is not None]
    verdicts = [verdict for verdict in verdict_at if verdict is not None]
    suppressed = sorted({v.signature for v in verdicts if v.signature in config.suppress})
    bug_reports = dedup([v for v in verdicts if v.signature not in config.suppress])

    report = RunReport(
        config_echo=config.echo(),
        manifest_hash=corpus.manifest_hash,
        started_at=started_at,
        counts=counts,
        records=records,
        verdicts=verdicts,
        bug_reports=bug_reports,
        suppressed_signatures=suppressed,
        op_counts=op_counts,
        seed_load_errors=load_errors,
        planned=len(tasks),
        complete=len(records) == len(tasks),
    )
    write_reports(report, config.out_dir)
    return report


class _Stopped(Exception):
    """A request not sent because an earlier one failed."""


def _guarded(stop: threading.Event, fn):
    """`fn()` unless the run is stopping; any failure stops the run."""
    if stop.is_set():
        raise _Stopped
    try:
        return fn()
    except Exception:
        stop.set()
        raise


def _conversations(
    tasks: list[_Task], summaries: dict[str, Future], limit: int, stop: threading.Event
) -> Iterator[tuple[_Task, tuple[ChatMessage, ...], ExtractionFailure | None]]:
    """Each task with its generation request, in task order, once its seed's
    summary is in. Tasks with the same seed text and rule share one message
    tuple. A prompt over `limit` chars comes with a context-overflow
    failure, as it is not to be sent; once the run stops, only those come.
    A failed or empty summary stops the run."""
    prompts: dict[tuple[str, MutationRule | None], tuple] = {}
    for task in tasks:
        try:
            summary = summaries[task.seed.script_text].result()
            if not summary:
                raise ModelError("empty summary response")
        except _Stopped:
            return
        except ModelError as exc:
            stop.set()
            log.error("aborting run, summary of %s failed: %s", task.seed.id, exc)
            return
        key = (task.seed.script_text, task.rule)
        if key not in prompts:
            messages = tuple(build_context(task.seed.script_text, summary, task.rule))
            chars = sum(len(m.content) for m in messages)
            failure = None
            if limit and chars > limit:
                failure = ExtractionFailure(
                    CONTEXT_OVERFLOW, f"prompt of {chars} chars exceeds the {limit}-char context limit"
                )
            prompts[key] = messages, failure
        messages, failure = prompts[key]
        if failure or not stop.is_set():
            yield task, messages, failure
