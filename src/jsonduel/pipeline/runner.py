"""The full loop: corpus -> summarize -> generate -> execute -> diff -> report.

Summaries and generations share one pool of `in_flight` request slots.
The calling thread builds every request and prepares it with
`prepare_request`, in request order, so worker threads only wait on the
model: one summary per distinct seed text first, then each task's
generation, in task order, once its seed's summary is in and as the
send window (`send_ahead`) lets it go. It takes the replies back in task
order and extracts, executes, judges and writes each one (`records/`,
`scripts/`) while later requests are still out; `verdicts.jsonl`,
`bugs.jsonl` and `report.txt` are written once, at the end. The writers
and the `RunReport` that `run` returns live in `report`.

Reproducibility contract: with a fixed config, corpus, replay scenario
and RNG seed, two runs produce identical reports (verdicts.jsonl,
report.txt, and bugs.jsonl up to the run timestamp, which is isolated
to one header field). Per-record provenance files carry their own
timestamps and are otherwise identical too. Replies are picked in
request order, so the reports (apart from the config echoed in the
bugs.jsonl header) do not depend on `in_flight` either.
"""

from __future__ import annotations

import logging
import random
import re
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterator

from ..backends import resolve_backend
from ..backends.executor import execute
from ..backends.outcomes import TestOutcome
from ..corpus import SeedTest, load_corpus, mine_seeds
from ..diffcore import DiffVerdict, VerdictStatus, dedup, make_verdict
from ..llm.client import GenerationError, HttpChatClient, LlmClient, TransportError
from ..llm.client import prepare_request, send_ahead
from ..llm.generation import GenerationRecord, pick_rule
from ..llm.messages import ChatMessage
from ..llm.mock import ReplayClient
from ..llm.prompts import build_context, build_summary_request
from ..llm.rules import MutationRule
from ..tdsl.extract import CONTEXT_OVERFLOW, ExtractionFailure, extract_script
from .config import PipelineConfig
from .report import ModeCounts, OutcomeCounts, RunReport, write_record, write_reports

log = logging.getLogger(__name__)

PLAIN = "plain"
MUTATE = "mutate"

# The send window (`send_ahead`), per request slot. Up to OPEN_PER_SLOT
# generations are unfinished at once, sent in batches large enough that a
# model answering at once seldom makes the threads trade turns. Sending
# pauses while READY_PER_SLOT replies wait, unless the one due next is late.
OPEN_PER_SLOT = 32
READY_PER_SLOT = 128


@dataclass(frozen=True)
class _Task:
    script_id: str
    seed: SeedTest
    rule: MutationRule | None


def _sanitize(seed_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", seed_id)


def _load(config: PipelineConfig):
    if config.corpus.manifest is not None:
        return load_corpus(config.corpus.manifest)
    return mine_seeds(config.corpus.root, config.corpus.keyword)


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
    client = client if client is not None else _build_client(config)
    backends = [resolve_backend(name) for name in config.backends]
    started_at = datetime.now(timezone.utc).isoformat()

    corpus, load_errors = _load(config)
    log.info("corpus: %d seeds (%d load errors)", len(corpus.seeds), len(load_errors))

    # Rules are pre-drawn in one deterministic sweep so that parallel
    # generation cannot perturb the sequence.
    rng = random.Random(config.params.seed)
    per_seed_index: dict[str, int] = {}
    tasks: list[_Task] = []
    for _ in range(config.rounds):
        for seed in corpus.seeds:
            for _ in range(config.params.n_per_seed):
                k = per_seed_index.get(seed.id, 0)
                per_seed_index[seed.id] = k + 1
                tasks.append(
                    _Task(f"{_sanitize(seed.id)}-g{k}", seed, pick_rule(rng, config.mutation))
                )

    for folder in ("records", "scripts"):
        (config.out_dir / folder).mkdir(parents=True, exist_ok=True)
    records: list[tuple[str, GenerationRecord]] = []
    counts: dict[str, ModeCounts] = {}
    verdicts: list[DiffVerdict] = []
    op_counts: dict[str, dict[str, int]] = {b.name: {} for b in backends}
    stop = threading.Event()

    with ThreadPoolExecutor(max_workers=config.in_flight) as pool:

        def send(messages) -> Future:
            return pool.submit(_guarded, stop, prepare_request(client, messages, config.params))

        def send_generation(conversation):
            _, messages, failure = conversation
            return failure or send(messages)

        try:
            # One summary per distinct seed text, queued first: the pool takes
            # work in submission order, so they go out before any generation.
            summaries: dict[str, Future] = {}
            for seed in corpus.seeds:
                if seed.script_text not in summaries:
                    summaries[seed.script_text] = send(build_summary_request(seed.script_text))
            conversations = _conversations(tasks, summaries, config.context_limit_chars, stop)
            ready, open_max = READY_PER_SLOT * config.in_flight, OPEN_PER_SLOT * config.in_flight
            window = send_ahead(conversations, send_generation, ready, open_max)
            for (task, messages, _), reply in window:
                raw, extraction = "", reply
                if isinstance(reply, Future):
                    try:
                        raw = reply.result()
                    except _Stopped:
                        continue
                    except (TransportError, GenerationError) as exc:
                        log.error("aborting run, generation %s failed: %s", task.script_id, exc)
                        continue
                    extraction = extract_script(raw)
                record = GenerationRecord(task.seed.id, task.rule, messages, raw, extraction)
                records.append((task.script_id, record))
                write_record(config.out_dir, task.script_id, record)
                mode = MUTATE if record.rule is not None else PLAIN
                mode_counts = counts.setdefault(mode, ModeCounts())
                mode_counts.generated += 1
                script = record.extracted_script
                if script is None:
                    mode_counts.extraction_failures += 1
                    continue
                outcomes: dict[str, TestOutcome] = {}
                for backend in backends:
                    hits = op_counts[backend.name]

                    def count_op(op: str, hits=hits) -> None:
                        hits[op] = hits.get(op, 0) + 1

                    outcome = execute(script, backend, on_op=count_op)
                    outcomes[backend.name] = outcome
                    mode_counts.per_backend.setdefault(backend.name, OutcomeCounts()).add(outcome)
                verdicts.append(make_verdict(task.script_id, script, outcomes))
        finally:
            stop.set()  # queued requests are dropped if the loop ends early

    inconsistent = [v for v in verdicts if v.status is VerdictStatus.INCONSISTENT]
    suppressed = sorted(
        {v.signature for v in inconsistent if v.signature in config.suppress}
    )
    bug_reports = dedup([v for v in inconsistent if v.signature not in config.suppress])

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
        seed_load_errors=[f"{e.path}: {e.error}" for e in load_errors],
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
                raise GenerationError("empty summary response")
        except _Stopped:
            return
        except (TransportError, GenerationError) as exc:
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
