"""Tests for the pipeline: run loop, counts, artifacts, reports, CLI."""

import dataclasses
import json
import random
import shutil
import sys
import threading
from pathlib import Path

import pytest

from jsonduel.backends.outcomes import describe
from jsonduel.corpus import load_corpus, mine_seeds
from jsonduel.diffcore import VerdictStatus
from jsonduel.llm.client import HttpChatClient, ModelError
from jsonduel.llm.generation import GenParams, MutationMode, pick_rule
from jsonduel.llm.messages import Role, conversation_hash
from jsonduel.llm.mock import ReplayClient, ReplayScenario
from jsonduel.llm.prompts import SUMMARIZE_PROMPT, build_context, build_summary_request
from jsonduel.pipeline import runner
from jsonduel.pipeline.config import (
    CorpusSource,
    PipelineConfig,
    load_config,
    with_overrides,
)
from jsonduel.pipeline.cli import main
from jsonduel.pipeline.report import (
    ModeCounts,
    OutcomeCounts,
    render_jsonl,
    render_text,
    write_reports,
)
from jsonduel.pipeline.runner import _build_client, run
from jsonduel.tdsl.ast import Script
from jsonduel.tdsl.extract import ExtractionFailure
from jsonduel.tdsl.parser import parse_script

import artifact_golden
from clientfix import RecordingScenario, ScriptedClient, completion, connection_pool_size
from conftest import SEEDS_DIR
from scenariofix import (
    BUGGY_SCRIPTS,
    build_planted_scenario,
    wrap_response,
    write_planted_scenario,
)


def record_lines(out_dir: Path) -> list[dict]:
    """`records.jsonl`, one payload per line."""
    with (out_dir / "records.jsonl").open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def planted_config(tmp_path, corpus, **kwargs) -> PipelineConfig:
    scenario = write_planted_scenario(corpus, tmp_path / "scenario.json")
    defaults = dict(
        corpus=CorpusSource(root=SEEDS_DIR),
        backends=("reference", "planted:L1+L2+L3"),
        params=GenParams(seed=42),
        out_dir=tmp_path / "out",
        mock_scenario=scenario,
        in_flight=1,
    )
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


class TestRun:
    def test_planted_bugs_are_found_once_each(self, tmp_path, fixture_corpus):
        report = run(planted_config(tmp_path, fixture_corpus))
        assert report.complete
        assert len(report.bug_reports) == 3
        assert sorted(b.representative_id for b in report.bug_reports) == [
            "issue1204-g0", "issue1874-g0", "issue1965-g0",
        ]

    def test_identical_backends_find_nothing(self, tmp_path, fixture_corpus):
        config = planted_config(
            tmp_path, fixture_corpus, backends=("reference", "reference-copy")
        )
        report = run(config)
        assert report.bug_reports == []
        assert all(v.signature is None for v in report.verdicts)
        # an empty report renders as the header line alone
        assert len((config.out_dir / "bugs.jsonl").read_text().splitlines()) == 1

    def test_three_bug_fixture_renders_four_jsonl_lines(self, tmp_path, fixture_corpus):
        config = planted_config(tmp_path, fixture_corpus)
        report = run(config)
        lines = render_jsonl(report).decode().splitlines()
        assert len(lines) == 4
        assert json.loads(lines[0])["type"] == "run"
        assert all(json.loads(line)["type"] == "bug" for line in lines[1:])

    def test_counts_reconcile(self, tmp_path, fixture_corpus):
        report = run(planted_config(tmp_path, fixture_corpus))
        for counts in report.counts.values():
            assert counts.generated == counts.extraction_failures + counts.executed()
            for oc in counts.per_backend.values():
                assert oc.passed + oc.failed + oc.errored == counts.executed()

    def test_every_record_lands_in_one_bucket(self, tmp_path, fixture_corpus):
        report = run(planted_config(tmp_path, fixture_corpus))
        total = sum(c.generated for c in report.counts.values())
        assert total == len(report.records) == 9

    def test_artifacts_layout(self, tmp_path, fixture_corpus):
        config = planted_config(tmp_path, fixture_corpus)
        report = run(config)
        out = config.out_dir
        assert (out / "bugs.jsonl").is_file()
        assert (out / "verdicts.jsonl").is_file()
        assert (out / "report.txt").is_file()
        ids = [sid for sid, _ in report.records]
        assert len(ids) == 9
        assert [line["script_id"] for line in record_lines(out)] == ids
        flagged = [v.script_id for v in report.verdicts if v.status is VerdictStatus.INCONSISTENT]
        assert len(flagged) == 3
        assert sorted(p.stem for p in (out / "scripts").iterdir()) == sorted(flagged)

    def test_report_lists_each_seed_left_out(self, tmp_path, fixture_corpus):
        seeds = shutil.copytree(SEEDS_DIR, tmp_path / "seeds")
        (seeds / "issue9.t").write_text("let a = ;\n")
        config = dataclasses.replace(
            planted_config(tmp_path, fixture_corpus), corpus=CorpusSource(root=seeds)
        )
        assert run(config).complete
        text = (config.out_dir / "report.txt").read_text()
        cause = "expected an expression (line 1, column 9)"
        assert f"seed load errors: 1\n  - {seeds / 'issue9.t'}: {cause}\n" in text

    def test_flagged_scripts_exec_to_their_recorded_outcomes(self, tmp_path, fixture_corpus, capsys):
        config = planted_config(tmp_path, fixture_corpus)
        report = run(config)
        capsys.readouterr()
        flagged = [v for v in report.verdicts if v.status is VerdictStatus.INCONSISTENT]
        assert flagged
        for verdict in flagged:
            script = config.out_dir / "scripts" / f"{verdict.script_id}.t"
            for engine, outcome in verdict.outcomes.items():
                assert main(["exec", "--script", str(script), "--backend", engine]) == 0
                assert capsys.readouterr().out == describe(outcome) + "\n"

    def test_a_second_run_into_one_out_dir_keeps_only_its_own_flagged_scripts(
        self, tmp_path, fixture_corpus
    ):
        first = run(planted_config(tmp_path, fixture_corpus))
        scripts = tmp_path / "out" / "scripts"
        assert len(list(scripts.iterdir())) == len(first.bug_reports) == 3
        second = run(planted_config(tmp_path, fixture_corpus, backends=("reference", "reference-copy")))
        assert second.bug_reports == []
        assert list(scripts.iterdir()) == []

    def test_a_second_run_that_raises_leaves_no_earlier_report(self, tmp_path, fixture_corpus):
        run(planted_config(tmp_path, fixture_corpus))
        reports = [tmp_path / "out" / name for name in ("verdicts.jsonl", "bugs.jsonl", "report.txt")]
        assert all(path.is_file() for path in reports)
        with pytest.raises(ValueError, match="^no recorded response for conversation "):
            run(planted_config(tmp_path, fixture_corpus), client=ReplayClient(ReplayScenario()))
        assert [path for path in reports if path.exists()] == []

    @pytest.mark.parametrize("under", [".", "out", "a/b"], ids=["root", "child", "grandchild"])
    def test_out_dir_under_the_mined_root_is_refused(self, seeds_dir, under):
        (seeds_dir / "issue1.t").write_text("assert_eq(1, 1);\n")
        out = seeds_dir / under
        config = PipelineConfig(
            corpus=CorpusSource(root=seeds_dir), backends=("reference", "reference-copy"), out_dir=out
        )
        client = ScriptedClient([])
        with pytest.raises(ValueError) as info:
            run(config, client=client)
        assert str(info.value) == f"out_dir {out} is under corpus root {seeds_dir}: a run would mine its output"
        assert client.reserved == 0
        assert sorted(p.name for p in seeds_dir.iterdir()) == ["issue1.t"]

    def test_suppression_removes_bug_but_keeps_verdict(self, tmp_path, fixture_corpus):
        first = run(planted_config(tmp_path, fixture_corpus))
        target = first.bug_reports[0].signature
        config = planted_config(
            tmp_path, fixture_corpus, suppress=frozenset({target}),
            out_dir=tmp_path / "out2",
        )
        second = run(config)
        assert len(second.bug_reports) == 2
        assert target not in {b.signature for b in second.bug_reports}
        assert target in {v.signature for v in second.verdicts if v.signature}
        assert second.suppressed_signatures == [target]

    def test_summaries_are_requested_once_per_seed(self, tmp_path, fixture_corpus):
        # benign-only scenario: replace each buggy first generation response
        import scenariofix

        scenario = scenariofix.build_planted_scenario(fixture_corpus)
        calls = {"n": 0}

        class CountingClient:
            def __init__(self, inner):
                self.inner = inner

            def complete(self, messages, params):
                calls["n"] += 1
                return self.inner.complete(messages, params)

        config = planted_config(tmp_path, fixture_corpus)
        run(config, client=CountingClient(ReplayClient(scenario)))
        assert calls["n"] == 3 + 9  # 3 summaries + 9 generations


class SentRequests:
    """Wraps a client that reserves replies and keeps each conversation it
    is asked for, in request order."""

    def __init__(self, inner):
        self.inner, self.sent = inner, []

    def reserve(self, messages):
        self.sent.append(messages)
        return self.inner.reserve(messages)


class TestSharedPromptParts:
    """A run builds each prompt part once, and every conversation holds it."""

    def _run(self, tmp_path, corpus):
        client = SentRequests(ReplayClient(build_planted_scenario(corpus)))
        report = run(planted_config(tmp_path, corpus), client=client)
        assert report.complete
        return [record for _, record in report.records], client.sent

    def test_a_seeds_conversations_hold_the_messages_its_summary_request_sent(
        self, tmp_path, fixture_corpus
    ):
        records, sent = self._run(tmp_path, fixture_corpus)
        mixed = 0  # seeds whose tasks drew more than one rule
        for seed in fixture_corpus.seeds:
            request = next(m for m in sent if m == build_summary_request(seed.script_text))
            own = [record for record in records if record.seed_id == seed.id]
            for record in own:
                assert all(a is b for a, b in zip(record.messages[:2], request, strict=True))
            mixed += len({record.rule for record in own}) > 1
        assert mixed

    def test_seeds_with_one_rule_share_its_request_message(self, tmp_path, fixture_corpus):
        records, _ = self._run(tmp_path, fixture_corpus)
        shared = 0  # rules drawn for more than one seed
        for rule in {record.rule for record in records}:
            drawn = [record for record in records if record.rule is rule]
            assert all(record.messages[3] is drawn[0].messages[3] for record in drawn)
            shared += len({record.seed_id for record in drawn}) > 1
        assert shared


class TestGenerationRecords:
    SEED = "assert_eq(1, 1);\n"
    SUMMARY = "Tests that one equals one."

    def _run(self, tmp_path, seeds_dir, responses, mutation=MutationMode.RANDOM_ONE,
             backends=("reference", "reference-copy")):
        (seeds_dir / "issue1.t").write_text(self.SEED)
        config = PipelineConfig(
            corpus=CorpusSource(root=seeds_dir),
            backends=backends,
            params=GenParams(seed=5, n_per_seed=1),
            mutation=mutation,
            out_dir=tmp_path / "out",
        )
        client = ScriptedClient(responses)
        return run(config, client=client), client

    def test_summary_reaches_the_context_verbatim(self, tmp_path, seeds_dir):
        report, _ = self._run(tmp_path, seeds_dir, [self.SUMMARY, wrap_response(self.SEED)])
        (_, record), = report.records
        rule = pick_rule(random.Random(5), MutationMode.RANDOM_ONE)
        assert record.rule is rule
        assert record.messages == tuple(build_context(build_summary_request(self.SEED), self.SUMMARY, rule))
        assert [m.content for m in record.messages if m.role is Role.ASSISTANT] == [self.SUMMARY]

    def test_record_keeps_context_and_raw_response(self, tmp_path, seeds_dir):
        response = "Here is a new test:\n```\nassert_eq(1, 1);\n```"
        report, _ = self._run(
            tmp_path, seeds_dir, [self.SUMMARY, response], mutation=MutationMode.NONE
        )
        (script_id, record), = report.records
        assert (script_id, record.seed_id, record.rule) == ("issue1-g0", "issue1", None)
        assert record.messages == tuple(build_context(build_summary_request(self.SEED), self.SUMMARY, None))
        assert record.raw_response == response
        assert isinstance(record.extraction, Script)

    def test_prose_reply_keeps_the_record(self, tmp_path, seeds_dir):
        prose = "I am sorry, I cannot help with that."
        report, _ = self._run(tmp_path, seeds_dir, [self.SUMMARY, prose])
        (_, record), = report.records
        assert isinstance(record.extraction, ExtractionFailure)
        assert record.extracted_script is None
        assert record.raw_response == prose
        assert record.rule is pick_rule(random.Random(5), MutationMode.RANDOM_ONE)
        assert report.counts["mutate"].extraction_failures == 1

    def test_lone_surrogate_script_is_written_and_reparses(self, tmp_path, seeds_dir):
        """UTF-8 cannot carry a lone surrogate raw, so the printer escapes it."""
        text = BUGGY_SCRIPTS["issue1204"] + 'assert_eq("\\ud800", "\\ud800");\n'
        report, _ = self._run(
            tmp_path, seeds_dir, [self.SUMMARY, wrap_response(text)],
            backends=("reference", "planted:L3"),
        )
        (script_id, record), = report.records
        (verdict,) = report.verdicts
        assert verdict.status is VerdictStatus.INCONSISTENT
        script = (tmp_path / "out" / "scripts" / f"{script_id}.t").read_text(encoding="utf-8")
        (line,) = record_lines(tmp_path / "out")
        assert line["extraction"]["script"] == script
        assert parse_script(script) == record.extracted_script

    def test_lone_surrogate_reply_is_recorded_exactly(self, tmp_path, seeds_dir):
        """A raw lone surrogate in a reply is escaped in the record, which
        reads back as the reply itself."""
        response = "```\nassert_eq(1, 1);\n```\n\ud800"
        report, _ = self._run(tmp_path, seeds_dir, [self.SUMMARY, response])
        assert report.complete
        (line,) = record_lines(tmp_path / "out")
        assert line["raw_response"] == response

    def test_empty_summary_aborts_the_run(self, tmp_path, seeds_dir):
        report, client = self._run(tmp_path, seeds_dir, ["", wrap_response(self.SEED)])
        assert not report.complete
        assert report.records == []
        assert client.calls == 1  # the generation is never sent


class _SummaryBarrierClient:
    """Summaries wait until two are in flight at once; generations pass."""

    def __init__(self):
        self.barrier = threading.Barrier(2, timeout=10)

    def complete(self, messages, params):
        if messages[-1].content.endswith(SUMMARIZE_PROMPT):
            self.barrier.wait()
            return "summary"
        return wrap_response("assert_eq(1, 1);\n")


class _GenerationBarrierClient:
    """Generations wait until two are in flight; the one whose prompt
    carries `failing_text` then fails."""

    def __init__(self, failing_text):
        self.failing_text = failing_text
        self.barrier = threading.Barrier(2, timeout=10)

    def complete(self, messages, params):
        if messages[-1].content.endswith(SUMMARIZE_PROMPT):
            return "summary"
        self.barrier.wait()
        if any(self.failing_text in m.content for m in messages):
            raise ModelError("endpoint down")
        return wrap_response("assert_eq(1, 1);\n")


class _CountingClient:
    def __init__(self):
        self.summaries = 0
        self.lock = threading.Lock()

    def complete(self, messages, params):
        if messages[-1].content.endswith(SUMMARIZE_PROMPT):
            with self.lock:
                self.summaries += 1
            return "summary"
        return wrap_response("assert_eq(1, 1);\n")


class TestScheduling:
    def _config(self, tmp_path, seeds_dir, in_flight, n_per_seed=2) -> PipelineConfig:
        return PipelineConfig(
            corpus=CorpusSource(root=seeds_dir),
            backends=("reference", "reference-copy"),
            params=GenParams(seed=1, n_per_seed=n_per_seed),
            mutation=MutationMode.NONE,
            out_dir=tmp_path / "out",
            in_flight=in_flight,
        )

    def test_summaries_share_the_request_slots(self, tmp_path, seeds_dir):
        (seeds_dir / "issue1.t").write_text("assert_eq(1, 1);\n")
        (seeds_dir / "issue2.t").write_text("assert_eq(2, 2);\n")
        client = _SummaryBarrierClient()
        report = run(self._config(tmp_path, seeds_dir, 2), client=client)
        assert report.complete
        assert not client.barrier.broken
        assert len(report.records) == 4

    def test_identical_seed_texts_share_one_summary(self, tmp_path, seeds_dir):
        (seeds_dir / "issue1.t").write_text("assert_eq(1, 1);\n")
        (seeds_dir / "issue2.t").write_text("assert_eq(1, 1);\n")
        client = _CountingClient()
        report = run(self._config(tmp_path, seeds_dir, 4), client=client)
        assert report.complete
        assert client.summaries == 1
        assert len(report.records) == 4

    def test_generation_after_a_failed_one_is_kept(self, tmp_path, seeds_dir):
        (seeds_dir / "issue1.t").write_text("assert_eq(1, 1);\n")
        (seeds_dir / "issue2.t").write_text("assert_eq(2, 2);\n")
        config = self._config(tmp_path, seeds_dir, 2, n_per_seed=1)
        report = run(config, client=_GenerationBarrierClient("assert_eq(1, 1);"))
        assert not report.complete
        assert [sid for sid, _ in report.records] == ["issue2-g0"]
        assert [v.script_id for v in report.verdicts] == ["issue2-g0"]
        assert [line["script_id"] for line in record_lines(config.out_dir)] == ["issue2-g0"]
        text = (config.out_dir / "report.txt").read_text()
        assert "lost:          1 of 2 planned generations" in text

    def test_reports_do_not_depend_on_in_flight(self, tmp_path, fixture_corpus):
        # With mutation off, each seed's generation conversation is asked
        # three times and has three distinct recordings: the planted bug
        # first, then two benign scripts.
        scenario = build_planted_scenario(fixture_corpus, mutation=MutationMode.NONE)
        repeated = [replies for replies in scenario.responses.values() if len(replies) > 1]
        assert len(repeated) == 3
        assert all(len(set(replies)) == len(replies) for replies in repeated)
        path = tmp_path / "repeated.json"
        scenario.save(path)

        def artifacts(in_flight: int) -> tuple:
            config = planted_config(
                tmp_path, fixture_corpus, mutation=MutationMode.NONE, mock_scenario=path,
                in_flight=in_flight, out_dir=tmp_path / f"out{in_flight}",
            )
            report = run(config)
            assert len(report.bug_reports) == 3
            out = config.out_dir
            scripts = {p.name: p.read_bytes() for p in sorted((out / "scripts").iterdir())}
            assert len(scripts) == 3
            records = record_lines(out)
            for line in records:
                del line["timestamp"]
            return (
                (out / "verdicts.jsonl").read_bytes(),
                (out / "report.txt").read_bytes(),
                (out / "bugs.jsonl").read_bytes().split(b"\n", 1)[1],
                scripts,
                records,
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            expected = artifacts(1)
            for _ in range(20):
                for in_flight in (1, 4, 8):
                    assert artifacts(in_flight) == expected, in_flight
        finally:
            sys.setswitchinterval(interval)


class TestScriptedBuckets:
    def test_outcome_taxonomy_buckets(self, tmp_path, seeds_dir):
        (seeds_dir / "issue1.t").write_text("assert_eq(1, 1);\n")
        valid = [wrap_response("assert_eq(1, 1);\n")] * 6
        failing = [wrap_response(f"assert_eq(1, {k});\n") for k in (2, 3)]
        prose = ["I am unable to produce a test for this input."]
        responses = ["summary of the seed"] + valid + failing + prose
        config = PipelineConfig(
            corpus=CorpusSource(root=seeds_dir),
            backends=("reference", "reference-copy"),
            params=GenParams(seed=1, n_per_seed=9),
            mutation=MutationMode.NONE,
            out_dir=tmp_path / "out",
            in_flight=1,
        )
        report = run(config, client=ScriptedClient(responses))
        counts = report.counts["plain"]
        assert counts.generated == 9
        assert counts.extraction_failures == 1
        assert counts.executed() == 8
        for oc in counts.per_backend.values():
            assert (oc.passed, oc.failed, oc.errored) == (6, 2, 0)
        text = render_text(report).decode()
        assert "Pass" in text and "Failure/Exception" in text and "Compile Error" in text
        # the three shares are over generated tests and sum to 100%
        assert "66.7" in text and "22.2" in text and "11.1" in text
        assert report.bug_reports == []


class TestReproducibility:
    def test_identical_runs_produce_identical_bugs_jsonl(self, tmp_path, fixture_corpus):
        config_a = planted_config(tmp_path, fixture_corpus, out_dir=tmp_path / "a")
        config_b = planted_config(tmp_path, fixture_corpus, out_dir=tmp_path / "b")
        run(config_a)
        run(config_b)

        def normalized(path: Path) -> list:
            lines = path.read_text().splitlines()
            header = json.loads(lines[0])
            assert header["started_at"]
            header["started_at"] = None
            header["config"]["out_dir"] = None
            return [header] + lines[1:]

        assert normalized(tmp_path / "a" / "bugs.jsonl") == normalized(
            tmp_path / "b" / "bugs.jsonl"
        )
        assert (tmp_path / "a" / "verdicts.jsonl").read_bytes() == (
            tmp_path / "b" / "verdicts.jsonl"
        ).read_bytes()

    def test_signatures_stable_across_runs(self, tmp_path, fixture_corpus):
        first = run(planted_config(tmp_path, fixture_corpus, out_dir=tmp_path / "x"))
        second = run(planted_config(tmp_path, fixture_corpus, out_dir=tmp_path / "y"))
        assert [b.signature for b in first.bug_reports] == [
            b.signature for b in second.bug_reports
        ]

    def test_json_artifacts_do_not_depend_on_dict_order(self, tmp_path, fixture_corpus):
        """`counts` takes its modes in reply order when in_flight > 1, so
        the artifacts must not follow any dict's insertion order."""
        report = run(planted_config(tmp_path, fixture_corpus))

        def flipped(d: dict) -> dict:
            return dict(reversed(d.items()))

        plain = ModeCounts(2, 1, {
            "reference": OutcomeCounts(passed=1), "planted:L1+L2+L3": OutcomeCounts(failed=1),
        })
        forward = dataclasses.replace(report, counts={**report.counts, "plain": plain})
        reverse = dataclasses.replace(
            forward,
            counts={
                mode: dataclasses.replace(mc, per_backend=flipped(mc.per_backend))
                for mode, mc in flipped(forward.counts).items()
            },
            verdicts=[dataclasses.replace(v, outcomes=flipped(v.outcomes)) for v in report.verdicts],
            bug_reports=[
                dataclasses.replace(b, outcomes=flipped(b.outcomes)) for b in report.bug_reports
            ],
            op_counts={name: flipped(hits) for name, hits in flipped(report.op_counts).items()},
        )
        for name, built in (("forward", forward), ("reverse", reverse)):
            (tmp_path / name).mkdir()
            write_reports(built, tmp_path / name)
        for artifact in ("verdicts.jsonl", "bugs.jsonl", "report.txt"):
            assert (tmp_path / "forward" / artifact).read_bytes() == (
                tmp_path / "reverse" / artifact
            ).read_bytes(), artifact

    def test_artifacts_match_the_golden_file(self, tmp_path):
        """The planted-bug replay at in_flight 1, 4 and 8, with mutation on
        and off, writes the same bytes as when the file was made."""
        lines = artifact_golden.GOLDEN.read_text(encoding="utf-8").splitlines()
        expected = [json.loads(line) for line in lines]
        actual = artifact_golden.records(tmp_path)
        assert len(actual) == len(expected) == 48
        differ = [(e, a) for e, a in zip(expected, actual) if e != a]
        assert not differ, f"{len(differ)} artifacts differ, first: {differ[0]}"


class TestFailureModes:
    def test_transport_failure_aborts_with_partial_report(self, tmp_path, seeds_dir):
        (seeds_dir / "issue1.t").write_text("assert_eq(1, 1);\n")
        config = PipelineConfig(
            corpus=CorpusSource(root=seeds_dir),
            backends=("reference", "reference-copy"),
            params=GenParams(seed=1),
            out_dir=tmp_path / "out",
            in_flight=1,
        )
        report = run(config, client=ScriptedClient([ModelError("endpoint down")]))
        assert not report.complete
        assert report.records == []
        header = json.loads((tmp_path / "out" / "bugs.jsonl").read_text().splitlines()[0])
        assert header["complete"] is False

    def test_late_transport_failure_keeps_completed_generations(self, tmp_path, seeds_dir):
        (seeds_dir / "issue1.t").write_text("assert_eq(1, 1);\n")
        responses = (
            ["summary"]
            + [wrap_response("assert_eq(1, 1);\n")] * 9
            + [ModelError("endpoint down")]
        )
        client = ScriptedClient(responses)
        config = PipelineConfig(
            corpus=CorpusSource(root=seeds_dir),
            backends=("reference", "reference-copy"),
            params=GenParams(seed=1, n_per_seed=12),
            mutation=MutationMode.NONE,
            out_dir=tmp_path / "out",
            in_flight=1,
        )
        report = run(config, client=client)
        assert not report.complete
        assert client.calls == 11  # nothing is sent after the failure
        assert [sid for sid, _ in report.records] == [f"issue1-g{k}" for k in range(9)]
        assert len(report.verdicts) == 9
        assert [line["script_id"] for line in record_lines(config.out_dir)] == [
            sid for sid, _ in report.records
        ]
        text = (config.out_dir / "report.txt").read_text()
        assert "lost:          3 of 12 planned generations" in text

    @pytest.mark.parametrize("in_flight", [1, 4])
    def test_late_transport_failure_prepares_nothing_after_it(
        self, tmp_path, seeds_dir, monkeypatch, in_flight
    ):
        (seeds_dir / "issue1.t").write_text("assert_eq(1, 1);\n")
        script = wrap_response("assert_eq(1, 1);\n")
        client = ScriptedClient(["summary"] + [script] * 9 + [ModelError("down")] + [script] * 390)
        prepared_at_failure = []
        guarded = runner._guarded

        def spy(stop, fn):
            try:
                return guarded(stop, fn)
            except ModelError:
                prepared_at_failure.append(client.reserved)
                raise

        monkeypatch.setattr(runner, "_guarded", spy)
        config = PipelineConfig(
            corpus=CorpusSource(root=seeds_dir),
            backends=("reference", "reference-copy"),
            params=GenParams(seed=1, n_per_seed=400),
            mutation=MutationMode.NONE,
            out_dir=tmp_path / "out",
            in_flight=in_flight,
        )
        report = run(config, client=client)
        assert not report.complete
        # The run stops before the spy sees the failure; after that, at most
        # the request whose task was already taken is prepared.
        assert client.reserved <= prepared_at_failure[0] + 1 < 401
        ids = [sid for sid, _ in report.records]
        # Workers may drop one of the nine once the failure is seen.
        assert ids == [f"issue1-g{k}" for k in range(9) if f"issue1-g{k}" in ids]
        assert len(report.verdicts) == len(ids)
        assert [line["script_id"] for line in record_lines(config.out_dir)] == ids
        text = (config.out_dir / "report.txt").read_text()
        assert f"lost:          {400 - len(ids)} of 400 planned generations" in text

    @pytest.mark.parametrize("in_flight", [1, 4])
    def test_transport_failure_still_records_later_context_overflows(
        self, tmp_path, seeds_dir, in_flight
    ):
        (seeds_dir / "issue1.t").write_text("assert_eq(1, 1);\n")
        (seeds_dir / "issue2.t").write_text(f'assert_eq("{"x" * 2000}", "x");\n')
        fits = sum(len(m.content) for m in build_context(build_summary_request("assert_eq(1, 1);\n"), "s1", None))
        script = wrap_response("assert_eq(1, 1);\n")
        client = ScriptedClient(["s1", "s2", script, script, ModelError("down")])
        config = PipelineConfig(
            corpus=CorpusSource(root=seeds_dir),
            backends=("reference", "reference-copy"),
            params=GenParams(seed=1, n_per_seed=20),
            mutation=MutationMode.NONE,
            out_dir=tmp_path / "out",
            in_flight=in_flight,
            context_limit_chars=fits + 500,
        )
        report = run(config, client=client)
        assert not report.complete
        ids = [sid for sid, _ in report.records]
        # issue2's prompts need no request: each is recorded as an overflow,
        # however far the run had got when issue1-g2 failed.
        overflows = [f"issue2-g{k}" for k in range(20)]
        assert ids == [sid for sid in ("issue1-g0", "issue1-g1") if sid in ids] + overflows
        assert all(
            record.extraction.category == "context-overflow"
            for sid, record in report.records if sid in overflows
        )
        # Those behind a generation that was never handled are written at the end.
        assert [line["script_id"] for line in record_lines(config.out_dir)] == ids
        text = (config.out_dir / "report.txt").read_text()
        assert f"lost:          {40 - len(ids)} of 40 planned generations" in text

    def test_empty_completion_aborts_like_transport_failure(self, tmp_path, seeds_dir):
        (seeds_dir / "issue1.t").write_text("assert_eq(1, 1);\n")
        config = PipelineConfig(
            corpus=CorpusSource(root=seeds_dir),
            backends=("reference", "reference-copy"),
            params=GenParams(seed=1),
            out_dir=tmp_path / "out",
            in_flight=1,
        )
        report = run(config, client=ScriptedClient([ModelError("empty completion response")]))
        assert not report.complete

    @pytest.mark.parametrize("ids, manifest", [(("issue 1", "issue_1"), False), (("a b", "a_b"), True)])
    def test_seed_ids_alike_once_sanitized_are_rejected_before_any_request(
        self, tmp_path, seeds_dir, ids, manifest
    ):
        for seed_id in ids:
            (seeds_dir / f"{seed_id}.t").write_text("assert_eq(1, 1);\n")
        corpus = CorpusSource(root=seeds_dir)
        if manifest:
            corpus = CorpusSource(manifest=tmp_path / "manifest.json")
            seeds = [{"id": seed_id, "path": f"seeds/{seed_id}.t"} for seed_id in ids]
            corpus.manifest.write_text(json.dumps({"seeds": seeds}))
        config = PipelineConfig(
            corpus=corpus,
            backends=("reference", "reference-copy"),
            out_dir=tmp_path / "out",
        )
        client = ScriptedClient(["summary"])
        with pytest.raises(ValueError) as info:
            run(config, client=client)
        assert str(info.value) == f"seed ids '{ids[0]}' and '{ids[1]}' both sanitize to '{ids[1]}'"
        assert client.reserved == client.calls == 0

    def test_replay_miss_is_a_usage_error_at_the_cli(self, tmp_path, seeds_dir, capsys):
        (seeds_dir / "issue1.t").write_text("assert_eq(1, 1);\n")
        RecordingScenario().save(tmp_path / "empty_scenario.json")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "corpus": {"root": str(seeds_dir)},
            "backends": ["reference", "reference-copy"],
            "out_dir": str(tmp_path / "out"),
            "mock_scenario": str(tmp_path / "empty_scenario.json"),
        }))
        assert main(["run", "--config", str(config_path)]) == 1
        request = build_summary_request("assert_eq(1, 1);\n")
        assert capsys.readouterr().err == (  # the message itself, not an exception's repr
            f"error: no recorded response for conversation {conversation_hash(request)[:12]}… "
            f"(last message starts {request[-1].content[:80]!r})\n"
        )

    def test_a_reply_nested_too_deep_is_an_extraction_failure(self, tmp_path, seeds_dir):
        """Such a reply ran out of stack in `execute`, and the run ended
        with a traceback and no report, before expressions were capped."""
        (seeds_dir / "issue1.t").write_text("assert_eq(1, 1);\n")
        config = PipelineConfig(
            corpus=CorpusSource(root=seeds_dir),
            backends=("reference", "reference-copy"),
            params=GenParams(seed=1, n_per_seed=1),
            mutation=MutationMode.NONE,
            out_dir=tmp_path / "out",
        )
        deep = f'let a = {"is_valid(" * 250}parse("{"[" * 250}{"]" * 250}"){")" * 250}; assert_not_null(a);'
        report = run(config, client=ScriptedClient(["short summary", deep]))
        (_, record), = report.records
        assert record.extraction.error == "expression nesting too deep (line 1, column 594)"
        assert (tmp_path / "out" / "report.txt").is_file()

    def test_context_overflow_recorded_not_sent(self, tmp_path, seeds_dir):
        (seeds_dir / "issue1.t").write_text("assert_eq(1, 1);\n")
        config = PipelineConfig(
            corpus=CorpusSource(root=seeds_dir),
            backends=("reference", "reference-copy"),
            params=GenParams(seed=1, n_per_seed=1),
            mutation=MutationMode.NONE,
            out_dir=tmp_path / "out",
            in_flight=1,
            context_limit_chars=40,
        )
        report = run(config, client=ScriptedClient(["short summary"]))
        assert report.counts["plain"].extraction_failures == 1
        (_, record), = report.records
        assert record.extraction.category == "context-overflow"


class InOrderClient(ScriptedClient):
    """Hands replies over in the order the requests were prepared."""

    def __init__(self, responses):
        super().__init__(responses)
        self._turn = 0
        self._turns = threading.Condition()

    def reserve(self, messages):
        hand_over = super().reserve(messages)
        index = self.reserved - 1

        def in_turn() -> str:
            with self._turns:
                assert self._turns.wait_for(lambda: self._turn == index, 10), "out of turn"
            try:
                return hand_over()
            finally:
                with self._turns:
                    self._turn += 1
                    self._turns.notify_all()

        return in_turn


class LateClient(ScriptedClient):
    """Hands reply `late` over only once every other one has been."""

    def __init__(self, responses, late: int):
        super().__init__(responses)
        self.others_done = threading.Event()
        self._late = late

    def reserve(self, messages):
        hand_over = super().reserve(messages)
        index = self.reserved - 1

        def deliver() -> str:
            if index == self._late:
                assert self.others_done.wait(10), "the other replies were held up"
                return hand_over()
            reply = hand_over()
            if self.calls == len(self.responses) - 1:
                self.others_done.set()
            return reply

        return deliver


class TestSendWindow:
    """A run keeps at most `OPEN_PER_SLOT * in_flight` generations sent
    but not handled, handles each reply as it arrives and reports in task
    order; it builds each conversation once."""

    @pytest.mark.parametrize("in_flight", [1, 2])
    def test_generations_prepared_ahead_of_the_one_handled(
        self, tmp_path, seeds_dir, monkeypatch, in_flight
    ):
        for i in range(3):
            (seeds_dir / f"issue{i}.t").write_text(f"assert_eq({i}, {i});\n")
        client = InOrderClient(["summary"] * 3 + [wrap_response("assert_eq(1, 1);\n")] * 360)
        prepared: list[int] = []
        extract = runner.extract_script

        def spy(raw):
            prepared.append(client.reserved)
            return extract(raw)

        monkeypatch.setattr(runner, "extract_script", spy)
        config = PipelineConfig(
            corpus=CorpusSource(root=seeds_dir),
            backends=("reference", "reference-copy"),
            params=GenParams(seed=1, n_per_seed=120),
            out_dir=tmp_path / "out",
            in_flight=in_flight,
        )
        assert run(config, client=client).complete
        ahead = runner.OPEN_PER_SLOT * in_flight
        assert len(prepared) == 360
        # Handling generation k: at most the three summaries, k and the
        # `ahead` after it, not all 360.
        assert all(count <= 3 + k + ahead for k, count in enumerate(prepared))

    def test_a_late_reply_does_not_hold_up_the_others(self, tmp_path, seeds_dir):
        (seeds_dir / "issue1.t").write_text("assert_eq(1, 1);\n")
        script = wrap_response("assert_eq(1, 1);\n")
        # The first generation arrives only after the 299 behind it.
        client = LateClient(["summary"] + [script] * 300, late=1)
        config = PipelineConfig(
            corpus=CorpusSource(root=seeds_dir),
            backends=("reference", "reference-copy"),
            params=GenParams(seed=1, n_per_seed=300),
            mutation=MutationMode.NONE,
            out_dir=tmp_path / "out",
            in_flight=2,
        )
        report = run(config, client=client)
        assert report.complete and client.others_done.is_set()
        # Handled last, the first generation is still reported first.
        ids = [f"issue1-g{k}" for k in range(300)]
        assert [sid for sid, _ in report.records] == ids
        assert [v.script_id for v in report.verdicts] == ids
        lines = (config.out_dir / "verdicts.jsonl").read_text().splitlines()
        assert [json.loads(line)["script_id"] for line in lines] == ids

    def test_tasks_with_one_conversation_share_its_messages(self, tmp_path, seeds_dir):
        (seeds_dir / "issue1.t").write_text("assert_eq(1, 1);\n")
        (seeds_dir / "issue2.t").write_text("assert_eq(2, 2);\n")
        config = PipelineConfig(
            corpus=CorpusSource(root=seeds_dir),
            backends=("reference", "reference-copy"),
            params=GenParams(seed=1, n_per_seed=3),
            mutation=MutationMode.NONE,
            out_dir=tmp_path / "out",
            in_flight=2,
        )
        client = ScriptedClient(["one", "two"] + [wrap_response("assert_eq(1, 1);\n")] * 6)
        report = run(config, client=client)
        by_seed: dict[str, set[int]] = {}
        for _, record in report.records:
            by_seed.setdefault(record.seed_id, set()).add(id(record.messages))
        assert sorted(len(ids) for ids in by_seed.values()) == [1, 1]
        first, second = (record.messages for _, record in report.records[::3])
        assert first is not second and first[2].content == "one" and second[2].content == "two"


class TestConfig:
    def _write(self, tmp_path, payload) -> Path:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return path

    def test_load_and_resolve_relative_paths(self, tmp_path):
        (tmp_path / "seeds").mkdir()
        (tmp_path / "seeds" / "issue1.t").write_text("assert_eq(1, 1);\n")
        path = self._write(
            tmp_path,
            {
                "corpus": {"root": "seeds"},
                "backends": ["reference", "planted:L2"],
                "rng_seed": 7,
                "mutation": "none",
                "out_dir": "results",
                "temperature": 1,
                "endpoint": None,
            },
        )
        config = load_config(path)
        assert config.corpus.root == tmp_path / "seeds"
        assert config.out_dir == tmp_path / "results"
        assert config.params.seed == 7
        assert (config.params.temperature, config.endpoint) == (1, None)
        assert config.mutation is MutationMode.NONE

    def test_absent_keys_take_the_dataclass_defaults(self, tmp_path):
        path = self._write(tmp_path, {"corpus": {"root": "."}, "backends": ["reference", "planted:L2"]})
        config = load_config(path)
        expected = PipelineConfig(
            corpus=CorpusSource(root=tmp_path / "."), backends=("reference", "planted:L2")
        )
        for field in dataclasses.fields(PipelineConfig):
            got, want = getattr(config, field.name), getattr(expected, field.name)
            if field.name == "out_dir":  # relative, so it resolves against the config's directory
                want = tmp_path / want
            assert got == want, field.name

    def test_fewer_than_two_backends_rejected(self, tmp_path):
        path = self._write(
            tmp_path, {"corpus": {"root": "."}, "backends": ["reference"]}
        )
        with pytest.raises(ValueError, match="at least 2"):
            load_config(path)

    def test_unknown_backend_rejected(self, tmp_path):
        path = self._write(
            tmp_path, {"corpus": {"root": "."}, "backends": ["reference", "nope"]}
        )
        with pytest.raises(ValueError, match="unknown backend"):
            load_config(path)

    def test_duplicate_backends_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            {"corpus": {"root": "."}, "backends": ["reference", "reference"]},
        )
        with pytest.raises(ValueError, match="unique"):
            load_config(path)

    def test_corpus_needs_exactly_one_source(self, tmp_path):
        path = self._write(
            tmp_path,
            {
                "corpus": {"root": ".", "manifest": "m.json"},
                "backends": ["reference", "reference-copy"],
            },
        )
        with pytest.raises(ValueError, match="exactly one"):
            load_config(path)

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{nope")
        with pytest.raises(ValueError) as info:
            load_config(path)
        assert str(info.value) == (
            f"cannot read config {path}: "
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
        )

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("in_flight", "4", "config key 'in_flight' must be an integer"),
            ("in_flight", True, "config key 'in_flight' must be an integer"),
            ("in_flight", None, "config key 'in_flight' must be an integer"),
            ("n_per_seed", "3", "config key 'n_per_seed' must be an integer"),
            ("n_per_seed", 2.5, "config key 'n_per_seed' must be an integer"),
            ("rng_seed", "7", "config key 'rng_seed' must be an integer"),
            ("temperature", "hot", "config key 'temperature' must be a number"),
            ("temperature", False, "config key 'temperature' must be a number"),
            ("model", 5, "config key 'model' must be a string"),
            ("mutation", ["none"], "config key 'mutation' must be a string"),
            ("out_dir", 5, "config key 'out_dir' must be a string"),
            ("suppress", 5, "config key 'suppress' must be a list of strings"),
            ("suppress", [5], "config key 'suppress' must be a list of strings"),
            ("backends", "reference", "config key 'backends' must be a list of strings"),
            ("corpus", {"root": 5}, "config key 'corpus.root' must be a string"),
            ("corpus", {"manifest": 5}, "config key 'corpus.manifest' must be a string"),
            ("corpus", {"root": ".", "keyword": 7}, "config key 'corpus.keyword' must be a string"),
            ("n_per_sed", 9, "unknown config key 'n_per_sed'"),
            ("rounds", 2, "unknown config key 'rounds'"),
            ("corpus", {"root": ".", "kewyord": "x"}, "unknown config key 'corpus.kewyord'"),
            ("context_limit_chars", -5, "context_limit_chars must be >= 0"),
        ],
        ids=[
            "in_flight-string", "in_flight-true", "in_flight-null", "n_per_seed-string",
            "n_per_seed-fraction", "rng_seed-string", "temperature-string",
            "temperature-false", "model-number", "mutation-list", "out_dir-number",
            "suppress-number", "suppress-number-list", "backends-string", "corpus-root-number",
            "corpus-manifest-number", "corpus-keyword-number", "unknown-key", "unknown-rounds",
            "unknown-corpus-key", "context_limit_chars-negative",
        ],
    )
    def test_wrong_json_type_rejected(self, tmp_path, key, value, message):
        payload = {"corpus": {"root": "."}, "backends": ["reference", "reference-copy"]}
        path = self._write(tmp_path, {**payload, key: value})
        with pytest.raises(ValueError) as info:
            load_config(path)
        assert str(info.value) == message

    def test_overrides(self, tmp_path):
        config = PipelineConfig(
            corpus=CorpusSource(root=tmp_path),
            backends=("reference", "reference-copy"),
        )
        updated = with_overrides(config, seed=99, mutation="none", out=tmp_path / "o")
        assert updated.params.seed == 99
        assert updated.mutation is MutationMode.NONE
        assert updated.out_dir == tmp_path / "o"


def _config_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"corpus": {"root": "."}, "backends": ["reference"]}))
    return lambda: load_config(path), "differential testing needs at least 2 backends"


def _params_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"corpus": {"root": "."}, "backends": ["reference", "reference-copy"], "temperature": 9}
    ))
    return lambda: load_config(path), "temperature out of range: 9"


def _manifest_error(tmp_path):
    (tmp_path / "a.t").write_text("assert_eq(1, 1);\n")
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"seeds": [{"id": "a", "path": "a.t"}] * 2}))
    return lambda: load_corpus(path), "duplicate seed id 'a' in manifest"


def _mining_error(tmp_path):
    return lambda: mine_seeds(tmp_path, "issue"), f"no seed files matching '*issue*.t' under {tmp_path}"


def _engine_name_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"corpus": {"root": "."}, "backends": ["reference", "planted:L9"]}))
    return lambda: load_config(path), "unknown planted bug code 'L9' in 'planted:L9'"


def _out_dir_error(tmp_path):
    (tmp_path / "issue1.t").write_text("assert_eq(1, 1);\n")
    config = PipelineConfig(corpus=CorpusSource(root=tmp_path), backends=("reference", "reference-copy"),
                            out_dir=tmp_path / "out")
    message = f"out_dir {tmp_path / 'out'} is under corpus root {tmp_path}: a run would mine its output"
    return lambda: run(config, client=ScriptedClient([])), message


def _seed_id_error(tmp_path):
    for name in ("issue 1", "issue_1"):
        (tmp_path / f"{name}.t").write_text("assert_eq(1, 1);\n")
    config = PipelineConfig(corpus=CorpusSource(root=tmp_path), backends=("reference", "reference-copy"),
                            out_dir=tmp_path.parent / "out")
    message = "seed ids 'issue 1' and 'issue_1' both sanitize to 'issue_1'"
    return lambda: run(config, client=ScriptedClient([])), message


@pytest.mark.parametrize(
    "bad_input",
    [_config_error, _params_error, _manifest_error, _mining_error, _engine_name_error,
     _out_dir_error, _seed_id_error],
    ids=["config", "config-params", "manifest", "mining", "engine-name", "out_dir-under-root",
         "seed-id-collision"],
)
def test_bad_input_is_a_plain_value_error(tmp_path, bad_input):
    """Every kind of bad input raises a `ValueError` itself, no subclass."""
    (tmp_path / "in").mkdir()
    load, message = bad_input(tmp_path / "in")
    with pytest.raises(ValueError) as info:
        load()
    assert (type(info.value), str(info.value)) == (ValueError, message)


class _SummaryThenEmptySession:
    """Answers the first post (the seed's summary) with text and every
    later one with an empty completion."""

    def __init__(self):
        self.posts = 0
        self.lock = threading.Lock()

    def post(self, url, json=None, headers=None, timeout=None):
        with self.lock:
            self.posts += 1
            first = self.posts == 1
        return completion("A summary." if first else "")


class TestCli:
    def _config_file(self, tmp_path, fixture_corpus) -> Path:
        scenario = write_planted_scenario(fixture_corpus, tmp_path / "scenario.json")
        payload = {
            "corpus": {"root": str(SEEDS_DIR)},
            "backends": ["reference", "planted:L1+L2+L3"],
            "rng_seed": 42,
            "out_dir": str(tmp_path / "out"),
            "mock_scenario": str(scenario),
            "in_flight": 1,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return path

    def test_run_exits_3_when_bugs_found(self, tmp_path, fixture_corpus, capsys):
        code = main(["run", "--config", str(self._config_file(tmp_path, fixture_corpus))])
        assert code == 3
        assert "3 unique candidate bugs" in capsys.readouterr().out

    def test_run_exits_0_when_clean(self, tmp_path, fixture_corpus, capsys):
        config = self._config_file(tmp_path, fixture_corpus)
        payload = json.loads(config.read_text())
        payload["backends"] = ["reference", "reference-copy"]
        config.write_text(json.dumps(payload))
        assert main(["run", "--config", str(config)]) == 0

    def test_run_aborted_by_an_empty_completion_exits_2(
        self, tmp_path, seeds_dir, monkeypatch, capsys, caplog
    ):
        """The abort line names no cause: the run stops on an empty reply
        as it does on a transport failure, and the log names the cause."""
        (seeds_dir / "issue1.t").write_text("assert_eq(1, 1);\n")
        session = _SummaryThenEmptySession()
        monkeypatch.setattr(
            "jsonduel.pipeline.runner.HttpChatClient",
            lambda **_: HttpChatClient(endpoint="http://x", session=session, sleep=lambda s: None),
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "corpus": {"root": str(seeds_dir)},
            "backends": ["reference", "reference-copy"],
            "out_dir": str(tmp_path / "out"),
        }))
        assert main(["run", "--config", str(config)]) == 2
        assert capsys.readouterr().out == (
            f"report written to {tmp_path / 'out'}\n"
            "run aborted: a model request failed; partial report flagged incomplete\n"
        )
        assert "aborting run, generation issue1" in caplog.text
        assert "failed: empty completion response" in caplog.text

    def test_run_usage_error_exit_1(self, tmp_path):
        missing = tmp_path / "missing.json"
        assert main(["run", "--config", str(missing)]) == 1

    def test_config_type_error_exit_1(self, tmp_path, fixture_corpus, capsys):
        config = self._config_file(tmp_path, fixture_corpus)
        payload = json.loads(config.read_text())
        config.write_text(json.dumps({**payload, "in_flight": "4"}))
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == "error: config key 'in_flight' must be an integer\n"

    @pytest.mark.parametrize(
        "extra, key",
        [({"in_fligth": 8}, "in_fligth"), ({"corpus": {"root": ".", "kewyord": "x"}}, "corpus.kewyord")],
        ids=["top-level", "corpus"],
    )
    def test_unknown_config_key_exit_1(self, tmp_path, fixture_corpus, capsys, extra, key):
        config = self._config_file(tmp_path, fixture_corpus)
        payload = json.loads(config.read_text())
        config.write_text(json.dumps({**payload, **extra}))
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: unknown config key '{key}'\n"

    def test_seed_ids_alike_once_sanitized_exit_1(self, tmp_path, seeds_dir, capsys):
        for name in ("issue 1", "issue_1"):
            (seeds_dir / f"{name}.t").write_text("assert_eq(1, 1);\n")
        RecordingScenario().save(tmp_path / "empty_scenario.json")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "corpus": {"root": str(seeds_dir)},
            "backends": ["reference", "reference-copy"],
            "out_dir": str(tmp_path / "out"),
            "mock_scenario": str(tmp_path / "empty_scenario.json"),
        }))
        assert main(["run", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: seed ids 'issue 1' and 'issue_1' both sanitize to 'issue_1'\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "target, how",
        [
            pytest.param(target, how, id=target if how == "not UTF-8" else f"{target}-{how}")
            for target in ("config", "manifest", "scenario", "cases file", "case script", "script")
            for how in ("not UTF-8", "missing", "directory")
        ]
        + [pytest.param("seed", "not UTF-8", id="seed"), pytest.param("seed", "unopenable", id="seed-unopenable")],
    )
    def test_input_that_is_not_utf8_is_named(
        self, tmp_path, fixture_corpus, capsys, monkeypatch, target, how
    ):
        """Every input file that is not UTF-8, missing or a directory is
        one usage error naming what it is, its path and the cause. A seed
        that cannot be read is reported and left out; mine still succeeds."""
        config = self._config_file(tmp_path, fixture_corpus)
        bad = tmp_path / "bad"
        if target == "seed":
            bad = shutil.copytree(SEEDS_DIR, tmp_path / "seeds") / "issue9999.t"
        cause = {
            "not UTF-8": "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
            "missing": f"[Errno 2] No such file or directory: '{bad}'",
            "directory": f"[Errno 21] Is a directory: '{bad}'",
            "unopenable": f"[Errno 13] Permission denied: '{bad}'",
        }[how]
        if how == "directory":
            bad.mkdir()
        elif how != "missing":
            bad.write_bytes(b"\xff{}")
        if how == "unopenable":  # root may open any file, so the refusal is simulated
            def refusing_open(path, *args, **kwargs):
                if Path(path) == bad:
                    raise PermissionError(13, "Permission denied", str(path))
                return open(path, *args, **kwargs)

            monkeypatch.setattr("jsonduel.corpus.open", refusing_open, raising=False)
        code, expected = 1, f"error: cannot read {target} {bad}: {cause}"
        if target == "seed":
            argv = ["mine", "--root", str(bad.parent), "--out", str(tmp_path / "manifest.json")]
            code, expected = 0, f"load error: {bad}: {cause}"
        elif target == "config":
            argv = ["run", "--config", str(bad)]
        elif target == "manifest":
            payload = json.loads(config.read_text())
            payload["corpus"] = {"manifest": str(bad)}
            config.write_text(json.dumps(payload))
            argv = ["run", "--config", str(config)]
        elif target == "scenario":
            argv = ["run", "--config", str(config), "--mock", str(bad)]
        elif target == "cases file":
            argv = ["classify", "--cases", str(bad)]
        elif target == "case script":
            cases = tmp_path / "cases.jsonl"
            outcome = {"result": "error", "kind": "ParseError", "message": "m"}
            cases.write_text(json.dumps({"script_path": bad.name, "outcome": outcome}) + "\n")
            argv = ["classify", "--cases", str(cases)]
            expected = f"error: {cases}:1: cannot read case script {bad}: {cause}"
        else:
            argv = ["exec", "--script", str(bad), "--backend", "reference"]
        assert main(argv) == code
        assert capsys.readouterr().err == expected + "\n"

    @pytest.mark.parametrize(
        "target, how",
        [
            pytest.param(target, how, id=f"{target}-{how.replace(' ', '-')}")
            for target in ("config", "manifest", "scenario")
            for how in ("not JSON", "not an object", "repeated key", "too deep", "NaN", "-Infinity")
        ]
        + [
            pytest.param("cases file", how, id=f"cases-line-{how.replace(' ', '-')}")
            for how in ("repeated key", "too deep", "NaN", "Infinity", "-Infinity")
        ],
    )
    def test_input_that_does_not_decode_is_named(self, tmp_path, fixture_corpus, capsys, target, how):
        """A JSON input that is not JSON (`NaN` and `Infinity` are not), not
        an object, repeats a key or nests too deep for the decoder is one
        usage error naming what it is, its path and the cause; such a cases
        line is named by its file and line."""
        config = self._config_file(tmp_path, fixture_corpus)
        repeated, key = {
            "config": ('{"in_flight": 1, "in_flight": 64}', "in_flight"),
            "manifest": ('{"seeds": [{"id": "a", "path": "a.t"}], "seeds": []}', "seeds"),
            "scenario": ('{"version": 1, "responses": {"ab": ["hi"], "ab": ["ho"]}}', "ab"),
            "cases file": ('{"script_path": "a.t", "script_path": "b.t"}', "script_path"),
        }[target]
        text, cause = {
            "not JSON": ("{nope", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            "not an object": ("[]", "not a JSON object"),
            "repeated key": (repeated, f"repeated key '{key}'"),
            "too deep": ("[" * 100_000, "nesting too deep"),
        }.get(how, (f'{{"a": [1, {how}]}}', f"{how} is not JSON"))
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        expected = f"error: cannot read {target} {bad}: {cause}"
        if target == "config":
            argv = ["run", "--config", str(bad)]
        elif target == "manifest":
            payload = json.loads(config.read_text())
            config.write_text(json.dumps({**payload, "corpus": {"manifest": str(bad)}}))
            argv = ["run", "--config", str(config)]
        elif target == "scenario":
            argv = ["run", "--config", str(config), "--mock", str(bad)]
        else:
            argv = ["classify", "--cases", str(bad)]
            expected = f"error: {bad}:1: malformed JSON: {cause}"
        assert main(argv) == 1
        assert capsys.readouterr().err == expected + "\n"

    def test_out_dir_under_the_mined_root_exit_1_until_out_moves_it(self, tmp_path, fixture_corpus, capsys):
        corpus = shutil.copytree(SEEDS_DIR, tmp_path / "corpus")
        scenario = write_planted_scenario(fixture_corpus, tmp_path / "scenario.json")
        config = corpus / "config.json"
        config.write_text(json.dumps({
            "corpus": {"root": "."},
            "backends": ["reference", "planted:L1+L2+L3"],
            "rng_seed": 42,
            "mock_scenario": str(scenario),
        }))
        assert main(["run", "--config", str(config)]) == 1
        out = corpus / "out"
        expected = f"error: out_dir {out} is under corpus root {corpus}: a run would mine its output\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3

    def test_mine_writes_manifest(self, tmp_path, capsys):
        out = tmp_path / "manifest.json"
        assert main(["mine", "--root", str(SEEDS_DIR), "--keyword", "issue",
                     "--out", str(out)]) == 0
        manifest = json.loads(out.read_text())
        assert [s["id"] for s in manifest["seeds"]] == [
            "issue1204", "issue1874", "issue1965",
        ]

    def test_mine_empty_root_exit_1(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "manifest.json"
        assert main(["mine", "--root", str(empty), "--out", str(out)]) == 1

    def test_exec_prints_outcome(self, tmp_path, capsys):
        script = tmp_path / "t.t"
        script.write_text("assert_eq(1, 1);\n")
        assert main(["exec", "--script", str(script), "--backend", "reference"]) == 0
        assert capsys.readouterr().out.strip() == "PASS"

    def test_exec_unknown_backend_exit_1(self, tmp_path):
        script = tmp_path / "t.t"
        script.write_text("assert_eq(1, 1);\n")
        assert main(["exec", "--script", str(script), "--backend", "turbo"]) == 1

    def test_live_client_keeps_a_connection_per_request_slot(self, tmp_path, fixture_corpus):
        config = planted_config(tmp_path, fixture_corpus, mock_scenario=None, in_flight=16)
        assert connection_pool_size(_build_client(config)) == 16

    def test_classify_with_replay_scenario(self, tmp_path, capsys):
        from casefix import build_case_fixture
        from jsonduel.classify.evaluate import load_cases
        from jsonduel.classify.prompts import ClassifyMode, build_classify_prompt
        cases_path = build_case_fixture(tmp_path / "cases")
        cases = load_cases(cases_path)
        scenario = RecordingScenario()
        for case in cases:
            label = "good" if case.category.expected_verdict.value == "Good" else "bad"
            scenario.record(
                build_classify_prompt(case, ClassifyMode.FS),
                f"This is a {label} test.",
            )
        scenario_path = tmp_path / "classify.json"
        scenario.save(scenario_path)

        code = main([
            "classify", "--cases", str(cases_path), "--mode", "fs",
            "--mock", str(scenario_path), "--json",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "100.0" in out
        assert '"average": 100.0' in out
