"""Tests for failure triage: verdict parsing, voting, prompts, exemplars."""

import dataclasses
import sys
import threading
import time
from concurrent.futures import Future

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsonduel.backends import resolve_backend
from jsonduel.backends.executor import execute
from jsonduel.backends.outcomes import describe
from jsonduel.classify.evaluate import (
    CASES_IN_FLIGHT,
    OPEN_REQUESTS,
    Category,
    FailedCase,
    classify_cases,
    evaluate_accuracy,
    load_cases,
)
from jsonduel.classify.exemplars import EXEMPLARS
from jsonduel.classify.prompts import (
    DEFINITION_BAD,
    DEFINITION_GOOD,
    ClassifyMode,
    build_classify_prompt,
)
from jsonduel.classify.voting import (
    VOTE_COUNT,
    ClassificationResult,
    Verdict,
    classify,
    parse_verdict,
    tally_votes,
)
from jsonduel.llm.client import HttpChatClient, ModelError
from jsonduel.llm.generation import GenParams
from jsonduel.llm.mock import ReplayClient
from jsonduel.pipeline.cli import main
from jsonduel.tdsl.parser import parse_script

from casefix import build_case_fixture, confusion_responses
from clientfix import RecordingScenario, ScriptedClient, completion
from conftest import read_golden, render_transcript

PARAMS = GenParams()


def make_case(src: str = "assert_eq(1, 2);", backend: str = "reference") -> FailedCase:
    script = parse_script(src)
    outcome = execute(script, resolve_backend(backend))
    return FailedCase(script=script, script_text=src, outcome=outcome, backend=backend)


def classify_fs(case: FailedCase, client) -> ClassificationResult:
    """One case's votes sent and classified in FS mode."""
    return next(classify_cases([case], ClassifyMode.FS, client, PARAMS))


FIXTURE_SRC = 'let o = parse("[10, 20]");\nassert_eq(99, get(o, 1, integer));\n'


class TestParseVerdict:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("…Therefore, this test is a bad test.", Verdict.BAD),
            ("This is a good test.", Verdict.GOOD),
            ("It is a good test, or maybe a bad test.", Verdict.UNPARSEABLE),
            ("Reasoning about things. The verdict: a GOOD TEST.", Verdict.GOOD),
            ("The first sentence says bad test. But finally: a good test.", Verdict.GOOD),
            ("I refuse to answer.", Verdict.UNPARSEABLE),
            ("", Verdict.UNPARSEABLE),
        ],
    )
    def test_final_sentence_scan(self, text, expected):
        assert parse_verdict(text) is expected


class TestTally:
    def test_strict_majority(self):
        g, b, u = Verdict.GOOD, Verdict.BAD, Verdict.UNPARSEABLE
        assert tally_votes([g, g, g, g, b, b]) is g
        assert tally_votes([g, g, g, b, b, b]) is b  # tie -> bad
        assert tally_votes([g, g, u, u, u, b]) is g
        assert tally_votes([u] * 6) is b

    def test_flipping_bad_to_good_never_flips_good_to_bad(self):
        g, b = Verdict.GOOD, Verdict.BAD
        for bad_count in range(7):
            votes = [b] * bad_count + [g] * (6 - bad_count)
            if tally_votes(votes) is g and bad_count > 0:
                flipped = [b] * (bad_count - 1) + [g] * (7 - bad_count)
                assert tally_votes(flipped) is g


class TestPrompt:
    def test_definitions_verbatim_in_every_prompt(self):
        for mode in ClassifyMode:
            content = build_classify_prompt(make_case(), mode)[1].content
            assert DEFINITION_GOOD in content
            assert DEFINITION_BAD in content

    def test_four_exemplars_two_good_two_bad(self):
        verdicts = [e.verdict for e in EXEMPLARS]
        assert len(EXEMPLARS) == 4
        assert verdicts.count("good") == 2
        assert verdicts.count("bad") == 2

    def test_fs_answers_are_short_cot_answers_reason(self):
        content_fs = build_classify_prompt(make_case(), ClassifyMode.FS)[1].content
        content_cot = build_classify_prompt(make_case(), ClassifyMode.FS_COT)[1].content
        for exemplar in EXEMPLARS:
            assert exemplar.answer_plain in content_fs
            assert exemplar.answer_cot in content_cot
        assert len(content_cot) > len(content_fs)

    def test_golden_transcripts(self):
        case = FailedCase(
            script=parse_script(FIXTURE_SRC),
            script_text=FIXTURE_SRC,
            outcome=execute(parse_script(FIXTURE_SRC), resolve_backend("reference")),
        )
        fs = render_transcript(build_classify_prompt(case, ClassifyMode.FS))
        cot = render_transcript(build_classify_prompt(case, ClassifyMode.FS_COT))
        assert fs == read_golden("classify_fs.txt")
        assert cot == read_golden("classify_fs_cot.txt")


class TestExemplarsAreReal:
    """Every exemplar's recorded result line must be reproducible."""

    @pytest.mark.parametrize("exemplar", EXEMPLARS, ids=lambda e: e.note[:30])
    def test_result_text_matches_execution(self, exemplar):
        script = parse_script(exemplar.script_text)
        backend = (
            resolve_backend("reference")
            if exemplar.verdict == "bad"
            else resolve_backend("planted:L1+L2+L3")
        )
        assert describe(execute(script, backend)) == exemplar.result_text

    @pytest.mark.parametrize("exemplar", EXEMPLARS, ids=lambda e: e.note[:30])
    def test_good_exemplars_pass_on_the_reference(self, exemplar):
        if exemplar.verdict == "good":
            script = parse_script(exemplar.script_text)
            assert describe(execute(script, resolve_backend("reference"))) == "PASS"


class TestClassify:
    def test_six_votes_majority(self):
        responses = ["This test is a good test."] * 4 + ["This test is a bad test."] * 2
        result = classify_fs(make_case(), ScriptedClient(responses))
        assert result.final is Verdict.GOOD
        assert len(result.votes) == 6

    def test_identical_prompt_for_all_six_generations(self):
        class Recorder:
            def __init__(self):
                self.seen = []

            def complete(self, messages, params):
                self.seen.append(tuple(messages))
                return "bad test."

        recorder = Recorder()
        classify_fs(make_case(), recorder)
        assert len(set(recorder.seen)) == 1

    def test_transport_failure_carries_partial_votes(self):
        responses = ["good test.", "good test.", ModelError("down")]
        # The three slots past the list's end fail with another error.
        with pytest.raises(ModelError, match="^case 0: classification aborted with 2 votes: down$"):
            classify_fs(make_case(), ScriptedClient(responses))

    def test_case_rejects_pass_outcome(self):
        script = parse_script("assert_eq(1, 1);")
        with pytest.raises(ValueError):
            FailedCase(
                script=script,
                script_text="assert_eq(1, 1);",
                outcome=execute(script, resolve_backend("reference")),
            )

    def test_category_expected_verdicts(self):
        assert Category.E_GOOD.expected_verdict is Verdict.GOOD
        assert Category.F_GOOD.expected_verdict is Verdict.GOOD
        assert Category.E_BAD.expected_verdict is Verdict.BAD
        assert Category.F_BAD.expected_verdict is Verdict.BAD


GOOD = "This test is a good test."
BAD = "This test is a bad test."


class _BarrierClient:
    """Answers only once `parties` requests (by default, all six votes of
    a case) are waiting at once."""

    def __init__(self, parties: int = VOTE_COUNT):
        self.barrier = threading.Barrier(parties, timeout=10)
        self.threads = set()

    def complete(self, messages, params):
        self.threads.add(threading.current_thread())
        self.barrier.wait()
        return GOOD


class _GatedClient(ScriptedClient):
    """A scripted client that answers the votes of the first `answered`
    cases at once and holds every later vote until `gate` opens. A timer
    opens it after `SAFETY_S`, so code that waits for those votes fails
    its checks instead of hanging. `started` holds the reservation index
    of each request that a worker has taken up."""

    SAFETY_S = 5.0

    def __init__(self, responses, answered: int = 2):
        super().__init__(responses)
        self.answered = answered
        self.gate = threading.Event()
        self.started: set[int] = set()
        self.workers: set[threading.Thread] = set()
        self.progress = threading.Condition()
        self.timer = threading.Timer(self.SAFETY_S, self.gate.set)
        self.timer.start()

    def reserve(self, messages):
        hand_over = super().reserve(messages)
        index = self.reserved - 1  # reserve runs on one thread

        def gated():
            with self.progress:
                self.started.add(index)
                self.workers.add(threading.current_thread())
                self.progress.notify_all()
            if index >= self.answered * VOTE_COUNT:
                self.gate.wait()
            return hand_over()

        return gated

    def wait_until_started(self, indices) -> bool:
        """Wait until workers have taken up every request in `indices`;
        whether they did in time."""
        with self.progress:
            return self.progress.wait_for(
                lambda: self.started >= set(indices), timeout=self.SAFETY_S
            )

    def release(self) -> bool:
        """Open the gate and wait until every worker that took up a request
        has exited, so that no request can start later; whether they all
        did in time."""
        self.timer.cancel()
        self.gate.set()
        deadline = time.monotonic() + self.SAFETY_S
        with self.progress:
            workers = list(self.workers)
        for worker in workers:
            worker.join(max(0.0, deadline - time.monotonic()))
        return not any(worker.is_alive() for worker in workers)


def _repeat_under_fast_switching(times, fn):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return [fn() for _ in range(times)]
    finally:
        sys.setswitchinterval(interval)


def _outcome(fn):
    """What a classification gives: its result fields, or the exception's
    type and message."""
    try:
        result = fn()
    except Exception as exc:
        return (type(exc), str(exc))
    return (result.votes, result.final)


def _sequential_reference(client, case, mode):
    """Send the vote requests one after another, then apply the failure
    rule: the first failed slot decides; a ModelError aborts with a
    ModelError that counts every slot that succeeded."""
    prompt = tuple(build_classify_prompt(case, mode))
    responses, failures = [], []
    for _ in range(VOTE_COUNT):
        try:
            responses.append(client.complete(prompt, PARAMS))
        except Exception as exc:
            failures.append(exc)
    votes = tuple(parse_verdict(r) for r in responses)
    if failures and isinstance(failures[0], ModelError):
        raise ModelError(f"classification aborted with {len(votes)} votes: {failures[0]}")
    if failures:
        raise failures[0]
    return ClassificationResult(votes=votes, final=tally_votes(votes))


class TestConcurrentVotes:
    def test_all_votes_are_in_flight_at_once(self):
        client = _BarrierClient()
        result = classify_fs(make_case(), client)
        assert result.votes == (Verdict.GOOD,) * VOTE_COUNT
        assert not client.barrier.broken

    def test_evaluation_starts_one_pool_for_every_case(self):
        client = _BarrierClient()
        case = dataclasses.replace(make_case(), category=Category.F_GOOD)
        count = CASES_IN_FLIGHT + 2
        report = evaluate_accuracy([case] * count, ClassifyMode.FS, client, PARAMS)
        assert report.average() == 100.0
        # A pool per case would start count * VOTE_COUNT threads.
        assert len(client.threads) <= OPEN_REQUESTS < count * VOTE_COUNT
        assert threading.current_thread() not in client.threads

    def test_replay_votes_stay_in_recording_order(self):
        case = make_case()
        prompt = tuple(build_classify_prompt(case, ClassifyMode.FS))
        replies = [f"Reason {i}. {GOOD if i in (0, 2, 3) else BAD}" for i in range(VOTE_COUNT)]
        scenario = RecordingScenario()
        for reply in replies:
            scenario.record(prompt, reply)
        expected = tuple(parse_verdict(r) for r in replies)
        results = _repeat_under_fast_switching(
            200, lambda: classify_fs(case, ReplayClient(scenario))
        )
        for result in results:
            assert result.votes == expected

    def test_scripted_votes_stay_in_list_order(self):
        responses = [GOOD] * 4 + [BAD] * 2
        results = _repeat_under_fast_switching(
            200, lambda: classify_fs(make_case(), ScriptedClient(responses))
        )
        for result in results:
            assert result.votes == (Verdict.GOOD,) * 4 + (Verdict.BAD,) * 2

    def test_abort_carries_the_votes_of_later_slots(self):
        responses = [GOOD, GOOD, ModelError("down"), BAD, GOOD, BAD]
        client = ScriptedClient(responses)
        with pytest.raises(ModelError, match="^case 0: classification aborted with 5 votes: down$"):
            classify_fs(make_case(), client)
        assert client.calls == VOTE_COUNT

    def test_first_failed_slot_decides(self):
        responses = [GOOD, RuntimeError("boom"), GOOD, ModelError("down"), GOOD, GOOD]
        with pytest.raises(RuntimeError, match="boom"):
            classify_fs(make_case(), ScriptedClient(responses))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.sampled_from([
            GOOD, BAD, "No verdict here.", ModelError("down"), ModelError("empty completion response"),
        ]),
        max_size=8,
    ))
    def test_matches_a_sequential_loop(self, entries):
        case = make_case()
        concurrent = _outcome(
            lambda: classify_fs(case, ScriptedClient(entries))
        )
        sequential = _outcome(
            lambda: next(_sequential_cases(ScriptedClient(entries), [case], ClassifyMode.FS))
        )
        assert concurrent == sequential


UNPARSEABLE = "No verdict here."
_VOTE_TEXT = {Verdict.GOOD: GOOD, Verdict.BAD: BAD, Verdict.UNPARSEABLE: UNPARSEABLE}


def _labelled(count: int) -> list[FailedCase]:
    return [
        dataclasses.replace(make_case(f"assert_eq({i}, {i + 1});"), category=Category.F_GOOD)
        for i in range(count)
    ]


def _case_outcomes(run):
    """Each yielded result's fields in order, then how the run ended: the
    exception's type and message."""
    outcomes = []
    try:
        for result in run():
            outcomes.append((result.votes, result.final))
    except Exception as exc:
        outcomes.append((type(exc), str(exc)))
    return outcomes


def _sequential_cases(client, cases, mode):
    """Classify the cases one after another with one client, stopping at
    the first case that fails."""
    for index, case in enumerate(cases):
        try:
            yield _sequential_reference(client, case, mode)
        except ModelError as exc:
            raise ModelError(f"case {index}: {exc}") from exc


_FAILURES = [ModelError("down"), ModelError("empty completion response"), RuntimeError("boom")]


@st.composite
def _scripted_entries(draw):
    """Votes for up to six cases (a short list runs the client dry), with
    a few failures of each kind placed anywhere."""
    entries = draw(st.lists(st.sampled_from([GOOD, BAD, UNPARSEABLE]), max_size=6 * VOTE_COUNT))
    slots = draw(st.dictionaries(
        st.integers(0, 6 * VOTE_COUNT - 1), st.sampled_from(_FAILURES), max_size=3
    ))
    for slot, failure in slots.items():
        if slot < len(entries):
            entries[slot] = failure
    return entries


class TestPipelinedCases:
    def test_two_cases_votes_are_in_flight_at_once(self):
        client = _BarrierClient(parties=2 * VOTE_COUNT)
        results = list(classify_cases(_labelled(2), ClassifyMode.FS, client, PARAMS))
        assert [r.votes for r in results] == [(Verdict.GOOD,) * VOTE_COUNT] * 2
        assert not client.barrier.broken

    def test_a_full_window_is_in_flight_at_once(self):
        client = _BarrierClient(parties=OPEN_REQUESTS)
        results = list(classify_cases(_labelled(CASES_IN_FLIGHT), ClassifyMode.FS, client, PARAMS))
        assert [r.votes for r in results] == [(Verdict.GOOD,) * VOTE_COUNT] * CASES_IN_FLIGHT
        assert not client.barrier.broken

    def test_at_most_cases_in_flight_are_open(self):
        open_now, most = 0, 0
        lock = threading.Lock()

        class Counting:
            def complete(self, messages, params):
                nonlocal open_now, most
                with lock:
                    open_now += 1
                    most = max(most, open_now)
                time.sleep(0.02)
                with lock:
                    open_now -= 1
                return GOOD

        cases = _labelled(3 * CASES_IN_FLIGHT)
        assert len(list(classify_cases(cases, ClassifyMode.FS, Counting(), PARAMS))) == len(cases)
        assert VOTE_COUNT < most <= OPEN_REQUESTS

    def test_scripted_votes_land_in_their_own_cases(self):
        cases = _labelled(2 * CASES_IN_FLIGHT + 1)
        kinds = list(Verdict)
        # Case i's votes spell i in base 3, so no two cases share them.
        expected = [
            tuple(kinds[i // 3**slot % 3] for slot in range(VOTE_COUNT))
            for i in range(len(cases))
        ]
        entries = [_VOTE_TEXT[v] for votes in expected for v in votes]
        reports = _repeat_under_fast_switching(
            200,
            lambda: evaluate_accuracy(cases, ClassifyMode.FS, ScriptedClient(entries), PARAMS),
        )
        for report in reports:
            assert [r.result.votes for r in report.case_results] == expected

    def test_case_k_plus_the_window_is_sent_once_case_k_is_taken(self):
        client = ScriptedClient([GOOD] * 100)
        results = classify_cases(_labelled(3 * CASES_IN_FLIGHT), ClassifyMode.FS, client, PARAMS)
        next(results)
        # Cases 0 to CASES_IN_FLIGHT were sent at once; taking case 0 queued one more.
        assert client.reserved == (CASES_IN_FLIGHT + 2) * VOTE_COUNT
        next(results)
        assert client.reserved == (CASES_IN_FLIGHT + 3) * VOTE_COUNT
        results.close()

    def test_freed_workers_take_up_the_queued_case_before_the_next_ask(self):
        client = _GatedClient([GOOD] * 100)
        results = classify_cases(_labelled(3 * CASES_IN_FLIGHT), ClassifyMode.FS, client, PARAMS)
        next(results)
        # Cases 0 and 1 are answered, so the workers they free take up case
        # CASES_IN_FLIGHT's votes while the caller still holds case 0.
        queued = range(CASES_IN_FLIGHT * VOTE_COUNT, (CASES_IN_FLIGHT + 1) * VOTE_COUNT)
        assert client.wait_until_started(queued)
        results.close()
        assert client.release()

    def test_a_caller_that_stops_asking_sends_at_most_the_queued_case(self):
        client = _GatedClient([GOOD] * 100)
        results = classify_cases(_labelled(3 * CASES_IN_FLIGHT), ClassifyMode.FS, client, PARAMS)
        next(results)
        # The twelve workers that cases 0 and 1 free take up the votes of
        # case CASES_IN_FLIGHT and of the case queued as case 0 was taken.
        assert client.wait_until_started(range((CASES_IN_FLIGHT + 2) * VOTE_COUNT))
        results.close()
        # The close returned while the votes of cases 2 and later are held.
        assert not client.gate.is_set()
        assert client.calls == 2 * VOTE_COUNT
        assert client.reserved == (CASES_IN_FLIGHT + 2) * VOTE_COUNT
        assert client.release()
        assert client.calls == (CASES_IN_FLIGHT + 2) * VOTE_COUNT

    def test_a_close_cancels_the_queued_case(self):
        client = _GatedClient([GOOD] * 100, answered=1)
        results = classify_cases(_labelled(3 * CASES_IN_FLIGHT), ClassifyMode.FS, client, PARAMS)
        next(results)
        # Cases 1 to CASES_IN_FLIGHT hold every worker, so the case queued
        # as case 0 was taken cannot start.
        assert client.wait_until_started(range((CASES_IN_FLIGHT + 1) * VOTE_COUNT))
        assert client.reserved == (CASES_IN_FLIGHT + 2) * VOTE_COUNT
        results.close()
        assert not client.gate.is_set()
        assert client.release()
        assert client.started == set(range((CASES_IN_FLIGHT + 1) * VOTE_COUNT))
        assert client.calls == (CASES_IN_FLIGHT + 1) * VOTE_COUNT

    def test_no_cases_send_nothing(self):
        client = ScriptedClient([])
        assert list(classify_cases([], ClassifyMode.FS, client, PARAMS)) == []
        assert client.reserved == 0

    def test_no_request_is_sent_after_an_abort(self):
        cases = _labelled(3 * CASES_IN_FLIGHT)
        entries = [GOOD] * (VOTE_COUNT + 2) + [ModelError("down")] + [GOOD] * 100
        client = _GatedClient(entries)
        results = classify_cases(cases, ClassifyMode.FS, client, PARAMS)
        next(results)
        # Let the workers that cases 0 and 1 free take up both later cases
        # before the abort, so none is still queued when it comes.
        assert client.wait_until_started(range((CASES_IN_FLIGHT + 2) * VOTE_COUNT))
        message = "^case 1: classification aborted with 5 votes: down$"
        with pytest.raises(ModelError, match=message):
            next(results)
        # The abort came while the votes of cases 2 and later are held.
        assert not client.gate.is_set()
        assert client.calls == 2 * VOTE_COUNT
        # Taking case 0 queued case CASES_IN_FLIGHT + 1; nothing after that.
        assert client.reserved == (CASES_IN_FLIGHT + 2) * VOTE_COUNT
        assert client.release()
        assert client.calls == (CASES_IN_FLIGHT + 2) * VOTE_COUNT

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), _scripted_entries())
    def test_matches_a_sequential_loop(self, count, entries):
        cases = _labelled(count)
        pipelined = _case_outcomes(
            lambda: classify_cases(cases, ClassifyMode.FS, ScriptedClient(entries), PARAMS)
        )
        sequential = _case_outcomes(
            lambda: _sequential_cases(ScriptedClient(entries), cases, ClassifyMode.FS)
        )
        assert pipelined == sequential


def _settled(*entries) -> list[Future]:
    """Futures already done: a string is a reply, an exception a failure."""
    futures = []
    for entry in entries:
        future = Future()
        if isinstance(entry, Exception):
            future.set_exception(entry)
        else:
            future.set_result(entry)
        futures.append(future)
    return futures


class TestAbortMessage:
    """An aborted classification is a `ModelError` whose text counts the
    votes that arrived and, from `classify_cases`, names the case."""

    ENTRIES = [GOOD] * (VOTE_COUNT + 2) + [ModelError("down")] + [GOOD] * 100

    def test_classify_counts_the_votes_that_arrived(self):
        down = ModelError("down")
        with pytest.raises(ModelError, match="^classification aborted with 5 votes: down$") as info:
            classify(_settled(GOOD, down, BAD, GOOD, UNPARSEABLE, GOOD))
        assert info.value.__cause__ is down

    def test_classify_cases_names_the_case(self):
        client = ScriptedClient(self.ENTRIES)
        results = classify_cases(_labelled(3), ClassifyMode.FS, client, PARAMS)
        assert next(results).final is Verdict.GOOD
        with pytest.raises(ModelError, match="^case 1: classification aborted with 5 votes: down$"):
            next(results)

    def test_evaluate_accuracy_names_the_case(self):
        client = ScriptedClient(self.ENTRIES)
        with pytest.raises(ModelError, match="^case 1: classification aborted with 5 votes: down$"):
            evaluate_accuracy(_labelled(3), ClassifyMode.FS, client, PARAMS)


class _OneEmptyReplySession:
    """Answers each post by its prompt, whatever order the posts come in:
    one post of `failing` gets an empty completion, every other a vote."""

    def __init__(self, failing: str):
        self.failing = failing
        self.failed = False
        self.lock = threading.Lock()

    def post(self, url, json=None, headers=None, timeout=None):
        with self.lock:
            fail = not self.failed and json["messages"][-1]["content"] == self.failing
            self.failed |= fail
        return completion("" if fail else GOOD)


class TestClassifyCli:
    def test_transport_failure_exits_aborted(self, tmp_path, monkeypatch, capsys):
        cases_path = build_case_fixture(tmp_path / "cases")
        responses = confusion_responses()
        responses[VOTE_COUNT + 2] = ModelError("endpoint down")
        monkeypatch.setattr(
            "jsonduel.pipeline.cli.HttpChatClient", lambda **_: ScriptedClient(responses)
        )
        assert main(["classify", "--cases", str(cases_path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: case 1: classification aborted with 5 votes: endpoint down\n"

    def test_empty_completion_exits_aborted(self, tmp_path, monkeypatch, capsys):
        cases_path = build_case_fixture(tmp_path / "cases")
        case_1 = load_cases(cases_path)[1]
        session = _OneEmptyReplySession(build_classify_prompt(case_1, ClassifyMode.FS)[-1].content)
        monkeypatch.setattr(
            "jsonduel.pipeline.cli.HttpChatClient",
            lambda **_: HttpChatClient(endpoint="http://x", session=session, sleep=lambda s: None),
        )
        assert main(["classify", "--cases", str(cases_path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: case 1: classification aborted with 5 votes: empty completion response\n"

    @pytest.mark.parametrize("mock", [False, True], ids=["live", "mock"])
    def test_json_needs_every_case_labeled(self, tmp_path, monkeypatch, capsys, mock):
        """Unlabeled cases have no accuracy table to print: that is a usage
        error before any client is built or any request is sent."""
        cases_path = build_case_fixture(tmp_path / "cases")
        first, *rest = cases_path.read_text().splitlines()
        cases = [*rest, first.replace('"E_bad"', '"unknown"')]  # labeled but the last
        cases_path.write_text("".join(f"{line}\n" for line in cases))
        built = []
        monkeypatch.setattr("jsonduel.pipeline.cli.HttpChatClient", lambda **kwargs: built.append(kwargs))
        argv = ["classify", "--cases", str(cases_path), "--json"]
        argv += ["--mock", str(tmp_path / "no-such-scenario.json")] if mock else []
        assert main(argv) == 1
        message = "error: --json prints the accuracy table, which needs every case labeled\n"
        assert capsys.readouterr() == ("", message)
        assert built == []

    def test_live_client_keeps_a_connection_per_open_request(self, tmp_path, monkeypatch):
        cases_path = build_case_fixture(tmp_path / "cases")
        built = []

        def client(**kwargs):
            built.append(kwargs)
            return ScriptedClient(confusion_responses())

        monkeypatch.setattr("jsonduel.pipeline.cli.HttpChatClient", client)
        assert main(["classify", "--cases", str(cases_path)]) == 0
        assert built == [{"open_requests": VOTE_COUNT * CASES_IN_FLIGHT}]
