"""Tests for the prompting protocol, transport retries and offline mocks."""

import json
import random

import pytest
import requests

from jsonduel.llm.client import HttpChatClient, ModelError
from jsonduel.llm.generation import GenParams, MutationMode, pick_rule
from jsonduel.llm.messages import ChatMessage, Role, conversation_hash
from jsonduel.llm.mock import ReplayClient, ReplayScenario
from jsonduel.llm.prompts import (
    GENERATE_SUFFIX,
    SUMMARIZE_PROMPT,
    SYSTEM_PROMPT,
    build_context,
    build_summary_request,
)
from jsonduel.llm.rules import ALL_RULES, MutationRule

from clientfix import (
    FakeResponse,
    FakeSession,
    RecordingScenario,
    ScriptedClient,
    ScriptedExhaustedError,
    completion,
    connection_pool_size,
)
from conftest import SEEDS_DIR, read_golden, render_transcript

SEED_TEXT = (SEEDS_DIR / "issue1874.t").read_text(encoding="utf-8")
SUMMARY = (
    "This unit test focuses on serializing a bean whose boolean field is "
    "written as a number, asserting the exact JSON output."
)
PARAMS = GenParams()


class TestMessages:
    def test_content_must_be_non_empty(self):
        with pytest.raises(ValueError):
            ChatMessage(Role.USER, "")

    def test_conversation_hash_is_stable_and_content_sensitive(self):
        messages = build_summary_request(SEED_TEXT)
        assert conversation_hash(messages) == conversation_hash(list(messages))
        other = build_summary_request(SEED_TEXT + " ")
        assert conversation_hash(messages) != conversation_hash(other)


class TestContextTemplate:
    def test_summary_request_shape(self):
        messages = build_summary_request(SEED_TEXT)
        assert [m.role for m in messages] == [Role.SYSTEM, Role.USER]
        assert messages[0].content == SYSTEM_PROMPT
        assert messages[1].content.startswith("Here is a unit test:\n")
        assert SEED_TEXT in messages[1].content
        assert messages[1].content.endswith(SUMMARIZE_PROMPT)

    def test_context_without_rule_has_no_mutation_clause(self):
        messages = build_context(SEED_TEXT, SUMMARY, None)
        assert [m.role for m in messages] == [
            Role.SYSTEM, Role.USER, Role.ASSISTANT, Role.USER,
        ]
        request = messages[3].content
        assert "Write a new test that" not in request
        assert request.endswith(GENERATE_SUFFIX)

    def test_context_with_rule_inserts_the_sentence_verbatim(self):
        rule = MutationRule.SERIALIZATION_CONFIGURATIONS
        request = build_context(SEED_TEXT, SUMMARY, rule)[3].content
        assert f" Write a new test that {rule.sentence}. " in request

    def test_empty_summary_rejected(self):
        with pytest.raises(ValueError):
            build_context(SEED_TEXT, "", None)

    def test_golden_transcript_plain(self):
        transcript = render_transcript(build_context(SEED_TEXT, SUMMARY, None))
        assert transcript == read_golden("context_plain.txt")

    def test_golden_transcript_with_rule(self):
        transcript = render_transcript(
            build_context(SEED_TEXT, SUMMARY, MutationRule.SERIALIZATION_CONFIGURATIONS)
        )
        assert transcript == read_golden("context_rule4.txt")

    def test_exactly_five_rules_with_fixed_sentences(self):
        assert len(ALL_RULES) == 5
        sentences = [rule.sentence for rule in ALL_RULES]
        assert len(set(sentences)) == 5
        assert all(s[0].islower() and not s.endswith(".") for s in sentences)


class TestHttpClient:
    def test_success_sends_wire_format(self):
        session = FakeSession([completion("hello")])
        client = HttpChatClient(
            endpoint="http://example/chat", api_key="k", session=session, sleep=lambda s: None
        )
        out = client.complete(build_summary_request(SEED_TEXT), PARAMS)
        assert out == "hello"
        body = session.requests[0]["json"]
        assert body["model"] == PARAMS.model
        assert body["temperature"] == PARAMS.temperature
        assert body["top_p"] == PARAMS.top_p
        assert body["messages"][0] == {"role": "system", "content": SYSTEM_PROMPT}
        assert session.requests[0]["headers"]["Authorization"] == "Bearer k"

    def test_debug_level_logs_request_and_response(self, caplog):
        session = FakeSession([completion("hello")])
        client = HttpChatClient(endpoint="http://x", session=session, sleep=lambda s: None)
        with caplog.at_level("DEBUG", logger="jsonduel.llm.client"):
            client.complete(build_summary_request(SEED_TEXT), PARAMS)
        assert [r.getMessage() for r in caplog.records if r.levelname == "DEBUG"] == [
            f"request to http://x: {session.requests[0]['json']}",
            "response: hello",
        ]

    def test_two_refusals_then_success_retries(self, caplog):
        session = FakeSession(
            [requests.ConnectionError("refused"), requests.ConnectionError("refused"), completion("ok")]
        )
        sleeps = []
        client = HttpChatClient(endpoint="http://x", session=session, sleep=sleeps.append)
        with caplog.at_level("WARNING"):
            out = client.complete(build_summary_request(SEED_TEXT), PARAMS)
        assert out == "ok"
        assert sleeps == [0.5, 1.0]  # exponential backoff from 500 ms
        assert sum("retrying" in r.message for r in caplog.records) == 2

    def test_gives_up_after_three_attempts(self):
        session = FakeSession([requests.ConnectionError("x")] * 3)
        client = HttpChatClient(endpoint="http://x", session=session, sleep=lambda s: None)
        with pytest.raises(ModelError, match="request failed after 3 attempts"):
            client.complete(build_summary_request(SEED_TEXT), PARAMS)
        assert len(session.requests) == 3

    def test_5xx_is_retried_4xx_is_not(self):
        session = FakeSession([FakeResponse(500), completion("ok")])
        client = HttpChatClient(endpoint="http://x", session=session, sleep=lambda s: None)
        assert client.complete(build_summary_request(SEED_TEXT), PARAMS) == "ok"

        session = FakeSession([FakeResponse(401, text="no auth")])
        client = HttpChatClient(endpoint="http://x", session=session, sleep=lambda s: None)
        with pytest.raises(ModelError, match="rejected with status 401"):
            client.complete(build_summary_request(SEED_TEXT), PARAMS)
        assert len(session.requests) == 1

    def test_429_is_retried_after_one_backoff(self):
        session = FakeSession([FakeResponse(429), completion("ok")])
        sleeps = []
        client = HttpChatClient(endpoint="http://x", session=session, sleep=sleeps.append)
        assert client.complete(build_summary_request(SEED_TEXT), PARAMS) == "ok"
        assert sleeps == [0.5]
        assert len(session.requests) == 2

    def test_empty_content_is_generation_error(self):
        session = FakeSession([completion("")])
        client = HttpChatClient(endpoint="http://x", session=session, sleep=lambda s: None)
        with pytest.raises(ModelError, match="empty completion response"):
            client.complete(build_summary_request(SEED_TEXT), PARAMS)

    @pytest.mark.parametrize("content", [["x"], {}, 7, True, None, [], 0])
    def test_non_text_content_is_generation_error(self, content):
        """Only a non-empty string reaches extraction and voting, which
        assume text."""
        session = FakeSession([completion(content)])
        client = HttpChatClient(endpoint="http://x", session=session, sleep=lambda s: None)
        with pytest.raises(ModelError, match="completion response"):
            client.complete(build_summary_request(SEED_TEXT), PARAMS)

    def test_own_session_keeps_a_connection_per_open_request(self):
        client = HttpChatClient(endpoint="https://example/chat", open_requests=24)
        for url in ("https://example/chat", "http://example/chat"):
            assert connection_pool_size(client, url) == 24

    def test_own_session_keeps_urllib3s_default_pool_unless_told(self):
        client = HttpChatClient(endpoint="https://example/chat")
        for url in ("https://example/chat", "http://example/chat"):
            assert connection_pool_size(client, url) == 10


class TestMocks:
    def test_replay_round_trips_through_file(self, tmp_path):
        scenario = RecordingScenario()
        messages = build_summary_request(SEED_TEXT)
        scenario.record(messages, "a summary")
        path = tmp_path / "scenario.json"
        scenario.save(path)
        client = ReplayClient.from_file(path)
        assert client.complete(messages, PARAMS) == "a summary"

    def test_replay_miss_is_loud(self):
        client = ReplayClient(ReplayScenario())
        with pytest.raises(ValueError, match="^no recorded response for conversation [0-9a-f]{12}… "):
            client.complete(build_summary_request(SEED_TEXT), PARAMS)

    def test_replay_is_deterministic_across_instances(self, tmp_path):
        scenario = RecordingScenario()
        messages = build_summary_request(SEED_TEXT)
        scenario.record(messages, "same answer")
        path = tmp_path / "s.json"
        scenario.save(path)
        first = ReplayClient.from_file(path).complete(messages, PARAMS)
        second = ReplayClient.from_file(path).complete(messages, PARAMS)
        assert first == second == "same answer"

    @pytest.mark.parametrize(
        "payload, message",
        [
            ("{nope", "cannot read scenario {path}: "
             "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            ([], "cannot read scenario {path}: not a JSON object"),
            ({"responses": {}}, "scenario {path} must be an object with version 1"),
            ({"version": 2, "responses": {}}, "scenario {path} must be an object with version 1"),
            ({"version": True, "responses": {}}, "scenario {path} must be an object with version 1"),
            ({"version": 1.0, "responses": {}}, "scenario {path} must be an object with version 1"),
            ({"version": "1", "responses": {}}, "scenario {path} must be an object with version 1"),
            ({"version": 1}, "scenario {path} needs a 'responses' object of lists of strings"),
            ({"version": 1, "responses": []}, "scenario {path} needs a 'responses' object of lists of strings"),
            ({"version": 1, "responses": {"ab": "hello"}},
             "scenario {path} needs a 'responses' object of lists of strings"),
            ({"version": 1, "responses": {"ab": ["hi", 5]}},
             "scenario {path} needs a 'responses' object of lists of strings"),
            ({"version": 1, "responses": {"ab": ["hi", ""]}},
             "scenario {path} records an empty reply, which a live model never returns"),
        ],
        ids=[
            "not-json", "list", "no-version", "version-2",
            "version-true", "version-float", "version-string",
            "no-responses", "responses-list", "reply-string", "reply-number", "reply-empty",
        ],
    )
    def test_malformed_scenario_names_the_file(self, tmp_path, payload, message):
        path = tmp_path / "s.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        with pytest.raises(ValueError) as info:
            ReplayScenario.load(path)
        assert str(info.value) == message.format(path=path)

    def test_scripted_order_and_exhaustion(self):
        client = ScriptedClient(["a", "b"])
        messages = build_summary_request(SEED_TEXT)
        assert client.complete(messages, PARAMS) == "a"
        assert client.complete(messages, PARAMS) == "b"
        with pytest.raises(ScriptedExhaustedError):
            client.complete(messages, PARAMS)

    def test_scripted_exception_entries_raise(self):
        client = ScriptedClient([ModelError("down")])
        with pytest.raises(ModelError, match="down"):
            client.complete(build_summary_request(SEED_TEXT), PARAMS)


class TestGenParams:
    def test_gen_params_validation(self):
        with pytest.raises(ValueError):
            GenParams(temperature=3.0)
        with pytest.raises(ValueError):
            GenParams(top_p=0.0)
        with pytest.raises(ValueError):
            GenParams(n_per_seed=0)


class TestPickRule:
    def test_mode_none(self):
        assert pick_rule(random.Random(1), MutationMode.NONE) is None

    def test_golden_sequence_seed_42(self):
        rng = random.Random(42)
        draws = [pick_rule(rng, MutationMode.RANDOM_ONE).value for _ in range(10)]
        assert draws == json.loads(read_golden("rule_draws_seed42.json"))

    def test_uniformity_over_10k_draws(self):
        rng = random.Random(2024)
        counts = {rule: 0 for rule in ALL_RULES}
        n = 10_000
        for _ in range(n):
            counts[pick_rule(rng, MutationMode.RANDOM_ONE)] += 1
        for rule, count in counts.items():
            assert abs(count / n - 0.20) <= 0.03, f"{rule}: {count / n:.3f}"
