"""Offline test doubles: a scripted client, a replay scenario built in
code, and an HTTP session for `HttpChatClient`.

`ScriptedClient` returns responses in one fixed global order and can
inject exceptions for fault testing. `RecordingScenario` records replies
into a replay scenario and saves it in the format `--mock` loads.
`FakeSession` answers each post with the next queued response, and
`connection_pool_size` reads how many connections a real session keeps.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Callable, Sequence

from jsonduel.llm.messages import ChatMessage, conversation_hash
from jsonduel.llm.mock import SCENARIO_VERSION, ReplayScenario


class ScriptedExhaustedError(RuntimeError):
    pass


class ScriptedClient:
    """Returns queued responses in reservation order; Exception entries
    are raised.

    `calls` counts the requests sent so far (each hand-over, also past the
    end of the list), not the ones reserved, so a reserved request that is
    never sent does not count. `reserved` counts the requests prepared.
    """

    def __init__(self, responses: Sequence[str | Exception]):
        self.responses = list(responses)
        self.calls = 0
        self.reserved = 0
        self._lock = threading.Lock()

    def reserve(self, messages: Sequence[ChatMessage]) -> Callable[[], str]:
        """Take the next entry now; the returned function returns it, or
        raises it (or `ScriptedExhaustedError` when none was left)."""
        with self._lock:
            index = self.reserved
            self.reserved += 1

        def hand_over() -> str:
            with self._lock:
                self.calls += 1
            if index >= len(self.responses):
                raise ScriptedExhaustedError(
                    f"scripted client exhausted after {len(self.responses)} entries"
                )
            entry = self.responses[index]
            if isinstance(entry, Exception):
                raise entry
            return entry

        return hand_over

    def complete(self, messages: Sequence[ChatMessage], params) -> str:
        return self.reserve(messages)()


class RecordingScenario(ReplayScenario):
    """A replay scenario that tests fill in and save."""

    def record(self, messages: Sequence[ChatMessage], response: str) -> None:
        self.responses.setdefault(conversation_hash(messages), []).append(response)

    def save(self, path: Path | str) -> None:
        payload = {"version": SCENARIO_VERSION, "responses": self.responses}
        Path(path).write_text(
            json.dumps(payload, indent=2, ensure_ascii=False, sort_keys=True) + "\n",
            encoding="utf-8",
        )


class FakeResponse:
    def __init__(self, status_code: int, payload=None, text: str = ""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


def completion(content) -> FakeResponse:
    """A 200 response carrying one chat completion."""
    return FakeResponse(200, {"choices": [{"message": {"content": content}}]})


class FakeSession:
    """Pops one queued response per post (raising Exception entries) and
    records every request."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def connection_pool_size(client, url: str | None = None) -> int:
    """How many connections to `url` (by default, the client's endpoint)
    the client's session keeps for reuse."""
    url = url or client.endpoint
    return client.session.get_adapter(url).poolmanager.connection_from_url(url).pool.maxsize
