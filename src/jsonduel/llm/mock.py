"""Offline clients: CI runs with zero network and zero nondeterminism.

Replay mode maps a hash of the full conversation to recorded responses.
Because sampling can yield different answers for byte-identical
requests, each hash holds an ordered queue: repeated identical requests
consume successive recordings, and the final one sticks once the queue
is exhausted. Scripted mode returns responses in one fixed global order
and can inject exceptions for fault testing.

Both clients also offer `reserve(messages)`, which picks the reply on
the calling thread and returns a function that hands it over (or raises
it) later. A caller that reserves its requests in order before sending
them to worker threads gets the same replies whatever order the threads
run in.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Callable, Sequence

from .messages import ChatMessage, conversation_hash

SCENARIO_VERSION = 1


class ReplayMissError(KeyError):
    pass


class ScriptedExhaustedError(RuntimeError):
    pass


class ReplayScenario:
    """Recorded map of conversation-hash to an ordered response queue."""

    def __init__(self, responses: dict[str, list[str]] | None = None):
        self.responses = {key: list(value) for key, value in (responses or {}).items()}

    def record(self, messages: Sequence[ChatMessage], response: str) -> None:
        self.responses.setdefault(conversation_hash(messages), []).append(response)

    def save(self, path: Path | str) -> None:
        payload = {"version": SCENARIO_VERSION, "responses": self.responses}
        Path(path).write_text(
            json.dumps(payload, indent=2, ensure_ascii=False, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: Path | str) -> "ReplayScenario":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload.get("version") != SCENARIO_VERSION:
            raise ValueError(f"unsupported scenario version in {path}")
        return cls(payload["responses"])


class ReplayClient:
    """Replays a scenario; consumption state is per client instance."""

    def __init__(self, scenario: ReplayScenario):
        self.scenario = scenario
        self._consumed: dict[str, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: Path | str) -> "ReplayClient":
        return cls(ReplayScenario.load(path))

    def reserve(self, messages: Sequence[ChatMessage]) -> Callable[[], str]:
        """Take the next recording for `messages` now; the returned
        function returns it, or raises `ReplayMissError` if none exists."""
        key = conversation_hash(messages)
        queue = self.scenario.responses.get(key)
        if not queue:
            tail = messages[-1].content if messages else ""
            return _deferred(ReplayMissError(
                f"no recorded response for conversation {key[:12]}… "
                f"(last message starts {tail[:80]!r})"
            ))
        with self._lock:
            index = self._consumed.get(key, 0)
            self._consumed[key] = index + 1
        return _deferred(queue[min(index, len(queue) - 1)])

    def complete(self, messages: Sequence[ChatMessage], params) -> str:
        return self.reserve(messages)()


class ScriptedClient:
    """Returns queued responses in order; Exception entries are raised.

    `calls` counts the entries handed out so far.
    """

    def __init__(self, responses: Sequence[str | Exception]):
        self.responses = list(responses)
        self.calls = 0
        self._lock = threading.Lock()

    def reserve(self, messages: Sequence[ChatMessage]) -> Callable[[], str]:
        """Take the next entry now; the returned function returns it, or
        raises it (or `ScriptedExhaustedError` when none is left)."""
        with self._lock:
            if self.calls >= len(self.responses):
                return _deferred(ScriptedExhaustedError(
                    f"scripted client exhausted after {self.calls} calls"
                ))
            entry = self.responses[self.calls]
            self.calls += 1
        return _deferred(entry)

    def complete(self, messages: Sequence[ChatMessage], params) -> str:
        return self.reserve(messages)()


def _deferred(entry: str | Exception) -> Callable[[], str]:
    def reply() -> str:
        if isinstance(entry, Exception):
            raise entry
        return entry

    return reply
