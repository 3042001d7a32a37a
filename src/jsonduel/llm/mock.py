"""Offline replay: CI runs with zero network and zero nondeterminism.

Replay mode maps a hash of the full conversation to recorded responses.
Because sampling can yield different answers for byte-identical
requests, each hash holds an ordered queue: repeated identical requests
consume successive recordings, and the final one sticks once the queue
is exhausted.

`ReplayClient.reserve(messages)` takes the next recording on the calling
thread and returns a function that hands it over (or raises a miss)
later. Callers go through `client.prepare_request`, which reserves every
request in request order before it is sent to a worker thread, so the
replies do not depend on the order in which the threads run.
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


class ReplayScenario:
    """Recorded map of conversation-hash to an ordered response queue."""

    def __init__(self, responses: dict[str, list[str]] | None = None):
        self.responses = {key: list(value) for key, value in (responses or {}).items()}

    @classmethod
    def load(cls, path: Path | str) -> "ReplayScenario":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"scenario {path} is not JSON: {exc}") from None
        version = payload.get("version") if isinstance(payload, dict) else None
        if type(version) is not int or version != SCENARIO_VERSION:  # not True or 1.0
            raise ValueError(f"scenario {path} must be an object with version {SCENARIO_VERSION}")
        responses = payload.get("responses")
        if not isinstance(responses, dict) or not all(
            isinstance(queue, list) and all(isinstance(r, str) for r in queue)
            for queue in responses.values()
        ):
            raise ValueError(f"scenario {path} needs a 'responses' object of lists of strings")
        return cls(responses)


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
            miss = ReplayMissError(
                f"no recorded response for conversation {key[:12]}… "
                f"(last message starts {tail[:80]!r})"
            )

            def raise_miss() -> str:
                raise miss

            return raise_miss
        with self._lock:
            index = self._consumed.get(key, 0)
            self._consumed[key] = index + 1
        recorded = queue[min(index, len(queue) - 1)]
        return lambda: recorded

    def complete(self, messages: Sequence[ChatMessage], params) -> str:
        return self.reserve(messages)()
