"""Chat conversation primitives shared by transports and prompt builders."""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Sequence


class Role(enum.Enum):
    SYSTEM = "system"
    USER = "user"
    ASSISTANT = "assistant"


@dataclass(frozen=True)
class ChatMessage:
    role: Role
    content: str

    def __post_init__(self):
        if not self.content:
            raise ValueError("chat message content must be non-empty")


def system(content: str) -> ChatMessage:
    return ChatMessage(Role.SYSTEM, content)


def user(content: str) -> ChatMessage:
    return ChatMessage(Role.USER, content)


def assistant(content: str) -> ChatMessage:
    return ChatMessage(Role.ASSISTANT, content)


def to_wire(messages: Iterable[ChatMessage]) -> list[dict]:
    return [{"role": m.role.value, "content": m.content} for m in messages]


def conversation_hash(messages: Sequence[ChatMessage]) -> str:
    """Stable content hash of a conversation; the replay-scenario key."""
    blob = json.dumps(
        [[m.role.value, m.content] for m in messages],
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()

