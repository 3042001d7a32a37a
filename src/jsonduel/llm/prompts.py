"""Context assembly for summarization and test generation.

The conversation shape is fixed: a system line, the seed test with a
summarization request, the model's own summary fed back as assistant
history, and the generation request with an optional mutation clause,
one of six built once. A conversation reuses the messages of its seed's
summary request, so only the summary is new; golden tests pin every byte.
"""

from __future__ import annotations

from .messages import ChatMessage, assistant, system, user
from .rules import MutationRule

SYSTEM_PROMPT = "You are a helpful assistant."

SUMMARIZE_PROMPT = "Summarize what this unit test focuses on."

GENERATE_LEAD = (
    "According to the unit test and the summary above, generate a new unit "
    "test that tests the same or similar functions."
)

GENERATE_SUFFIX = "Include necessary import statements and return a complete test case."

_GENERATE_REQUESTS = {None: user(f"{GENERATE_LEAD} {GENERATE_SUFFIX}")} | {
    rule: user(f"{GENERATE_LEAD} Write a new test that {rule.sentence}. {GENERATE_SUFFIX}")
    for rule in MutationRule
}


def build_summary_request(seed_text: str) -> list[ChatMessage]:
    """Messages asking the model to summarize one seed test."""
    return [system(SYSTEM_PROMPT), user(f"Here is a unit test:\n{seed_text}\n{SUMMARIZE_PROMPT}")]


def build_context(
    summary_request: list[ChatMessage], summary: str, rule: MutationRule | None = None
) -> list[ChatMessage]:
    """The summary request's own messages, the summary and `rule`'s request."""
    return [*summary_request, assistant(summary), _GENERATE_REQUESTS[rule]]
