"""Context assembly for summarization and test generation.

The conversation shape is fixed: a system line, the seed test with a
summarization request, the model's own summary fed back as assistant
history, and the generation request with an optional mutation clause.
Only three slots vary (seed text, summary, rule sentence); golden tests
pin everything else.
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


def build_summary_request(seed_text: str) -> list[ChatMessage]:
    """Messages asking the model to summarize one seed test."""
    return [
        system(SYSTEM_PROMPT),
        user(f"Here is a unit test:\n{seed_text}\n{SUMMARIZE_PROMPT}"),
    ]


def build_context(
    seed_text: str, summary: str, rule: MutationRule | None = None
) -> list[ChatMessage]:
    """Full generation context; the mutation clause is omitted without a rule."""
    mutation_clause = f" Write a new test that {rule.sentence}." if rule else ""
    request = f"{GENERATE_LEAD}{mutation_clause} {GENERATE_SUFFIX}"
    return build_summary_request(seed_text) + [assistant(summary), user(request)]
