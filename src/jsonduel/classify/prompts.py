"""Prompt assembly for good-test/bad-test triage.

The prompt is one user message: task preamble, the two normative
definitions, four worked examples (answers carry reasoning steps only
in chain-of-thought mode), then the case under judgment.
"""

from __future__ import annotations

import enum
from functools import cache

from ..backends.outcomes import describe
from ..llm.messages import ChatMessage, system, user
from ..llm.prompts import SYSTEM_PROMPT
from .exemplars import EXEMPLARS

DEFINITION_GOOD = (
    "Definition (Good Test): A good test fails (at assertions or by throwing "
    "an exception) due to intrinsic bugs in the library. The logic of a good "
    "test is considered correct."
)

DEFINITION_BAD = (
    "Definition (Bad Test): A bad test fails due to incorrect test code or "
    "improper usage of the library, indicating that the library is "
    "functioning as expected and the test case itself contains deficiencies."
)

PREAMBLE = (
    "I have several unit test cases for a JSON library that failed or "
    "produced errors. Some of these test failures do not reveal problems "
    "within the library, as the code logic of these failed tests is "
    "incorrect (e.g., wrong assertions or improper usage of the library).\n"
    "We categorize these tests into two types based on the following "
    "definitions:"
)

TASK = (
    "I will give you a test case, your task is to assess and judge whether "
    "the test case is a good test or a bad test. Here are some examples:"
)


class ClassifyMode(enum.Enum):
    FS = "fs"
    FS_COT = "fs-cot"


@cache
def _lead(mode: ClassifyMode) -> str:
    """Everything before the case under judgment, built once per mode."""
    parts = [PREAMBLE, DEFINITION_GOOD, DEFINITION_BAD, "", TASK, ""]
    for i, exemplar in enumerate(EXEMPLARS, start=1):
        answer = exemplar.answer_cot if mode is ClassifyMode.FS_COT else exemplar.answer_plain
        parts += [
            f"[example {i}]",
            exemplar.script_text.rstrip("\n"),
            "",
            f"[result {i}]",
            exemplar.result_text,
            "",
            f"[answer {i}]",
            answer,
            "",
        ]
    return "\n".join([*parts, "[test case to judge]", ""])


def build_classify_prompt(case, mode: ClassifyMode) -> list[ChatMessage]:
    """Messages asking for a good/bad verdict on one failed case."""
    script, result = case.script_text.rstrip("\n"), describe(case.outcome)
    return [system(SYSTEM_PROMPT), user(f"{_lead(mode)}{script}\n\n[result]\n{result}")]
