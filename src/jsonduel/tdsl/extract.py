"""Pull a test script out of a model response.

Responses usually wrap code in a fenced block; only the first block is
considered. A response from which no valid script can be parsed becomes
an ExtractionFailure value — the analogue of generated code that does
not compile — never an exception.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import ast
from .parser import DslError, parse_script

_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)

PARSE_FAILURE = "no-code-block/parse-error"
CONTEXT_OVERFLOW = "context-overflow"


@dataclass(frozen=True)
class ExtractionFailure:
    category: str
    error: str


def extract_script(response: str) -> ast.Script | ExtractionFailure:
    """Extract and parse the first fenced code block (or the whole text)."""
    match = _FENCE_RE.search(response)
    candidate = match.group(1) if match else response
    try:
        return parse_script(candidate)
    except DslError as exc:
        return ExtractionFailure(PARSE_FAILURE, str(exc))
