"""Verdict parsing and majority voting over repeated generations. A vote
request that gives no usable reply aborts its case with a `ModelError`."""

from __future__ import annotations

import enum
import re
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Sequence

from ..llm.client import ModelError

VOTE_COUNT = 6

_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")


class Verdict(enum.Enum):
    GOOD = "Good"
    BAD = "Bad"
    UNPARSEABLE = "Unparseable"


def parse_verdict(response: str) -> Verdict:
    """Read the verdict from the final sentence of a response.

    If the final sentence mentions both "good test" and "bad test", or
    neither, the vote is unparseable.
    """
    sentences = [s for s in _SENTENCE_SPLIT.split(response.strip()) if s]
    final = sentences[-1].lower() if sentences else ""
    good = "good test" in final
    bad = "bad test" in final
    if good and not bad:
        return Verdict.GOOD
    if bad and not good:
        return Verdict.BAD
    return Verdict.UNPARSEABLE


def tally_votes(votes: Sequence[Verdict]) -> Verdict:
    """Final label: strict majority among Good/Bad.

    Unparseable votes count toward neither side; a tie (or no parseable
    vote at all) resolves to Bad so that ambiguous evidence never
    surfaces as a bug.
    """
    good = sum(1 for v in votes if v is Verdict.GOOD)
    bad = sum(1 for v in votes if v is Verdict.BAD)
    return Verdict.GOOD if good > bad else Verdict.BAD


@dataclass(frozen=True)
class ClassificationResult:
    votes: tuple[Verdict, ...]
    final: Verdict


def classify(sent: Sequence[Future]) -> ClassificationResult:
    """Wait for one case's vote requests, given in slot order, and
    majority-vote their replies.

    Votes are kept in slot order, and read in that order, so the first
    failed slot decides: a `ModelError` is raised again as a `ModelError`
    whose text gives how many slots succeeded, and any other exception
    propagates unchanged.
    """
    try:
        votes = tuple(parse_verdict(f.result()) for f in sent)
    except ModelError as exc:
        arrived = sum(f.exception() is None for f in sent)
        raise ModelError(f"classification aborted with {arrived} votes: {exc}") from exc
    return ClassificationResult(votes=votes, final=tally_votes(votes))
