"""Verdict parsing and majority voting over repeated generations."""

from __future__ import annotations

import enum
import re
from concurrent.futures import Executor, Future
from dataclasses import dataclass
from typing import Sequence

from ..llm.client import GenerationError, LlmClient, TransportError, prepare_request
from ..llm.generation import GenParams
from .prompts import ClassifyMode, build_classify_prompt

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


class ClassificationAborted(Exception):
    """A vote's request failed in transport or got an unusable reply.

    `votes` holds every vote of the case that did arrive, in slot order;
    the failed slot and any other failed slot are missing from it.
    `case_index` is the case's position when it came from
    `classify_cases`, which raises this for the first case in list order
    with a failed slot and sends no request after it.
    """

    def __init__(self, cause: Exception, votes: tuple[Verdict, ...]):
        super().__init__(f"classification aborted with {len(votes)} votes: {cause}")
        self.votes = votes
        self.case_index: int | None = None


def send_votes(
    case,
    mode: ClassifyMode,
    client: LlmClient,
    params: GenParams,
    pool: Executor,
) -> list[Future]:
    """Send a case's `VOTE_COUNT` requests on `pool`, one per slot.

    Each slot's request is prepared in slot order on the calling thread
    (`prepare_request`) before it is submitted, so an offline client's
    replies land in the same slots on every run. The futures come back
    in slot order; `classify` collects them.
    """
    prompt = tuple(build_classify_prompt(case, mode))
    return [
        pool.submit(prepare_request(client, prompt, params)) for _ in range(VOTE_COUNT)
    ]


def classify(sent: Sequence[Future]) -> ClassificationResult:
    """Wait for one case's votes from `send_votes` and majority-vote them.

    Votes are kept in slot order. If any slot fails, the first failed
    slot in slot order decides: a `TransportError` or `GenerationError`
    becomes `ClassificationAborted` carrying the votes of every slot that
    succeeded, and any other exception propagates unchanged.
    """
    responses = [f.result() for f in sent if f.exception() is None]
    votes = tuple(parse_verdict(response) for response in responses)
    failure = next((f.exception() for f in sent if f.exception() is not None), None)
    if isinstance(failure, (TransportError, GenerationError)):
        raise ClassificationAborted(failure, votes) from failure
    if failure is not None:
        raise failure
    return ClassificationResult(votes=votes, final=tally_votes(votes))
