"""Generation parameters, provenance records and mutation-rule draws."""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Union

from ..tdsl.ast import Script
from ..tdsl.extract import ExtractionFailure
from .messages import ChatMessage
from .rules import ALL_RULES, MutationRule


@dataclass(frozen=True)
class GenParams:
    model: str = "gpt-3.5-turbo"
    temperature: float = 0.8
    top_p: float = 0.95
    n_per_seed: int = 3
    seed: int = 0  # RNG seed for mutation-rule selection

    def __post_init__(self):
        if not 0 <= self.temperature <= 2:
            raise ValueError(f"temperature out of range: {self.temperature}")
        if not 0 < self.top_p <= 1:
            raise ValueError(f"top_p out of range: {self.top_p}")
        if self.n_per_seed < 1:
            raise ValueError(f"n_per_seed must be >= 1: {self.n_per_seed}")


class MutationMode(enum.Enum):
    NONE = "none"
    RANDOM_ONE = "random_one"


@dataclass(frozen=True)
class GenerationRecord:
    """Full provenance of one generation, kept even when extraction fails."""

    seed_id: str
    rule: MutationRule | None
    messages: tuple[ChatMessage, ...]
    raw_response: str
    extraction: Union[Script, ExtractionFailure]
    timestamp: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat())

    @property
    def extracted_script(self) -> Script | None:
        return self.extraction if isinstance(self.extraction, Script) else None


def pick_rule(rng: random.Random, mode: MutationMode) -> MutationRule | None:
    """Draw a mutation rule: none, or one of the five uniformly at random."""
    if mode is MutationMode.NONE:
        return None
    return ALL_RULES[rng.randrange(len(ALL_RULES))]
