"""Shared fixtures: seed corpora on disk and replay-scenario builders."""

import sys
from pathlib import Path
from typing import Iterable

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from jsonduel.corpus import mine_seeds
from jsonduel.llm.messages import ChatMessage

DATA_DIR = Path(__file__).parent / "data"
SEEDS_DIR = DATA_DIR / "seeds"
GOLDEN_DIR = DATA_DIR / "golden"


def read_golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


def render_transcript(messages: Iterable[ChatMessage]) -> str:
    """Golden-file rendering of a conversation: 'Role: content' blocks."""
    return "\n".join(f"{m.role.value.capitalize()}: {m.content}" for m in messages)


@pytest.fixture()
def seeds_dir(tmp_path):
    """A throwaway directory of seed files; tests write into it."""
    root = tmp_path / "seeds"
    root.mkdir()
    return root


@pytest.fixture()
def fixture_corpus():
    """The checked-in three-seed corpus (issue1965, issue1874, issue1204)."""
    corpus, errors = mine_seeds(SEEDS_DIR, "issue")
    assert not errors
    return corpus
