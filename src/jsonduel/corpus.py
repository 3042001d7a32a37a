"""Seed corpus: historical bug-triggering test scripts that drive generation.

Seeds come either from mining a directory for `.t` files whose names
carry an issue keyword, or from an explicit JSON manifest. Seeds that
fail to decode as UTF-8 or to parse are reported and excluded, never
silently skipped; a corpus with no usable seeds is an error because the
pipeline cannot run without them.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from .tdsl.errors import DslError
from .tdsl.parser import parse_script

SEED_EXTENSION = ".t"


class CorpusError(Exception):
    pass


class EmptyCorpusError(CorpusError):
    pass


class ManifestFormatError(CorpusError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col


@dataclass(frozen=True)
class SeedTest:
    id: str
    source_path: Path
    script_text: str


@dataclass(frozen=True)
class SeedLoadError:
    path: Path
    error: str


@dataclass(frozen=True)
class Corpus:
    seeds: tuple[SeedTest, ...]
    manifest_hash: str


def _hash_seeds(seeds: list[SeedTest]) -> str:
    digest = hashlib.sha256()
    for seed in seeds:
        data = seed.script_text.encode("utf-8")
        digest.update(len(data).to_bytes(8, "big"))
        digest.update(data)
    return digest.hexdigest()


def _build(entries: list[tuple[str, Path]]) -> tuple[Corpus, list[SeedLoadError]]:
    seeds: list[SeedTest] = []
    errors: list[SeedLoadError] = []
    for seed_id, path in entries:
        # text mode's universal newlines, without its per-file decoder set-up
        with open(path, "rb", buffering=0) as f:
            data = f.read()
        try:  # a seed that does not decode or parse is rejected
            text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
            parse_script(text)
        except (DslError, UnicodeDecodeError) as exc:
            errors.append(SeedLoadError(path, str(exc)))
        else:
            seeds.append(SeedTest(seed_id, path, text))
    seeds.sort(key=lambda s: s.id)
    return Corpus(tuple(seeds), _hash_seeds(seeds)), errors


def mine_seeds(root: Path | str, keyword: str) -> tuple[Corpus, list[SeedLoadError]]:
    """Collect every `.t` file under `root` whose name contains `keyword`.

    Matching is a case-insensitive substring test on the base filename.
    Returns the corpus (ordered by id) and the list of files that
    matched but failed to decode or parse.
    """
    if not keyword:
        raise CorpusError("mining keyword must be non-empty")
    root = Path(root)
    if not root.is_dir():
        raise CorpusError(f"corpus root is not a readable directory: {root}")
    needle = keyword.lower()
    top, entries = str(root), []
    # Like `rglob`: unreadable directories are skipped, links to
    # directories are not followed, and links to files are kept.
    for dirpath, _, filenames in os.walk(top):
        prefix = "" if dirpath == top else os.path.relpath(dirpath, top).replace(os.sep, "/") + "/"
        for name in filenames:
            path = os.path.join(dirpath, name)
            if name.endswith(SEED_EXTENSION) and needle in name.lower() and os.path.isfile(path):
                # as in `Path.with_suffix`, a name that is all extension keeps it
                entries.append((prefix + (name[: -len(SEED_EXTENSION)] or name), Path(path)))
    entries.sort()
    if not entries:
        raise EmptyCorpusError(
            f"no seed files matching '*{keyword}*{SEED_EXTENSION}' under {root}"
        )
    corpus, errors = _build(entries)
    if not corpus.seeds:
        raise EmptyCorpusError(
            f"all {len(errors)} matching seed files under {root} failed to parse"
        )
    return corpus, errors


def load_corpus(manifest: Path | str) -> tuple[Corpus, list[SeedLoadError]]:
    """Load seeds from a JSON manifest: {"seeds": [{"id", "path"}, ...]}.

    Paths are resolved relative to the manifest's directory. A listed
    file that does not exist is an error; a file that exists but fails
    to decode or parse is reported and excluded.
    """
    manifest = Path(manifest)
    try:
        data = json.loads(manifest.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(f"cannot read manifest {manifest}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ManifestFormatError(exc.msg, exc.lineno, exc.colno) from None
    if not isinstance(data, dict) or not isinstance(data.get("seeds"), list):
        raise ManifestFormatError('manifest must be an object with a "seeds" list')

    entries: list[tuple[str, Path]] = []
    seen: set[str] = set()
    for item in data["seeds"]:
        if not isinstance(item, dict) or not all(isinstance(item.get(k), str) for k in ("id", "path")):
            raise ManifestFormatError(f'seed entries need string "id" and "path": {item!r}')
        seed_id = item["id"]
        if seed_id in seen:
            raise CorpusError(f"duplicate seed id '{seed_id}' in manifest")
        seen.add(seed_id)
        path = manifest.parent / item["path"]
        if not path.is_file():
            raise CorpusError(f"seed file not found: {path}")
        entries.append((seed_id, path))
    if not entries:
        raise EmptyCorpusError(f"manifest {manifest} lists no seeds")
    corpus, errors = _build(entries)
    if not corpus.seeds:
        raise EmptyCorpusError(f"all seeds in manifest {manifest} failed to parse")
    return corpus, errors


def write_manifest(corpus: Corpus, path: Path | str) -> None:
    """Write a manifest for a mined corpus, with paths relative to it."""
    path = Path(path)
    entries = []
    for seed in corpus.seeds:
        try:
            rel = seed.source_path.resolve().relative_to(path.resolve().parent)
            entry_path = rel.as_posix()
        except ValueError:
            entry_path = str(seed.source_path.resolve())
        entries.append({"id": seed.id, "path": entry_path})
    path.write_text(json.dumps({"seeds": entries}, indent=2) + "\n", encoding="utf-8")
