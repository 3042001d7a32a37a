"""Seed corpus: historical bug-triggering test scripts that drive generation.

Seeds come either from mining a directory for `.t` files whose names
carry an issue keyword, or from an explicit JSON manifest. Seeds that
cannot be read or parsed are reported and excluded; a corpus with no
usable seed is an error that names each failed file. `read_text` reads
every input file the program takes, and `read_json` decodes every JSON
document among them, so each read or decode error names its file.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from .tdsl.parser import parse_script

SEED_EXTENSION = ".t"


@dataclass(frozen=True)
class SeedTest:
    id: str
    source_path: Path
    script_text: str


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


def read_text(path: Path | str, what: str) -> str:
    """Input file `path` as UTF-8 with text mode's newlines, read unbuffered. A failure
    raises `ValueError("cannot read <what> <path>: <cause>")` from the cause."""
    try:
        with open(path, "rb", buffering=0) as f:
            return f.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}") from exc


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:  # as the engines' reader, reject what `dict` would drop
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _not_json(name: str):
    raise ValueError(f"{name} is not JSON")


def decode_json(text: str):
    """The JSON value `text` holds. A repeated object key, `NaN` or `Infinity`,
    nesting too deep for the decoder and the decode errors of `json.loads` are
    each a `ValueError`."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys, parse_constant=_not_json)
    except RecursionError:
        raise ValueError("nesting too deep") from None


def read_json(path: Path | str, what: str) -> dict:
    """The JSON object in input file `path`, read by `read_text` and decoded by
    `decode_json`. A failure raises `ValueError("cannot read <what> <path>: <cause>")`."""
    text = read_text(path, what)
    try:
        data = decode_json(text)
        if not isinstance(data, dict):
            raise ValueError("not a JSON object")
    except ValueError as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}") from exc
    return data


def _build(entries: list[tuple[str, Path]], where: str) -> tuple[Corpus, list[str]]:
    seeds: list[SeedTest] = []
    errors: list[str] = []
    for seed_id, path in entries:
        try:  # a seed that cannot be read or parsed is reported and left out
            text = read_text(path, "seed")
            parse_script(text)
        except ValueError as exc:  # the line names the path once, so only the cause
            errors.append(f"{path}: {exc.__cause__ or exc}")
        else:
            seeds.append(SeedTest(seed_id, path, text))
    if not seeds:
        raise ValueError(f"no seed {where} could be loaded: " + "; ".join(errors))
    seeds.sort(key=lambda s: s.id)
    return Corpus(tuple(seeds), _hash_seeds(seeds)), errors


def mine_seeds(root: Path | str, keyword: str) -> tuple[Corpus, list[str]]:
    """Collect every `.t` file under `root` whose name contains `keyword`.

    Matching is a case-insensitive substring test on the base filename.
    Returns the corpus (ordered by id) and a `"<path>: <cause>"` line for
    each file that matched but could not be read or parsed.
    """
    if not keyword:
        raise ValueError("mining keyword must be non-empty")
    root = Path(root)
    if not root.is_dir():
        raise ValueError(f"corpus root is not a readable directory: {root}")
    needle = keyword.lower()
    top, entries = str(root), []
    # As `rglob` does: skip unreadable directories and links to them, keep links to files.
    for dirpath, _, filenames in os.walk(top):
        folder = Path(dirpath)  # one per directory: `folder / name` costs half a `Path(path)`
        prefix = "" if dirpath == top else os.path.relpath(dirpath, top).replace(os.sep, "/") + "/"
        for name in filenames:
            path = os.path.join(dirpath, name)
            if name.endswith(SEED_EXTENSION) and needle in name.lower() and os.path.isfile(path):
                # as in `Path.with_suffix`, a name that is all extension keeps it
                entries.append((prefix + (name[: -len(SEED_EXTENSION)] or name), folder / name))
    entries.sort()
    where = f"matching '*{keyword}*{SEED_EXTENSION}' under {root}"
    if not entries:
        raise ValueError(f"no seed files {where}")
    return _build(entries, where)


def load_corpus(manifest: Path | str) -> tuple[Corpus, list[str]]:
    """Load seeds from a JSON manifest: {"seeds": [{"id", "path"}, ...]}.

    Paths are resolved relative to the manifest's directory. A listed
    file that does not exist is an error; a file that exists but cannot
    be read or parsed is reported and excluded.
    """
    manifest = Path(manifest)
    data = read_json(manifest, "manifest")
    if not isinstance(data.get("seeds"), list):
        raise ValueError(f'manifest {manifest} must be an object with a "seeds" list')

    entries: list[tuple[str, Path]] = []
    seen: set[str] = set()
    for item in data["seeds"]:
        if not isinstance(item, dict) or not all(isinstance(item.get(k), str) for k in ("id", "path")):
            raise ValueError(f'seed entries need string "id" and "path": {item!r}')
        seed_id = item["id"]
        if seed_id in seen:
            raise ValueError(f"duplicate seed id '{seed_id}' in manifest")
        seen.add(seed_id)
        path = manifest.parent / item["path"]
        if not path.is_file():
            raise ValueError(f"seed file not found: {path}")
        entries.append((seed_id, path))
    if not entries:
        raise ValueError(f"manifest {manifest} lists no seeds")
    return _build(entries, f"in manifest {manifest}")


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
