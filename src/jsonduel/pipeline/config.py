"""Run configuration: JSON config file plus CLI overrides."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from ..backends import resolve_backend
from ..corpus import read_json
from ..llm.generation import GenParams, MutationMode


@dataclass(frozen=True)
class CorpusSource:
    """Either a directory to mine (root+keyword) or an explicit manifest."""

    root: Path | None = None
    keyword: str = "issue"
    manifest: Path | None = None

    def validate(self) -> None:
        if (self.root is None) == (self.manifest is None):
            raise ValueError("corpus needs exactly one of 'root' or 'manifest'")
        if self.root is not None and not self.keyword:
            raise ValueError("corpus keyword must be non-empty")


@dataclass(frozen=True)
class PipelineConfig:
    corpus: CorpusSource
    backends: tuple[str, ...]
    params: GenParams = GenParams()
    mutation: MutationMode = MutationMode.RANDOM_ONE
    suppress: frozenset[str] = frozenset()
    out_dir: Path = Path("out")
    endpoint: str | None = None
    mock_scenario: Path | None = None
    in_flight: int = 4
    context_limit_chars: int = 0  # 0 = unlimited

    def validate(self) -> None:
        self.corpus.validate()
        if len(self.backends) < 2:
            raise ValueError("differential testing needs at least 2 backends")
        if len(set(self.backends)) != len(self.backends):
            raise ValueError("backend names must be unique")
        for name in self.backends:
            resolve_backend(name)
        if self.in_flight < 1:
            raise ValueError("in_flight must be >= 1")
        if self.context_limit_chars < 0:
            raise ValueError("context_limit_chars must be >= 0")

    def echo(self) -> dict:
        """JSON-safe snapshot of the effective configuration."""
        return {
            "corpus": {
                "root": str(self.corpus.root) if self.corpus.root else None,
                "keyword": self.corpus.keyword,
                "manifest": str(self.corpus.manifest) if self.corpus.manifest else None,
            },
            "backends": list(self.backends),
            "model": self.params.model,
            "temperature": self.params.temperature,
            "top_p": self.params.top_p,
            "n_per_seed": self.params.n_per_seed,
            "rng_seed": self.params.seed,
            "mutation": self.mutation.value,
            "suppress": sorted(self.suppress),
            "out_dir": str(self.out_dir),
            "endpoint": self.endpoint,
            "mock_scenario": str(self.mock_scenario) if self.mock_scenario else None,
            "in_flight": self.in_flight,
            "context_limit_chars": self.context_limit_chars,
        }


_MUTATION_ALIASES = {
    "none": MutationMode.NONE,
    "random": MutationMode.RANDOM_ONE,
    "random_one": MutationMode.RANDOM_ONE,
}


def parse_mutation(value: str) -> MutationMode:
    if value not in _MUTATION_ALIASES:
        raise ValueError(f"unknown mutation mode '{value}' (use none|random)")
    return _MUTATION_ALIASES[value]


_JSON_TYPES = {int: "an integer", float: "a number", str: "a string", list: "a list of strings"}


def _get(raw: dict, key: str, want: type, default=None, prefix: str = ""):
    """Take `key` out of `raw`: its value if it has JSON type `want` (a
    number may be an integer), `default` if the key is absent or, for an
    optional key, null. Keys left in `raw` once all are taken are unknown."""
    value = raw.pop(key, default)
    if value is None and default is None:
        return None
    if want is list:
        ok = isinstance(value, list) and all(isinstance(item, str) for item in value)
    else:
        ok = isinstance(value, (int, float) if want is float else want) and not isinstance(value, bool)
    if not ok:
        raise ValueError(f"config key '{prefix}{key}' must be {_JSON_TYPES[want]}")
    return value


def load_config(path: Path | str) -> PipelineConfig:
    """Read a JSON config file; relative paths resolve against its directory."""
    path = Path(path)
    data = read_json(path, "config")
    base = path.parent

    def rel(p) -> Path:
        p = Path(p)
        return p if p.is_absolute() else base / p

    corpus_raw = data.pop("corpus", None)
    if not isinstance(corpus_raw, dict):
        raise ValueError("config needs a 'corpus' object")
    root = _get(corpus_raw, "root", str, prefix="corpus.")
    manifest = _get(corpus_raw, "manifest", str, prefix="corpus.")
    corpus = CorpusSource(
        root=rel(root) if root else None,
        keyword=_get(corpus_raw, "keyword", str, CorpusSource.keyword, "corpus."),
        manifest=rel(manifest) if manifest else None,
    )

    params = GenParams(
        model=_get(data, "model", str, GenParams.model),
        temperature=_get(data, "temperature", float, GenParams.temperature),
        top_p=_get(data, "top_p", float, GenParams.top_p),
        n_per_seed=_get(data, "n_per_seed", int, GenParams.n_per_seed),
        seed=_get(data, "rng_seed", int, GenParams.seed),
    )

    mock_scenario = _get(data, "mock_scenario", str)
    config = PipelineConfig(
        corpus=corpus,
        backends=tuple(_get(data, "backends", list, [])),
        params=params,
        mutation=parse_mutation(_get(data, "mutation", str, PipelineConfig.mutation.value)),
        suppress=frozenset(_get(data, "suppress", list, [])),
        out_dir=rel(_get(data, "out_dir", str, str(PipelineConfig.out_dir))),
        endpoint=_get(data, "endpoint", str),
        mock_scenario=rel(mock_scenario) if mock_scenario else None,
        in_flight=_get(data, "in_flight", int, PipelineConfig.in_flight),
        context_limit_chars=_get(data, "context_limit_chars", int, PipelineConfig.context_limit_chars),
    )
    for raw, prefix in ((data, ""), (corpus_raw, "corpus.")):
        if raw:
            raise ValueError(f"unknown config key '{prefix}{next(iter(raw))}'")
    config.validate()
    return config


def with_overrides(
    config: PipelineConfig,
    *,
    mock: Path | str | None = None,
    seed: int | None = None,
    mutation: str | None = None,
    out: Path | str | None = None,
) -> PipelineConfig:
    """Apply CLI flag overrides on top of a loaded config."""
    if mock is not None:
        config = dataclasses.replace(config, mock_scenario=Path(mock))
    if seed is not None:
        config = dataclasses.replace(
            config, params=dataclasses.replace(config.params, seed=seed)
        )
    if mutation is not None:
        config = dataclasses.replace(config, mutation=parse_mutation(mutation))
    if out is not None:
        config = dataclasses.replace(config, out_dir=Path(out))
    return config
