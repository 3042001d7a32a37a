"""Run configuration: JSON config file plus CLI overrides."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from ..backends import BackendConfigError, resolve_backend
from ..llm.generation import GenParams, MutationMode


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class CorpusSource:
    """Either a directory to mine (root+keyword) or an explicit manifest."""

    root: Path | None = None
    keyword: str = "issue"
    manifest: Path | None = None

    def validate(self) -> None:
        if (self.root is None) == (self.manifest is None):
            raise ConfigError("corpus needs exactly one of 'root' or 'manifest'")
        if self.root is not None and not self.keyword:
            raise ConfigError("corpus keyword must be non-empty")


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
    rounds: int = 1

    def validate(self) -> None:
        self.corpus.validate()
        if len(self.backends) < 2:
            raise ConfigError("differential testing needs at least 2 backends")
        if len(set(self.backends)) != len(self.backends):
            raise ConfigError("backend names must be unique")
        for name in self.backends:
            try:
                resolve_backend(name)
            except BackendConfigError as exc:
                raise ConfigError(str(exc)) from None
        if self.in_flight < 1:
            raise ConfigError("in_flight must be >= 1")
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")

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
            "rounds": self.rounds,
        }


_MUTATION_ALIASES = {
    "none": MutationMode.NONE,
    "random": MutationMode.RANDOM_ONE,
    "random_one": MutationMode.RANDOM_ONE,
}


def parse_mutation(value: str) -> MutationMode:
    if value not in _MUTATION_ALIASES:
        raise ConfigError(f"unknown mutation mode '{value}' (use none|random)")
    return _MUTATION_ALIASES[value]


def load_config(path: Path | str) -> PipelineConfig:
    """Read a JSON config file; relative paths resolve against its directory."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed config {path} (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from None
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    base = path.parent

    def rel(p) -> Path:
        p = Path(p)
        return p if p.is_absolute() else base / p

    corpus_raw = data.get("corpus")
    if not isinstance(corpus_raw, dict):
        raise ConfigError("config needs a 'corpus' object")
    corpus = CorpusSource(
        root=rel(corpus_raw["root"]) if corpus_raw.get("root") else None,
        keyword=corpus_raw.get("keyword", "issue"),
        manifest=rel(corpus_raw["manifest"]) if corpus_raw.get("manifest") else None,
    )

    try:
        params = GenParams(
            model=data.get("model", GenParams.model),
            temperature=data.get("temperature", GenParams.temperature),
            top_p=data.get("top_p", GenParams.top_p),
            n_per_seed=data.get("n_per_seed", GenParams.n_per_seed),
            seed=data.get("rng_seed", GenParams.seed),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    config = PipelineConfig(
        corpus=corpus,
        backends=tuple(data.get("backends", ())),
        params=params,
        mutation=parse_mutation(data.get("mutation", "random_one")),
        suppress=frozenset(data.get("suppress", ())),
        out_dir=rel(data.get("out_dir", "out")),
        endpoint=data.get("endpoint"),
        mock_scenario=rel(data["mock_scenario"]) if data.get("mock_scenario") else None,
        in_flight=data.get("in_flight", 4),
        context_limit_chars=data.get("context_limit_chars", 0),
        rounds=data.get("rounds", 1),
    )
    config.validate()
    return config


def with_overrides(
    config: PipelineConfig,
    *,
    mock: Path | str | None = None,
    seed: int | None = None,
    mutation: str | None = None,
    out: Path | str | None = None,
    rounds: int | None = None,
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
    if rounds is not None:
        config = dataclasses.replace(config, rounds=rounds)
    config.validate()
    return config
