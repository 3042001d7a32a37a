"""Run artifacts of the planted-bug replay: the golden file
`data/golden/artifacts.jsonl` pins their bytes.

The three-seed corpus is replayed on `reference` and `planted:L1+L2+L3`
(as in acceptance C1) with mutation `random_one` and `none`, each at
`in_flight` 1, 4 and 8. A line names the run and one artifact and holds
the SHA-256 of its bytes: `verdicts.jsonl`, `report.txt`, the
`bugs.jsonl` header and body, `records.jsonl` with each `"timestamp"`
field stripped, and each flagged `scripts/*.t`. In the header, the run
timestamp and the directories it echoes are replaced by placeholders.
Replay makes the runs deterministic, so the file only changes when what
a run writes does.
To rewrite it after a deliberate change:

    PYTHONPATH=src python tests/artifact_golden.py
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from jsonduel.corpus import mine_seeds
from jsonduel.llm.generation import GenParams, MutationMode
from jsonduel.pipeline.config import CorpusSource, PipelineConfig
from jsonduel.pipeline.runner import run

from scenariofix import write_planted_scenario

DATA_DIR = Path(__file__).parent / "data"
SEEDS_DIR = DATA_DIR / "seeds"
GOLDEN = DATA_DIR / "golden" / "artifacts.jsonl"
MUTATIONS = (MutationMode.RANDOM_ONE, MutationMode.NONE)
IN_FLIGHT = (1, 4, 8)


def _json_text(path: Path) -> str:
    """`path` as it appears inside a JSON string."""
    return json.dumps(str(path), ensure_ascii=False)[1:-1]


def run_artifacts(out: Path, report) -> dict[str, bytes]:
    """The artifacts the file pins, by name, from a run into `out`."""
    header, body = (out / "bugs.jsonl").read_text(encoding="utf-8").split("\n", 1)
    header = header.replace(report.started_at, "<started_at>")
    # longest first, in case one directory holds the other
    for path in sorted((out.parent, SEEDS_DIR), key=lambda p: -len(str(p))):
        header = header.replace(_json_text(path), "<dir>")
    artifacts = {
        "verdicts.jsonl": (out / "verdicts.jsonl").read_bytes(),
        "report.txt": (out / "report.txt").read_bytes(),
        "bugs.jsonl header": header.encode("utf-8"),
        "bugs.jsonl body": body.encode("utf-8"),
        "records.jsonl": re.sub(rb', "timestamp": "[^"]*"', b"", (out / "records.jsonl").read_bytes()),
    }
    for script in sorted((out / "scripts").glob("*.t")):
        artifacts[f"scripts/{script.name}"] = script.read_bytes()
    return artifacts


def records(work_dir: Path) -> list[dict]:
    """Every golden line, from runs made under `work_dir`."""
    corpus, errors = mine_seeds(SEEDS_DIR, "issue")
    assert not errors
    lines = []
    for mutation in MUTATIONS:
        scenario = write_planted_scenario(
            corpus, work_dir / f"{mutation.value}.json", mutation=mutation
        )
        for in_flight in IN_FLIGHT:
            out = work_dir / f"{mutation.value}-{in_flight}"
            report = run(PipelineConfig(
                corpus=CorpusSource(root=SEEDS_DIR),
                backends=("reference", "planted:L1+L2+L3"),
                params=GenParams(seed=42),
                mutation=mutation,
                out_dir=out,
                mock_scenario=scenario,
                in_flight=in_flight,
            ))
            for name, data in run_artifacts(out, report).items():
                lines.append({
                    "mutation": mutation.value,
                    "in_flight": in_flight,
                    "artifact": name,
                    "sha256": hashlib.sha256(data).hexdigest(),
                })
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work_dir, GOLDEN.open("w", encoding="utf-8") as out:
        for line in records(Path(work_dir)):
            out.write(json.dumps(line, separators=(",", ":"), sort_keys=True) + "\n")
