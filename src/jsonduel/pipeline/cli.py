"""Command-line interface.

Exit codes: 0 ran clean, 1 usage/config error, 2 aborted run,
3 bugs found (so CI can gate on new inconsistencies).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from ..backends import resolve_backend
from ..backends.executor import execute
from ..backends.outcomes import describe
from ..classify.evaluate import (
    OPEN_REQUESTS,
    Category,
    classify_cases,
    evaluate_accuracy,
    load_cases,
    render_accuracy_json,
    render_accuracy_text,
)
from ..classify.prompts import ClassifyMode
from ..corpus import mine_seeds, read_text, write_manifest
from ..llm.client import HttpChatClient, ModelError
from ..llm.generation import GenParams
from ..llm.mock import ReplayClient
from ..tdsl.parser import parse_script
from .config import CorpusSource, load_config, with_overrides
from .runner import run

log = logging.getLogger(__name__)

EXIT_CLEAN = 0
EXIT_USAGE = 1
EXIT_ABORTED = 2
EXIT_BUGS_FOUND = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jsonduel",
        description="Differential testing of JSON engines via regenerated test scripts.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full generate/execute/diff pipeline")
    p_run.add_argument("--config", required=True, type=Path)
    p_run.add_argument("--mock", type=Path, help="replay scenario file (no network)")
    p_run.add_argument("--seed", type=int, help="override the RNG seed")
    p_run.add_argument("--mutation", choices=["none", "random"], help="mutation mode")
    p_run.add_argument("--out", type=Path, help="override the output directory")

    p_mine = sub.add_parser("mine", help="mine seed scripts into a manifest")
    p_mine.add_argument("--root", required=True, type=Path)
    p_mine.add_argument("--keyword", default=CorpusSource.keyword)
    p_mine.add_argument("--out", required=True, type=Path)

    p_cls = sub.add_parser("classify", help="triage failing tests as good or bad")
    p_cls.add_argument("--cases", required=True, type=Path, help="labeled-case JSONL")
    p_cls.add_argument("--mode", choices=["fs", "fs-cot"], default="fs")
    p_cls.add_argument("--mock", type=Path, help="replay scenario file")
    p_cls.add_argument("--json", action="store_true", help="emit the JSON table")

    p_exec = sub.add_parser("exec", help="execute one script on one backend")
    p_exec.add_argument("--script", required=True, type=Path)
    p_exec.add_argument("--backend", required=True)

    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    config = with_overrides(
        config,
        mock=args.mock,
        seed=args.seed,
        mutation=args.mutation,
        out=args.out,
    )
    report = run(config)
    print(f"report written to {config.out_dir}")
    if not report.complete:
        print("run aborted: a model request failed; partial report flagged incomplete")
        return EXIT_ABORTED
    if report.bug_reports:
        print(f"{len(report.bug_reports)} unique candidate bugs found")
        return EXIT_BUGS_FOUND
    print("no inconsistencies found")
    return EXIT_CLEAN


def _cmd_mine(args) -> int:
    corpus, errors = mine_seeds(args.root, args.keyword)
    write_manifest(corpus, args.out)
    print(f"{len(corpus.seeds)} seeds -> {args.out}")
    for error in errors:
        print(f"load error: {error}", file=sys.stderr)
    return EXIT_CLEAN


def _cmd_classify(args) -> int:
    cases = load_cases(args.cases)
    mode = ClassifyMode(args.mode)
    labeled = all(case.category is not Category.UNKNOWN for case in cases)
    if args.json and not labeled:
        raise ValueError("--json prints the accuracy table, which needs every case labeled")
    client = (
        ReplayClient.from_file(args.mock) if args.mock
        else HttpChatClient(open_requests=OPEN_REQUESTS)
    )
    if labeled:
        report = evaluate_accuracy(cases, mode, client)
        print(render_accuracy_text(report), end="")
        if args.json:
            print(render_accuracy_json(report), end="")
    else:
        for i, result in enumerate(classify_cases(cases, mode, client, GenParams())):
            votes = ",".join(v.value for v in result.votes)
            print(f"case {i}: {result.final.value}  votes=[{votes}]")
    return EXIT_CLEAN


def _cmd_exec(args) -> int:
    backend = resolve_backend(args.backend)
    script = parse_script(read_text(args.script, "script"))
    outcome = execute(script, backend)
    print(describe(outcome))
    return EXIT_CLEAN


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    handlers = {
        "run": _cmd_run,
        "mine": _cmd_mine,
        "classify": _cmd_classify,
        "exec": _cmd_exec,
    }
    try:
        return handlers[args.command](args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ABORTED
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
