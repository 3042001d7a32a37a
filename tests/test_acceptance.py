"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Everything here is offline and deterministic: replay/scripted mocks
only, pinned tolerances, no network.
"""

import json
import random
import time
from pathlib import Path

from jsonduel.backends import resolve_backend
from jsonduel.backends.executor import execute
from jsonduel.backends.outcomes import Fail, Pass
from jsonduel.classify.evaluate import (
    Category,
    evaluate_accuracy,
    load_cases,
    render_accuracy_text,
)
from jsonduel.classify.prompts import DEFINITION_BAD, DEFINITION_GOOD, ClassifyMode
from jsonduel.classify.voting import Verdict, tally_votes
from jsonduel.diffcore import VerdictStatus, compare
from jsonduel.llm.generation import GenParams, MutationMode, pick_rule
from jsonduel.llm.prompts import GENERATE_SUFFIX, SYSTEM_PROMPT
from jsonduel.llm.rules import ALL_RULES
from jsonduel.pipeline.config import CorpusSource, PipelineConfig
from jsonduel.pipeline.report import render_text
from jsonduel.pipeline.runner import run
from jsonduel.tdsl.parser import parse_script
from jsonduel.tdsl.printer import print_script

from casefix import build_case_fixture, confusion_responses
from clientfix import ScriptedClient
from conftest import SEEDS_DIR, read_golden, render_transcript
from scenariofix import wrap_response, write_planted_scenario
from scriptgen import generate_scripts


def note(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


def test_c1_planted_bug_end_to_end(tmp_path, fixture_corpus):
    """Exactly 3 unique bugs, loci matching L1/L2/L3, <10 s, zero network."""
    started = time.monotonic()
    scenario = write_planted_scenario(fixture_corpus, tmp_path / "scenario.json")
    config = PipelineConfig(
        corpus=CorpusSource(root=SEEDS_DIR),
        backends=("reference", "planted:L1+L2+L3"),
        params=GenParams(seed=42),
        out_dir=tmp_path / "out",
        mock_scenario=scenario,
        in_flight=1,
    )
    report = run(config)
    elapsed = time.monotonic() - started

    assert report.complete
    assert len(report.bug_reports) == 3

    by_seed = {b.representative_id.split("-")[0]: b for b in report.bug_reports}
    assert set(by_seed) == {"issue1204", "issue1874", "issue1965"}

    l1 = by_seed["issue1965"].outcomes["planted:L1+L2+L3"]
    assert isinstance(l1, Fail)
    assert (l1.expected_repr, l1.actual_repr) == ("null", "1")
    assert "$.data[0][0]" in print_script(by_seed["issue1965"].representative_script)

    l2 = by_seed["issue1874"].outcomes["planted:L1+L2+L3"]
    assert isinstance(l2, Fail)
    assert l2.expected_repr == '"{\\"b\\":\\"true\\"}"'
    assert l2.actual_repr == '"{\\"b\\":true}"'

    l3 = by_seed["issue1204"].outcomes["planted:L1+L2+L3"]
    assert isinstance(l3, Fail)
    assert l3.expected_repr == "9223372036854775808"
    assert l3.actual_repr == "-9223372036854775808"

    assert all(
        isinstance(b.outcomes["reference"], Pass) for b in report.bug_reports
    )
    assert elapsed < 10.0
    note(f"C1 PASS planted-bug end-to-end: 3 unique bugs (L1/L2/L3) in {elapsed:.2f}s")


def test_c2_oracle_soundness_1000_scripts():
    """1000 scripts on reference vs reference-copy and vs planted:∅: 0 inconsistencies."""
    started = time.monotonic()
    scripts = generate_scripts(seed=20240, count=1000)
    pairs = [
        ("reference-copy", resolve_backend("reference-copy")),
        ("planted-empty", resolve_backend("planted:")),
    ]
    reference = resolve_backend("reference")
    inconsistencies = 0
    for other_name, other in pairs:
        for script in scripts:
            outcomes = {
                "reference": execute(script, reference),
                other_name: execute(script, other),
            }
            if compare(outcomes) is not VerdictStatus.CONSISTENT:
                inconsistencies += 1
    elapsed = time.monotonic() - started
    assert inconsistencies == 0
    assert elapsed < 60.0
    note(f"C2 PASS oracle soundness: 0/2000 inconsistencies in {elapsed:.1f}s")


def test_c3_dsl_round_trip_100_asts():
    """parse(print(s)) == s, structurally, for 100 generated ASTs."""
    for script in generate_scripts(seed=555, count=100):
        text = print_script(script)
        assert parse_script(text) == script
    note("C3 PASS DSL round-trip: 100/100 ASTs")


def test_c4_prompt_fidelity_goldens():
    """Golden transcripts byte-for-byte, plus every pinned phrase."""
    from jsonduel.classify.evaluate import FailedCase
    from jsonduel.classify.prompts import build_classify_prompt
    from jsonduel.llm.prompts import build_context
    from jsonduel.llm.rules import MutationRule

    seed_text = (SEEDS_DIR / "issue1874.t").read_text(encoding="utf-8")
    summary = (
        "This unit test focuses on serializing a bean whose boolean field is "
        "written as a number, asserting the exact JSON output."
    )
    plain = render_transcript(build_context(seed_text, summary, None))
    with_rule = render_transcript(
        build_context(seed_text, summary, MutationRule.SERIALIZATION_CONFIGURATIONS)
    )
    assert plain == read_golden("context_plain.txt")
    assert with_rule == read_golden("context_rule4.txt")

    fixture_src = 'let o = parse("[10, 20]");\nassert_eq(99, get(o, 1, integer));\n'
    script = parse_script(fixture_src)
    case = FailedCase(
        script=script,
        script_text=fixture_src,
        outcome=execute(script, resolve_backend("reference")),
    )
    fs = render_transcript(build_classify_prompt(case, ClassifyMode.FS))
    fs_cot = render_transcript(build_classify_prompt(case, ClassifyMode.FS_COT))
    assert fs == read_golden("classify_fs.txt")
    assert fs_cot == read_golden("classify_fs_cot.txt")

    assert SYSTEM_PROMPT == "You are a helpful assistant."
    assert "Summarize what this unit test focuses on" in plain
    assert GENERATE_SUFFIX == (
        "Include necessary import statements and return a complete test case."
    )
    assert GENERATE_SUFFIX in plain
    for rule in ALL_RULES:
        assert rule.sentence in render_transcript(
            build_context(seed_text, summary, rule)
        )
    assert "due to intrinsic bugs in the library" in DEFINITION_GOOD
    assert "incorrect test code or improper usage of the library" in DEFINITION_BAD
    assert DEFINITION_GOOD in fs and DEFINITION_BAD in fs
    assert DEFINITION_GOOD in fs_cot and DEFINITION_BAD in fs_cot
    note("C4 PASS prompt fidelity: 4 goldens byte-identical, pinned phrases present")


def test_c5_outcome_taxonomy_buckets(tmp_path, seeds_dir):
    """9 generations: 6 pass + 2 assertion-fail + 1 prose; buckets reconcile."""
    (seeds_dir / "issue1.t").write_text("assert_eq(1, 1);\n")
    responses = (
        ["summary of the seed"]
        + [wrap_response("assert_eq(1, 1);\n")] * 6
        + [wrap_response(f"assert_eq(1, {k});\n") for k in (2, 3)]
        + ["I am unable to produce a test for this input."]
    )
    config = PipelineConfig(
        corpus=CorpusSource(root=seeds_dir),
        backends=("reference", "reference-copy"),
        params=GenParams(seed=1, n_per_seed=9),
        mutation=MutationMode.NONE,
        out_dir=tmp_path / "out",
        in_flight=1,
    )
    report = run(config, client=ScriptedClient(responses))
    counts = report.counts["plain"]
    assert counts.generated == 9
    assert counts.extraction_failures == 1
    assert counts.executed() == 8
    assert counts.generated == counts.extraction_failures + counts.executed()
    text = render_text(report).decode()
    assert "Pass" in text
    assert "Failure/Exception" in text
    assert "Compile Error" in text
    note("C5 PASS outcome taxonomy: generated=9, extraction_failures=1, executed=8")


def test_c6_voting_truth_table_exhaustive():
    """Every vote multiset of size 6, including ties and unparseables."""
    combos = 0
    for good in range(7):
        for bad in range(7 - good):
            unparseable = 6 - good - bad
            votes = (
                [Verdict.GOOD] * good
                + [Verdict.BAD] * bad
                + [Verdict.UNPARSEABLE] * unparseable
            )
            expected = Verdict.GOOD if good > bad else Verdict.BAD
            assert tally_votes(votes) is expected, (good, bad, unparseable)
            # order must not matter
            shuffled = random.Random(good * 7 + bad).sample(votes, k=6)
            assert tally_votes(shuffled) is expected
            combos += 1
    assert combos == 28
    note("C6 PASS voting arithmetic: all 28 multisets (ties -> Bad, U ignored)")


def test_c7_mock_replayed_accuracy_table(tmp_path):
    """43-case fixture with the scripted confusion reproduces its table exactly."""
    cases_path = build_case_fixture(tmp_path / "cases")
    cases = load_cases(cases_path)
    assert [sum(1 for c in cases if c.category is cat) for cat in (
        Category.E_BAD, Category.E_GOOD, Category.F_BAD, Category.F_GOOD,
    )] == [10, 10, 11, 12]

    report = evaluate_accuracy(
        cases, ClassifyMode.FS, ScriptedClient(confusion_responses()), GenParams()
    )
    assert report.counts(Category.E_BAD) == (7, 10)
    assert report.counts(Category.E_GOOD) == (4, 10)
    assert report.counts(Category.F_BAD) == (10, 11)
    assert report.counts(Category.F_GOOD) == (10, 12)
    assert report.accuracy(Category.E_BAD) == 70.0
    assert report.accuracy(Category.E_GOOD) == 40.0
    assert report.accuracy(Category.F_BAD) == 100.0 * 10 / 11
    assert report.accuracy(Category.F_GOOD) == 100.0 * 10 / 12
    # The live-model average (72.1% for plain few-shot) is informational
    # only; here it is the arithmetic consequence of the scripted mock.
    table = render_accuracy_text(report)
    assert round(report.average(), 1) == 72.1
    assert "72.1" in table
    note("C7 PASS mock-replayed accuracy: 70.0/40.0/90.9/83.3, avg 72.1 (scripted)")


def test_c8_reproducible_bugs_jsonl(tmp_path, fixture_corpus):
    """Two identical runs: bugs.jsonl byte-identical outside the timestamp."""
    scenario = write_planted_scenario(fixture_corpus, tmp_path / "scenario.json")

    def one_run(out: Path) -> list[str]:
        config = PipelineConfig(
            corpus=CorpusSource(root=SEEDS_DIR),
            backends=("reference", "planted:L1+L2+L3"),
            params=GenParams(seed=42),
            out_dir=out,
            mock_scenario=scenario,
        )
        run(config)
        return (out / "bugs.jsonl").read_text(encoding="utf-8").splitlines()

    lines_a = one_run(tmp_path / "a")
    lines_b = one_run(tmp_path / "b")
    header_a, header_b = json.loads(lines_a[0]), json.loads(lines_b[0])
    for header, out in ((header_a, "a"), (header_b, "b")):
        assert header.pop("started_at")  # the single timestamp field
        assert header["config"].pop("out_dir").endswith(out)
    assert header_a == header_b
    assert lines_a[1:] == lines_b[1:]  # bug lines byte-identical
    note("C8 PASS reproducibility: bugs.jsonl identical modulo the timestamp field")


def test_c9_rule_selection_determinism():
    """Seed-42 draw sequence matches the frozen golden; 10k draws are uniform."""
    rng = random.Random(42)
    draws = [pick_rule(rng, MutationMode.RANDOM_ONE).value for _ in range(10)]
    assert draws == json.loads(read_golden("rule_draws_seed42.json"))

    rng = random.Random(42)
    counts = {rule: 0 for rule in ALL_RULES}
    n = 10_000
    for _ in range(n):
        counts[pick_rule(rng, MutationMode.RANDOM_ONE)] += 1
    for rule, count in counts.items():
        share = count / n
        assert abs(share - 0.20) <= 0.03, f"{rule.value}: {share:.3f}"
    note("C9 PASS rule selection: golden sequence + 10k draws within 20%±3%")
