"""Tests for labeled-case loading and accuracy evaluation."""

import pytest

from jsonduel.classify.evaluate import (
    Category,
    evaluate_accuracy,
    load_cases,
    render_accuracy_json,
    render_accuracy_text,
)
from jsonduel.classify.prompts import ClassifyMode
from jsonduel.llm.generation import GenParams
from jsonduel.pipeline.cli import main
from jsonduel.tdsl.parser import parse_script

from casefix import SPLIT, build_case_fixture, confusion_responses
from clientfix import ScriptedClient

PARAMS = GenParams()


@pytest.fixture()
def case_file(tmp_path):
    return build_case_fixture(tmp_path / "cases")


class TestLoadCases:
    def test_loads_the_split(self, case_file):
        cases = load_cases(case_file)
        assert len(cases) == 43
        for category, count in SPLIT:
            assert sum(1 for c in cases if c.category is category) == count

    def test_scripts_are_parsed(self, case_file):
        cases = load_cases(case_file)
        assert all(c.script == parse_script(c.script_text) for c in cases)

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        path.write_text("{broken\n")
        with pytest.raises(ValueError, match="cases.jsonl:1"):
            load_cases(path)

    @pytest.mark.parametrize(
        "line",
        [
            "[1]",
            '"a.t"',
            "null",
            '{"outcome": {"result": "error", "kind": "parse"}}',
            '{"script_path": 5, "outcome": {"result": "error", "kind": "parse"}}',
        ],
    )
    def test_line_that_is_not_a_case_object_reports_position(self, tmp_path, line):
        path = tmp_path / "cases.jsonl"
        path.write_text("\n" + line + "\n")
        with pytest.raises(ValueError, match="cases.jsonl:2: not an object with a string script_path"):
            load_cases(path)

    @pytest.mark.parametrize("line", ["[1]", '{"outcome": {"result": "pass"}}'])
    def test_cli_reports_a_bad_case_line_and_exits_1(self, tmp_path, capsys, line):
        path = tmp_path / "cases.jsonl"
        path.write_text(line + "\n")
        assert main(["classify", "--cases", str(path), "--mock", str(tmp_path / "none.json")]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:1: not an object with a string script_path\n"
        )


    @pytest.mark.parametrize(
        "fields, message",
        [
            pytest.param('"outcome": [1]', "outcome is not an object", id="outcome-not-an-object"),
            pytest.param('"category": "E_bad"', "outcome is not an object", id="no-outcome"),
            pytest.param(
                '"outcome": {"kind": "fail", "assertion_index": 0}',
                "unknown outcome encoding: {'kind': 'fail', 'assertion_index': 0}",
                id="unknown-outcome-encoding",
            ),
            pytest.param(
                '"outcome": {"result": "fail", "expected": "1", "actual": "2"}',
                "outcome has no 'assertion_index'",
                id="fail-without-assertion-index",
            ),
            pytest.param(
                '"outcome": {"result": "error", "kind": "Nope"}',
                "'Nope' is not a valid ErrorKind",
                id="unknown-error-kind",
            ),
            pytest.param(
                '"outcome": {"result": "error", "kind": "ParseError"}, "category": "nope"',
                "'nope' is not a valid Category",
                id="unknown-category",
            ),
            pytest.param(
                '"outcome": {"result": "pass"}',
                "a failed case cannot carry a Pass outcome",
                id="pass-outcome",
            ),
            pytest.param(
                '"outcome": {"result": "error", "kind": "ParseError"}, "backend": 5',
                "backend is not a string",
                id="backend-not-a-string",
            ),
            pytest.param(
                '"outcome": {"result": "error", "kind": "ParseError"}, "backend": null',
                "backend is not a string",
                id="backend-null",
            ),
            *[
                pytest.param(
                    f'"outcome": {{"result": "fail", "assertion_index": {index}, "expected": "1", "actual": "2"}}',
                    f"assertion_index is not a non-negative integer: {shown}",
                    id=f"assertion-index-{index}",
                )
                for index, shown in [("1e999", "inf"), ("1.5", "1.5"), ("true", "True"), ('"3"', "'3'"),
                                     ("-4", "-4"), ("null", "None")]
            ],
            pytest.param(
                '"outcome": {"result": "fail", "assertion_index": 0, "expected": 1, "actual": "2"}',
                "expected is not a string",
                id="expected-not-a-string",
            ),
            pytest.param(
                '"outcome": {"result": "fail", "assertion_index": 0, "expected": "1", "actual": ["2"]}',
                "actual is not a string",
                id="actual-not-a-string",
            ),
            pytest.param(
                '"outcome": {"result": "error", "kind": "ParseError", "message": null}',
                "message is not a string",
                id="message-not-a-string",
            ),
            pytest.param(
                '"outcome": {"result": "fail", "assertion_index": NaN, "expected": "1", "actual": "2"}',
                "malformed JSON: NaN is not JSON",
                id="assertion-index-NaN",
            ),
            pytest.param(
                '"outcome": {"result": "fail", "assertion_index": 0, "expected": "1", "actual": "2"}, '
                '"category": "E_bad"',
                "category E_bad needs an error outcome",
                id="errored-category-with-fail-outcome",
            ),
            pytest.param(
                '"outcome": {"result": "error", "kind": "ParseError"}, "category": "F_good"',
                "category F_good needs a fail outcome",
                id="failed-category-with-error-outcome",
            ),
        ],
    )
    def test_bad_case_fields_report_position(self, tmp_path, fields, message):
        (tmp_path / "a.t").write_text("assert_eq(1, 1);\n")
        path = tmp_path / "cases.jsonl"
        path.write_text('\n{"script_path": "a.t", ' + fields + "}\n")
        with pytest.raises(ValueError) as info:
            load_cases(path)
        assert str(info.value) == f"{path}:2: {message}"

    def test_cli_reports_an_unparseable_case_script_and_exits_1(self, tmp_path, capsys):
        (tmp_path / "a.t").write_text("assert_eq(1 1);\n")
        path = tmp_path / "cases.jsonl"
        path.write_text('{"script_path": "a.t", "outcome": {"result": "error", "kind": "ParseError"}}\n')
        assert main(["classify", "--cases", str(path), "--mock", str(tmp_path / "none.json")]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:1: {tmp_path / 'a.t'}: expected ',' (line 1, column 13)\n"
        )

    def test_cli_reports_bad_case_fields_and_exits_1(self, tmp_path, capsys):
        (tmp_path / "a.t").write_text("assert_eq(1, 1);\n")
        path = tmp_path / "cases.jsonl"
        path.write_text('{"script_path": "a.t", "outcome": [1]}\n')
        assert main(["classify", "--cases", str(path), "--mock", str(tmp_path / "none.json")]) == 1
        assert capsys.readouterr().err == f"error: {path}:1: outcome is not an object\n"

    def test_cli_reports_an_out_of_range_assertion_index_and_exits_1(self, tmp_path, capsys):
        """1e999 is valid JSON that decodes to an infinite float."""
        (tmp_path / "a.t").write_text("assert_eq(1, 1);\n")
        path = tmp_path / "cases.jsonl"
        outcome = '{"result": "fail", "assertion_index": 1e999, "expected": "1", "actual": "2"}'
        path.write_text('{"script_path": "a.t", "outcome": ' + outcome + "}\n")
        assert main(["classify", "--cases", str(path), "--mock", str(tmp_path / "none.json")]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:1: assertion_index is not a non-negative integer: inf\n"
        )


class TestEvaluate:
    def test_scripted_confusion_reproduces_the_table(self, case_file):
        cases = load_cases(case_file)
        client = ScriptedClient(confusion_responses())
        report = evaluate_accuracy(cases, ClassifyMode.FS, client, PARAMS)

        assert report.counts(Category.E_BAD) == (7, 10)
        assert report.counts(Category.E_GOOD) == (4, 10)
        assert report.counts(Category.F_BAD) == (10, 11)
        assert report.counts(Category.F_GOOD) == (10, 12)
        assert report.accuracy(Category.E_BAD) == 70.0
        assert report.accuracy(Category.E_GOOD) == 40.0
        assert round(report.accuracy(Category.F_BAD), 1) == 90.9
        assert round(report.accuracy(Category.F_GOOD), 1) == 83.3
        assert round(report.average(), 1) == 72.1

    def test_all_correct_mock_scores_100_everywhere(self, case_file):
        cases = load_cases(case_file)
        responses = []
        for case in cases:
            label = "good" if case.category.expected_verdict.value == "Good" else "bad"
            responses.extend([f"This is a {label} test."] * 6)
        report = evaluate_accuracy(cases, ClassifyMode.FS, ScriptedClient(responses), PARAMS)
        for category, _ in SPLIT:
            assert report.accuracy(category) == 100.0
        assert report.average() == 100.0

    def test_empty_case_list_is_an_error(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate_accuracy([], ClassifyMode.FS, ScriptedClient([]), PARAMS)

    def test_unlabeled_cases_rejected(self, case_file):
        import dataclasses

        cases = load_cases(case_file)
        unlabeled = [dataclasses.replace(cases[0], category=Category.UNKNOWN)]
        with pytest.raises(ValueError, match="ground-truth"):
            evaluate_accuracy(unlabeled, ClassifyMode.FS, ScriptedClient([]), PARAMS)


class TestRendering:
    def _report(self, case_file):
        cases = load_cases(case_file)
        client = ScriptedClient(confusion_responses())
        return evaluate_accuracy(cases, ClassifyMode.FS, client, PARAMS)

    def test_text_table(self, case_file):
        text = render_accuracy_text(self._report(case_file))
        head, row = text.strip().splitlines()
        assert ["E_bad", "E_good", "F_bad", "F_good", "avg."] == head.split()[1:]
        assert row.split() == ["FS", "70.0", "40.0", "90.9", "83.3", "72.1"]

    def test_json_table(self, case_file):
        import json

        payload = json.loads(render_accuracy_json(self._report(case_file)))
        assert payload["mode"] == "fs"
        assert payload["average"] == 72.1
        assert payload["per_category"]["F_bad"] == {
            "correct": 10, "total": 11, "accuracy": 90.9,
        }
        assert payload["cases"] == 43
