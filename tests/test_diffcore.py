"""Tests for cross-engine comparison, signatures and dedup."""

import pytest

from jsonduel.backends import resolve_backend
from jsonduel.backends.executor import execute
from jsonduel.backends.outcomes import Error, ErrorKind, Fail, Pass
from jsonduel.diffcore import (
    DiffConfigError,
    VerdictStatus,
    compare,
    dedup,
    divergence_locus,
    make_verdict,
    outcome_key,
    skeleton_hash,
)
from jsonduel.tdsl.parser import parse_script

from scriptgen import generate_scripts

P, F2, EP = Pass(), Fail(2, "a", "b"), Error(ErrorKind.PARSE_ERROR, "x")


class TestCompare:
    def test_all_pass_consistent(self):
        assert compare({"a": P, "b": P, "c": P}) is VerdictStatus.CONSISTENT

    def test_mixed_pass_fail_inconsistent(self):
        assert compare({"a": P, "b": F2, "c": P}) is VerdictStatus.INCONSISTENT

    def test_identical_errors_consistent(self):
        other = Error(ErrorKind.PARSE_ERROR, "different message text")
        assert compare({"a": EP, "b": other}) is VerdictStatus.CONSISTENT

    def test_fail_compares_by_assertion_index_not_values(self):
        assert (
            compare({"a": Fail(2, "1", "2"), "b": Fail(2, "xxx", "yyy")})
            is VerdictStatus.CONSISTENT
        )
        assert (
            compare({"a": Fail(1, "1", "2"), "b": Fail(2, "1", "2")})
            is VerdictStatus.INCONSISTENT
        )

    def test_error_kinds_differ(self):
        assert (
            compare({"a": EP, "b": Error(ErrorKind.NULL_ACCESS, "x")})
            is VerdictStatus.INCONSISTENT
        )

    def test_fewer_than_two_backends_is_config_error(self):
        with pytest.raises(DiffConfigError):
            compare({"a": P})

    def test_symmetry_under_name_permutation(self):
        outcomes = {"a": P, "b": F2, "c": EP}
        permuted = {"c": EP, "a": P, "b": F2}
        assert compare(outcomes) == compare(permuted)

    def test_outcome_keys(self):
        assert outcome_key(P) == ("PASS",)
        assert outcome_key(F2) == ("FAIL", 2)
        assert outcome_key(EP) == ("ERR", "ParseError")


class TestLocus:
    def test_assertion_index_wins(self):
        assert divergence_locus({"a": P, "b": Fail(3, "x", "y")}) == "assert:3"
        assert divergence_locus({"a": Fail(5, "", ""), "b": Fail(3, "", "")}) == "assert:3"

    def test_error_kind_when_no_fail(self):
        assert divergence_locus({"a": P, "b": EP}) == "error:ParseError"


SCRIPT_A = 'assert_eq("x", serialize({"a": 1}));'
SCRIPT_A_VARIANT = 'assert_eq("y", serialize({"a": 2}));'
SCRIPT_B = 'let v = parse("[1]"); assert_eq(2, get(v, 0, integer));'


class TestSignatures:
    def test_literal_variants_share_a_skeleton(self):
        a = parse_script(SCRIPT_A)
        variant = parse_script(SCRIPT_A_VARIANT)
        other = parse_script(SCRIPT_B)
        assert skeleton_hash(a) == skeleton_hash(variant)
        assert skeleton_hash(a) != skeleton_hash(other)

    def test_signature_present_iff_inconsistent(self):
        script = parse_script(SCRIPT_A)
        consistent = make_verdict("s1", script, {"a": P, "b": P})
        inconsistent = make_verdict("s2", script, {"a": P, "b": F2})
        assert consistent.signature is None
        assert inconsistent.signature is not None

    def test_signature_deterministic(self):
        script = parse_script(SCRIPT_A)
        v1 = make_verdict("s", script, {"a": P, "b": F2})
        v2 = make_verdict("s", script, {"b": F2, "a": P})
        assert v1.signature == v2.signature


class TestDedup:
    def _verdict(self, script_id, src, outcomes):
        return make_verdict(script_id, parse_script(src), outcomes)

    def test_same_bug_same_report(self):
        bad = {"ref": P, "planted": Fail(0, "x", "y")}
        verdicts = [
            self._verdict("s2", SCRIPT_A, bad),
            self._verdict("s1", SCRIPT_A_VARIANT, bad),
        ]
        reports = dedup(verdicts)
        assert len(reports) == 1
        assert reports[0].representative_id == "s1"
        assert reports[0].script_ids == ("s1", "s2")

    def test_zero_inconsistencies_empty(self):
        assert dedup([self._verdict("s", SCRIPT_A, {"a": P, "b": P})]) == []

    def test_three_distinct_planted_bugs_three_reports(self):
        from test_planted import LISTING_BOOL, LISTING_DECIMAL, LISTING_PATH

        reference = resolve_backend("reference")
        planted = resolve_backend("planted:L1+L2+L3")
        verdicts = []
        for i, src in enumerate((LISTING_PATH, LISTING_BOOL, LISTING_DECIMAL)):
            script = parse_script(src)
            outcomes = {
                "reference": execute(script, reference),
                "planted": execute(script, planted),
            }
            verdicts.append(make_verdict(f"s{i}", script, outcomes))
        reports = dedup(verdicts)
        assert len(reports) == 3
        assert all(len(r.script_ids) == 1 for r in reports)

    def test_every_inconsistent_verdict_lands_in_exactly_one_report(self):
        bad = {"ref": P, "planted": Fail(0, "x", "y")}
        verdicts = [
            self._verdict("a", SCRIPT_A, bad),
            self._verdict("b", SCRIPT_A_VARIANT, bad),
            self._verdict("c", SCRIPT_B, {"ref": P, "planted": EP}),
            self._verdict("d", SCRIPT_B, {"ref": P, "planted": P}),
        ]
        reports = dedup(verdicts)
        assert sum(len(r.script_ids) for r in reports) == 3
        seen = [sid for r in reports for sid in r.script_ids]
        assert sorted(seen) == ["a", "b", "c"]


class TestIdenticalBackendsProperty:
    def test_identical_backends_never_inconsistent(self):
        ref = resolve_backend("reference")
        copy = resolve_backend("reference-copy")
        for script in generate_scripts(seed=303, count=150):
            outcomes = {"reference": execute(script, ref), "copy": execute(script, copy)}
            assert compare(outcomes) is VerdictStatus.CONSISTENT
