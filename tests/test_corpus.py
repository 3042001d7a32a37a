"""Tests for seed-corpus mining and manifest loading."""

import json
import os
import re

import pytest

from jsonduel.corpus import (
    load_corpus,
    mine_seeds,
    read_text,
    write_manifest,
)

VALID = 'assert_eq(1, 1);\n'
BROKEN = 'let a = ;\n'


class TestMineSeeds:
    def test_keyword_filter_matches_basename_case_insensitively(self, seeds_dir):
        (seeds_dir / "Issue100.t").write_text(VALID)
        (seeds_dir / "Helper.t").write_text(VALID)
        (seeds_dir / "issue2584.t").write_text(VALID)
        corpus, errors = mine_seeds(seeds_dir, "issue")
        assert [s.id for s in corpus.seeds] == ["Issue100", "issue2584"]
        assert errors == []

    def test_empty_directory_is_an_error(self, seeds_dir):
        message = f"no seed files matching '*issue*.t' under {seeds_dir}"
        with pytest.raises(ValueError, match=re.escape(message)):
            mine_seeds(seeds_dir, "issue")

    def test_broken_seed_reported_and_excluded(self, seeds_dir):
        (seeds_dir / "issue1.t").write_text(VALID)
        (seeds_dir / "issue2.t").write_text(BROKEN)
        corpus, errors = mine_seeds(seeds_dir, "issue")
        assert [s.id for s in corpus.seeds] == ["issue1"]
        assert errors == [f"{seeds_dir / 'issue2.t'}: expected an expression (line 1, column 9)"]

    def test_all_broken_is_an_error(self, seeds_dir):
        """Mined or listed, the error names every file that failed, with its cause."""
        (seeds_dir / "issue1.t").write_text(BROKEN)
        (seeds_dir / "issue2.t").write_bytes(b"\xff")
        manifest = seeds_dir / "manifest.json"
        manifest.write_text(json.dumps({"seeds": [{"id": "a", "path": "issue1.t"}, {"id": "b", "path": "issue2.t"}]}))
        failed = (
            f"{seeds_dir / 'issue1.t'}: expected an expression (line 1, column 9); "
            f"{seeds_dir / 'issue2.t'}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        )
        for where, load in [
            (f"matching '*issue*.t' under {seeds_dir}", lambda: mine_seeds(seeds_dir, "issue")),
            (f"in manifest {manifest}", lambda: load_corpus(manifest)),
        ]:
            with pytest.raises(ValueError) as info:
                load()
            assert str(info.value) == f"no seed {where} could be loaded: {failed}"

    def test_subdirectories_are_searched_and_ids_stay_unique(self, seeds_dir):
        (seeds_dir / "v1").mkdir()
        (seeds_dir / "v2").mkdir()
        (seeds_dir / "v1" / "issue7.t").write_text(VALID)
        (seeds_dir / "v2" / "issue7.t").write_text(VALID)
        corpus, _ = mine_seeds(seeds_dir, "issue")
        assert [s.id for s in corpus.seeds] == ["v1/issue7", "v2/issue7"]

    @pytest.mark.parametrize(
        "files, links, expected",
        [
            pytest.param(
                ["a/b/ISSUE1.t", ".hidden/issue2.t", ".Issue3.t", "Helper.t"],
                {},
                [".Issue3", ".hidden/issue2", "a/b/ISSUE1"],
                id="nested-dirs-dotfiles-any-case",
            ),
            pytest.param(
                ["x_issue.T", "a_issue.t/issue9.t", "issue.t.bak"],
                {},
                ["a_issue.t/issue9"],
                id="suffix-is-exact-and-a-directory-is-no-seed",
            ),
            pytest.param(
                ["issue1.t"],
                {"link_issue.t": "../elsewhere/real.t", "linkdir": "../elsewhere", "broken_issue.t": "nowhere.t"},
                ["issue1", "link_issue"],
                id="file-link-kept-dir-link-not-followed-broken-link-skipped",
            ),
        ],
    )
    def test_mined_file_set(self, seeds_dir, files, links, expected):
        elsewhere = seeds_dir.parent / "elsewhere"
        elsewhere.mkdir()
        (elsewhere / "real.t").write_text(VALID)
        (elsewhere / "issue5.t").write_text(VALID)
        for name in files:
            (seeds_dir / name).parent.mkdir(parents=True, exist_ok=True)
            (seeds_dir / name).write_text(VALID)
        for name, target in links.items():
            os.symlink(target, seeds_dir / name)
        corpus, errors = mine_seeds(seeds_dir, "iSSue")
        assert [s.id for s in corpus.seeds] == expected
        assert [s.source_path for s in corpus.seeds] == [seeds_dir / f"{i}.t" for i in expected]
        assert errors == []

    def test_missing_root_is_an_error(self, tmp_path):
        message = f"corpus root is not a readable directory: {tmp_path / 'nope'}"
        with pytest.raises(ValueError, match=re.escape(message)):
            mine_seeds(tmp_path / "nope", "issue")

    def test_empty_keyword_rejected(self, seeds_dir):
        with pytest.raises(ValueError, match="^mining keyword must be non-empty$"):
            mine_seeds(seeds_dir, "")

    def test_ordering_is_content_independent_of_creation_order(self, seeds_dir):
        (seeds_dir / "issueB.t").write_text(VALID)
        (seeds_dir / "issueA.t").write_text(VALID)
        corpus, _ = mine_seeds(seeds_dir, "issue")
        assert [s.id for s in corpus.seeds] == ["issueA", "issueB"]

    def test_every_seed_reparses_to_its_script(self, seeds_dir):
        from jsonduel.tdsl.parser import parse_script

        (seeds_dir / "issue1.t").write_text(VALID)
        corpus, _ = mine_seeds(seeds_dir, "issue")
        for seed in corpus.seeds:
            assert seed.script_text == VALID
            parse_script(seed.script_text)


class TestManifest:
    def _manifest(self, tmp_path, entries) -> str:
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"seeds": entries}))
        return path

    def test_load_three_seeds(self, tmp_path):
        for name in ("a", "b", "c"):
            (tmp_path / f"{name}.t").write_text(VALID)
        manifest = self._manifest(
            tmp_path, [{"id": name, "path": f"{name}.t"} for name in ("a", "b", "c")]
        )
        corpus, errors = load_corpus(manifest)
        assert len(corpus.seeds) == 3
        assert errors == []

    def test_hash_is_deterministic(self, tmp_path):
        (tmp_path / "a.t").write_text(VALID)
        manifest = self._manifest(tmp_path, [{"id": "a", "path": "a.t"}])
        first, _ = load_corpus(manifest)
        second, _ = load_corpus(manifest)
        assert first.manifest_hash == second.manifest_hash

    def test_hash_changes_iff_seed_bytes_change(self, tmp_path):
        (tmp_path / "a.t").write_text(VALID)
        manifest = self._manifest(tmp_path, [{"id": "a", "path": "a.t"}])
        before, _ = load_corpus(manifest)
        (tmp_path / "a.t").write_text("assert_eq(2, 2);\n")
        after, _ = load_corpus(manifest)
        assert before.manifest_hash != after.manifest_hash

    def test_missing_file_error_names_the_path(self, tmp_path):
        manifest = self._manifest(tmp_path, [{"id": "a", "path": "ghost.t"}])
        with pytest.raises(ValueError, match="ghost.t"):
            load_corpus(manifest)

    def test_malformed_manifest_reports_position(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"seeds": [}')
        with pytest.raises(ValueError) as info:
            load_corpus(path)
        assert str(info.value) == f"cannot read manifest {path}: Expecting value: line 1 column 12 (char 11)"

    @pytest.mark.parametrize(
        "text", ['{"seed": []}', '{"seeds": {}}'], ids=["no-seeds-key", "seeds-not-a-list"]
    )
    def test_manifest_without_a_seeds_list_is_named(self, tmp_path, text):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_corpus(path)
        assert str(info.value) == f'manifest {path} must be an object with a "seeds" list'

    def test_duplicate_ids_rejected(self, tmp_path):
        (tmp_path / "a.t").write_text(VALID)
        manifest = self._manifest(
            tmp_path, [{"id": "a", "path": "a.t"}, {"id": "a", "path": "a.t"}]
        )
        with pytest.raises(ValueError, match="duplicate seed id"):
            load_corpus(manifest)

    @pytest.mark.parametrize(
        "entry",
        [{"id": "a", "path": 5}, {"id": None, "path": "a.t"}, {"id": 1, "path": "a.t"}, {"id": "a"}, "a.t"],
        ids=["path-number", "id-null", "id-number", "no-path", "not-an-object"],
    )
    def test_entry_needs_string_id_and_path(self, tmp_path, entry):
        (tmp_path / "a.t").write_text(VALID)
        manifest = self._manifest(tmp_path, [entry])
        with pytest.raises(ValueError) as info:
            load_corpus(manifest)
        assert str(info.value) == f'seed entries need string "id" and "path": {entry!r}'

    def test_write_then_load_round_trip(self, seeds_dir, tmp_path):
        (seeds_dir / "issue1.t").write_text(VALID)
        (seeds_dir / "issue2.t").write_text(VALID)
        mined, _ = mine_seeds(seeds_dir, "issue")
        manifest = seeds_dir / "manifest.json"
        write_manifest(mined, manifest)
        loaded, errors = load_corpus(manifest)
        assert errors == []
        assert [s.id for s in loaded.seeds] == [s.id for s in mined.seeds]
        assert loaded.manifest_hash == mined.manifest_hash


class TestReadText:
    @pytest.mark.parametrize(
        "data",
        [b"a\r\nb\r\n", b"a\rb", b"a\r", b"a\r\n\rb\n\r\r\nc", b"\xef\xbb\xbfa\r\n", b""],
        ids=["crlf", "lone-cr", "trailing-cr", "mixed", "bom", "empty"],
    )
    def test_keeps_what_text_mode_gives(self, tmp_path, data):
        """Every input file is read this way, so config, scenario, cases and
        scripts keep the text they had when read in text mode."""
        path = tmp_path / "input"
        path.write_bytes(data)
        assert read_text(path, "input") == path.read_text(encoding="utf-8")

    def test_failure_names_the_file_and_keeps_the_cause(self, tmp_path):
        path = tmp_path / "missing"
        with pytest.raises(ValueError) as info:
            read_text(path, "config")
        assert str(info.value) == f"cannot read config {path}: [Errno 2] No such file or directory: '{path}'"
        assert isinstance(info.value.__cause__, FileNotFoundError)
