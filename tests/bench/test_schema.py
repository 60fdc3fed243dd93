"""Schema v2: run metadata and artifact load/write."""

import json

from repro.bench.schema import (
    SCHEMA_VERSION,
    load_artifact,
    merge_artifact,
    run_metadata,
    write_artifact,
)


class TestRunMetadata:
    def test_core_fields_present(self):
        assert SCHEMA_VERSION == 2
        meta = run_metadata(suites=["store"])
        assert set(meta) == {
            "git_sha", "timestamp", "machine", "suites", "escalation_rounds",
        }
        assert meta["suites"] == ["store"]
        assert meta["escalation_rounds"] == 0
        assert meta["machine"]["python"]

    def test_git_sha_of_this_repo(self):
        meta = run_metadata(suites=[])
        # The repo is git-initialised, so the sha must resolve here.
        assert meta["git_sha"] is None or len(meta["git_sha"]) == 40

    def test_suites_deduplicated_and_sorted(self):
        assert run_metadata(suites=["b", "a", "b"])["suites"] == ["a", "b"]


class TestLoadArtifact:
    def test_missing_file_is_none(self, tmp_path):
        assert load_artifact(tmp_path / "nope.json") is None

    def test_garbage_is_none(self, tmp_path):
        p = tmp_path / "bench_artifact.json"
        p.write_text("not json {")
        assert load_artifact(p) is None

    def test_other_schema_version_is_none(self, tmp_path):
        p = tmp_path / "bench_artifact.json"
        p.write_text(json.dumps({
            "schema_version": 1,
            "entries": [{"label": "store.get", "get_s": 0.5}],
        }))
        assert load_artifact(p) is None

    def test_v2_roundtrip(self, tmp_path):
        p = tmp_path / "bench_artifact.json"
        meta = run_metadata(suites=["s"])
        merged = merge_artifact(
            None, [{"label": "s.x", "suite": "s", "x_s": 1.0}], meta
        )
        write_artifact(p, merged)
        assert load_artifact(p) == merged
