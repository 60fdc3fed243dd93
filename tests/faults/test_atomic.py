"""write_text_atomic: torn writes are impossible, by test.

Failures are real ones: ``os.replace`` patched to raise the ``OSError``
a full disk (``ENOSPC``) or a failing device (``EIO``) would, at the
exact "crash mid-artifact-write" moment -- after the temporary file is
written, before the rename.
"""

import errno
import os
import sys
import threading

import pytest

from repro.faults import write_text_atomic


def _fail_replace(monkeypatch, code=errno.ENOSPC, times=1):
    """Make the next ``times`` calls to ``os.replace`` raise ``OSError(code)``."""
    real = os.replace
    left = [times]

    def replace(src, dst):
        if left[0] > 0:
            left[0] -= 1
            raise OSError(code, os.strerror(code))
        return real(src, dst)

    monkeypatch.setattr(os, "replace", replace)


class TestAtomicWrite:
    def test_writes_and_returns_path(self, tmp_path):
        path = tmp_path / "artifact.csv"
        assert write_text_atomic(path, "a,b\n1,2\n") == path
        assert path.read_text() == "a,b\n1,2\n"

    def test_overwrites_existing(self, tmp_path):
        path = tmp_path / "artifact.csv"
        path.write_text("old")
        write_text_atomic(path, "new")
        assert path.read_text() == "new"

    def test_no_tmp_residue_on_success(self, tmp_path):
        write_text_atomic(tmp_path / "a.csv", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]

    def test_failed_write_preserves_old_content(self, tmp_path, monkeypatch):
        """The headline property: a failure mid-write never truncates."""
        path = tmp_path / "table6.csv"
        write_text_atomic(path, "complete,old,table\n")
        _fail_replace(monkeypatch)
        with pytest.raises(OSError) as info:
            write_text_atomic(path, "half-written new conte")
        assert info.value.errno == errno.ENOSPC
        # Old artifact intact, no temporary residue.
        assert path.read_text() == "complete,old,table\n"
        assert [p.name for p in tmp_path.iterdir()] == ["table6.csv"]
        # The disk has room again: the retried write succeeds.
        write_text_atomic(path, "complete,new,table\n")
        assert path.read_text() == "complete,new,table\n"

    def test_failed_write_with_no_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "fresh.csv"
        _fail_replace(monkeypatch, errno.EIO)
        with pytest.raises(OSError):
            write_text_atomic(path, "data")
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_concurrent_writers_of_one_path(self, tmp_path):
        """Threads hammering one path: no error, intact bytes, no residue.

        With one shared ``<name>.tmp`` one writer's rename moved the file
        out from under the other, which then raised FileNotFoundError.
        """
        path = tmp_path / "entry.json"
        text = '{"payload": "' + "x" * 512 + '"}\n'
        n_threads = 4
        errors = []
        start = threading.Barrier(n_threads)

        def hammer():
            start.wait()
            try:
                for _ in range(1500):
                    write_text_atomic(path, text)
            except OSError as exc:  # the old shared-tmp race: FileNotFoundError
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert path.read_text() == text
        assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]


class TestExportGoesThroughAtomicWrites:
    def test_export_survives_failed_write(self, tmp_path, monkeypatch):
        """An export interrupted mid-artifact leaves no torn CSVs behind."""
        from repro.harness.export import export_all

        baseline_dir = tmp_path / "clean"
        export_all(baseline_dir, tables=(2,), figures=())
        baseline = (baseline_dir / "table2.csv").read_bytes()

        out = tmp_path / "faulted"
        out.mkdir()
        stale = out / "table2.csv"
        stale.write_text("stale,but,complete\n")
        with monkeypatch.context() as patch:
            _fail_replace(patch)
            with pytest.raises(OSError):
                export_all(out, tables=(2,), figures=())
        assert stale.read_text() == "stale,but,complete\n"
        assert not list(out.glob("*.tmp"))

        # Restarting the export (the disk has room again) converges to
        # the uninterrupted bytes.
        export_all(out, tables=(2,), figures=())
        assert stale.read_bytes() == baseline

    def test_telemetry_report_written_atomically(self, tmp_path, monkeypatch):
        from repro import obs
        from repro.obs.export import render_json, write_report

        rec = obs.install()
        obs.incr("x", 3)
        obs.disable()
        path = tmp_path / "report.json"
        write_report(path, rec)
        assert path.read_text() == render_json(rec)
        _fail_replace(monkeypatch)
        with pytest.raises(OSError):
            write_report(path, rec)
        assert path.read_text() == render_json(rec)
