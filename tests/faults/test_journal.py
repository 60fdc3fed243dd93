"""SweepJournal: exact round-trips, crash tolerance, checkpoint/resume."""

import json
import threading

from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.core.perfmodel import DNRError
from repro.core.sweep import SweepEngine, expand_grid
from repro.faults import SweepJournal

GRID = dict(machines=("sg2044", "sg2042"), kernels=("is", "ep", "mg"))


def _grid():
    return expand_grid(GRID["machines"], GRID["kernels"], thread_counts=(1, 8))


class CountingRunner(ExperimentRunner):
    """Counts family executions so resume tests can prove work was skipped."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0
        self._count_lock = threading.Lock()

    def run_many(self, configs):
        with self._count_lock:
            self.calls += 1
        return super().run_many(configs)


class TestRoundTrip:
    def test_results_bit_identical_through_disk(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.json")
        engine = SweepEngine(journal=journal)
        grid = _grid()
        originals = engine.run_many(grid)

        reloaded = SweepJournal(tmp_path / "j.json").results()
        for config, original in zip(grid, originals):
            assert reloaded[engine.cache_key(config)] == original

    def test_dnr_round_trips(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.json")
        engine = SweepEngine(journal=journal)
        config = ExperimentConfig(machine="allwinner-d1", kernel="ft", npb_class="B")
        assert engine.run_many([config], on_dnr="none") == [None]

        reloaded = SweepJournal(tmp_path / "j.json").results()
        value = reloaded[engine.cache_key(config)]
        assert isinstance(value, DNRError)

    def test_journal_snapshot_is_stable_json(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.json")
        SweepEngine(journal=journal).run_many(_grid())
        data = json.loads((tmp_path / "j.json").read_text())
        assert data["version"] == 1
        assert len(data["entries"]) == len(_grid())


class TestCrashTolerance:
    def test_missing_file_is_empty(self, tmp_path):
        assert len(SweepJournal(tmp_path / "nope.json")) == 0

    def test_corrupt_file_degrades_to_empty(self, tmp_path):
        path = tmp_path / "j.json"
        path.write_text('{"version": 1, "entries": {"torn')
        assert len(SweepJournal(path)) == 0

    def test_version_mismatch_ignored(self, tmp_path):
        path = tmp_path / "j.json"
        path.write_text('{"version": 99, "entries": {"k": {}}}')
        assert len(SweepJournal(path)) == 0

    def test_one_malformed_entry_does_not_poison_the_rest(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.json")
        engine = SweepEngine(journal=journal)
        grid = _grid()
        engine.run_many(grid)
        data = json.loads((tmp_path / "j.json").read_text())
        first_key = sorted(data["entries"])[0]
        data["entries"][first_key] = {"result": {"garbage": True}}
        (tmp_path / "j.json").write_text(json.dumps(data))
        assert len(SweepJournal(tmp_path / "j.json").results()) == len(grid) - 1


class TestResume:
    def test_interrupted_run_resumes_from_completed_families(self, tmp_path):
        grid = _grid()
        # "Interrupted" run: only the first two families complete.
        partial = SweepJournal(tmp_path / "j.json")
        first = CountingRunner()
        SweepEngine(first, journal=partial).run_many(grid[:4])
        assert first.calls == 2

        # Resumed run over the full grid: only the remaining families execute.
        resumed_runner = CountingRunner()
        engine = SweepEngine(
            resumed_runner, journal=SweepJournal(tmp_path / "j.json")
        )
        resumed = engine.run_many(grid)
        assert resumed_runner.calls == 4  # 6 families total, 2 journaled

        # Bit-identical to a cold run with no journal anywhere.
        cold = SweepEngine().run_many(grid)
        assert resumed == cold

    def test_stale_journal_is_inert(self, tmp_path):
        """Entries from different runner settings must never be served."""
        grid = _grid()
        noisy = SweepJournal(tmp_path / "j.json")
        SweepEngine(ExperimentRunner(seed=1), journal=noisy).run_many(grid)

        other_runner = CountingRunner()  # default seed != 1
        engine = SweepEngine(other_runner, journal=SweepJournal(tmp_path / "j.json"))
        engine.run_many(grid)
        assert other_runner.calls == 6  # nothing matched; everything ran

    def test_detach_stops_recording(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.json")
        engine = SweepEngine(journal=journal)
        engine.detach_journal()
        engine.run_many(_grid())
        assert len(SweepJournal(tmp_path / "j.json")) == 0


class TestResumedArtifactsByteIdentical:
    def test_interrupted_table_run_resumes_byte_identical(self, tmp_path):
        """The acceptance criterion: interrupt + resume == uninterrupted."""
        from repro.cli import main
        from repro.core.sweep import clear_caches

        out_a = tmp_path / "uninterrupted"
        out_b = tmp_path / "resumed"
        journal_path = tmp_path / "journal.json"

        clear_caches()
        assert main(["export", str(out_a)]) == 0

        # "Interrupt": warm only part of the grid into the journal, cold
        # caches again, then resume the full export against the journal.
        clear_caches()
        assert main(["table", "3", "--journal", str(journal_path)]) == 0
        assert len(SweepJournal(journal_path)) > 0
        clear_caches()
        assert (
            main(["export", str(out_b), "--journal", str(journal_path)])
            == 0
        )
        clear_caches()

        for artifact in sorted(out_a.iterdir()):
            assert (out_b / artifact.name).read_bytes() == artifact.read_bytes()
