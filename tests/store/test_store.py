"""ResultStore units: round-trips, integrity, leases, LRU eviction.

The store's one promise is that a hit is indistinguishable from a
recompute: values round-trip bit-identically, anything that fails
verification degrades to a miss (never a wrong answer), and leases make
execution at-most-once without ever blocking a read.
"""

import json
import sys
import threading

import pytest

from repro import obs
from repro.core.perfmodel import DNRError
from repro.core.sweep import SweepEngine, expand_grid
from repro.faults.atomic import write_text_atomic
from repro.store import STORE_VERSION, ResultStore, store_from_env


@pytest.fixture(autouse=True)
def _telemetry_off():
    obs.disable()
    yield
    obs.disable()


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def _entry_path(store, key):
    """The object file backing ``key`` (tests may corrupt it at will)."""
    return store._objects / store.lease_path(key).name.replace(".lease", ".json")


class TestRoundTrip:
    def test_text(self, store):
        store.put(("artifact", "sweep-abc"), "machine,kernel\nsg2044,ep\n")
        assert store.get(("artifact", "sweep-abc")) == "machine,kernel\nsg2044,ep\n"

    def test_miss_is_none(self, store):
        assert store.get(("nope",)) is None
        assert ("nope",) not in store

    def test_contains(self, store):
        store.put(("k",), "v")
        assert ("k",) in store

    def test_experiment_results_bit_identical(self, store):
        engine = SweepEngine(jobs=1)
        grid = expand_grid("sg2044", ("ep", "cg"), thread_counts=(1, 2))
        results = engine.run_many(grid, on_dnr="none")
        for config, result in zip(grid, results):
            key = engine.cache_key(config)
            store.put(key, result)
            assert store.get(key) == result  # == is exact, not approximate

    def test_dnr_round_trip(self, store):
        engine = SweepEngine(jobs=1)
        from repro.core.sweep import ExperimentConfig

        config = ExperimentConfig(machine="allwinner-d1", kernel="ft", npb_class="B")
        with pytest.raises(DNRError) as exc:
            engine.run(config)
        key = engine.cache_key(config)
        store.put(key, exc.value)
        restored = store.get(key)
        assert isinstance(restored, DNRError)
        assert str(restored) == str(exc.value)

    def test_second_instance_same_root_sees_entries(self, store, tmp_path):
        store.put(("shared",), "payload")
        other = ResultStore(tmp_path / "store")
        assert other.get(("shared",)) == "payload"

    def test_get_many_returns_only_hits(self, store):
        store.put(("a",), "1")
        store.put(("b",), "2")
        found = store.get_many([("a",), ("b",), ("c",)])
        assert found == {("a",): "1", ("b",): "2"}


class TestIntegrity:
    def _counters(self):
        return obs.recorder().counters_snapshot()

    def test_truncated_entry_is_a_miss_then_rewritable(self, store):
        store.put(("k",), "some artifact text")
        path = _entry_path(store, ("k",))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])

        recorder = obs.install()
        try:
            assert store.get(("k",)) is None  # miss, not garbage
        finally:
            obs.disable()
        assert recorder.counters_snapshot()["store.corrupt_entries"] == 1
        assert not path.exists()  # quarantined by unlink

        # The recompute-and-rewrite path restores service.
        store.put(("k",), "some artifact text")
        assert store.get(("k",)) == "some artifact text"

    def test_tampered_payload_fails_sha(self, store):
        store.put(("k",), "honest text")
        path = _entry_path(store, ("k",))
        entry = json.loads(path.read_text())
        entry["payload"] = json.dumps({"text": "tampered text"})
        path.write_text(json.dumps(entry))
        assert store.get(("k",)) is None

    def test_version_mismatch_is_a_miss(self, store):
        store.put(("k",), "text")
        path = _entry_path(store, ("k",))
        entry = json.loads(path.read_text())
        entry["version"] = STORE_VERSION + 1
        path.write_text(json.dumps(entry))
        assert store.get(("k",)) is None

    def test_key_mismatch_is_a_miss(self, store):
        # An entry filed under the wrong digest (e.g. a botched manual
        # copy) must not be served for the colliding key.
        store.put(("a",), "a's value")
        wrong = _entry_path(store, ("b",))
        wrong.parent.mkdir(parents=True, exist_ok=True)
        wrong.write_text(_entry_path(store, ("a",)).read_text())
        assert store.get(("b",)) is None
        assert store.get(("a",)) == "a's value"

    def test_non_json_entry_is_a_miss(self, store):
        store.put(("k",), "text")
        _entry_path(store, ("k",)).write_text("not json at all {")
        assert store.get(("k",)) is None


class TestLeases:
    def test_exclusive_claim(self, store):
        assert store.try_lease(("k",)) is True
        assert store.try_lease(("k",)) is False  # held
        assert store.lease_active(("k",))
        store.release_lease(("k",))
        assert not store.lease_active(("k",))
        store.release_lease(("k",))  # idempotent
        assert store.try_lease(("k",)) is True

    def test_break_lease(self, store):
        store.try_lease(("k",))
        store.break_lease(("k",))
        assert store.try_lease(("k",)) is True

    def test_lease_does_not_block_reads(self, store):
        store.put(("k",), "v")
        store.try_lease(("k",))
        assert store.get(("k",)) == "v"


class TestEviction:
    def _sized_store(self, tmp_path, n_keep):
        """A store whose cap fits ``n_keep`` same-sized entries."""
        probe = ResultStore(tmp_path / "probe")
        probe.put(("probe", 0), "x" * 64)
        size = probe.stats()["bytes"]
        return ResultStore(tmp_path / "store", max_bytes=n_keep * size + size // 2)

    def test_lru_eviction_under_cap(self, tmp_path):
        store = self._sized_store(tmp_path, 2)
        store.put(("probe", 1), "a" * 64)
        store.put(("probe", 2), "b" * 64)
        store.put(("probe", 3), "c" * 64)  # pushes over: evicts oldest
        assert store.get(("probe", 1)) is None
        assert store.get(("probe", 2)) == "b" * 64
        assert store.get(("probe", 3)) == "c" * 64
        assert store.stats()["bytes"] <= store.max_bytes

    def test_get_refreshes_recency(self, tmp_path):
        store = self._sized_store(tmp_path, 2)
        store.put(("probe", 1), "a" * 64)
        store.put(("probe", 2), "b" * 64)
        assert store.get(("probe", 1)) == "a" * 64  # bump 1 past 2
        store.put(("probe", 3), "c" * 64)
        assert store.get(("probe", 1)) == "a" * 64  # survived
        assert store.get(("probe", 2)) is None  # evicted instead

    def test_leased_entry_never_evicted(self, tmp_path):
        store = self._sized_store(tmp_path, 2)
        store.put(("probe", 1), "a" * 64)
        store.put(("probe", 2), "b" * 64)
        store.try_lease(("probe", 1))  # oldest, but claimed
        try:
            store.put(("probe", 3), "c" * 64)
            assert store.get(("probe", 1)) == "a" * 64  # protected
            assert store.get(("probe", 2)) is None  # next-oldest went instead
        finally:
            store.release_lease(("probe", 1))

    def test_eviction_counter(self, tmp_path):
        store = self._sized_store(tmp_path, 1)
        recorder = obs.install()
        try:
            store.put(("probe", 1), "a" * 64)
            store.put(("probe", 2), "b" * 64)
        finally:
            obs.disable()
        assert recorder.counters_snapshot()["store.evictions"] >= 1

    def test_max_bytes_validation(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultStore(tmp_path / "s", max_bytes=0)
        with pytest.raises(ValueError, match="lease_timeout_s"):
            ResultStore(tmp_path / "s", lease_timeout_s=0)


class TestIndex:
    def test_rebuilt_after_index_loss(self, store, tmp_path):
        store.put(("a",), "1")
        store.put(("b",), "2")
        (tmp_path / "store" / "index.log").unlink()
        fresh = ResultStore(tmp_path / "store")
        assert fresh.stats()["entries"] == 2
        assert fresh.get(("a",)) == "1"

    def test_corrupt_index_is_rebuilt(self, store, tmp_path):
        store.put(("a",), "1")
        (tmp_path / "store" / "index.log").write_text("{broken")
        fresh = ResultStore(tmp_path / "store")
        assert fresh.stats()["entries"] == 1
        assert fresh.get(("a",)) == "1"

    def test_stats_shape(self, store):
        stats = store.stats()
        assert stats["entries"] == 0 and stats["bytes"] == 0
        assert stats["max_bytes"] is None and stats["leases"] == 0
        store.put(("k",), "v")
        store.try_lease(("other",))
        try:
            stats = store.stats()
            assert stats["entries"] == 1 and stats["bytes"] > 0
            assert stats["leases"] == 1
        finally:
            store.release_lease(("other",))

    def test_clear(self, store):
        store.put(("k",), "v")
        store.try_lease(("k",))
        store.clear()
        assert store.get(("k",)) is None
        assert store.stats() == {
            "root": str(store.root),
            "entries": 0,
            "bytes": 0,
            "max_bytes": None,
            "leases": 0,
        }



def _digest(store, key):
    return store.lease_path(key).stem


def _log_lines(store):
    return (store.root / "index.log").read_text().splitlines()


class TestRecencyLog:
    """``index.log``: O(1) appends, restart recency, compaction, repair."""

    @pytest.fixture
    def log_writes(self, monkeypatch):
        """Every write the store makes to its log: "append" or "rewrite"."""
        import builtins

        from repro.store import store as store_module

        writes = []

        def counting_open(file, mode="r", *args, **kwargs):
            if "a" in mode:
                writes.append("append")
            return builtins.open(file, mode, *args, **kwargs)

        def counting_atomic(path, text, *args, **kwargs):
            if path.name == "index.log":
                writes.append("rewrite")
            return write_text_atomic(path, text, *args, **kwargs)

        monkeypatch.setattr(store_module, "open", counting_open, raising=False)
        monkeypatch.setattr(store_module, "write_text_atomic", counting_atomic)
        return writes

    @pytest.mark.parametrize("n", [0, 500])
    def test_put_appends_one_line_whatever_the_store_size(self, store, log_writes, n):
        store.put_many({("fill", i): "x" for i in range(n)})
        before = _log_lines(store) if n else []
        log_writes.clear()
        store.put(("new",), "v")
        after = _log_lines(store)
        assert after == before + [_digest(store, ("new",))]
        reopened = ResultStore(store.root)
        reopened.put(("newer",), "v")
        assert _log_lines(store) == after + [_digest(store, ("newer",))]
        assert log_writes == ["append", "append"]

    def test_put_many_appends_once_per_batch(self, store, log_writes):
        sizes = []
        for batch in range(3):
            items = {("batch", batch, i): str(i) for i in range(7)}
            store.put_many(items)
            lines = _log_lines(store)
            sizes.append(len(lines))
            assert lines[-7:] == [_digest(store, key) for key in items]
        assert sizes == [7, 14, 21]
        assert log_writes == ["append"] * 3

    def test_get_recency_survives_restart(self, tmp_path):
        probe = ResultStore(tmp_path / "probe")
        probe.put(("probe", 0), "x" * 64)
        size = probe.stats()["bytes"]
        root, cap = tmp_path / "store", 3 * size + size // 2
        a, b, c, d = (("probe", i) for i in range(1, 5))

        first = ResultStore(root, max_bytes=cap)
        first.put(a, "a" * 64)
        first.put(b, "b" * 64)
        assert first.get(a) == "a" * 64  # persisted by the next put
        first.put(c, "c" * 64)

        restarted = ResultStore(root, max_bytes=cap)
        restarted.put(d, "d" * 64)
        assert b not in restarted  # least recent across the restart
        assert a in restarted and c in restarted and d in restarted

    @pytest.mark.parametrize("tail", ["garbage line\n", "torn"])
    def test_bad_last_line_is_ignored(self, store, tail):
        keys = [("k", i) for i in range(3)]
        for key in keys:
            store.put(key, repr(key))
        log_path = store.root / "index.log"
        if tail == "torn":
            tail = _digest(store, ("k", 9))[:30]  # crash mid-append
        log_path.write_text(log_path.read_text() + tail)

        fresh = ResultStore(store.root)
        assert fresh.stats()["entries"] == 3
        for key in keys:
            assert fresh.get(key) == repr(key)
        fresh.put(("k", 3), "new")  # a damaged log is rewritten compacted
        lines = _log_lines(fresh)
        assert sorted(lines) == sorted(_digest(fresh, ("k", i)) for i in range(4))
        assert lines[-1] == _digest(fresh, ("k", 3))

    def test_log_is_compacted(self, store, log_writes):
        from repro.store.store import _LOG_SLACK

        n = 40
        for _ in range(10):
            for i in range(n):
                store.put(("key", i), str(i))
                assert len(_log_lines(store)) <= 2 * n + _LOG_SLACK
        assert "rewrite" in log_writes
        assert ResultStore(store.root).stats()["entries"] == n

    def test_running_total_matches_disk(self, tmp_path):
        store = ResultStore(tmp_path / "store", max_bytes=2000)
        for i in range(40):
            store.put(("k", i), "x" * (i * 7))
        store.get(("k", 39))
        _entry_path(store, ("k", 38)).write_text("not json")
        assert store.get(("k", 38)) is None  # forgotten as corrupt
        on_disk = sum(path.stat().st_size for path in store._objects.iterdir())
        assert store.stats()["bytes"] == on_disk <= store.max_bytes
        assert ResultStore(store.root).stats()["bytes"] == on_disk

    def test_concurrent_publishers_lose_no_update(self, tmp_path):
        """Threads publishing and reading at once keep index and log whole."""
        store = ResultStore(tmp_path / "store")
        n_threads, per_thread = 12, 30
        errors = []

        def worker(t):
            try:
                for i in range(per_thread):
                    if i % 3:
                        store.put(("t", t, i), "x" * (t + i))
                    else:
                        store.put_many({("t", t, i, j): "y" * j for j in range(3)})
                    store.get(("t", (t + 1) % n_threads, i))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

        objects = list(store._objects.iterdir())
        on_disk = sum(path.stat().st_size for path in objects)
        assert store.stats() == {
            "root": str(store.root),
            "entries": len(objects),
            "bytes": on_disk,
            "max_bytes": None,
            "leases": 0,
        }
        assert {path.stem for path in objects} <= set(_log_lines(store))

class TestStoreFromEnv:
    def test_absent_means_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert store_from_env() is None

    def test_root_and_cap(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "envstore"))
        monkeypatch.setenv("REPRO_STORE_MAX_MB", "8")
        store = store_from_env()
        assert store.root == tmp_path / "envstore"
        assert store.max_bytes == 8 * 2**20

    def test_bogus_cap_falls_back_to_unbounded(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "envstore"))
        monkeypatch.setenv("REPRO_STORE_MAX_MB", "a-lot")
        store = store_from_env()
        assert store is not None and store.max_bytes is None
