"""Disk-backed content-addressed result store with LRU eviction.

Layout (everything under one root directory)::

    <root>/objects/<digest>.json   one entry per key (atomic writes)
    <root>/index.log               advisory recency log (append-only)

``<digest>`` is the sha256 of the canonical JSON encoding of the key
tuple, so the mapping from key to path is a pure function -- any process
that can compute the key can find (or publish) the entry without
coordination.  Entries carry the key itself plus a sha256 over the
payload text; reads verify both, and anything that fails verification is
unlinked and reported as a miss, never returned.

Values are the exact types the engine memoises -- ``ExperimentResult``
and ``DNRError`` -- plus plain strings for rendered artifacts, through
one codec (:func:`encode_value` / :func:`decode_value`).  The codec
renders floats with ``repr`` (shortest round-trip), so restored values
are bit-identical to freshly computed ones.

The LRU index (entry sizes, recency order, a running byte total) lives
in memory.  Sizes come from a listdir plus stat of ``objects/`` on first
use; only recency needs persisting, and it goes to ``index.log``: one
digest per line, oldest touch first.  A publication appends the digests
touched since the last append in one write -- O(1) in the store's size,
one append per :meth:`ResultStore.put_many` batch -- and a ``get``
writes nothing (its touch rides along with the next publication).  When
the log outgrows ``2 * entries + _LOG_SLACK`` lines it is rewritten
compacted, one line per live entry in recency order.

The log is advisory.  Replay keeps the last occurrence of each digest
and skips lines naming no live object, including any that are not a
digest at all (a torn tail left by a crash mid-append).  Objects the log
never mentions rank newest, in digest order, and the next publication
rewrites the log compacted.  Losing or corrupting the log therefore
costs recency, never entries.  A leftover ``index.json`` from older
stores is ignored.

Concurrency: one instance is thread-safe (its lock guards the in-memory
index and the log writes; entries land through atomic writes).  Across
processes there is no coordination and none is needed: results are
pure functions of their key, so two writers of one key write identical
bytes, each through its own temporary file, and the store ends with one
entry per key.  Every process appends to the same log.

No wall clock anywhere: recency is the order of touches, keeping every
store-backed run deterministic enough for the repo's telemetry
contracts (lint rules R001/R006).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from pathlib import Path

from repro import obs
from repro.faults.atomic import write_text_atomic

__all__ = ["ResultStore", "store_from_env", "STORE_VERSION"]

#: Bump when the entry schema changes shape: old entries then fail the
#: version check and degrade to misses (recompute + rewrite), never to
#: misdecoded values.
STORE_VERSION = 1

_OBJECTS_DIR = "objects"
_LOG_NAME = "index.log"

#: Lines the recency log may carry beyond two per live entry before the
#: next publication rewrites it compacted.
_LOG_SLACK = 256

_DIGEST = re.compile(r"[0-9a-f]{64}")


def _canonical_key(key: tuple) -> str:
    return json.dumps(list(key))


def _digest_key(key: tuple) -> str:
    return hashlib.sha256(_canonical_key(key).encode()).hexdigest()


def encode_value(value) -> dict:
    """Serialise one stored value: an artifact, a result or a DNR verdict.

    Floats pass through JSON via ``repr`` (shortest round-trip), so a
    value restored from disk is bit-identical to the freshly computed one.
    """
    if isinstance(value, str):
        return {"text": value}
    from repro.core.perfmodel import DNRError

    if isinstance(value, DNRError):
        return {"dnr": str(value)}
    prediction = value.prediction
    return {
        "result": {
            "machine": value.machine,
            "kernel": value.kernel,
            "npb_class": value.npb_class,
            "n_threads": value.n_threads,
            "compiler": value.compiler,
            "vectorised": value.vectorised,
            "samples": [[s.run_index, s.time_s, s.mops] for s in value.samples],
            "notes": list(value.notes),
            "prediction": {
                "machine": prediction.machine,
                "kernel": prediction.kernel,
                "npb_class": prediction.npb_class,
                "n_threads": prediction.n_threads,
                "time_s": prediction.time_s,
                "mops": prediction.mops,
                "t_compute": prediction.t_compute,
                "t_stream": prediction.t_stream,
                "t_latency": prediction.t_latency,
                "t_sync": prediction.t_sync,
                "vectorised": prediction.vectorised,
                "calibration_factor": prediction.calibration_factor,
                "notes": list(prediction.notes),
            },
        }
    }


def decode_value(payload: dict):
    """Inverse of :func:`encode_value` (raises on malformed payloads)."""
    if "text" in payload:
        text = payload["text"]
        if not isinstance(text, str):
            raise ValueError("text payload must be a string")
        return text
    from repro.core.perfmodel import DNRError, Prediction
    from repro.core.results import ExperimentResult, RunSample

    if "dnr" in payload:
        return DNRError(payload["dnr"])
    data = payload["result"]
    pred = dict(data["prediction"])
    pred["notes"] = tuple(pred["notes"])
    return ExperimentResult(
        machine=data["machine"],
        kernel=data["kernel"],
        npb_class=data["npb_class"],
        n_threads=data["n_threads"],
        compiler=data["compiler"],
        vectorised=data["vectorised"],
        samples=tuple(
            RunSample(run_index=i, time_s=t, mops=m) for i, t, m in data["samples"]
        ),
        prediction=Prediction(**pred),
        notes=tuple(data["notes"]),
    )


class ResultStore:
    """One store directory: get/put by key, LRU eviction.

    Publication costs one atomic object write per entry plus one append
    to the recency log per :meth:`put` / :meth:`put_many` call,
    independent of how many entries the store already holds.

    Parameters
    ----------
    root:
        The store directory (created lazily on first write).
    max_bytes:
        Advisory size cap over entry payload bytes.  ``None`` (default)
        disables eviction.  When a put pushes the total over the cap,
        least-recently-used entries are evicted until it fits.  Recency
        survives restarts through the append-only ``index.log``.
    """

    def __init__(self, root: str | Path, max_bytes: int | None = None) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None to disable)")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self._objects = self.root / _OBJECTS_DIR
        self._log_path = self.root / _LOG_NAME
        self._dirs_ready = False
        self._lock = threading.Lock()
        #: digest -> entry size, oldest touch first; None until first use.
        self._entries: dict[str, int] | None = None
        self._bytes = 0
        #: Digests touched since the last log write, oldest touch first.
        self._unlogged: dict[str, None] = {}
        self._log_lines = 0
        self._log_stale = False

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get(self, key: tuple):
        """The stored value for ``key``, or ``None`` on a miss.

        Corrupt, truncated or tampered entries (bad JSON, schema/version
        mismatch, key mismatch, sha256 mismatch) are unlinked, counted
        under ``store.corrupt_entries`` and reported as misses.
        """
        digest = _digest_key(key)
        value = self._read_verified(digest, key)
        if value is None:
            obs.incr("store.misses")
            return None
        obs.incr("store.hits")
        with self._lock:
            self._touch_locked(digest)
        return value

    def get_many(self, keys) -> dict:
        """Bulk :meth:`get`: ``key -> value`` for every present key."""
        found = {}
        for key in keys:
            value = self.get(key)
            if value is not None:
                found[key] = value
        return found

    def __contains__(self, key: tuple) -> bool:
        return (self._objects / f"{_digest_key(key)}.json").exists()

    def _read_verified(self, digest: str, key: tuple):
        path = self._objects / f"{digest}.json"
        try:
            text = path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            return None
        try:
            entry = json.loads(text)
            if not isinstance(entry, dict) or entry.get("version") != STORE_VERSION:
                raise ValueError("schema/version mismatch")
            payload_text = entry["payload"]
            if not isinstance(payload_text, str):
                raise ValueError("payload must be a JSON string")
            recorded = entry["sha256"]
            actual = hashlib.sha256(payload_text.encode()).hexdigest()
            if recorded != actual:
                raise ValueError("payload sha256 mismatch")
            if entry["key"] != json.loads(_canonical_key(key)):
                raise ValueError("key mismatch")
            return decode_value(json.loads(payload_text))
        except (KeyError, TypeError, ValueError):
            obs.incr("store.corrupt_entries")
            try:
                os.unlink(path)
            except OSError:
                pass
            with self._lock:
                self._forget_locked(digest)
            return None

    # ------------------------------------------------------------------
    # Writes / eviction
    # ------------------------------------------------------------------

    def put(self, key: tuple, value) -> None:
        """Publish one entry atomically (idempotent: same key, same bytes)."""
        self.put_many({key: value})

    def put_many(self, items: dict) -> None:
        """Publish a ``key -> value`` map with one recency-log append."""
        self._ensure_dirs()
        with self._lock:
            # Load before writing: our own new objects must not look
            # like entries the log failed to record.
            self._ensure_index_locked()
        written = []
        try:
            for key, value in items.items():
                written.append(self._write_entry(key, value))
        finally:
            if written:
                with self._lock:
                    for digest, size in written:
                        self._touch_locked(digest, size=size)
                    self._evict_locked()
                    self._write_log_locked()

    def _write_entry(self, key: tuple, value) -> tuple[str, int]:
        digest = _digest_key(key)
        payload_text = json.dumps(encode_value(value), sort_keys=True)
        entry_text = (
            json.dumps(
                {
                    "version": STORE_VERSION,
                    "key": json.loads(_canonical_key(key)),
                    "payload": payload_text,
                    "sha256": hashlib.sha256(payload_text.encode()).hexdigest(),
                },
                sort_keys=True,
            )
            + "\n"
        )
        write_text_atomic(self._objects / f"{digest}.json", entry_text)
        obs.incr("store.writes")
        obs.incr("store.bytes_written", len(entry_text))
        return digest, len(entry_text)

    def _ensure_dirs(self) -> None:
        if not self._dirs_ready:
            self._objects.mkdir(parents=True, exist_ok=True)
            self._dirs_ready = True

    def _evict_locked(self) -> None:
        if self.max_bytes is None:
            return
        excess = self._bytes - self.max_bytes
        victims = []
        for digest, size in self._entries.items():  # oldest first
            if excess <= 0:
                break
            victims.append(digest)
            excess -= size
        for digest in victims:
            try:
                os.unlink(self._objects / f"{digest}.json")
            except OSError:
                pass
            self._forget_locked(digest)
            obs.incr("store.evictions")

    # ------------------------------------------------------------------
    # Advisory index (sizes + recency log)
    # ------------------------------------------------------------------

    def _ensure_index_locked(self) -> None:
        if self._entries is not None:
            return
        # Sizes from the objects directory (sorted: deterministic order
        # for objects the log never mentions).
        on_disk = {}
        try:
            names = sorted(os.listdir(self._objects))
        except OSError:
            names = []
        for name in names:
            if name.endswith(".json") and _DIGEST.fullmatch(name[:-5]):
                try:
                    on_disk[name[:-5]] = (self._objects / name).stat().st_size
                except OSError:
                    continue
        try:
            log_text = self._log_path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            log_text = ""
        lines = log_text.splitlines()
        # Replay: the last occurrence of a digest sets its recency.
        entries: dict[str, int] = {}
        for line in lines:
            size = on_disk.get(line)
            if size is not None:
                entries.pop(line, None)
                entries[line] = size
        mentioned = len(entries)
        for digest, size in on_disk.items():
            if digest not in entries:
                entries[digest] = size
        self._entries = entries
        self._bytes = sum(entries.values())
        self._log_lines = len(lines)
        # A log that misses live objects, ends torn or holds garbage is
        # rewritten whole by the next publication instead of appended to.
        self._log_stale = (
            len(entries) > mentioned
            or (log_text != "" and not log_text.endswith("\n"))
            or any(not _DIGEST.fullmatch(line) for line in lines)
        )

    def _touch_locked(self, digest: str, size: int | None = None) -> None:
        self._ensure_index_locked()
        old = self._entries.pop(digest, None)
        if size is None:
            size = old
        if size is None:
            try:
                size = (self._objects / f"{digest}.json").stat().st_size
            except OSError:
                return  # raced with an eviction/unlink; nothing to track
        self._entries[digest] = size
        self._bytes += size - (old or 0)
        self._unlogged.pop(digest, None)
        self._unlogged[digest] = None

    def _forget_locked(self, digest: str) -> None:
        if self._entries is None:
            return
        size = self._entries.pop(digest, None)
        if size is not None:
            self._bytes -= size
        self._unlogged.pop(digest, None)

    def _write_log_locked(self) -> None:
        """Append the unlogged touches, or rewrite the log compacted."""
        self._log_lines += len(self._unlogged)
        if self._log_stale or self._log_lines > 2 * len(self._entries) + _LOG_SLACK:
            write_text_atomic(self._log_path, "".join(f"{d}\n" for d in self._entries))
            self._log_lines = len(self._entries)
            self._log_stale = False
        elif self._unlogged:
            with open(self._log_path, "a", encoding="utf-8") as log:
                log.write("".join(f"{d}\n" for d in self._unlogged))
        self._unlogged.clear()

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Static shape for /health and ``repro stats``: size and bounds."""
        with self._lock:
            self._ensure_index_locked()
            total_bytes = self._bytes
            entries = len(self._entries)
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total_bytes,
            "max_bytes": self.max_bytes,
        }

    def clear(self) -> None:
        """Remove every entry and the recency log (a fresh store)."""
        with self._lock:
            try:
                names = os.listdir(self._objects)
            except OSError:
                names = []
            for name in names:
                if name.endswith(".json"):
                    try:
                        os.unlink(self._objects / name)
                    except OSError:
                        pass
            try:
                os.unlink(self._log_path)
            except OSError:
                pass
            self._entries = {}
            self._bytes = 0
            self._unlogged.clear()
            self._log_lines = 0
            self._log_stale = False


def store_from_env() -> ResultStore | None:
    """The store the ``REPRO_STORE`` environment variable names (if any).

    ``REPRO_STORE_MAX_MB`` (optional) bounds it; parsing failures fall
    back to an unbounded store rather than refusing to start.
    """
    root = os.environ.get("REPRO_STORE")
    if not root:
        return None
    raw_cap = os.environ.get("REPRO_STORE_MAX_MB")
    max_bytes = None
    if raw_cap:
        try:
            max_bytes = max(1, int(raw_cap)) * 2**20
        except ValueError:
            max_bytes = None
    return ResultStore(root, max_bytes=max_bytes)
