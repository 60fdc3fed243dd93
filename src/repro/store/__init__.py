"""repro.store -- persistent content-addressed result store.

The sweep engine's memo cache and the service layer's rendered
artifacts die with their process.  This package is the one durable tier
underneath both: a disk directory of content-addressed entries keyed by
the exact tuples the rest of the repo already uses for identity
(:func:`repro.core.sweep.compute_cache_key` for results, ``("artifact",
job_id)`` for rendered CSVs), so a restarted server, a resumed campaign
or a second process on the same host starts *warm* instead of
recomputing the paper.  An interrupted run resumes by rerunning against
the same store.

Three guarantees, proven by ``tests/store``:

* **Exactness** -- values round-trip through one codec (``repr`` floats,
  shortest round-trip), so a warm-from-store result, DNR message or
  artifact is byte-identical to cold computation.
* **Integrity** -- every entry records a sha256 of its payload and is
  verified on read; truncated, torn or tampered entries are deleted and
  reported as misses (the caller recomputes and rewrites).
* **One entry per key** -- results are pure functions of their key, so
  two processes that execute the same key at once write identical
  bytes, each through its own temporary file; the store ends with one
  object per key and no temporary residue.  Within a process the
  engine's single-flight table executes each key at most once.

Size is bounded by LRU eviction over an in-memory index whose recency
persists through an append-only, compacted ``index.log`` (touch order,
no wall clock anywhere).
"""

from .store import STORE_VERSION, ResultStore, store_from_env

__all__ = ["ResultStore", "store_from_env", "STORE_VERSION"]
