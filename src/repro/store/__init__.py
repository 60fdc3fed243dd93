"""repro.store -- persistent content-addressed result store.

The sweep engine's memo cache, the journal's crash-resume entries and
the service layer's rendered artifacts all die with their process.  This
package is the durable tier underneath all three: a disk directory of
content-addressed entries keyed by the exact tuples the rest of the repo
already uses for identity (:func:`repro.core.sweep.compute_cache_key`
for results, ``("artifact", job_id)`` for rendered CSVs), so a restarted
server, a resumed campaign or a second process on the same host starts
*warm* instead of recomputing the paper.

Three guarantees, proven by ``tests/store``:

* **Exactness** -- values round-trip through the journal's shared codec
  (``repr`` floats, shortest round-trip), so a warm-from-store result,
  DNR message or artifact is byte-identical to cold computation.
* **Integrity** -- every entry records a sha256 of its payload and is
  verified on read; truncated, torn or tampered entries are deleted and
  reported as misses (the caller recomputes and rewrites).
* **Cross-process single-flight** -- O_EXCL lease files extend the
  engine's in-process single-flight table across processes: two servers
  sharing a store directory never double-execute a key, the waiter polls
  (bounded) for the owner's published entry and takes the lease over if
  the owner dies.

Size is bounded by LRU eviction over an in-memory index whose recency
persists through an append-only, compacted ``index.log`` (touch order,
no wall clock anywhere); entries under an active lease are never
evicted.
"""

from .store import STORE_VERSION, ResultStore, store_from_env

__all__ = ["ResultStore", "store_from_env", "STORE_VERSION"]
