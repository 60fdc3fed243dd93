"""Known-bad fixture for R012: raw file I/O aimed at store-owned paths."""

import os


def hand_rolled_put(store_root, digest, payload):
    entry = store_root / "objects" / f"{digest}.json"
    with open(store_root / "objects" / f"{digest}.json", "w") as fh:  # finding 1: open() on a store path (no checksum)
        fh.write(payload)
    return entry


def sneaky_promote(tmp_path, store_path):
    os.replace(tmp_path, store_path)  # finding 2: rename into the store dodges the index


def grab_lease(lease_path):
    return os.open(lease_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)  # finding 3: raw O_EXCL claim outside the protocol


def clobber_index(store_dir, entry):
    (store_dir / "index.log").write_text(entry)  # finding 4: direct index write corrupts LRU bookkeeping
