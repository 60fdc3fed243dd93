"""Known-good fixture for R012: store paths only via the store API."""

import os

from repro.store import ResultStore


def warm_lookup(root, key):
    # Reads and writes go through the sanctioned API, not raw file I/O.
    store = ResultStore(root)
    if store.get(key) is None:
        store.put(key, "value,1.0\n")
    return store.stats()


def unrelated_io(report_dir, payload):
    # File I/O on non-store paths is none of R012's business.
    path = report_dir / "report.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
    os.replace(path, report_dir / "report-final.json")
    (report_dir / "summary.txt").write_text(payload, encoding="utf-8")
