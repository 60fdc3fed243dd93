"""Crash-safe artifact writes: tmp file + ``os.replace``.

A bare ``path.write_text`` interrupted mid-write leaves a *truncated*
file behind -- and a truncated CSV still parses as a short-but-valid
table, which is far worse than no file at all.  Every artifact the
harness emits (table/figure CSVs, the export index, telemetry reports,
result-store objects) goes through :func:`write_text_atomic` instead:
the content lands in a same-directory temporary file first and is moved
over the destination with :func:`os.replace`, which is atomic on POSIX.
A crash or a failed write (``ENOSPC``, ``EIO``) leaves the destination
either untouched or fully written, never torn.

Each writer gets its own temporary name (pid and thread id), so
concurrent writers of one path -- two processes publishing the same
store entry, two threads compacting one log -- never move a temporary
file out from under each other: the last ``os.replace`` wins whole.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

__all__ = ["write_text_atomic"]


def write_text_atomic(path: str | Path, text: str, encoding: str = "utf-8") -> Path:
    """Write ``text`` to ``path`` atomically; returns the path written.

    The temporary file is removed on any failure, so a failed write
    leaves neither a torn destination nor a ``*.tmp`` behind.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_text(text, encoding=encoding)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
