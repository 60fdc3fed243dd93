"""Known-good fixture for R010: snapshot under the lock, block outside.

The sweep engine's single-flight discipline, which the JobManager worker
threads rely on: the lock guards only state transitions; waiting,
sleeping, and harvesting futures all happen after the lock is released.
"""

import threading
import time

_state_lock = threading.Lock()
_done = threading.Event()
_pending = []


def wait_for_peer():
    with _state_lock:
        ready = bool(_pending)
    if not ready:
        _done.wait()


def backoff():
    with _state_lock:
        delay = 0.05 if _pending else 0.0
    time.sleep(delay)


def harvest(job):
    with _state_lock:
        _pending.append(job)
    return job.result()


def _drain(items):
    time.sleep(0.01)
    return list(items)


def flush(items):
    with _state_lock:
        snapshot = list(items)
    return _drain(snapshot)
