"""``repro._two_threads.run_in_order``: every task once, results in order.

Table 1 and EP pin their own outputs through this runner
(``tests/cachesim/test_table1_threads.py``, ``tests/npb/test_ep_threads.py``);
this stress test checks the queue itself with the interpreter switching
threads as often as it can.
"""

import os
import sys
import threading
from collections import Counter

from repro._two_threads import run_in_order


def test_every_task_runs_once_and_results_keep_task_order(monkeypatch):
    # Four usable CPUs: the cap, not this host, keeps it to two threads.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    tasks = list(range(3000))
    ran = Counter()
    threads = set()
    lock = threading.Lock()

    def square(task):
        with lock:
            ran[task] += 1
            threads.add(threading.current_thread().name)
        return task * task

    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = run_in_order(square, tasks, "stress-helper")
    finally:
        sys.setswitchinterval(interval)
    assert results == [t * t for t in tasks]
    assert set(ran.values()) == {1} and len(ran) == len(tasks)
    assert threads == {threading.current_thread().name, "stress-helper"}
    assert threading.active_count() == before
