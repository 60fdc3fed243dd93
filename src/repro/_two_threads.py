"""Two threads at most: the calling thread plus one helper.

:func:`run_in_order` evaluates ``fn`` over a list of tasks on the calling
thread and, where two CPUs are usable, one plain ``threading.Thread``
helper; both pull tasks from one queue in list order, and the results
come back in task order.  Table 1's cache simulation
(:func:`repro.cachesim.stats.table1_profile`) and the functional EP
kernel (:func:`repro.npb.ep.ep_kernel`) are its callers.

Why two and not a pool: the work holds the GIL between its NumPy passes,
so the helper mostly fills the caller's GIL-free stretches; a third
thread would add a third task's working set to peak memory for little or
no gain, and the two-core hosts this is measured on have no third core
to give it.  ``concurrent.futures`` is not used: ``repro export`` must
not import it (``tests/cli/test_import_budget.py``).
"""

from __future__ import annotations

import os
import threading
from collections import deque
from collections.abc import Callable, Sequence
from typing import TypeVar

__all__ = ["usable_cpus", "run_in_order"]

T = TypeVar("T")
R = TypeVar("R")


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has
    one, else the machine's count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_in_order(fn: Callable[[T], R], tasks: Sequence[T], name: str) -> list[R]:
    """``[fn(task) for task in tasks]``, on two threads where it can be.

    With two or more tasks and two usable CPUs, a helper thread called
    ``name`` drains the queue alongside the caller; otherwise the caller
    runs every task and no thread starts.  The first exception either
    thread raises empties the queue (the other thread stops after its
    current task) and is re-raised here after the helper is joined.
    """
    todo = deque(enumerate(tasks))
    results: list = [None] * len(todo)
    failed: list[BaseException] = []

    def drain() -> None:
        while True:
            try:
                i, task = todo.popleft()
            except IndexError:
                return
            try:
                results[i] = fn(task)
            except BaseException as exc:
                todo.clear()
                failed.append(exc)
                return

    helper = None
    if len(results) >= 2 and usable_cpus() >= 2:
        helper = threading.Thread(target=drain, name=name)
        helper.start()
    drain()
    if helper is not None:
        helper.join()
    if failed:
        raise failed[0]
    return results
