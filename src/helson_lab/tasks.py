"""run_tasks, on a pool of worker_count() threads: the only place the package starts a thread."""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Hashable, Iterable, Mapping

from .errors import ConfigParse

_local = threading.local()  # in_pool is set on run_tasks' own threads


def worker_count() -> int:
    """HELSON_LAB_THREADS, at most the CPUs (default: the CPU count); the manifest's "threads"."""
    cap = os.environ.get("HELSON_LAB_THREADS")
    n_cpu = os.cpu_count() or 1
    if cap is None:
        return n_cpu
    try:
        n = int(cap)
    except ValueError:
        raise ConfigParse(f"HELSON_LAB_THREADS must be an integer, got {cap!r}")
    if n < 1:
        raise ConfigParse(f"HELSON_LAB_THREADS must be >= 1, got {n}")
    return min(n, n_cpu)


def run_tasks(tasks: Mapping[Hashable, Callable[[], Any]], order: Iterable[Hashable]) -> Dict[Hashable, Any]:
    """{key: tasks[key]()} in the key order of `tasks`, the tasks submitted in `order`.

    `order` lists every key once, long tasks first, so the short ones fill
    in behind them.  The exception raised is the first failure in key
    order, whatever order the tasks fail in: a task whose key comes after a
    failed one is skipped when it starts, and tasks still queued are
    cancelled.  On one worker, for one task, or when called from a task,
    the tasks run inline in key order, so no thread starts another.
    """
    workers = worker_count()
    if workers == 1 or len(tasks) < 2 or getattr(_local, "in_pool", False):
        return {key: fn() for key, fn in tasks.items()}
    rank = {key: i for i, key in enumerate(tasks)}
    failed = []  # ranks of the tasks that raised

    def call(key):
        # skip a task behind a failed key; list append and min are atomic under
        # the GIL, and a task that starts just before that failure runs unread
        if failed and min(failed) < rank[key]:
            return None
        try:
            return tasks[key]()
        except BaseException:
            failed.append(rank[key])
            raise

    pool = ThreadPoolExecutor(max_workers=workers, initializer=setattr, initargs=(_local, "in_pool", True))
    try:
        futures = {key: pool.submit(call, key) for key in order}
        return {key: futures[key].result() for key in tasks}
    finally:
        pool.shutdown(cancel_futures=True)
