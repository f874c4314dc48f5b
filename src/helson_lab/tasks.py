"""run_tasks, on a pool of worker_count() threads: the only place the package starts a thread."""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
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
    in behind them.  An entry of `order` may be a tuple of keys, a lane: its
    keys run in turn on one thread, in key order, so a key may not itself be
    a tuple.  The exception raised is the first failure in key order,
    whatever order the tasks fail in: a task whose key comes after a failed
    one is skipped when it starts, so a lane stops at its first failure, and
    tasks still queued are cancelled.  On one worker, for one task, or when
    called from a task, the tasks run inline in key order, so no thread
    starts another.
    """
    workers = worker_count()
    if workers == 1 or len(tasks) < 2 or getattr(_local, "in_pool", False):
        return {key: fn() for key, fn in tasks.items()}
    rank = {key: i for i, key in enumerate(tasks)}
    lanes = [sorted(e if isinstance(e, tuple) else (e,), key=rank.__getitem__) for e in order]
    futures = {key: Future() for lane in lanes for key in lane}
    failed = []  # ranks of the tasks that raised

    def run(lane):
        for key in lane:
            # skip a task behind a failed key, and so the rest of its lane; append and min
            # are atomic under the GIL, and a task starting just before that failure runs unread
            if failed and min(failed) < rank[key]:
                return
            try:
                futures[key].set_result(tasks[key]())
            except BaseException as exc:
                failed.append(rank[key])
                futures[key].set_exception(exc)

    pool = ThreadPoolExecutor(max_workers=workers, initializer=setattr, initargs=(_local, "in_pool", True))
    try:
        for lane in lanes:
            pool.submit(run, lane)
        return {key: futures[key].result() for key in tasks}
    finally:
        pool.shutdown(cancel_futures=True)
