"""The task runner: key-order results and failures, cancellation, one level of threads."""

import random
import sys
import threading
import time

import pytest

from helson_lab import tasks
from helson_lab.tasks import run_tasks


def test_results_come_back_in_key_order(two_workers):
    # "a" is submitted first but finishes after "b"
    b_done, finished = threading.Event(), []

    def a():
        assert b_done.wait(timeout=30)
        finished.append("a")
        return 1

    def b():
        finished.append("b")
        b_done.set()
        return 2

    out = run_tasks({"a": a, "b": b}, ["a", "b"])
    assert finished == ["b", "a"]
    assert list(out.items()) == [("a", 1), ("b", 2)]
    # submission order does not change the key order of the results
    assert list(run_tasks({"x": lambda: 0, "y": lambda: 1, "z": lambda: 2}, ["z", "x", "y"])) == ["x", "y", "z"]


def test_first_failure_in_key_order_wins(two_workers):
    b_failed = threading.Event()

    def a():
        assert b_failed.wait(timeout=30)
        raise ValueError("a broke")

    def b():
        try:
            raise ValueError("b broke")
        finally:
            b_failed.set()

    with pytest.raises(ValueError, match="a broke"):
        run_tasks({"a": a, "b": b}, ["b", "a"])


def test_tasks_not_yet_started_are_cancelled(two_workers):
    b_started, a_raising, ran = threading.Event(), threading.Event(), []

    def a():
        ran.append("a")
        assert b_started.wait(timeout=30)
        a_raising.set()
        raise RuntimeError("a broke")

    def b():
        ran.append("b")
        b_started.set()
        assert a_raising.wait(timeout=30)
        time.sleep(0.1)  # "a" has failed before this thread is free again

    def later(key):
        return lambda: ran.append(key)

    jobs = {"a": a, "b": b, "c": later("c"), "d": later("d")}
    with pytest.raises(RuntimeError, match="a broke"):
        run_tasks(jobs, ["a", "b", "c", "d"])
    assert sorted(ran) == ["a", "b"]


class _CountingPool(tasks.ThreadPoolExecutor):
    made = 0

    def __init__(self, *args, **kwargs):
        type(self).made += 1
        super().__init__(*args, **kwargs)


def test_nested_and_one_worker_calls_start_no_thread(two_workers, monkeypatch):
    monkeypatch.setattr(tasks, "ThreadPoolExecutor", _CountingPool)
    _CountingPool.made = 0

    def outer(key):
        def run():
            here = threading.get_ident()
            inner = run_tasks({i: threading.get_ident for i in range(3)}, [2, 1, 0])
            assert list(inner) == [0, 1, 2]
            return here, set(inner.values())
        return run

    out = run_tasks({k: outer(k) for k in "ab"}, "ab")
    assert all(idents == {here} for here, idents in out.values())
    assert _CountingPool.made == 1

    monkeypatch.setenv("HELSON_LAB_THREADS", "1")
    order = []
    got = run_tasks({k: (lambda k=k: order.append(k) or threading.get_ident()) for k in "xyz"}, "zyx")
    assert order == ["x", "y", "z"]  # inline, in key order
    assert set(got.values()) == {threading.get_ident()}
    assert _CountingPool.made == 1


def test_failure_rule_holds_under_contention(monkeypatch):
    # more threads than cores and a short switch interval: every run raises
    # the first failing key and runs every key before it exactly once
    monkeypatch.setattr(tasks.os, "cpu_count", lambda: 8)
    monkeypatch.setenv("HELSON_LAB_THREADS", "8")
    rng = random.Random(5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 20.0
        for _ in range(40):
            failing = set(rng.sample(range(64), 3))
            ran = []

            def task(key):
                def run():
                    ran.append(key)
                    sum(range(200))
                    if key in failing:
                        raise KeyError(key)
                    return key
                return run

            order = list(range(64))
            rng.shuffle(order)
            with pytest.raises(KeyError) as caught:
                run_tasks({k: task(k) for k in range(64)}, order)
            first = min(failing)
            assert caught.value.args == (first,)
            assert sorted(k for k in ran if k <= first) == list(range(first + 1))
            assert time.monotonic() < deadline
    finally:
        sys.setswitchinterval(interval)
