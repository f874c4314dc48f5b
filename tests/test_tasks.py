"""The task runner: key-order results and failures, cancellation, lanes, one level of threads."""

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


def test_lane_runs_in_turn_on_one_thread_beside_another_lane(two_workers):
    # "a" waits for "d" to start, so the lane and "d" run side by side
    d_started, spans = threading.Event(), {}

    def lane_key(key):
        def run():
            t0 = time.perf_counter()
            if key == "a":
                assert d_started.wait(timeout=30)
            time.sleep(0.02)
            spans[key] = (t0, time.perf_counter())
            return threading.get_ident()
        return run

    def d():
        d_started.set()
        return threading.get_ident()

    jobs = {k: lane_key(k) for k in "abc"}
    jobs["d"] = d
    out = run_tasks(jobs, [("a", "b", "c"), "d"])
    assert list(out) == ["a", "b", "c", "d"]
    assert out["a"] == out["b"] == out["c"] != out["d"]
    lane = [spans[k] for k in "abc"]
    assert all(end <= start for (_, end), (start, _) in zip(lane, lane[1:])), lane


def test_lane_stops_at_its_first_failure(two_workers):
    ran = []

    def task(key):
        def run():
            ran.append(key)
            if key == "b":
                raise ValueError("b broke")
            return key
        return run

    with pytest.raises(ValueError, match="b broke"):
        run_tasks({k: task(k) for k in "abcd"}, [("a", "b", "c"), "d"])
    assert "c" not in ran and ran.index("a") < ran.index("b")


def test_first_failure_in_key_order_wins_across_lanes(two_workers):
    # "b" fails first in time, in a lane of its own with "c"; "a" fails after it
    b_failed, ran = threading.Event(), []

    def a():
        ran.append("a")
        assert b_failed.wait(timeout=30)
        raise ValueError("a broke")

    def b():
        ran.append("b")
        try:
            raise ValueError("b broke")
        finally:
            b_failed.set()

    def later(key):
        return lambda: ran.append(key)

    jobs = {"a": a, "b": b, "c": later("c"), "d": later("d")}
    with pytest.raises(ValueError, match="a broke"):
        run_tasks(jobs, [("b", "c"), ("a", "d")])
    assert sorted(ran) == ["a", "b"]


def test_lane_out_of_key_order_runs_in_key_order(two_workers):
    ran, outcome = [], []

    def task(key, fails=False):
        def run():
            ran.append(key)
            if fails:
                raise RuntimeError(f"{key} broke")
            return key
        return run

    def call(jobs):
        try:
            outcome.append(run_tasks(jobs, [("c", "a"), "b"]))
        except RuntimeError as exc:
            outcome.append(str(exc))

    for fails in (False, True):
        ran.clear()
        outcome.clear()
        caller = threading.Thread(target=call, args=({"a": task("a"), "b": task("b"), "c": task("c", fails)},))
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive(), "run_tasks hung on a lane listed out of key order"
        assert outcome == (["c broke"] if fails else [{"a": "a", "b": "b", "c": "c"}])
        assert ran.index("a") < ran.index("c")


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
