import pytest

from helson_lab import tasks


@pytest.fixture
def two_workers(monkeypatch):
    """run_tasks on a pool of two threads, whatever the machine's CPU count."""
    monkeypatch.setattr(tasks.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("HELSON_LAB_THREADS", "2")
