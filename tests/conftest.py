"""Fixtures shared by the test modules."""
import multiprocessing

import pytest

from tailext import core


@pytest.fixture()
def force_parts(monkeypatch):
    """Make the work ``core`` shares across CPUs split into a given number of
    parts on any machine. The process sees that many CPUs and no BLAS
    threads, so ``_map_runs`` deals independent runs to that many parts
    (fewer when there are fewer runs), and one float makes a row range of
    the JSONL text work of ``write_dataset`` and ``FixtureRetriever`` worth
    a fork. Checks on the way out that no forked child is left running."""

    def force(parts: int) -> None:
        monkeypatch.setattr(core, "_PART_MIN_FLOATS", 1)
        monkeypatch.setattr(core, "_NATIVE_THREADS", 0)
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: set(range(parts)),
                            raising=False)
        assert core._cpu_count() == parts
        assert core._part_count(parts) == parts

    yield force
    assert multiprocessing.active_children() == []
