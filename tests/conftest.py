"""Fixtures shared by the test modules."""
import multiprocessing

import pytest

from tailext import core


@pytest.fixture()
def force_parts(monkeypatch):
    """Make the JSONL text work of ``write_dataset`` and ``FixtureRetriever``
    split into a given number of row ranges on any machine: one float makes a
    part worth a fork, and the process sees that many CPUs. Checks on the way
    out that no forked child is left running."""

    def force(parts: int) -> None:
        monkeypatch.setattr(core, "_PART_MIN_FLOATS", 1)
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: set(range(parts)),
                            raising=False)
        assert core._part_count(parts) == parts

    yield force
    assert multiprocessing.active_children() == []
