"""Fixtures shared by the test modules."""
import os

# The tests run as the CLI does (tailext.__main__): BLAS at one thread, set
# before tailext.core loads numpy. Results then do not depend on the CPU
# count, and with no BLAS pool the drivers split their runs across the CPUs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest

from tailext import core


@pytest.fixture()
def force_parts(monkeypatch):
    """Make the work ``core`` shares across CPUs split into a given number of
    parts on any machine. The process sees that many CPUs and no BLAS
    threads, so ``_map_runs`` deals independent runs to that many parts
    (fewer when there are fewer runs), and one float makes a row range of
    the JSONL text work of ``write_dataset`` and ``FixtureRetriever`` worth
    a fork. Checks on the way out that this process has no child left,
    running or exited and not reaped."""

    def force(parts: int) -> None:
        monkeypatch.setattr(core, "_PART_MIN_FLOATS", 1)
        monkeypatch.setattr(core, "_NATIVE_THREADS", 0)
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: set(range(parts)),
                            raising=False)
        assert core._process_count() == parts
        assert core._process_count(floats=parts) == parts

    yield force
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
