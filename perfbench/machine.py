"""Describe the machine and the code under test, for every benchmark result."""
from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown.

    Reads the library path from this process's own memory map and asks the
    library itself, so it reflects OPENBLAS_NUM_THREADS and the core count.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _blas_name(np) -> str:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def source_digest(root: Path, subdir: str = "src") -> str:
    """sha256 over the Python files under ``subdir``, so results name the
    code they measured even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / subdir).rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def describe(root: Path) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(np),
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "src_sha256": source_digest(root),
        "bench_sha256": source_digest(root, Path(__file__).parent.name),
    }
