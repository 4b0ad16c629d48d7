"""The benchmark harness still runs against this source tree.

``perfbench/run.py --smoke`` runs every workload at tiny size, traced and
untraced, and fails when a traced wrap site is gone, a layer breaks its
expected bypass, a check fails or an output differs between reruns.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "smoke: ok" in proc.stdout
