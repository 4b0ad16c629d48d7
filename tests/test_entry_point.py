"""The ``tailext`` entry point: the package imports nothing heavy, and
``python -m tailext`` pins BLAS, so the CLI's bytes do not depend on the
BLAS thread count."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import tailext
import tailext.__main__ as entry

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env(**extra: str) -> dict:
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def test_import_loads_no_numpy():
    script = "import sys, tailext; print(tailext.__version__, 'numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", script], env=_env(), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [tailext.__version__, "False"]


def test_main_pins_blas_over_the_callers_value(monkeypatch, capsys):
    for var in BLAS_VARS:
        monkeypatch.setenv(var, "4")
    assert entry.main(["report"]) == 2
    assert "config error" in capsys.readouterr().err
    assert [os.environ[var] for var in BLAS_VARS] == ["1", "1", "1"]


def _digests(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def _cli_run(root: Path, threads: int) -> dict[str, str]:
    """synth (default sizes, with auxiliary classes), a one-epoch train with
    a hidden layer and eval, through ``python -m tailext`` with the BLAS
    thread variables at ``threads``; the sha256 of every file written.
    Paths are relative, so the manifests of two runs can be compared."""
    root.mkdir()
    env = _env(**{var: str(threads) for var in BLAS_VARS})
    for argv in (
        ["synth", "--aux-per-target", "5", "--out", "data"],
        ["train", "--data", "data/train.jsonl", "--aux", "data/aux.jsonl", "--epochs", "1",
         "--hidden-dim", "128", "--lr", "0.05", "--out", "run"],
        ["eval", "--checkpoint", "run/checkpoint.json", "--test", "data/test.jsonl",
         "--out", "eval"],
    ):
        done = subprocess.run([sys.executable, "-m", "tailext", *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
    return _digests(root)


def test_cli_bytes_do_not_depend_on_blas_threads(tmp_path):
    one = _cli_run(tmp_path / "one", 1)
    two = _cli_run(tmp_path / "two", 2)
    assert {"run/checkpoint.json", "eval/report.json"} <= set(one)
    assert one == two
