"""Print, as JSON, the sha256 of every output a refactor of the training path
must leave byte-identical, with the platform record of the machine that
computed them.

Run it on two checkouts and compare the two maps:

    python3 tools/output_digests.py > after.json
    python3 ../parent-checkout/tools/output_digests.py > before.json

``tests/output_digests.json`` pins the map, and ``tests/test_output_digests.py``
compares a fresh one with it wherever the platform record matches. A change
that means to alter an output's bytes writes the file anew:

    python3 tools/output_digests.py > tests/output_digests.json

It imports tailext from the src/ of the checkout it sits in, with BLAS
pinned to one thread before numpy loads. The CLI runs in a fresh temporary
directory with cwd-relative paths, so each manifest.json, which records the
paths it was given, compares across checkouts. It covers:

- the argv of the A8 determinism test (``test_a8_cli_determinism``): the
  pilot grid, the synth data, and the train run;
- toy train variants on that synth data: each of ``VARIANTS``;
- ``eval`` of the A8 train run on the synth test data;
- the A8 train run on copies of its manifests without their binary caches,
  so both are parsed from their JSONL text;
- ``curate`` on a copy of ``tests/fixtures/curation``, whose manifest has
  no cache either, with its fixture corpus and LLM responses;
- a train run on that fixture's targets and the curated auxiliary set,
  whose ingested rows carry ids, at a cap of 3 so that most classes are
  drawn from rather than taken whole;
- a tiny ablation cell's reports, and a tiny method pair's method state and
  train log.

The map's keys are output paths relative to the temporary directory, and
``ablation/reports``, ``method_pair/state`` and ``method_pair/log``. The
copied inputs are not in it.
"""
from __future__ import annotations

import os

# before numpy loads, so every run multiplies with one BLAS thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

PILOT = ["pilot", "--superclasses", "3,5", "--imbalances", "1.0,0.1", "--seeds", "0,1",
         "--num-classes", "15", "--feature-dim", "8", "--max-count", "50",
         "--test-per-class", "5", "--out", "pilot"]
SYNTH = ["synth", "--out", "data", "--num-classes", "10", "--num-superclasses", "2",
         "--feature-dim", "8", "--max-count", "60", "--test-per-class", "5",
         "--aux-per-target", "1", "--samples-per-aux", "20", "--seed", "5"]
TRAIN = ["train", "--data", "data/train.jsonl", "--aux", "data/aux.jsonl",
         "--ratio", "1:1:3", "--epochs", "5", "--seed", "5"]
# flags added to TRAIN, by output directory; "train" is the A8 run itself
VARIANTS = {
    "train": [],
    "train-lambda0": ["--lambda-s", "0"],
    "train-lambda1.5": ["--lambda-s", "1.5"],
    "train-hidden": ["--hidden-dim", "16"],
    "train-all": ["--hidden-dim", "16", "--lambda-s", "0"],
    "train-cap": ["--cap", "2", "--ratio", "1:1:1"],
    "train-ratio0": ["--ratio", "0:0:0"],
}
EVAL = ["eval", "--checkpoint", "train/checkpoint.json", "--test", "data/test.jsonl",
        "--out", "eval"]
# the A8 train run on the copies of its manifests in "data-no-cache"
TRAIN_NO_CACHE = ["train", "--data", "data-no-cache/train.jsonl",
                  "--aux", "data-no-cache/aux.jsonl", *TRAIN[5:], "--out", "train-no-cache"]
CURATE = ["curate", "--data", "fixture/train.jsonl", "--llm-fixture", "fixture",
          "--corpus", "fixture/candidates.jsonl", "--out", "curate"]
TRAIN_CURATED = ["train", "--data", "fixture/train.jsonl", "--aux", "curate/aux.jsonl",
                 *TRAIN[5:], "--cap", "3", "--out", "train-curated"]
# inputs copied into the temporary directory, not outputs
COPIES = ("fixture", "data-no-cache")
# the tiny geometry of perfbench's ablation_mlp smoke run
GEOMETRY = dict(num_classes=12, num_superclasses=3, feature_dim=8, max_count=150,
                imbalance=0.02, test_per_class=10, per_target=2, samples_per_aux=20)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_digests() -> dict[str, str]:
    """Run the A8 argv, the train variants, eval, the cache-less train run,
    curate and the train run on its output in the current directory; the
    sha256 of every file they leave, by relative path."""
    from tailext.cli import main

    runs = [PILOT, SYNTH]
    runs += [[*TRAIN, *flags, "--out", out] for out, flags in VARIANTS.items()]
    no_aux = TRAIN[:3] + TRAIN[5:]
    runs.append([*no_aux, "--out", "train-no-aux"])
    runs += [EVAL, TRAIN_NO_CACHE, CURATE, TRAIN_CURATED]
    shutil.copytree(REPO / "tests" / "fixtures" / "curation", "fixture")
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore")  # lambda_s 1.5 warns by design
        for argv in runs:
            if argv is TRAIN_NO_CACHE:  # synth has written the manifests
                os.mkdir("data-no-cache")
                for name in ("train.jsonl", "train.meta.json", "aux.jsonl", "aux.meta.json"):
                    shutil.copy(Path("data") / name, "data-no-cache")
            if main(argv) != 0:
                raise SystemExit(f"exit code != 0: {' '.join(argv)}")
    return {p.as_posix(): _sha(p.read_bytes())
            for p in sorted(Path(".").rglob("*")) if p.is_file() and p.parts[0] not in COPIES}


def experiment_digests() -> dict[str, str]:
    """A tiny ablation cell's reports, and a tiny method pair's method
    state and log."""
    import numpy as np
    from tailext.experiments import BENCH_CONFIG, MLP_CONFIG, run_ablation_cell, run_method_pair

    cell = run_ablation_cell(1, MLP_CONFIG.with_overrides(epochs=10, hidden_dim=16), **GEOMETRY)
    reports = {k: cell[k].to_json() for k in ("lambda_0.1", "lambda_1.0", "probe")}
    pair = run_method_pair(1, BENCH_CONFIG.with_overrides(epochs=5), **GEOMETRY)
    state = pair["method_state"]
    arrays = (state.weights, state.bias, state.hidden_weights, state.hidden_bias)
    return {
        "ablation/reports": _sha(json.dumps(reports, sort_keys=True).encode()),
        "method_pair/state": _sha(b"".join(np.ascontiguousarray(a).tobytes()
                                          for a in arrays if a is not None)),
        "method_pair/log": _sha(json.dumps(pair["log"].to_json(), sort_keys=True).encode()),
    }


def _blas_core() -> str | None:
    """The kernel set the loaded OpenBLAS picked for this CPU, or None.

    A DYNAMIC_ARCH build picks it when it loads, so one BLAS version can
    multiply with other kernels, and so other last bits, on another CPU.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                fn.argtypes = []
                return fn().decode()
    return None


def platform_record() -> dict:
    """What the digests' bytes may depend on besides the code: numpy, its
    BLAS and the kernels it picked, Python and the machine type."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    # a numpy older than 1.26 has no such record
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blas_core": _blas_core(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def collect() -> dict[str, str]:
    """Every digest, computed in a fresh temporary directory."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            return {**cli_digests(), **experiment_digests()}
        finally:
            os.chdir(home)


if __name__ == "__main__":
    print(json.dumps({"digests": collect(), "platform": platform_record()}, indent=1,
                     sort_keys=True))
