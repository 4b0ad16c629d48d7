"""Experiment drivers at toy scale; the real directions run in acceptance."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tailext.core import RunConfig
from tailext.experiments import (
    BENCH_CONFIG,
    MLP_CONFIG,
    build_benchmark,
    run_ablation_cell,
    run_method_pair,
    run_pilot_cell,
    run_pilot_grid,
)
from tailext.metrics import EvalReport
from tailext.model import ClassifierState

TOY = dict(num_classes=10, num_superclasses=2, feature_dim=8,
           max_count=120, test_per_class=5)

FAST_CFG = BENCH_CONFIG.with_overrides(epochs=4)


class TestPilot:
    def test_cell_contents_and_determinism(self):
        kw = dict(num_classes=12, feature_dim=8, max_count=40, test_per_class=5)
        a = run_pilot_cell(3, 0.1, seed=1, **kw)
        b = run_pilot_cell(3, 0.1, seed=1, **kw)
        assert a["rank_gap"] == b["rank_gap"]
        assert a["final_loss"] == b["final_loss"]
        assert a["num_superclasses"] == 3 and a["imbalance"] == 0.1
        assert isinstance(a["report"], EvalReport)
        c = run_pilot_cell(3, 0.1, seed=2, **kw)
        assert c["rank_gap"] != a["rank_gap"]

    def test_cell_predicts_its_test_set_once(self, monkeypatch):
        calls = []
        predict = ClassifierState.predict_batch

        def counted(self, X):
            calls.append(len(X))
            return predict(self, X)

        monkeypatch.setattr(ClassifierState, "predict_batch", counted)
        run_pilot_cell(3, 0.1, seed=1, num_classes=12, feature_dim=8, max_count=40,
                       test_per_class=5)
        assert calls == [60]

    def test_grid_order(self):
        kw = dict(num_classes=12, feature_dim=8, max_count=40, test_per_class=5)
        rows = run_pilot_grid([2, 3], [1.0], [0, 1], **kw)
        key = [(r["num_superclasses"], r["imbalance"], r["seed"]) for r in rows]
        assert key == [(2, 1.0, 0), (2, 1.0, 1), (3, 1.0, 0), (3, 1.0, 1)]


class TestBenchmark:
    def test_structure(self):
        train, test, aux, merged = build_benchmark(
            seed=0, per_target=2, samples_per_aux=10, **TOY
        )
        assert merged.num_target == 10
        counts = train.class_counts(10)
        # expansion covers exactly the medium and few classes by default
        expanded = sorted(set(merged.neighbor_of.values()))
        assert expanded == [c for c in range(10) if counts[c] <= 100]
        assert merged.num_auxiliary == 2 * len(expanded)
        assert len(aux) == merged.num_auxiliary * 10
        assert len(test) == 50

    def test_expand_many_only(self):
        _, _, _, merged = build_benchmark(
            seed=0, per_target=1, samples_per_aux=5, expand=("many",), **TOY
        )
        assert sorted(set(merged.neighbor_of.values())) == [0]  # only count 120


class TestMethodPair:
    def test_reports_and_shared_data(self):
        out = run_method_pair(0, cfg=FAST_CFG, samples_per_aux=20, **TOY)
        assert isinstance(out["baseline"], EvalReport)
        assert isinstance(out["method"], EvalReport)
        assert out["baseline"].masked and out["method"].masked
        assert out["method_state"].space.num_auxiliary > 0
        assert out["log"].plan is not None
        # both evaluated over the 10 target classes on the same test set
        assert out["baseline"].num_classes == 10
        assert out["method"].num_classes == 10
        assert out["baseline"].num_samples == out["method"].num_samples == 50


class TestAblationCell:
    def test_keys_and_masked_alias(self):
        cell = run_ablation_cell(0, cfg=FAST_CFG, samples_per_aux=20, **TOY)
        assert set(cell) == {"seed", "lambda_0.1", "lambda_1.0", "masked", "probe"}
        assert cell["masked"] is cell["lambda_0.1"]
        assert isinstance(cell["probe"], EvalReport)
        assert cell["probe"].num_classes == 10

    def test_mlp_config_trains_hidden_layer(self):
        cfg = MLP_CONFIG.with_overrides(epochs=2, hidden_dim=16)
        cell = run_ablation_cell(0, cfg=cfg, samples_per_aux=10, **TOY)
        assert cell["lambda_0.1"].overall_acc >= 0.0


class TestRunsOnEveryCore:
    """The drivers give the same results at any number of parts."""

    PILOT = dict(num_classes=12, feature_dim=8, max_count=40, test_per_class=5)

    def test_pilot_grid(self, force_parts):
        grids = []
        for parts in (1, 2, 3):
            force_parts(parts)
            grids.append(repr(run_pilot_grid([2, 3], [1.0, 0.1], [0, 1], **self.PILOT)))
        assert grids[1] == grids[0] and grids[2] == grids[0]

    def test_ablation_cell(self, force_parts):
        cfg = MLP_CONFIG.with_overrides(epochs=3, hidden_dim=16)
        cells = []
        for parts in (1, 2, 3):  # 3 parts for 2 arms: one arm each
            force_parts(parts)
            cell = run_ablation_cell(0, cfg=cfg, samples_per_aux=10, **TOY)
            assert cell["masked"] is cell["lambda_0.1"]
            cells.append(repr(cell))
        assert cells[1] == cells[0] and cells[2] == cells[0]

    def test_method_pair(self, force_parts):
        pairs = []
        for parts in (1, 2, 3):
            force_parts(parts)
            out = run_method_pair(0, cfg=FAST_CFG, samples_per_aux=20, **TOY)
            state = out["method_state"]
            pairs.append((repr(out["baseline"]), repr(out["method"]), repr(out["log"]),
                          state.weights.tobytes(), state.bias.tobytes()))
        assert pairs[1] == pairs[0] and pairs[2] == pairs[0]


# In an interpreter whose BLAS pool has 2 threads: how many processes two
# runs take on 2 and on 4 CPUs, and whether a pilot grid on 1 and on 4 CPUs
# writes the same pilot.csv.
_BLAS_SCRIPT = """
import os, sys
from tailext import cli, core

def see_cpus(n):
    core.os.sched_getaffinity = lambda pid: set(range(n))

assert core._NATIVE_THREADS == 1, core._NATIVE_THREADS
for cpus in (2, 4):
    see_cpus(cpus)
    print(cpus, "cpus:", len(set(core._map_runs(lambda _: os.getpid(), [0, 1]))), "processes")
argv = ["pilot", "--superclasses", "5", "--imbalances", "1.0,0.1", "--seeds", "0",
        "--num-classes", "100", "--feature-dim", "64", "--max-count", "40",
        "--test-per-class", "20"]
csv = []
for cpus in (1, 4):
    see_cpus(cpus)
    out = f"{sys.argv[1]}/{cpus}"
    assert cli.main(argv + ["--out", out]) == 0
    csv.append(open(f"{out}/pilot.csv", "rb").read())
print("same" if csv[0] == csv[1] else "differ")
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="OpenBLAS caps its pool at the CPUs")
def test_forked_pilot_grid_under_blas_threads(tmp_path):
    """A BLAS thread pool, which the check for other Python threads in
    ``core._cpu_count`` cannot see, is counted: with a pool of 2, two runs
    share 2 CPUs in one process and 4 CPUs in two. A forked child then
    starts a pool of its own, and neither hangs nor changes the results.
    The test set is scored in chunks of 1,000 rows by 64 dims by 100
    classes, a product OpenBLAS runs on both its threads."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _BLAS_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:2] == ["2 cpus: 1 processes", "4 cpus: 2 processes"]
    assert lines[-1] == "same"


class TestConfigsAndRatios:
    def test_preset_fields(self):
        assert BENCH_CONFIG == RunConfig(aux_ratio=(1, 1, 3))
        assert BENCH_CONFIG.momentum == 0.0
        assert BENCH_CONFIG.hidden_dim is None
        assert MLP_CONFIG.hidden_dim == 128
        assert BENCH_CONFIG.lambda_s == pytest.approx(0.1)
