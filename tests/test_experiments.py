"""Experiment drivers at toy scale; the real directions run in acceptance."""
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


class TestConfigsAndRatios:
    def test_preset_fields(self):
        assert BENCH_CONFIG == RunConfig(aux_ratio=(1, 1, 3))
        assert BENCH_CONFIG.momentum == 0.0
        assert BENCH_CONFIG.hidden_dim is None
        assert MLP_CONFIG.hidden_dim == 128
        assert BENCH_CONFIG.lambda_s == pytest.approx(0.1)
