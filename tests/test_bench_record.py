"""tools/bench_record.py: per-workload summary of perfbench result records."""
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def record(workload, seed, trace, metrics, failed=0):
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "result": {"attempted": 5, "failed": failed,
                   "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}},
    }


def test_summary_gives_median_and_iqr_per_workload():
    e2e = [dict(setup_s=0.2, wall_s=w, peak_rss_mb=100.0) for w in (10.0, 12.0, 11.0, 14.0)]
    records = [record("ablation_mlp", s, 0, m) for s, m in zip((4, 1, 3, 2), e2e)]
    records += [record("ablation_mlp", 9, 1, {"model.train.s": 6.0}),
                record("ablation_mlp", 8, 1, {"model.train.s": 8.0}),
                record("pilot_grid", 1, 0, e2e[0], failed=1)]
    out = bench_record.summarise(records)
    abl = out["ablation_mlp"]
    assert abl["runs"] == 4 and abl["seeds"] == [1, 2, 3, 4]
    wall = abl["end_to_end"]["wall_s"]
    assert wall["median"] == pytest.approx(11.5)
    assert (wall["q1"], wall["q3"]) == pytest.approx((10.75, 12.5))
    assert wall["iqr"] == pytest.approx(1.75)
    assert abl["traced_runs"] == 2
    assert abl["per_layer"]["model.train.s"] == pytest.approx(7.0)
    pilot = out["pilot_grid"]
    assert pilot["failed"] == 1 and pilot["end_to_end"]["wall_s"]["iqr"] == 0.0
    assert "per_layer" not in pilot
