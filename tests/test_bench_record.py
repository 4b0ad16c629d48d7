"""tools/bench_record.py: per-workload summary of perfbench result records."""
import importlib.util
import json
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


def test_compare_pairs_runs_by_seed(tmp_path, capsys):
    def summary(peaks, seeds):
        records = [record("ablation_mlp", seed, 0, dict(setup_s=0.2, wall_s=10.0, peak_rss_mb=v))
                   for seed, v in zip(seeds, peaks)]
        return {"workloads": bench_record.summarise(records)}

    parent = summary([82.0, 82.2, 82.4, 82.1], (1, 2, 3, 4))
    # seed 5 has no parent run; seed 3's run is higher than the parent's
    change = summary([72.0, 72.5, 83.0, 72.2, 60.0], (1, 2, 3, 4, 5))
    rows = {row["metric"]: row for row in bench_record.compare(parent, change)}
    peak = rows["peak_rss_mb"]
    assert (peak["pairs"], peak["lower"], peak["higher"]) == (4, 3, 1)
    assert peak["gap_exceeds_iqr"]
    wall = rows["wall_s"]
    assert (wall["lower"], wall["higher"], wall["gap_exceeds_iqr"]) == (0, 0, False)

    paths = [tmp_path / "parent.json", tmp_path / "change.json"]
    for path, data in zip(paths, (parent, change)):
        path.write_text(json.dumps(data))
    assert bench_record.main(["--compare", *map(str, paths)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == (
        "ablation_mlp wall_s: parent 10 [10, 10], change 10 [10, 10]; lower in 0 of 4 pairs, "
        "higher in 0; median gap +0 within the parent IQR 0")
    assert lines[2] == (
        "ablation_mlp peak_rss_mb: parent 82.15 [82.07, 82.25], change 72.2 [72, 72.5]; "
        "lower in 3 of 4 pairs, higher in 1; median gap -9.95 exceeds the parent IQR 0.175")
