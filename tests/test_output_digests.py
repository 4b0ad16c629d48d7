"""tools/output_digests.py: the sha256 map of the outputs a refactor keeps."""
import importlib.util
import os
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
spec = importlib.util.spec_from_file_location("output_digests", TOOL)
output_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digests)


def test_digests_cover_every_output_and_repeat():
    home = os.getcwd()
    first = output_digests.collect()
    assert os.getcwd() == home
    runs = ["pilot", "data", "train-no-aux", "eval", "train-no-cache", "curate",
            "train-curated", *output_digests.VARIANTS]
    assert {key.split("/")[0] for key in first} == {*runs, "ablation", "method_pair"}
    for run in ("train-no-aux", "train-no-cache", "train-curated", *output_digests.VARIANTS):
        for name in ("checkpoint.json", "train_log.json", "manifest.json"):
            assert f"{run}/{name}" in first
    for name in ("aux.jsonl", "aux.cache.npy", "aux.meta.json", "curation_report.json"):
        assert f"curate/{name}" in first
    assert "eval/report.json" in first
    # the manifests parsed from their text train the same weights
    assert first["train-no-cache/checkpoint.json"] == first["train/checkpoint.json"]
    assert all(len(v) == 64 and set(v) <= set("0123456789abcdef") for v in first.values())
    assert output_digests.collect() == first
