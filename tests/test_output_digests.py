"""tools/output_digests.py: the sha256 map of the outputs a refactor keeps,
and the map pinned in output_digests.json."""
import importlib.util
import json
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
PINNED = Path(__file__).with_name("output_digests.json")
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


def test_outputs_keep_their_pinned_digests():
    """Every output keeps the sha256 pinned in output_digests.json. Another
    numpy, BLAS, BLAS kernel set, Python or machine type may change last
    bits, so on a machine whose platform record differs the test skips and
    names the difference."""
    pinned = json.loads(PINNED.read_text())
    here = output_digests.platform_record()
    differ = {key: {"pinned": pinned["platform"].get(key), "here": here.get(key)}
              for key in sorted({*here, *pinned["platform"]})
              if here.get(key) != pinned["platform"].get(key)}
    if differ:
        pytest.skip(f"platform record differs from the pinned one: {differ}")
    fresh = output_digests.collect()
    changed = sorted(key for key in {*fresh, *pinned["digests"]}
                     if fresh.get(key) != pinned["digests"].get(key))
    assert not changed, f"outputs whose sha256 differs from the pinned one: {changed}"
