"""CLI behavior: command chains, determinism, config resolution, exit codes.

Everything drives main() in process with argv lists; no subprocesses needed.
"""
import csv
import json
import linecache
import os
import re
import shlex
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tailext import cli, experiments
from tailext.cli import build_parser, main
from tailext.core import MAX_CLASSES, DataError, DivergenceError, read_dataset
from tailext.model import ClassifierState, load_checkpoint, save_checkpoint

FIXTURES = Path(__file__).parent / "fixtures" / "curation"
README = Path(__file__).parents[1] / "README.md"

SMALL_SYNTH = [
    "--num-classes", "10", "--num-superclasses", "2", "--feature-dim", "8",
    "--max-count", "60", "--test-per-class", "5", "--seed", "3",
]


def run(*argv):
    return main([str(a) for a in argv])


class TestSynthTrainEval:
    def test_full_chain(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run("synth", "--out", data, *SMALL_SYNTH) == 0
        assert (data / "train.jsonl").exists()
        assert (data / "test.jsonl").exists()
        assert not (data / "aux.jsonl").exists()
        meta = json.loads((data / "train.meta.json").read_text())
        assert meta["train_counts"][0] == 60

        rund = tmp_path / "run"
        assert run("train", "--data", data / "train.jsonl", "--out", rund,
                   "--epochs", "5", "--lr", "0.3") == 0
        state = load_checkpoint(rund / "checkpoint.json")
        assert state.space.num_target == 10
        log = json.loads((rund / "train_log.json").read_text())
        assert len(log["epochs"]) == 5
        assert log["plan"] is None

        evald = tmp_path / "eval"
        assert run("eval", "--checkpoint", rund / "checkpoint.json",
                   "--test", data / "test.jsonl", "--out", evald) == 0
        report = json.loads((evald / "report.json").read_text())
        assert report["masked"] is True
        assert report["num_samples"] == 50
        assert 0.0 <= report["overall_acc"] <= 100.0
        out = capsys.readouterr().out
        assert "overall" in out

    def test_chain_with_auxiliary(self, tmp_path):
        data = tmp_path / "data"
        assert run("synth", "--out", data, *SMALL_SYNTH,
                   "--aux-per-target", "1", "--samples-per-aux", "20") == 0
        aux_ds, merged, _ = read_dataset(data / "aux.jsonl")
        assert merged.num_auxiliary > 0
        assert len(aux_ds) == merged.num_auxiliary * 20

        rund = tmp_path / "run"
        assert run("train", "--data", data / "train.jsonl", "--aux",
                   data / "aux.jsonl", "--out", rund, "--epochs", "4",
                   "--ratio", "1:1:3", "--lambda-s", "0.1") == 0
        state = load_checkpoint(rund / "checkpoint.json")
        assert state.space.num_auxiliary == merged.num_auxiliary
        log = json.loads((rund / "train_log.json").read_text())
        assert log["plan"]["ratio"] == [1.0, 1.0, 3.0]
        assert log["epochs"][0]["aux_active"]

        evald = tmp_path / "eval"
        assert run("eval", "--checkpoint", rund / "checkpoint.json",
                   "--test", data / "test.jsonl", "--out", evald) == 0
        assert json.loads((evald / "report.json").read_text())["num_classes"] == 10

        raw = tmp_path / "eval-raw"
        assert run("eval", "--checkpoint", rund / "checkpoint.json",
                   "--test", data / "test.jsonl", "--out", raw,
                   "--no-mask-aux") == 0
        rep = json.loads((raw / "report.json").read_text())
        assert rep["masked"] is False
        assert rep["num_classes"] == 10 + merged.num_auxiliary


def test_synth_names_rows_in_file_order(tmp_path):
    """``synth`` names row i of class y ``syn-<kind>-<y>-<i>`` as it writes
    each file, auxiliary classes numbered from the class count."""
    assert run("synth", "--out", tmp_path, *SMALL_SYNTH,
               "--aux-per-target", "2", "--samples-per-aux", "7") == 0
    counts = json.loads((tmp_path / "train.meta.json").read_text())["train_counts"]
    aux, merged, _ = read_dataset(tmp_path / "aux.jsonl")
    last_aux = 10 + merged.num_auxiliary - 1
    expected = {"train": ("syn-train-0-0", f"syn-train-9-{counts[9] - 1}"),
                "test": ("syn-test-0-0", "syn-test-9-4"),
                "aux": ("syn-aux-10-0", f"syn-aux-{last_aux}-6")}
    for kind, ends in expected.items():
        lines = (tmp_path / f"{kind}.jsonl").read_text().splitlines()
        assert tuple(json.loads(lines[i])["id"] for i in (0, -1)) == ends
    assert aux.ids[7] == "syn-aux-11-0"


class TestRunDirectories:
    """``--out`` holds no auxiliary set that its last run did not write, and
    ``train`` refuses one that lost rows."""

    def test_synth_without_auxiliary_data_removes_the_last_runs(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run("synth", "--out", data, *SMALL_SYNTH,
                   "--aux-per-target", "2", "--samples-per-aux", "20") == 0
        (data / "notes.txt").write_text("kept")
        assert run("synth", "--out", data, *SMALL_SYNTH, "--seed", "4") == 0
        assert sorted(p.name for p in data.iterdir()) == sorted(
            [f"{kind}.{ext}" for kind in ("train", "test") for ext in ("jsonl", "cache.npy",
                                                                      "meta.json")]
            + ["manifest.json", "notes.txt"])
        capsys.readouterr()
        assert run("train", "--data", data / "train.jsonl", "--aux", data / "aux.jsonl",
                   "--epochs", "1", "--out", tmp_path / "run") == 3
        assert "data error: manifest not found" in capsys.readouterr().err

    def test_curate_that_keeps_nothing_removes_the_last_runs(self, tmp_path, capsys):
        cur = tmp_path / "cur"
        argv = ["curate", "--data", FIXTURES / "train.jsonl", "--llm-fixture", FIXTURES,
                "--corpus", FIXTURES / "candidates.jsonl", "--out", cur]
        assert run(*argv) == 0
        assert (cur / "aux.jsonl").exists()
        assert run(*argv, "--gamma1", "0.9999", "--gamma2", "1.0") == 0
        assert json.loads((cur / "curation_report.json").read_text())["total_kept_samples"] == 0
        assert sorted(p.name for p in cur.iterdir()) == ["curation_report.json",
                                                         "manifest.json"]
        capsys.readouterr()
        assert run("train", "--data", FIXTURES / "train.jsonl", "--aux", cur / "aux.jsonl",
                   "--epochs", "1", "--out", tmp_path / "run") == 3
        assert "data error: manifest not found" in capsys.readouterr().err

    def test_auxiliary_set_cut_at_a_line_boundary_is_3(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run("synth", "--out", data, *SMALL_SYNTH,
                   "--aux-per-target", "2", "--samples-per-aux", "20") == 0
        aux = data / "aux.jsonl"
        lines = aux.read_bytes().splitlines(keepends=True)
        assert len(lines) == 400
        aux.write_bytes(b"".join(lines[:30]))
        capsys.readouterr()
        out = tmp_path / "run"
        assert run("train", "--data", data / "train.jsonl", "--aux", aux,
                   "--epochs", "1", "--out", out) == 3
        assert capsys.readouterr().err == (
            f"data error: {aux}: auxiliary classes {list(range(12, 30))} have no rows\n")
        assert not out.exists()


def test_synth_defaults_are_the_benchmarks(tmp_path):
    """``synth`` at its defaults writes ``build_benchmark``'s target data."""
    assert run("synth", "--seed", "3", "--out", tmp_path) == 0
    want = experiments.build_benchmark(3)
    for name, expected in zip(("train.jsonl", "test.jsonl"), want):
        got, _, _ = read_dataset(tmp_path / name)
        np.testing.assert_array_equal(got.features, expected.features)
        np.testing.assert_array_equal(got.labels, expected.labels)


class TestDeterminism:
    def test_train_outputs_byte_identical(self, tmp_path):
        data = tmp_path / "data"
        run("synth", "--out", data, *SMALL_SYNTH)
        outs = []
        for name in ("r1", "r2"):
            d = tmp_path / name
            assert run("train", "--data", data / "train.jsonl", "--out", d,
                       "--epochs", "4", "--seed", "11") == 0
            outs.append(d)
        for fname in ("checkpoint.json", "train_log.json", "manifest.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_synth_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("synth", "--out", a, *SMALL_SYNTH)
        run("synth", "--out", b, *SMALL_SYNTH)
        for fname in ("train.jsonl", "test.jsonl", "train.meta.json"):
            assert (a / fname).read_bytes() == (b / fname).read_bytes()

    def test_pilot_byte_identical(self, tmp_path):
        args = ["pilot", "--superclasses", "2,3", "--imbalances", "1.0",
                "--seeds", "0", "--num-classes", "12", "--feature-dim", "8",
                "--max-count", "40", "--test-per-class", "5"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*args, "--out", a) == 0
        assert run(*args, "--out", b) == 0
        for fname in ("pilot.csv", "pilot_runs.csv"):
            assert (a / fname).read_bytes() == (b / fname).read_bytes()
        header, *rows = (a / "pilot.csv").read_text().strip().splitlines()
        assert header == "num_superclasses,imbalance,mean_gap,std_gap,num_seeds"
        assert len(rows) == 2

    def test_manifest_replay(self, tmp_path):
        data = tmp_path / "data"
        run("synth", "--out", data, *SMALL_SYNTH)
        first = tmp_path / "first"
        run("train", "--data", data / "train.jsonl", "--out", first,
            "--epochs", "3", "--lr", "0.25", "--seed", "7")
        replay = tmp_path / "replay"
        assert run("train", "--config", first / "manifest.json",
                   "--out", replay) == 0
        assert (first / "checkpoint.json").read_bytes() == (
            replay / "checkpoint.json"
        ).read_bytes()
        assert (first / "train_log.json").read_bytes() == (
            replay / "train_log.json"
        ).read_bytes()


class TestCurateCommand:
    def test_against_fixture_corpus(self, tmp_path):
        golden = json.loads((FIXTURES / "golden.json").read_text())
        out = tmp_path / "cur"
        assert run("curate", "--data", FIXTURES / "train.jsonl",
                   "--llm-fixture", FIXTURES,
                   "--corpus", FIXTURES / "candidates.jsonl",
                   "--out", out) == 0
        report = json.loads((out / "curation_report.json").read_text())
        assert report["total_kept_samples"] == golden["total_kept"]
        assert report["per_target"] == golden["per_target"]
        aux, merged, _ = read_dataset(out / "aux.jsonl")
        assert list(aux.sample_ids()) == golden["kept_ids_in_order"]
        assert merged.num_auxiliary == len(golden["aux_classes"])

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            d = tmp_path / name
            run("curate", "--data", FIXTURES / "train.jsonl",
                "--llm-fixture", FIXTURES,
                "--corpus", FIXTURES / "candidates.jsonl", "--out", d)
            outs.append(d)
        for fname in ("aux.jsonl", "curation_report.json", "manifest.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_curated_aux_feeds_training(self, tmp_path):
        cur = tmp_path / "cur"
        run("curate", "--data", FIXTURES / "train.jsonl", "--llm-fixture",
            FIXTURES, "--corpus", FIXTURES / "candidates.jsonl", "--out", cur)
        rund = tmp_path / "run"
        assert run("train", "--data", FIXTURES / "train.jsonl", "--aux",
                   cur / "aux.jsonl", "--out", rund, "--epochs", "3",
                   "--ratio", "1:1:3") == 0
        state = load_checkpoint(rund / "checkpoint.json")
        assert state.space.num_auxiliary == 9


class TestSweepAndReport:
    def test_sweep_csv_shape(self, tmp_path):
        out = tmp_path / "sw"
        assert run("sweep", "--axis", "lambda_s", "--values", "0.0,1.0",
                   "--seeds", "0", "--num-classes", "10",
                   "--num-superclasses", "2", "--feature-dim", "8",
                   "--max-count", "120", "--test-per-class", "5",
                   "--epochs", "2", "--out", out) == 0
        rows = list(csv.reader((out / "sweep.csv").open()))
        assert rows[0][:2] == ["axis", "value"]
        assert "overall_acc" in rows[0]
        assert len(rows) == 3
        assert [r[1] for r in rows[1:]] == ["0.0", "1.0"]
        assert all(r[0] == "lambda_s" for r in rows[1:])

    def test_sweep_reruns_byte_identical(self, tmp_path):
        base = ["sweep", "--axis", "per_class_cap", "--values", "10,50",
                "--seeds", "0", "--num-classes", "10", "--num-superclasses",
                "2", "--feature-dim", "8", "--max-count", "120",
                "--test-per-class", "5", "--epochs", "2"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*base, "--out", a) == 0
        assert run(*base, "--out", b) == 0
        for fname in ("sweep.csv", "manifest.json"):
            assert (a / fname).read_bytes() == (b / fname).read_bytes()

    def test_report_merges_eval_jsons(self, tmp_path, capsys):
        data = tmp_path / "data"
        run("synth", "--out", data, *SMALL_SYNTH)
        rund = tmp_path / "run"
        run("train", "--data", data / "train.jsonl", "--out", rund,
            "--epochs", "3")
        evald = tmp_path / "eval"
        run("eval", "--checkpoint", rund / "checkpoint.json", "--test",
            data / "test.jsonl", "--out", evald)
        capsys.readouterr()
        merged = tmp_path / "merged"
        assert run("report", evald / "report.json", "--out", merged) == 0
        out = capsys.readouterr().out
        assert "overall" in out
        rows = list(csv.reader((merged / "report.csv").open()))
        assert rows[0][0] == "source"
        assert len(rows) == 2

    def test_report_echoes_csv(self, tmp_path, capsys):
        p = tmp_path / "some.csv"
        p.write_text("axis,value\nlambda_s,0.1\n")
        assert run("report", p) == 0
        assert "lambda_s,0.1" in capsys.readouterr().out


class TestRunsOnEveryCore:
    """pilot and sweep runs are dealt to forked children (core._map_runs)."""

    PILOT = ["pilot", "--superclasses", "2,3", "--imbalances", "1.0,0.1", "--seeds", "0,1",
             "--num-classes", "12", "--feature-dim", "8", "--max-count", "40",
             "--test-per-class", "5"]
    SWEEP = ["sweep", "--axis", "lambda_s", "--values", "0.0,0.5,1.0", "--seeds", "0",
             "--num-classes", "10", "--num-superclasses", "2", "--feature-dim", "8",
             "--max-count", "120", "--test-per-class", "5", "--epochs", "2"]
    OUTPUTS = ("pilot/pilot.csv", "pilot/pilot_runs.csv", "sweep/sweep.csv")

    def test_outputs_do_not_depend_on_the_part_count(self, tmp_path, force_parts):
        written = []
        for parts in (1, 2, 3):
            force_parts(parts)
            out = tmp_path / str(parts)
            assert run(*self.PILOT, "--out", out / "pilot") == 0
            assert run(*self.SWEEP, "--out", out / "sweep") == 0
            written.append([(out / name).read_bytes() for name in self.OUTPUTS])
        assert written[1] == written[0] and written[2] == written[0]

    @pytest.mark.parametrize("error, code", [(DivergenceError, 2), (DataError, 3)])
    def test_failed_run_in_a_child_exits_as_serially(self, tmp_path, force_parts,
                                                    monkeypatch, capsys, error, code):
        cell = experiments.run_pilot_cell

        def failing(s, b, seed, **kwargs):
            if seed == 1:  # runs 1, 3, 5 and 7: all in the child at 2 parts
                raise error(f"cell S={s} b={b} seed {seed} failed")
            return cell(s, b, seed, **kwargs)

        monkeypatch.setattr(experiments, "run_pilot_cell", failing)
        errors = []
        for parts in (1, 2):
            force_parts(parts)
            assert run(*self.PILOT, "--out", tmp_path / str(parts)) == code
            errors.append(capsys.readouterr().err)
        assert errors[1] == errors[0]
        assert "cell S=2 b=1.0 seed 1 failed" in errors[0]
        assert not (tmp_path / "2" / "pilot.csv").exists()


def _dataset_copy(tmp_path: Path, manifest: Path = FIXTURES / "train.jsonl") -> Path:
    d = tmp_path / "ds"
    d.mkdir(parents=True)
    for path in (manifest, manifest.with_suffix(".meta.json")):
        shutil.copy(path, d / path.name)
    return d / manifest.name


def _nan_copy(tmp_path: Path, manifest: Path, line_no: int) -> Path:
    """A copy of ``manifest`` whose record on ``line_no`` has a NaN feature."""
    data = _dataset_copy(tmp_path, manifest)
    lines = data.read_text().splitlines()
    record = json.loads(lines[line_no - 1])
    record["features"][0] = float("nan")
    lines[line_no - 1] = json.dumps(record)
    data.write_text("\n".join(lines) + "\n")
    return data


@pytest.fixture(scope="module")
def small_run(tmp_path_factory) -> Path:
    """SMALL_SYNTH data with auxiliary classes, a names file for it, and a
    checkpoint trained on both."""
    base = tmp_path_factory.mktemp("small")
    (base / "names.json").write_text(json.dumps({str(i): f"c{i}" for i in range(10)}))
    assert run("synth", "--out", base / "data", *SMALL_SYNTH,
               "--aux-per-target", "1", "--samples-per-aux", "10") == 0
    assert run("train", "--data", base / "data" / "train.jsonl", "--aux",
               base / "data" / "aux.jsonl", "--ratio", "1:1:3", "--epochs", "1",
               "--out", base / "run") == 0
    return base


def _bad_sidecar(tmp_path):
    data = _dataset_copy(tmp_path)
    data.with_suffix(".meta.json").write_text('{"feature_dim": 8,')
    return ["train", "--data", data]


def _ragged_rows(tmp_path):
    data = _dataset_copy(tmp_path)
    with data.open("a") as fh:
        fh.write('{"id": "short", "label": 0, "features": [1.0, 2.0]}\n')
    return ["train", "--data", data]


def _not_utf8(tmp_path):
    data = _dataset_copy(tmp_path)
    with data.open("ab") as fh:
        fh.write(b'{"id": "\xff", "label": 0, "features": []}\n')
    return ["train", "--data", data]


def _checkpoint(text):
    def build(tmp_path):
        ck = tmp_path / "checkpoint.json"
        ck.write_text(text)
        return ["eval", "--checkpoint", ck, "--test", FIXTURES / "train.jsonl",
                "--data", FIXTURES / "train.jsonl"]
    return build


def _edited_checkpoint(edit):
    """A checkpoint for the fixture's label space, edited by ``edit``."""
    def build(tmp_path):
        train, space, _ = read_dataset(FIXTURES / "train.jsonl")
        ck = tmp_path / "checkpoint.json"
        m = space.num_classes
        save_checkpoint(ClassifierState(np.zeros((m, train.feature_dim)), np.zeros(m), space), ck)
        payload = json.loads(ck.read_text())
        edit(payload)
        return _checkpoint(json.dumps(payload))(tmp_path)
    return build


def _edited_sidecar(edit):
    """The fixture manifest with its sidecar edited by ``edit``."""
    def build(tmp_path):
        data = _dataset_copy(tmp_path)
        sidecar = data.with_suffix(".meta.json")
        meta = json.loads(sidecar.read_text())
        edit(meta)
        sidecar.write_text(json.dumps(meta))
        return ["train", "--data", data, "--epochs", "1"]
    return build


def _set(*path_and_value):
    """An edit setting the value at the key path of a JSON object."""
    *keys, last, value = path_and_value

    def edit(obj):
        for key in keys:
            obj = obj[key]
        obj[last] = value
    return edit


def _report(text):
    def build(tmp_path):
        rep = tmp_path / "report.json"
        rep.write_text(text)
        return ["report", rep]
    return build


# an eval report as eval writes it
REPORT = {
    "overall_acc": 62.5, "many_acc": 92.5, "medium_acc": 73.8, "few_acc": 47.5,
    "head_tail_gap": 45.0, "balanced_error_sum": 37.2, "balanced_error_mean": 0.372,
    "split_sizes": {"many": 400, "medium": 300, "few": 300}, "num_classes": 10,
    "num_samples": 1000, "masked": True, "seed": 0, "config": None,
}


MALFORMED_JSON_INPUTS = {
    "sidecar-not-json": _bad_sidecar,
    "ragged-feature-rows": _ragged_rows,
    "manifest-not-utf8": _not_utf8,
    "checkpoint-not-json": _checkpoint('{"format_version": 1'),
    "checkpoint-missing-keys": _checkpoint('{"format_version": 1, "bias": [0.0]}'),
    "report-not-json": _report("[1, 2"),
    "report-missing-keys": _report('{"overall_acc": 50.0}'),
    # each of these ended in a traceback or loaded before the kinds of
    # every JSON input were checked (the fixture has 4 target classes)
    "checkpoint-label-space-list": _edited_checkpoint(_set("label_space", [4])),
    "checkpoint-neighbor-of-list": _edited_checkpoint(_set("label_space", "neighbor_of", [])),
    "checkpoint-weights-strings": _edited_checkpoint(
        lambda ck: ck.update(weights=[["0.5"] * len(row) for row in ck["weights"]])),
    "checkpoint-bias-strings": _edited_checkpoint(lambda ck: ck.update(bias=["0"] * 4)),
    "checkpoint-weights-bools": _edited_checkpoint(
        lambda ck: ck.update(weights=[[False] * len(row) for row in ck["weights"]])),
    "checkpoint-bias-bools": _edited_checkpoint(lambda ck: ck.update(bias=[True] * 4)),
    "checkpoint-version-true": _edited_checkpoint(_set("format_version", True)),
    "checkpoint-version-float": _edited_checkpoint(_set("format_version", 1.0)),
    "checkpoint-num-target-float": _edited_checkpoint(_set("label_space", "num_target", 4.9)),
    # compared with the weight rows before the label space allocates per class
    "checkpoint-num-target-huge": _edited_checkpoint(_set("label_space", "num_target", 10**12)),
    "sidecar-label-space-null": _edited_sidecar(_set("label_space", None)),
    "sidecar-class-names-list": _edited_sidecar(_set("label_space", "class_names", ["a"])),
    "sidecar-num-target-float": _edited_sidecar(_set("label_space", "num_target", 4.9)),
    "sidecar-num-target-string": _edited_sidecar(_set("label_space", "num_target", "4")),
    # refused by the class ceiling before the label space allocates per class
    "sidecar-num-target-huge": _edited_sidecar(_set("label_space", "num_target", 10**12)),
    "report-array": _report("[1, 2]"),
    "report-split-size-string": _report(json.dumps(
        dict(REPORT, split_sizes={"many": "x", "medium": 300, "few": 300}))),
}


class _RawJson(str):
    """JSON text written into a record as it is, not as a string."""


# (key, edit, problem) triples: each edit turns one corpus record's value of
# key into one that curate must reject at load with that problem
BAD_CORPUS_RECORDS = {
    "features-text": ("features", lambda f: "abc", "features must be a list, got 'abc'"),
    "features-nested": ("features", lambda f: [[v] for v in f],
                        "features[0] must be a number, got [0.0]"),
    "features-non-numeric": ("features", lambda f: ["x", *f[1:]],
                             "features[0] must be a number, got 'x'"),
    "features-numeric-string": ("features", lambda f: ["1.5", *f[1:]],
                                "features[0] must be a number, got '1.5'"),
    "features-null-item": ("features", lambda f: [None, *f[1:]],
                           "features[0] must be a number, got None"),
    "features-object-item": ("features", lambda f: [{"a": 1}, *f[1:]],
                             "features[0] must be a number, got {'a': 1}"),
    "features-int-past-float": ("features", lambda f: [10**400, *f[1:]],
                                "int too large to convert to float"),
    "features-float-text-overflows": (
        "features", lambda f: _RawJson("[1e400, " + json.dumps(f[1:])[1:]),
        "non-finite feature value"),
    "features-wrong-dim": ("features", lambda f: f[:-1],
                           "features have 7 values, the corpus has 8"),
    "features-all-nan": ("features", lambda f: [float("nan")] * len(f), "non-finite feature value"),
    "features-bools": ("features", lambda f: [i % 2 == 0 for i in range(len(f))],
                       "features[0] must be a number, got True"),
    "features-one-bool": ("features", lambda f: [True, *f[1:]],
                          "features[0] must be a number, got True"),
    "class-not-string": ("class", lambda v: 7, "record.class must be a string, got 7"),
    "caption-not-string": ("caption", lambda v: 7, "record.caption must be a string, got 7"),
    "image-ref-not-string": ("image_ref", lambda v: None,
                             "record.image_ref must be a string, got None"),
}


@pytest.fixture
def drawn(monkeypatch) -> list[str]:
    """The synthetic-data draws ``tailext synth`` makes, recorded in place
    of being made."""
    calls = []
    for name in ("make_counts", "make_hierarchy", "make_auxiliary"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **k: calls.append(name))
    return calls


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"bogus_key": 1}')
        code = run("train", "--config", bad, "--data", "x.jsonl")
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert run("train", "--data", FIXTURES / "train.jsonl",
                   "--ratio", "1:2", "--out", tmp_path / "o") == 2
        assert run("train", "--data", FIXTURES / "train.jsonl",
                   "--ratio", "auto", "--out", tmp_path / "o") == 2
        assert run("eval", "--test", "t.jsonl") == 2
        assert run("report") == 2
        cfg = tmp_path / "axis.json"
        cfg.write_text('{"axis": "bogus"}')
        assert run("sweep", "--config", cfg) == 2

    def test_data_error_is_3(self, tmp_path, capsys):
        assert run("train", "--data", tmp_path / "absent.jsonl") == 3
        assert "data error" in capsys.readouterr().err
        assert run("eval", "--checkpoint", tmp_path / "no.json",
                   "--test", FIXTURES / "train.jsonl") == 3
        assert run("report", tmp_path / "missing.json") == 3

    @pytest.mark.parametrize("case", sorted(MALFORMED_JSON_INPUTS))
    def test_malformed_json_input_is_3(self, tmp_path, capsys, case):
        argv = MALFORMED_JSON_INPUTS[case](tmp_path)
        assert run(*argv, "--out", tmp_path / "out") == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("names", [
        None, '{"0": "cat",', '{"zero": "cat"}', '{"0": "cat", "00": "dog"}',
        '{"0": {"name": "cat"}}', '{"99": "cat"}',
    ])
    def test_bad_names_file_is_3(self, tmp_path, capsys, drawn, names):
        # the file is read before any data is drawn
        path = tmp_path / "names.json"
        if names is not None:
            path.write_text(names)
        assert run("synth", "--out", tmp_path / "data", *SMALL_SYNTH,
                   "--names", path) == 3
        assert "names file" in capsys.readouterr().err
        assert drawn == []

    @pytest.mark.parametrize("command, key", [
        ("train", "gamma1"), ("train", "gamma2"), ("pilot", "jobs"), ("sweep", "jobs"),
        ("train", "optimizer"), ("train", "weight_decay"), ("train", "momentum"),
    ])
    def test_manifest_with_removed_key_is_2(self, tmp_path, capsys, command, key):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"command": command, "version": "0.1.0", "config": {"seed": 0, key: 1}}
        ))
        assert run(command, "--config", manifest, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "unknown config keys" in err and f"'{key}'" in err

    @pytest.mark.parametrize("flags", [["--optimizer", "adamw"], ["--weight-decay", "0.01"],
                                       ["--momentum", "0.9"]])
    def test_removed_training_flag_is_2(self, tmp_path, flags):
        with pytest.raises(SystemExit) as exc:
            run("train", *flags, "--data", FIXTURES / "train.jsonl", "--out", tmp_path / "o")
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config", [5, None, [1], "train"])
    def test_manifest_whose_config_is_no_object_is_2(self, tmp_path, capsys, config):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": "train", "version": "0.1.0",
                                        "config": config}))
        assert run("train", "--config", manifest, "--data", FIXTURES / "train.jsonl",
                   "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "config error" in err and "config must be an object" in err
        assert not (tmp_path / "o" / "checkpoint.json").exists()

    def test_allocation_beyond_the_address_space_is_2(self, tmp_path, capsys):
        # 10 classes of 10**15 test rows of 8 features: 568 PiB, refused at once
        out = tmp_path / "data"
        assert run("synth", "--out", out, "--num-classes", "10", "--num-superclasses", "2",
                   "--feature-dim", "8", "--test-per-class", 10**15) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "allocate" in err
        assert "Traceback" not in err
        assert not out.exists() or not list(out.iterdir())

    # every size setting at 2**62, past any array, and at 2**70, past int64;
    # train's settings are checked before its --data is read
    @pytest.mark.parametrize("size", [2**62, 2**70], ids=["2**62", "2**70"])
    @pytest.mark.parametrize("argv, setting", [
        pytest.param(["train", "--data", "absent.jsonl", "--cap"], "per_class_cap",
                     id="train-cap"),
        pytest.param(["train", "--data", "absent.jsonl", "--batch-size"], "batch_size",
                     id="train-batch-size"),
        pytest.param(["train", "--data", "absent.jsonl", "--hidden-dim"], "hidden_dim",
                     id="train-hidden-dim"),
        pytest.param(["train", "--data", "absent.jsonl", "--epochs"], "epochs",
                     id="train-epochs"),
        pytest.param(["sweep", "--axis", "per_class_cap", "--values"], "per_class_cap",
                     id="sweep-cap"),
        pytest.param(["sweep", "--axis", "aux_count", "--values"], "aux_count values",
                     id="sweep-aux-count"),
        *(pytest.param(["synth", *SMALL_SYNTH, *flags], setting, id=f"synth-{setting}")
          for flags, setting in [
              (["--num-classes"], "num_classes"),
              (["--max-count"], "max_count"),
              (["--test-per-class"], "test_per_class"),
              (["--feature-dim"], "feature_dim"),
              (["--aux-per-target"], "per_target"),
              (["--aux-per-target", "1", "--samples-per-aux"], "samples_per_aux"),
          ]),
        # checked though no auxiliary data is made
        pytest.param(["synth", *SMALL_SYNTH, "--samples-per-aux"], "samples_per_aux",
                     id="synth-samples_per_aux-without-aux"),
        *(pytest.param(["pilot", "--superclasses", "2", "--imbalances", "1", "--seeds", "0",
                        flag], flag[2:].replace("-", "_"), id=f"pilot{flag[1:]}")
          for flag in ["--num-classes", "--max-count", "--test-per-class", "--feature-dim"]),
    ])
    def test_size_past_the_address_space_is_2(self, tmp_path, capsys, drawn, argv, setting,
                                              size):
        out = tmp_path / "o"
        assert run(*argv, size, "--out", out) == 2
        err = capsys.readouterr().err
        assert err == (f"config error: {setting} must be at most 2**48, more than any "
                       f"process can allocate, got {size}\n")
        assert not out.exists()
        assert drawn == []

    # each setting is within 2**48, but not an array that multiplies them
    @pytest.mark.parametrize("argv, product", [
        pytest.param(["synth", "--num-classes", "65536", "--num-superclasses", "65536",
                      "--feature-dim", 2**48], "num_superclasses * feature_dim", id="synth"),
        pytest.param(["synth", *SMALL_SYNTH, "--aux-per-target", 2**24,
                      "--samples-per-aux", 2**24],
                     "auxiliary classes * samples_per_aux * feature_dim", id="synth-aux"),
        pytest.param(["pilot", "--superclasses", "65536", "--imbalances", "1.0", "--seeds", "0",
                      "--num-classes", "65536", "--feature-dim", 2**48],
                     "num_superclasses * feature_dim", id="pilot"),
        pytest.param(["train", "--data", FIXTURES / "train.jsonl", "--hidden-dim", 2**48],
                     "classes * hidden_dim", id="train"),
    ])
    def test_product_of_sizes_past_the_address_space_is_2(self, tmp_path, capsys, argv,
                                                          product):
        out = tmp_path / "o"
        assert run(*argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {product} must be at most 2**48, more than any "
                              "process can allocate, got ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--values", "0.1", "--seeds", ""], ["--values", ""]])
    def test_sweep_over_an_empty_list_is_2(self, tmp_path, capsys, flags):
        out = tmp_path / "sw"
        assert run("sweep", "--axis", "lambda_s", *flags, "--out", out) == 2
        assert "config error: sweep needs values and seeds" in capsys.readouterr().err
        assert not out.exists()

    def test_external_service_error_is_4(self, tmp_path, capsys):
        empty = tmp_path / "llm"
        empty.mkdir()
        (empty / "responses.json").write_text("{}")
        code = run("curate", "--data", FIXTURES / "train.jsonl",
                   "--llm-fixture", empty,
                   "--corpus", FIXTURES / "candidates.jsonl",
                   "--out", tmp_path / "out")
        assert code == 4
        assert "external service error" in capsys.readouterr().err

    @pytest.mark.parametrize("responses", ['{"cat": ', '["cat"]', '{"cat": ["dog"]}'])
    def test_malformed_llm_fixture_is_3(self, tmp_path, capsys, responses):
        fixture = tmp_path / "llm"
        fixture.mkdir()
        (fixture / "responses.json").write_text(responses)
        code = run("curate", "--data", FIXTURES / "train.jsonl",
                   "--llm-fixture", fixture,
                   "--corpus", FIXTURES / "candidates.jsonl",
                   "--out", tmp_path / "out")
        assert code == 3
        err = capsys.readouterr().err
        assert "data error" in err and "responses.json" in err

    @pytest.mark.parametrize("command, key, value", [
        ("train", "epochs", "5"),
        ("train", "epochs", True),
        ("train", "epochs", 5.0),
        ("train", "lr", "0.1"),
        ("train", "lambda_s", False),
        ("train", "ratio", [1, 1, 3]),
        ("eval", "mask_aux", 1),
        ("synth", "expand", ["few"]),
        ("curate", "k", "5"),
        ("pilot", "num_classes", None),
    ])
    def test_config_value_of_wrong_type_is_2(self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run(command, "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"'{key}'" in err

    # every setting whose default is None, in every command; hidden_dim takes
    # an int and the others a string, so each gets a value of the other type
    @pytest.mark.parametrize("command, key", [
        (command, key)
        for command, (_, settings, _) in cli._COMMANDS.items()
        for key, default in settings.items()
        if default is None
    ])
    def test_unset_setting_of_wrong_type_is_2(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "4" if key == "hidden_dim" else 5}))
        assert run(command, "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"'{key}'" in err

    def test_non_finite_feature_is_3(self, tmp_path, capsys, small_run):
        bad = _nan_copy(tmp_path, small_run / "data" / "train.jsonl", line_no=4)
        assert run("train", "--data", bad, "--epochs", "1", "--out", tmp_path / "t") == 3
        err = capsys.readouterr().err
        assert f"{bad}:4: non-finite feature" in err

        bad_test = _nan_copy(tmp_path / "e", small_run / "data" / "test.jsonl", line_no=2)
        assert run("eval", "--checkpoint", small_run / "run" / "checkpoint.json",
                   "--test", bad_test, "--out", tmp_path / "o") == 3
        assert f"{bad_test}:2: non-finite feature" in capsys.readouterr().err

    # each makes one record of a manifest without its binary cache break
    # the record rules a corpus is held to
    @pytest.mark.parametrize("key, value", [
        pytest.param("features", ["1.5", "2", 0, 0, 0, 0, 0, 0], id="features-strings"),
        pytest.param("features", [True, False] * 4, id="features-bools"),
        pytest.param("features", [1.5, True, 0, 0, 0, 0, 0, 0], id="features-one-bool"),
        pytest.param("label", 1.7, id="label-float"),
        pytest.param("label", True, id="label-bool"),
        pytest.param("id", None, id="id-null"),
    ])
    def test_cache_less_manifest_record_of_wrong_type_is_3(self, tmp_path, capsys, key, value):
        data = _dataset_copy(tmp_path)
        lines = data.read_text().splitlines()
        record = json.loads(lines[3])
        record[key] = value
        lines[3] = json.dumps(record)
        data.write_text("\n".join(lines) + "\n")
        assert run("train", "--data", data, "--epochs", "1", "--out", tmp_path / "t") == 3
        err = capsys.readouterr().err
        assert f"data error: {data}:4: " in err and "Traceback" not in err
        assert not (tmp_path / "t" / "checkpoint.json").exists()

    def test_eval_data_with_other_target_count_is_3(self, tmp_path, capsys, small_run):
        """Counts of a 20-class --data would be cut to the checkpoint's 10
        and give wrong splits."""
        other = tmp_path / "other"
        assert run("synth", "--out", other, *SMALL_SYNTH[2:], "--num-classes", "20") == 0
        checkpoint = small_run / "run" / "checkpoint.json"
        out = tmp_path / "scores"
        assert run("eval", "--checkpoint", checkpoint, "--test", small_run / "data" / "test.jsonl",
                   "--data", other / "train.jsonl", "--out", out) == 3
        assert (f"data error: {other / 'train.jsonl'} has 20 target classes but checkpoint "
                f"{checkpoint} has 10") in capsys.readouterr().err
        assert not out.exists()

    # small_run's checkpoint has 10 target classes
    @pytest.mark.parametrize("counts", [
        "60", {"0": 60}, None, [60] * 5, [60] * 15, [60.0] * 10, [True] * 10,
        [60] * 9 + ["60"],
    ])
    def test_bad_train_counts_in_test_sidecar_is_3(self, tmp_path, capsys, small_run,
                                                   counts):
        test = _dataset_copy(tmp_path, small_run / "data" / "test.jsonl")
        sidecar = test.with_suffix(".meta.json")
        meta = json.loads(sidecar.read_text())
        meta["train_counts"] = counts
        sidecar.write_text(json.dumps(meta))
        out = tmp_path / "o"
        assert run("eval", "--checkpoint", small_run / "run" / "checkpoint.json",
                   "--test", test, "--out", out) == 3
        assert (f"data error: {sidecar}: train_counts must be a list of 10 integers"
                in capsys.readouterr().err)
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("overall_acc", "x"), ("few_acc", [1]), ("head_tail_gap", "1.0"),
        ("balanced_error_sum", None), ("balanced_error_mean", True),
    ])
    def test_report_field_not_a_number_is_3(self, tmp_path, capsys, key, value):
        report = dict(REPORT, **{key: value})
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert run("report", path) == 3
        assert f"{key} must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, kind", [
        ("masked", "no", "a boolean"), ("masked", 1, "a boolean"),
        ("num_classes", "x", "an integer"), ("num_classes", True, "an integer"),
        ("num_samples", 1000.0, "an integer"), ("num_samples", None, "an integer"),
        ("seed", "0", "an integer or null"), ("seed", False, "an integer or null"),
    ])
    def test_report_field_of_the_wrong_type_is_3(self, tmp_path, capsys, key, value, kind):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(dict(REPORT, **{key: value})))
        assert run("report", path, "--out", tmp_path / "o") == 3
        assert f"{key} must be {kind}, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.csv").exists()

    def test_report_splits_may_be_null_or_absent(self, tmp_path, capsys):
        report = {k: v for k, v in REPORT.items() if k != "many_acc"}
        path = tmp_path / "report.json"
        path.write_text(json.dumps(dict(report, few_acc=None, head_tail_gap=None)))
        assert run("report", path) == 0
        assert "many absent" in capsys.readouterr().out

    def test_non_finite_checkpoint_is_3(self, tmp_path, capsys, small_run):
        payload = json.loads((small_run / "run" / "checkpoint.json").read_text())
        payload["bias"][1] = float("inf")
        ck = tmp_path / "checkpoint.json"
        ck.write_text(json.dumps(payload))
        assert run("eval", "--checkpoint", ck, "--test",
                   small_run / "data" / "test.jsonl", "--out", tmp_path / "o") == 3
        assert "non-finite weights or biases" in capsys.readouterr().err

    # small_run's checkpoint is linear over 8 features: each gives it a
    # hidden layer whose weights or bias do not fit its width of 8
    @pytest.mark.parametrize("hidden", [
        pytest.param({"weights": np.eye(8).tolist(), "bias": [0.0] * 9}, id="bias-one-longer"),
        pytest.param({"weights": np.eye(8).tolist(), "bias": [[0.0]] * 8}, id="bias-2d"),
        pytest.param({"weights": [1.0] * 8, "bias": [0.0] * 8}, id="weights-1d"),
        pytest.param({"weights": np.ones((8, 8, 1)).tolist(), "bias": [0.0] * 8},
                     id="weights-3d"),
    ])
    def test_hidden_layer_of_wrong_shape_is_3(self, tmp_path, capsys, small_run, hidden):
        payload = json.loads((small_run / "run" / "checkpoint.json").read_text())
        payload["hidden"] = hidden
        ck = tmp_path / "checkpoint.json"
        ck.write_text(json.dumps(payload))
        assert run("eval", "--checkpoint", ck, "--test",
                   small_run / "data" / "test.jsonl", "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert f"data error: {ck}: bad checkpoint" in err and "Traceback" not in err

    def test_target_labelled_auxiliary_data_is_3(self, tmp_path, capsys, small_run):
        data = small_run / "data"
        out = tmp_path / "run"
        assert run("train", "--data", data / "train.jsonl", "--aux", data / "train.jsonl",
                   "--epochs", "1", "--out", out) == 3
        assert "data error: auxiliary labels must be auxiliary ids in [10, 10)" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--lr", "1e9"]])
    def test_diverging_train_is_2_without_checkpoint(self, tmp_path, capsys, small_run, flags):
        data = small_run / "data"
        out = tmp_path / "run"
        assert run("train", "--data", data / "train.jsonl", "--aux", data / "aux.jsonl",
                   "--ratio", "1:1:3", "--epochs", "5", *flags, "--out", out) == 2
        assert re.search(r"training diverged at epoch \d+, batch \d+",
                         capsys.readouterr().err)
        assert not (out / "checkpoint.json").exists()

    # each value is rejected by name before training starts; at lr nan a run
    # would otherwise end as a divergence, and at hidden dim 0 train a
    # zero-width layer
    @pytest.mark.parametrize("flags, field, with_aux", [
        pytest.param(["--hidden-dim", "-1"], "hidden_dim", True, id="hidden-dim-negative"),
        pytest.param(["--hidden-dim", "0"], "hidden_dim", True, id="hidden-dim-zero"),
        pytest.param(["--lr", "nan"], "learning_rate", True, id="lr-nan"),
        pytest.param(["--lr", "inf"], "learning_rate", True, id="lr-inf"),
        pytest.param(["--lambda-s", "nan"], "lambda_s", True, id="lambda-s-nan"),
        pytest.param(["--lambda-s", "nan"], "lambda_s", False, id="lambda-s-nan-without-aux"),
        pytest.param(["--ratio", "1:nan:3"], "aux_ratio", True, id="ratio-nan"),
        pytest.param(["--ratio", "1:1:inf"], "aux_ratio", True, id="ratio-inf"),
    ])
    def test_untrainable_setting_is_2(self, tmp_path, capsys, small_run, flags, field,
                                      with_aux):
        data = small_run / "data"
        aux = ["--aux", data / "aux.jsonl"] if with_aux else []
        out = tmp_path / "run"
        assert run("train", "--data", data / "train.jsonl", *aux, "--epochs", "1",
                   *flags, "--out", out) == 2
        assert f"config error: {field} must be" in capsys.readouterr().err
        assert not (out / "checkpoint.json").exists()

    @pytest.mark.parametrize("flags, field", [
        pytest.param(["--aux-per-target", "1", "--aux-offset", "nan"], "offset",
                     id="aux-offset-nan"),
        # checked though no auxiliary data is made
        pytest.param(["--aux-offset", "nan"], "offset", id="aux-offset-nan-without-aux"),
        pytest.param(["--sigma-super", "inf"], "spreads", id="sigma-super-inf"),
        pytest.param(["--profile", "pareto", "--alpha", "nan"], "alpha", id="alpha-nan"),
        pytest.param(["--profile", "pareto", "--alpha", "inf"], "alpha", id="alpha-inf"),
    ])
    def test_non_finite_synth_geometry_is_2(self, tmp_path, capsys, drawn, flags, field):
        out = tmp_path / "data"
        assert run("synth", "--out", out, *SMALL_SYNTH, *flags) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()
        assert drawn == []

    def test_synth_expand_checked_without_auxiliary_data(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert run("synth", "--out", out, *SMALL_SYNTH, "--expand", "bogus") == 2
        assert "unknown split names ['bogus']" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["pilot", "--seeds", ""], "pilot grid needs", id="pilot"),
        pytest.param(["train"], "train needs --data", id="train"),
        pytest.param(["curate"], "curate needs --data", id="curate"),
        pytest.param(["eval"], "eval needs --checkpoint", id="eval"),
        pytest.param(["sweep", "--axis", "ratio", "--values", "1:1:3,1:1:1"],
                     "got '1:1:3,1:1:1'; sweep ratio values are separated by '/'",
                     id="sweep-ratio-commas"),
        # no seed is trained at 1:1:3 before the bad value is found
        pytest.param(["sweep", "--axis", "ratio", "--values", "1:1:3/bad"], "got 'bad'",
                     id="sweep-ratio-bad"),
        pytest.param(["sweep", "--axis", "aux_count", "--values", "3,0"],
                     "aux_count values must be >= 1, got 0", id="sweep-aux-count"),
        # only 0 asks for no auxiliary data
        pytest.param(["synth", *SMALL_SYNTH, "--aux-per-target", "-1"],
                     "per_target must be >= 0, got -1", id="synth-negative-aux-per-target"),
        # the settings are checked before --data is read
        pytest.param(["curate", "--data", "absent.jsonl", "--llm-fixture", FIXTURES],
                     "no retriever configured", id="curate-no-corpus"),
        pytest.param(["curate", "--data", "absent.jsonl", "--corpus", "absent.jsonl"],
                     "no LLM endpoint", id="curate-no-llm"),
    ])
    def test_config_error_leaves_no_out_dir(self, tmp_path, capsys, monkeypatch, drawn, argv,
                                            message):
        monkeypatch.delenv("TAILEXT_LLM_URL", raising=False)
        out = tmp_path / "o"
        assert run(*argv, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert drawn == []

    # a repeated value would run twice and count twice in pilot.csv
    @pytest.mark.parametrize("argv, message", [
        pytest.param(["pilot", "--superclasses", "2,2"], "value 2 repeated in '2,2'",
                     id="pilot-superclasses"),
        pytest.param(["pilot", "--imbalances", "0.1,1,1.0"], "value 1.0 repeated in '0.1,1,1.0'",
                     id="pilot-imbalances"),
        pytest.param(["pilot", "--seeds", "3,3"], "value 3 repeated in '3,3'", id="pilot-seeds"),
        pytest.param(["sweep", "--axis", "lambda_s", "--values", "0.1,0.1"],
                     "value 0.1 repeated in '0.1,0.1'", id="sweep-values"),
        pytest.param(["sweep", "--axis", "ratio", "--values", "1:1:3/1:1:1/1:1:3"],
                     "value '1:1:3' repeated in '1:1:3/1:1:1/1:1:3'", id="sweep-ratio-values"),
        pytest.param(["sweep", "--axis", "lambda_s", "--seeds", "0,1,0"],
                     "value 0 repeated in '0,1,0'", id="sweep-seeds"),
    ])
    def test_repeated_list_value_is_2(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        assert run(*argv, "--out", out) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    # masked to 64 bits, such a seed gave another seed's streams: synth wrote
    # seed 0's data, and pilot ran one cell twice. Every command refuses it
    # before its work starts: no draw, no pilot cell and no input read; curate
    # and eval draw nothing from it, and check it all the same
    @pytest.mark.parametrize("argv", [
        pytest.param(["synth", *SMALL_SYNTH[:-2], "--seed", str(2**64)], id="synth"),
        pytest.param(["synth", *SMALL_SYNTH[:-2], "--seed", str(-(2**64))],
                     id="synth-negative"),
        pytest.param(["pilot", "--superclasses", "3", "--imbalances", "1.0",
                      "--seeds", f"0,{2**64}", "--num-classes", "15", "--feature-dim", "8",
                      "--max-count", "50", "--test-per-class", "5"], id="pilot"),
        pytest.param(["curate", "--data", FIXTURES / "train.jsonl", "--llm-fixture", FIXTURES,
                      "--corpus", FIXTURES / "candidates.jsonl", "--seed", str(2**64)],
                     id="curate"),
        pytest.param(["train", "--data", "absent.jsonl", "--seed", str(2**64)], id="train"),
        pytest.param(["eval", "--checkpoint", "absent.json", "--test", "absent.jsonl",
                      "--seed", str(2**64)], id="eval"),
    ])
    def test_seed_outside_64_bits_is_2(self, tmp_path, capsys, monkeypatch, argv):
        started = []
        for name in ("make_counts", "run_pilot_grid", "read_dataset", "load_checkpoint"):
            monkeypatch.setattr(cli, name, lambda *a, name=name, **k: started.append(name))
        out = tmp_path / "o"
        assert run(*argv, "--out", out) == 2
        assert "config error: seed must be in [0, 2**64)" in capsys.readouterr().err
        assert started == []
        assert not out.exists()

    # each command's argv, valid and small, given the small_run directory
    @pytest.mark.parametrize("argv", [
        pytest.param(lambda base: ["synth", *SMALL_SYNTH], id="synth"),
        pytest.param(lambda base: ["pilot", "--superclasses", "3", "--imbalances", "1.0",
                                   "--seeds", "0", "--num-classes", "15", "--feature-dim", "8",
                                   "--max-count", "50", "--test-per-class", "5"], id="pilot"),
        pytest.param(lambda base: ["curate", "--data", FIXTURES / "train.jsonl", "--llm-fixture",
                                   FIXTURES, "--corpus", FIXTURES / "candidates.jsonl"],
                     id="curate"),
        pytest.param(lambda base: ["train", "--data", base / "data" / "train.jsonl",
                                   "--epochs", "1"], id="train"),
        pytest.param(lambda base: ["eval", "--checkpoint", base / "run" / "checkpoint.json",
                                   "--test", base / "data" / "test.jsonl"], id="eval"),
        pytest.param(lambda base: ["sweep", "--axis", "lambda_s", "--values", "0.0", "--seeds",
                                   "0", *SMALL_SYNTH[:-2], "--epochs", "1"], id="sweep"),
        pytest.param(lambda base: ["report", base / "report.json"], id="report"),
    ])
    def test_out_that_is_no_directory_is_2_before_the_command(self, tmp_path, capsys,
                                                              small_run, argv):
        (small_run / "report.json").write_text(json.dumps(REPORT))
        afile = tmp_path / "afile"
        afile.write_text("kept")
        for out in (afile, afile / "sub"):
            assert run(*argv(small_run), "--out", out) == 2
            captured = capsys.readouterr()
            assert captured.err == f"config error: --out {out}: {afile} is not a directory\n"
            assert captured.out == ""
            assert [p.name for p in tmp_path.iterdir()] == ["afile"]
            assert afile.read_text() == "kept"

    @pytest.mark.parametrize("corpus", ["absent.jsonl", "."], ids=["absent", "directory"])
    def test_missing_corpus_is_3_before_the_data_is_read(self, tmp_path, capsys, monkeypatch,
                                                          corpus):
        read = []
        monkeypatch.setattr(cli, "read_dataset", lambda path: read.append(path))
        assert run("curate", "--data", FIXTURES / "train.jsonl", "--llm-fixture", FIXTURES,
                   "--corpus", tmp_path / corpus, "--out", tmp_path / "o") == 3
        assert f"data error: candidate corpus not found: {tmp_path / corpus}" in (
            capsys.readouterr().err)
        assert read == []
        assert not (tmp_path / "o").exists()

    def test_curate_without_retriever_is_2(self, tmp_path):
        assert run("curate", "--data", FIXTURES / "train.jsonl",
                   "--llm-fixture", FIXTURES, "--out", tmp_path / "o") == 2

    @pytest.mark.parametrize("case", sorted(BAD_CORPUS_RECORDS))
    def test_bad_corpus_record_is_3(self, tmp_path, capsys, case):
        key, edit, problem = BAD_CORPUS_RECORDS[case]
        lines = (FIXTURES / "candidates.jsonl").read_text().splitlines()
        record = json.loads(lines[2])
        value = record[key] = edit(record[key])
        lines[2] = json.dumps(record)
        if isinstance(value, _RawJson):
            lines[2] = lines[2].replace(json.dumps(value), value)
        corpus = tmp_path / "candidates.jsonl"
        corpus.write_text("\n".join(lines) + "\n")
        assert run("curate", "--data", FIXTURES / "train.jsonl", "--llm-fixture",
                   FIXTURES, "--corpus", corpus, "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert f"data error: bad corpus record at line 3: {problem}\n" in err

    def test_first_corpus_record_without_features_is_3(self, tmp_path, capsys):
        # the first record sets the corpus's dim, so the message must not
        # read as a dim mismatch
        lines = (FIXTURES / "candidates.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        record["features"] = []
        lines[0] = json.dumps(record)
        corpus = tmp_path / "candidates.jsonl"
        corpus.write_text("\n".join(lines) + "\n")
        assert run("curate", "--data", FIXTURES / "train.jsonl", "--llm-fixture",
                   FIXTURES, "--corpus", corpus, "--out", tmp_path / "o") == 3
        assert ("data error: bad corpus record at line 1: features list is empty"
                in capsys.readouterr().err)

    def test_default_ratio_with_an_empty_split(self, tmp_path):
        # max count 60 leaves the many split (> 100 samples) empty
        data = tmp_path / "data"
        assert run("synth", "--out", data, "--num-classes", "10",
                   "--num-superclasses", "2", "--feature-dim", "8", "--max-count", "60",
                   "--imbalance", "0.05", "--test-per-class", "5",
                   "--aux-per-target", "1", "--seed", "1") == 0
        out = tmp_path / "run"
        assert run("train", "--data", data / "train.jsonl", "--aux", data / "aux.jsonl",
                   "--out", out) == 0
        log = json.loads((out / "train_log.json").read_text())
        assert log["plan"]["ratio"][0] == 0.0


# JSON values of each type, a few of each: a field is given one of a type
# its kind does not admit
JSON_VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-1000, 1000),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "str": st.text(max_size=4),
    "list": st.lists(st.integers(0, 9), max_size=2),
    "object": st.dictionaries(st.text(max_size=2), st.integers(0, 9), max_size=2),
}
_ABSENT = object()


@st.composite
def _broken(draw, base: dict, fields: list) -> dict:
    """A copy of ``base`` with one of ``fields`` broken: made absent or
    null, given another JSON type, its number written as a string, nested,
    keyed by a non-canonical class id, or put out of range. A field is
    (key path, what its kind admits, out-of-range values), where it admits
    JSON types and "absent", or is "id", a key of a class-id map."""
    obj = json.loads(json.dumps(base))
    path, admits, out_of_range = draw(st.sampled_from(fields))
    *parents, last = path
    owner = obj
    for key in parents:
        owner = owner[key]
    if admits == "id":
        spelling = draw(st.sampled_from(["0{}", "+{}", " {}", "{}.0", "-{}", "{}٠"]))
        owner[spelling.format(last)] = owner.pop(last)
        return obj
    value = owner[last] if isinstance(owner, list) else owner.get(last)
    options = [values for kind, values in JSON_VALUES.items() if kind not in admits.split()]
    options += [st.just([value])] * ("list" not in admits)
    options += [st.just({"value": value})] * ("object" not in admits)
    options += [st.just(json.dumps(value))] * (type(value) in (int, float))
    options += [st.sampled_from(out_of_range)] * bool(out_of_range)
    options += [st.just(_ABSENT)] * ("absent" not in admits)
    broken = draw(st.one_of(options))
    if broken is _ABSENT:  # a list item goes too
        owner.pop(last) if isinstance(owner, list) else owner.pop(last, None)
    else:
        owner[last] = broken
    return obj


def _label_space_fields(space: dict, path: tuple) -> list:
    """The fields of a label space with auxiliary classes and class names."""
    aux = next(iter(space["neighbor_of"]))
    return [
        (path, "object", ()),
        (path + ("num_target",), "int", (0, -1, space["num_target"] - 1)),
        (path + ("num_auxiliary",), "int", (-1, space["num_auxiliary"] + 1)),
        (path + ("neighbor_of",), "object", ()),
        (path + ("neighbor_of", aux), "int", (-1, space["num_target"], 2**70)),
        (path + ("neighbor_of", aux), "id", ()),
        (path + ("class_names",), "object null absent", ()),
        (path + ("class_names", "3"), "str absent", ()),
        (path + ("class_names", "3"), "id", ()),
    ]


def _named(space: dict) -> dict:
    return dict(space, class_names={str(i): f"c{i}" for i in range(
        space["num_target"] + space["num_auxiliary"])})


def _rejected(capsys, argv: list, out: Path) -> None:
    """``argv`` exits 2 or 3 with an error line, not a traceback, and
    leaves no output behind and no child process."""
    code = run(*argv, "--out", out)
    err = capsys.readouterr().err
    assert code in (2, 3), err
    assert "Traceback" not in err and err.startswith(("config error: ", "data error: "))
    written = ("checkpoint.json", "aux.jsonl", "report.json", "report.csv", "train.jsonl")
    assert not [name for name in written if (out / name).exists()]
    assert not list(out.glob("*.tmp"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _copy(small_run: Path, tmp_path: Path, name: str) -> Path:
    """A fresh copy of one of small_run's manifests, without its cache."""
    return _dataset_copy(Path(tempfile.mkdtemp(dir=tmp_path)), small_run / "data" / name)


TABLE_SETTINGS = settings(max_examples=20, deadline=None,
                          suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestJsonTables:
    """Each JSON input with one field broken is refused with exit 2 or 3."""

    @TABLE_SETTINGS
    @given(data=st.data())
    def test_sidecar(self, tmp_path, capsys, small_run, data):
        aux = _copy(small_run, tmp_path, "aux.jsonl")
        sidecar = aux.with_suffix(".meta.json")
        meta = json.loads(sidecar.read_text())
        meta["label_space"] = _named(meta["label_space"])
        fields = [(("feature_dim",), "int", (0, -1, 7, 2**40)),
                  (("label_space", "num_target"), "int", (MAX_CLASSES + 1, 10**12))]
        fields += _label_space_fields(meta["label_space"], ("label_space",))
        sidecar.write_text(json.dumps(data.draw(_broken(meta, fields))))
        _rejected(capsys, ["train", "--data", small_run / "data" / "train.jsonl", "--aux", aux,
                           "--ratio", "1:1:3", "--epochs", "1"], aux.parent / "out")

    @TABLE_SETTINGS
    @given(data=st.data())
    def test_checkpoint(self, tmp_path, capsys, small_run, data):
        payload = json.loads((small_run / "run" / "checkpoint.json").read_text())
        payload["label_space"] = _named(payload["label_space"])
        fields = [
            (("format_version",), "int", (0, 2)),
            (("activation",), "str null absent", ("relu",)),
            (("hidden",), "object null absent", ()),
            (("weights",), "list", (payload["weights"][:-1],)),
            (("weights", 2), "list", (payload["weights"][2][:-1],)),
            (("weights", 2, 1), "int float", (10**400, float("inf"))),
            (("bias",), "list", (payload["bias"][1:],)),
            (("bias", 3), "int float", (float("-inf"),)),
            *_label_space_fields(payload["label_space"], ("label_space",)),
            (("label_space", "num_target"), "int", (10**12,)),
        ]
        out = Path(tempfile.mkdtemp(dir=tmp_path))
        (out / "ck.json").write_text(json.dumps(data.draw(_broken(payload, fields))))
        _rejected(capsys, ["eval", "--checkpoint", out / "ck.json",
                           "--test", small_run / "data" / "test.jsonl"], out / "out")

    @TABLE_SETTINGS
    @given(data=st.data())
    def test_config_file(self, tmp_path, capsys, small_run, data):
        config = {"epochs": 1, "lr": 0.1, "ratio": "1:1:3",
                  "hidden_dim": None, "aux": None, "cap": 50, "batch_size": 16,
                  "lambda_s": 0.1, "seed": 3}
        fields = [
            (("epochs",), "int absent", (0, -1)),
            (("lr",), "int float absent", (0, -0.5, float("nan"))),
            (("ratio",), "str absent", ("1:2", "a:b:c")),
            (("hidden_dim",), "int null absent", (0, -2)),
            (("aux",), "str null absent", ()),
            (("cap",), "int absent", (0,)),
            (("batch_size",), "int absent", (0,)),
            (("lambda_s",), "int float absent", (-1,)),
            (("seed",), "int absent", ()),
        ]
        broken = data.draw(st.one_of(
            _broken(config, fields),
            st.just(dict(config, bogus=1)),
            JSON_VALUES["list"], JSON_VALUES["str"], JSON_VALUES["null"],
            # a manifest, accepted as a config file, whose config is no object
            _broken({"command": "train", "config": config}, [(("config",), "object", ())]),
        ))
        out = Path(tempfile.mkdtemp(dir=tmp_path))
        (out / "cfg.json").write_text(json.dumps(broken))
        _rejected(capsys, ["train", "--config", out / "cfg.json",
                           "--data", small_run / "data" / "train.jsonl"], out / "out")

    @TABLE_SETTINGS
    @given(data=st.data())
    def test_names_file(self, tmp_path, capsys, data):
        names = {str(i): f"c{i}" for i in range(10)}  # SMALL_SYNTH has 10 classes
        broken = data.draw(st.one_of(
            _broken(names, [(("3",), "str absent", ()), (("3",), "id", ()), (("7",), "id", ())]),
            st.sampled_from([dict(names, **{"10": "c10"}), dict(names, **{"99": "c99"})]),
            JSON_VALUES["list"], JSON_VALUES["str"], JSON_VALUES["null"],
        ))
        out = Path(tempfile.mkdtemp(dir=tmp_path))
        (out / "names.json").write_text(json.dumps(broken))
        _rejected(capsys, ["synth", *SMALL_SYNTH, "--names", out / "names.json"], out / "out")

    @TABLE_SETTINGS
    @given(data=st.data())
    def test_eval_report(self, tmp_path, capsys, data):
        fields = [((key,), "int float", ()) for key in (
            "overall_acc", "balanced_error_sum", "balanced_error_mean")]
        fields += [((key,), "int float null absent", ()) for key in (
            "many_acc", "medium_acc", "few_acc", "head_tail_gap")]
        fields += [(("split_sizes",), "object", ())]
        fields += [(("split_sizes", key), "int", ()) for key in ("many", "medium", "few")]
        fields += [(("num_classes",), "int", ()), (("num_samples",), "int", ()),
                   (("masked",), "bool", ()), (("seed",), "int null absent", ())]
        out = Path(tempfile.mkdtemp(dir=tmp_path))
        (out / "report.json").write_text(json.dumps(data.draw(_broken(REPORT, fields))))
        _rejected(capsys, ["report", out / "report.json"], out / "out")

    @TABLE_SETTINGS
    @given(data=st.data())
    def test_train_counts(self, tmp_path, capsys, small_run, data):
        test = _copy(small_run, tmp_path, "test.jsonl")
        sidecar = test.with_suffix(".meta.json")
        meta = json.loads(sidecar.read_text())
        counts = meta["train_counts"]
        fields = [(("train_counts",), "list", (counts[:-1], counts + [60])),
                  (("train_counts", 4), "int", (0, -5, 2**70))]
        sidecar.write_text(json.dumps(data.draw(_broken(meta, fields))))
        _rejected(capsys, ["eval", "--checkpoint", small_run / "run" / "checkpoint.json",
                           "--test", test], test.parent / "out")

    @TABLE_SETTINGS
    @given(data=st.data())
    def test_llm_responses(self, tmp_path, capsys, data):
        responses = json.loads((FIXTURES / "responses.json").read_text())
        broken = data.draw(st.one_of(
            _broken(responses, [((name,), "str absent", ()) for name in responses]),
            JSON_VALUES["list"], JSON_VALUES["str"], JSON_VALUES["null"],
        ))
        out = Path(tempfile.mkdtemp(dir=tmp_path))
        (out / "responses.json").write_text(json.dumps(broken))
        _rejected(capsys, ["curate", "--data", FIXTURES / "train.jsonl", "--llm-fixture", out,
                           "--corpus", FIXTURES / "candidates.jsonl"], out / "out")


def test_lambda_above_one_warns_once_naming_the_config_line(tmp_path, small_run):
    data = small_run / "data"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("train", "--data", data / "train.jsonl", "--aux", data / "aux.jsonl",
                   "--epochs", "2", "--lambda-s", "1.5", "--out", tmp_path / "run") == 0
    assert len(caught) == 1, [str(w.message) for w in caught]
    (w,) = caught
    assert "lambda_s=1.5 > 1" in str(w.message)
    # the line of cli.py that built the RunConfig
    assert Path(w.filename) == Path(cli.__file__)
    assert "RunConfig(" in linecache.getline(w.filename, w.lineno)


class TestConfigResolution:
    def test_flag_beats_file_beats_default(self, tmp_path):
        data = tmp_path / "data"
        run("synth", "--out", data, *SMALL_SYNTH)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 4, "lr": 0.2}))
        out = tmp_path / "run"
        assert run("train", "--data", data / "train.jsonl", "--config", cfg,
                   "--lr", "0.4", "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 4       # from file
        assert manifest["config"]["lr"] == 0.4         # flag wins
        assert manifest["config"]["cap"] == 50         # default survives
        assert manifest["command"] == "train"

    @pytest.mark.parametrize("file_cfg", [
        {"lr": 1, "lambda_s": 1},  # an int stands for a float
        {"hidden_dim": 4, "aux": None},  # an unset setting may be written as null
        {"epochs": 2, "ratio": "1:1:3"},
    ])
    def test_config_values_of_default_type_accepted(self, tmp_path, file_cfg):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, **file_cfg}))
        out = tmp_path / "run"
        assert run("train", "--data", FIXTURES / "train.jsonl", "--config", cfg,
                   "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert {k: manifest["config"][k] for k in file_cfg} == file_cfg

    def test_manifest_rejected_by_other_command(self, tmp_path, capsys):
        data = tmp_path / "data"
        run("synth", "--out", data, *SMALL_SYNTH)
        # a synth manifest is not a train config
        code = run("train", "--data", data / "train.jsonl",
                   "--config", data / "manifest.json", "--out", tmp_path / "o")
        assert code == 2
        assert "manifest written by 'synth'" in capsys.readouterr().err

    def test_synth_names_attach_to_space(self, tmp_path):
        names = tmp_path / "names.json"
        names.write_text(json.dumps({str(i): f"class-{i}" for i in range(10)}))
        data = tmp_path / "data"
        assert run("synth", "--out", data, *SMALL_SYNTH, "--names", names) == 0
        _, space, _ = read_dataset(data / "train.jsonl")
        assert space.class_names[4] == "class-4"


def flag_values(base: Path) -> dict[str, dict]:
    """A value other than the default for every setting of every command;
    ``base`` is the small_run directory."""
    data = base / "data"
    return {
        "synth": {
            "num_classes": 10, "num_superclasses": 2, "feature_dim": 4,
            "profile": "pareto", "imbalance": 0.05, "alpha": 3.0, "max_count": 30,
            "test_per_class": 3, "sigma_super": 8.0, "sigma_fine": 2.0,
            "sigma_sample": 0.5, "aux_per_target": 1, "samples_per_aux": 5,
            "aux_offset": 2.0, "expand": "all", "names": str(base / "names.json"),
            "seed": 4,
        },
        "pilot": {
            "superclasses": "2", "imbalances": "0.5", "seeds": "1", "num_classes": 6,
            "feature_dim": 4, "max_count": 20, "test_per_class": 2, "sigma_fine": 2.0,
        },
        "curate": {
            "data": str(FIXTURES / "train.jsonl"), "llm_fixture": str(FIXTURES),
            "corpus": str(FIXTURES / "candidates.jsonl"), "k": 4, "gamma1": 0.6,
            "gamma2": 0.99, "expand": "all", "retries": 1, "jobs": 1, "seed": 2,
        },
        "train": {
            "data": str(data / "train.jsonl"), "aux": str(data / "aux.jsonl"),
            "seed": 3, "lambda_s": 0.2, "cap": 10, "ratio": "1:1:2", "epochs": 2,
            "batch_size": 16, "lr": 0.1, "hidden_dim": 4,
        },
        "eval": {
            "checkpoint": str(base / "run" / "checkpoint.json"),
            "test": str(data / "test.jsonl"), "data": str(data / "train.jsonl"),
            "mask_aux": False, "seed": 2,
        },
        "sweep": {
            "axis": "lambda_s", "values": "0.5", "seeds": "1", "num_classes": 6,
            "num_superclasses": 2, "feature_dim": 4, "max_count": 40,
            "imbalance": 0.1, "test_per_class": 2, "epochs": 1,
        },
    }


def readme_commands() -> list[str]:
    """Every `tailext ...` line of the README's sh blocks, continuation
    lines joined, and every inline `tailext ...` code span."""
    text = README.read_text()
    blocks = "\n".join(re.findall(r"```sh\n(.*?)```", text, flags=re.S))
    lines = [line.strip() for line in blocks.replace("\\\n", " ").splitlines()]
    return [line for line in lines if line.startswith("tailext ")] + re.findall(
        r"`(tailext [^`]+)`", text
    )


class TestGeneratedFlags:
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_every_setting_has_a_flag(self, tmp_path, capsys, small_run, command):
        _, table, _ = cli._COMMANDS[command]
        values = flag_values(small_run)[command]
        assert set(values) == set(table)
        argv = [command, "--out", tmp_path]
        for key, value in values.items():
            assert value != table[key], key
            flag = "--" + key.replace("_", "-")
            if isinstance(value, bool):
                argv.append(flag if value else "--no-" + flag[2:])
            else:
                argv += [flag, value]
        assert run(*argv) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"] == values

        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(command, "--help")
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        for key in table:
            assert "--" + key.replace("_", "-") in help_text, key

    @pytest.mark.parametrize("command", ["pilot", "sweep"])
    def test_seed_rejected_without_seed_setting(self, tmp_path, capsys, command):
        # neither command has a seed setting, and `--seed` is no prefix of `--seeds`
        with pytest.raises(SystemExit) as exc:
            run(command, "--seed", "1", "--out", tmp_path)
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_readme_commands_parse(self):
        commands = readme_commands()
        parser = build_parser()
        for line in commands:
            try:
                parser.parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")
        assert {shlex.split(line)[1] for line in commands} == {
            "synth", "pilot", "curate", "train", "eval", "sweep", "report"
        }
