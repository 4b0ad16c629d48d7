"""CLI behavior: command chains, determinism, config resolution, exit codes.

Everything drives main() in process with argv lists; no subprocesses needed.
"""
import csv
import json
import re
import shlex
import shutil
from pathlib import Path

import pytest

from tailext import cli, experiments
from tailext.cli import build_parser, main
from tailext.core import DataError, DivergenceError, read_dataset
from tailext.model import load_checkpoint

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


def _report(text):
    def build(tmp_path):
        rep = tmp_path / "report.json"
        rep.write_text(text)
        return ["report", rep]
    return build


MALFORMED_JSON_INPUTS = {
    "sidecar-not-json": _bad_sidecar,
    "ragged-feature-rows": _ragged_rows,
    "manifest-not-utf8": _not_utf8,
    "checkpoint-not-json": _checkpoint('{"format_version": 1'),
    "checkpoint-missing-keys": _checkpoint('{"format_version": 1, "bias": [0.0]}'),
    "report-not-json": _report("[1, 2"),
    "report-missing-keys": _report('{"overall_acc": 50.0}'),
}


# (key, edit) pairs: each edit turns one corpus record's value of key into
# one that curate must reject at load
BAD_CORPUS_RECORDS = {
    "features-text": ("features", lambda f: "abc"),
    "features-nested": ("features", lambda f: [[v] for v in f]),
    "features-non-numeric": ("features", lambda f: ["x", *f[1:]]),
    "features-wrong-dim": ("features", lambda f: f[:-1]),
    "features-all-nan": ("features", lambda f: [float("nan")] * len(f)),
    "class-not-string": ("class", lambda v: 7),
    "caption-not-string": ("caption", lambda v: 7),
    "image-ref-not-string": ("image_ref", lambda v: None),
}


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"bogus_key": 1}')
        code = run("train", "--config", bad, "--data", "x.jsonl")
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert run("train", "--data", FIXTURES / "train.jsonl",
                   "--ratio", "1:2", "--out", tmp_path / "o") == 2
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

    @pytest.mark.parametrize("names", [None, '{"0": "cat",', '{"zero": "cat"}'])
    def test_bad_names_file_is_3(self, tmp_path, capsys, names):
        path = tmp_path / "names.json"
        if names is not None:
            path.write_text(names)
        assert run("synth", "--out", tmp_path / "data", *SMALL_SYNTH,
                   "--names", path) == 3
        assert "names file" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [
        ("train", "gamma1"), ("train", "gamma2"), ("pilot", "jobs"), ("sweep", "jobs"),
    ])
    def test_manifest_with_removed_key_is_2(self, tmp_path, capsys, command, key):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"command": command, "version": "0.1.0", "config": {"seed": 0, key: 1}}
        ))
        assert run(command, "--config", manifest, "--out", tmp_path / "o") == 2
        assert f"'{key}'" in capsys.readouterr().err

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

    def test_non_finite_checkpoint_is_3(self, tmp_path, capsys, small_run):
        payload = json.loads((small_run / "run" / "checkpoint.json").read_text())
        payload["bias"][1] = float("inf")
        ck = tmp_path / "checkpoint.json"
        ck.write_text(json.dumps(payload))
        assert run("eval", "--checkpoint", ck, "--test",
                   small_run / "data" / "test.jsonl", "--out", tmp_path / "o") == 3
        assert "non-finite weights or biases" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--lr", "1e9"], ["--optimizer", "adamw", "--lr", "1e3"]])
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
        pytest.param(["--weight-decay", "-0.1"], "weight_decay", True, id="weight-decay-negative"),
        pytest.param(["--weight-decay", "nan"], "weight_decay", True, id="weight-decay-nan"),
        pytest.param(["--momentum", "-0.1"], "momentum", True, id="momentum-negative"),
        pytest.param(["--momentum", "1"], "momentum", True, id="momentum-one"),
        pytest.param(["--momentum", "nan"], "momentum", True, id="momentum-nan"),
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

    def test_synth_expand_checked_without_auxiliary_data(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert run("synth", "--out", out, *SMALL_SYNTH, "--expand", "bogus") == 2
        assert "unknown split names ['bogus']" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_curate_without_retriever_is_2(self, tmp_path):
        assert run("curate", "--data", FIXTURES / "train.jsonl",
                   "--llm-fixture", FIXTURES, "--out", tmp_path / "o") == 2

    @pytest.mark.parametrize("case", sorted(BAD_CORPUS_RECORDS))
    def test_bad_corpus_record_is_3(self, tmp_path, capsys, case):
        key, edit = BAD_CORPUS_RECORDS[case]
        lines = (FIXTURES / "candidates.jsonl").read_text().splitlines()
        record = json.loads(lines[2])
        record[key] = edit(record[key])
        lines[2] = json.dumps(record)
        corpus = tmp_path / "candidates.jsonl"
        corpus.write_text("\n".join(lines) + "\n")
        assert run("curate", "--data", FIXTURES / "train.jsonl", "--llm-fixture",
                   FIXTURES, "--corpus", corpus, "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert "data error" in err and "bad corpus record at line 3" in err

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
        {"lr": 1, "momentum": 0, "lambda_s": 1},  # an int stands for a float
        {"hidden_dim": 4, "aux": None},  # an unset setting may be written as null
        {"epochs": 2, "ratio": "1:1:3", "optimizer": "adamw"},
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
            "batch_size": 16, "lr": 0.1, "optimizer": "adamw", "momentum": 0.5,
            "weight_decay": 0.01, "hidden_dim": 4,
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
