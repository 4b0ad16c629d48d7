"""The three benchmark workloads: inputs from a seed, timed steps, checks.

Each workload is a single-process closed loop: one client runs its steps
back to back through the public entry points (``tailext.cli.main`` and
``tailext.experiments``), in the interpreter the worker started fresh.

- cli_pipeline: the user path synth -> curate -> train -> eval. The only
  workload with JSONL/checkpoint I/O and with curation.
- pilot_grid: ``tailext pilot`` over a 2x2 granularity/imbalance grid. Target
  classes and balanced CE only: it bypasses I/O, curation, sampling and the
  silencing loss.
- ablation_mlp: the A5 ablation experiment on the one-hidden-layer config. The
  only workload that trains a hidden layer and runs the linear probe.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from curation_inputs import check_report, make_curation_inputs

# Benchmark geometry of the CLI path, and a tiny one for the smoke test.
CLI_GEOMETRY = {
    "full": dict(num_classes=100, num_superclasses=10, feature_dim=64, max_count=300,
                 imbalance=0.01, test_per_class=100, names_per_target=5,
                 records_per_name=120, extra_train=[]),
    "tiny": dict(num_classes=12, num_superclasses=3, feature_dim=8, max_count=150,
                 imbalance=0.02, test_per_class=10, names_per_target=5,
                 records_per_name=8, extra_train=["--epochs", "10"]),
}
PILOT_GEOMETRY = {
    "full": dict(superclasses="5,25", num_classes=100, feature_dim=64, max_count=300,
                 test_per_class=100, sigma_fine=2.5),
    "tiny": dict(superclasses="2,4", num_classes=12, feature_dim=8, max_count=60,
                 test_per_class=10, sigma_fine=2.5),
}
ABLATION_GEOMETRY = {
    "full": dict(overrides={}, geometry={}),
    "tiny": dict(overrides=dict(epochs=10, hidden_dim=16),
                 geometry=dict(num_classes=12, num_superclasses=3, feature_dim=8,
                               max_count=150, imbalance=0.02, test_per_class=10,
                               per_target=2, samples_per_aux=20)),
}
# synth settings the curation inputs are generated against; passed to
# `tailext synth` as flags so a change of its defaults cannot desynchronize them
SYNTH_SPREADS = dict(sigma_super=10.0, sigma_fine=2.5, sigma_sample=1.0)
ACCURACY_KEYS = ("overall_acc", "many_acc", "medium_acc", "few_acc", "head_tail_gap",
                 "balanced_error_sum", "balanced_error_mean")


class Steps:
    """Runs and times the steps of one iteration, counting attempts and
    failures; opens a span per step when a tracer is given."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_start: float | None = None
        self.last_end: float | None = None

    def run(self, name: str, fn):
        """Run one step; returns (ok, value). A failure is recorded, never
        raised, so the iteration still reports."""
        self.attempted += 1
        span = self.tracer.span(name) if self.tracer else nullcontext()
        start = time.perf_counter()
        if self.first_start is None:
            self.first_start = start
        try:
            with span:
                value = fn()
        except (Exception, SystemExit):  # the step's failure is the result
            self.failed += 1
            self.errors.append(f"{name}: {traceback.format_exc(limit=3)}")
            return False, None
        finally:
            self.last_end = time.perf_counter()
            self.seconds[name] = self.last_end - start
        return True, value

    def cli(self, name: str, argv: list[str]) -> bool:
        from tailext import cli

        ok, code = self.run(name, lambda: cli.main(argv))
        if ok and code != 0:
            self.failed += 1
            self.errors.append(f"{name}: exit code {code}")
            return False
        return ok

    def skip(self, names: list[str]) -> None:
        """Steps that cannot run because an earlier one failed."""
        self.attempted += len(names)
        self.failed += len(names)
        self.errors.extend(f"{n}: skipped after an earlier failure" for n in names)

    def check(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.extend(f"check {name}: {p}" for p in problems)

    @property
    def wall_s(self) -> float:
        return self.last_end - self.first_start


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _report_problems(report: dict, label: str) -> list[str]:
    """Every accuracy must be finite; few_acc must be present."""
    problems = []
    for key in ACCURACY_KEYS:
        value = report.get(key)
        if value is None:
            if key == "few_acc":
                problems.append(f"{label}: few_acc missing")
            continue
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {key} = {value!r} is not finite")
    return problems


@dataclass
class Context:
    workdir: Path
    seed: int
    scale: str
    plan: dict | None = None


# ------------------------------------------------------------- cli_pipeline


def cli_setup(workdir: Path, seed: int, scale: str) -> Context:
    import numpy as np
    from tailext.synth import CountProfile, HierarchySpec, make_counts, make_hierarchy

    g = CLI_GEOMETRY[scale]
    counts = make_counts(
        CountProfile("exponential", g["num_classes"], g["max_count"],
                     imbalance=g["imbalance"]), seed)
    spec = HierarchySpec(num_superclasses=g["num_superclasses"],
                         num_classes=g["num_classes"], feature_dim=g["feature_dim"],
                         **SYNTH_SPREADS)
    train_ds, _ = make_hierarchy(spec, counts, seed, g["test_per_class"])
    plan = make_curation_inputs(
        workdir / "inputs", seed, np.asarray(train_ds.features),
        np.asarray(train_ds.labels), g["num_classes"],
        names_per_target=g["names_per_target"], records_per_name=g["records_per_name"])
    return Context(workdir, seed, scale, plan)


def cli_run(ctx: Context, steps: Steps) -> dict:
    g = CLI_GEOMETRY[ctx.scale]
    w, seed = ctx.workdir, str(ctx.seed)
    inputs, data, cur, run, scores = (w / d for d in ("inputs", "data", "curated", "run", "scores"))
    order = ["cli.synth", "cli.curate", "cli.train", "cli.eval"]
    argvs = {
        "cli.synth": [
            "synth", "--num-classes", str(g["num_classes"]),
            "--num-superclasses", str(g["num_superclasses"]),
            "--feature-dim", str(g["feature_dim"]), "--profile", "exponential",
            "--max-count", str(g["max_count"]), "--imbalance", str(g["imbalance"]),
            "--test-per-class", str(g["test_per_class"]),
            "--sigma-super", str(SYNTH_SPREADS["sigma_super"]),
            "--sigma-fine", str(SYNTH_SPREADS["sigma_fine"]),
            "--sigma-sample", str(SYNTH_SPREADS["sigma_sample"]),
            "--names", str(inputs / "names.json"), "--seed", seed, "--out", str(data)],
        "cli.curate": [
            "curate", "--data", str(data / "train.jsonl"), "--llm-fixture", str(inputs),
            "--corpus", str(inputs / "corpus.jsonl"),
            "--jobs", str(min(2, len(os.sched_getaffinity(0)))), "--seed", seed, "--out", str(cur)],
        "cli.train": [
            "train", "--data", str(data / "train.jsonl"), "--aux", str(cur / "aux.jsonl"),
            "--ratio", "1:1:3", "--seed", seed, "--out", str(run), *g["extra_train"]],
        "cli.eval": [
            "eval", "--checkpoint", str(run / "checkpoint.json"),
            "--test", str(data / "test.jsonl"), "--data", str(data / "train.jsonl"),
            "--seed", seed, "--out", str(scores)],
    }
    for i, name in enumerate(order):
        if not steps.cli(name, argvs[name]):
            steps.skip(order[i + 1:])
            return {}

    out: dict = {"digests": {}}
    curation = json.loads((cur / "curation_report.json").read_text())
    steps.check("curation_report", check_report(curation, ctx.plan))
    per_target = curation.get("per_target", {}).values()
    retrieved = sum(t.get("retrieved", 0) for t in per_target)
    kept = sum(t.get("kept", 0) for t in per_target)
    report = json.loads((scores / "report.json").read_text())
    problems = _report_problems(report, "report.json")
    if report.get("num_samples") != g["num_classes"] * g["test_per_class"]:
        problems.append(f"report.json scored {report.get('num_samples')} samples")
    steps.check("eval_report", problems)
    log = json.loads((run / "train_log.json").read_text())
    mixed = sum(e["mixed_size"] for e in log["epochs"])
    for name in ("run/checkpoint.json", "run/train_log.json", "scores/report.json"):
        out["digests"][name] = _digest(w / name)
    out["values"] = {
        "quality.head_tail_gap": report.get("head_tail_gap"),
        "quality.few_acc": report.get("few_acc"),
        "cli.train.samples_per_s": mixed / steps.seconds["cli.train"],
        "curation.kept_ratio": kept / retrieved if retrieved else 0.0,
    }
    return out


# --------------------------------------------------------------- pilot_grid


def pilot_run(ctx: Context, steps: Steps) -> dict:
    g = PILOT_GEOMETRY[ctx.scale]
    out_dir = ctx.workdir / "pilot"
    argv = [
        "pilot", "--superclasses", g["superclasses"], "--imbalances", "1.0,0.01",
        "--seeds", f"{2 * ctx.seed},{2 * ctx.seed + 1}",
        "--num-classes", str(g["num_classes"]), "--feature-dim", str(g["feature_dim"]),
        "--max-count", str(g["max_count"]), "--test-per-class", str(g["test_per_class"]),
        "--sigma-fine", str(g["sigma_fine"]), "--out", str(out_dir)]
    if not steps.cli("cli.pilot", argv):
        return {}
    lines = (out_dir / "pilot.csv").read_text().splitlines()
    problems = []
    if lines[0] != "num_superclasses,imbalance,mean_gap,std_gap,num_seeds" or len(lines) != 5:
        problems.append(f"pilot.csv has an unexpected layout: {lines[:2]!r}")
    imbalanced_gaps = []
    for line in lines[1:]:
        _s, imbalance, mean_gap, std_gap, num_seeds = line.split(",")
        if not (math.isfinite(float(mean_gap)) and math.isfinite(float(std_gap))):
            problems.append(f"non-finite gap in {line!r}")
        if num_seeds != "2":
            problems.append(f"cell {line!r} did not run both seeds")
        if float(imbalance) < 1.0:
            imbalanced_gaps.append(float(mean_gap))
    steps.check("pilot_csv", problems)
    return {
        "digests": {n: _digest(out_dir / n) for n in ("pilot.csv", "pilot_runs.csv")},
        "values": {"quality.head_tail_gap": sum(imbalanced_gaps) / max(1, len(imbalanced_gaps))},
    }


# ------------------------------------------------------------- ablation_mlp


def ablation_run(ctx: Context, steps: Steps) -> dict:
    from tailext import experiments

    g = ABLATION_GEOMETRY[ctx.scale]
    cfg = experiments.MLP_CONFIG.with_overrides(**g["overrides"])
    ok, cell = steps.run(
        "experiments.run_ablation_cell",
        lambda: experiments.run_ablation_cell(ctx.seed, cfg, **g["geometry"]))
    if not ok:
        return {}
    reports = {k: cell[k].to_json() for k in ("lambda_0.1", "lambda_1.0", "probe")}
    problems = []
    for label, rep in reports.items():
        problems += _report_problems(rep, label)
    steps.check("ablation_reports", problems)
    blob = json.dumps(reports, sort_keys=True).encode()
    return {
        "digests": {"ablation_reports": hashlib.sha256(blob).hexdigest()},
        "values": {
            "quality.head_tail_gap": reports["lambda_0.1"]["head_tail_gap"],
            "quality.few_acc": reports["lambda_0.1"]["few_acc"],
        },
    }


def _no_setup(workdir: Path, seed: int, scale: str) -> Context:
    return Context(workdir, seed, scale)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Path, int, str], Context]
    run: Callable[[Context, Steps], dict]
    # span names that must record calls on this workload, and those the
    # workload bypasses, which must record none
    busy: frozenset
    bypassed: frozenset


_CORE = {"core.read_dataset", "core.write_dataset", "model.save_checkpoint",
         "model.load_checkpoint"}
_CURATION = {"curation.curate", "curation.query_neighbors", "curation.llm",
             "curation.retriever_load", "curation.retrieve", "curation.filter_candidates"}

WORKLOADS = {
    "cli_pipeline": Workload(
        cli_setup, cli_run,
        busy=frozenset(_CORE | _CURATION | {
            "synth.make_hierarchy", "sampling.sample_epoch", "losses.ns_ce_batch",
            "model.train", "model.predict_batch", "metrics.evaluate",
            "cli.synth", "cli.curate", "cli.train", "cli.eval"}),
        bypassed=frozenset({"experiments.run_pilot_cell", "model.linear_probe_retrain",
                            "synth.make_auxiliary", "experiments.run_ablation_cell"}),
    ),
    "pilot_grid": Workload(
        _no_setup, pilot_run,
        busy=frozenset({"cli.pilot", "experiments.run_pilot_cell", "synth.make_hierarchy",
                        "model.train", "losses.bal_ce_batch", "metrics.evaluate",
                        "model.predict_batch"}),
        bypassed=frozenset(_CORE | _CURATION | {
            "losses.ns_ce_batch", "sampling.sample_epoch", "model.linear_probe_retrain",
            "synth.make_auxiliary"}),
    ),
    "ablation_mlp": Workload(
        _no_setup, ablation_run,
        busy=frozenset({"experiments.run_ablation_cell", "synth.make_hierarchy",
                        "synth.make_auxiliary", "model.train", "sampling.sample_epoch",
                        "losses.ns_ce_batch", "losses.bal_ce_batch",
                        "model.linear_probe_retrain", "metrics.evaluate",
                        "model.predict_batch"}),
        bypassed=frozenset(_CORE | _CURATION | {"experiments.run_pilot_cell"}),
    ),
}
