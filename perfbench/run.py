"""Outside-in benchmark of tailext: the CLI pipeline, the pilot grid and the
MLP ablation, timed end to end, with a traced run for per-layer timings.

Run from the repository root:

    python3 perfbench/run.py --workload cli_pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload pilot_grid --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke      # tiny sizes: every metric and check

Each iteration runs in a fresh interpreter (worker.py) that imports tailext
from ./src, generates its inputs from the seed, runs the workload's steps and
checks their outputs. Iterations repeat until --seconds have passed; the run
reports medians. With --trace 0 it prints the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer metrics, taken from traced
iterations that alternate with untraced ones so the tracing overhead is
measured too. The last line of stdout is the JSON result.

Runs leave their results (with the machine record), traces and the
determinism digests under ./.bench_work.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the workloads are single-client loops over small
# matrices, where a second BLAS thread costs more than it gains and makes
# timings depend on what else the machine runs. Set before numpy loads, so
# the workers inherit it and the machine record reports it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 3
RUN_BUDGET_S = 160.0  # a run must exit within 180 s
SMOKE_SEED = 0

sys.path.insert(0, str(HERE))
from machine import describe, source_digest  # noqa: E402


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, scale: str, trace: bool, tag: str,
          timeout: float, setup_only: bool = False) -> dict | None:
    """Run one iteration in a fresh interpreter; None if it crashed."""
    itdir = WORK / f"{workload}-{seed}-{os.getpid()}-{tag}"
    shutil.rmtree(itdir, ignore_errors=True)
    itdir.mkdir(parents=True)
    result_path = itdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--scale", scale,
           "--trace", str(int(trace)), "--workdir", str(itdir),
           "--result", str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-{scale}-seed{seed}-{tag}.json")]
    log_path = itdir / "worker.log"
    try:
        with log_path.open("wb") as log:
            spawned_at = _now()
            proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)],
                                    stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
            try:
                proc.wait(timeout=max(1.0, timeout))
            except subprocess.TimeoutExpired:
                pass
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode == 0 and result_path.exists():
            return json.loads(result_path.read_text())
        tail = log_path.read_text(errors="replace")[-2000:]
        print(f"worker {workload}/{tag} exited {proc.returncode}:\n{tail}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(itdir, ignore_errors=True)


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def layer_value(name: str, result: dict) -> float:
    """A per-layer metric from one traced iteration: a counter, a value the
    workload computed, or a span aggregate (<span>.s, .calls, .self_s).
    A layer the iteration never entered reads 0."""
    for source in ("counters", "values"):
        if name in result.get(source, {}):
            return result[source][name] or 0.0
    span, _, field = name.rpartition(".")
    if field in ("s", "calls", "self_s"):
        return result.get("layers", {}).get(span, {}).get(field, 0.0)
    return 0.0


class Tally:
    """Attempts, failures and messages across the iterations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, ok: bool, note: str | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if note:
                self.notes.append(note)

    def absorb(self, result: dict | None, label: str) -> None:
        if result is None:
            self.add(False, f"{label}: worker crashed")
            return
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.notes += [f"{label}: {e}" for e in result["errors"]]


def check_determinism(tally: Tally, workload: str, seed: int, scale: str,
                      results: list[dict]) -> None:
    """Outputs of one seed and one code version must not change: across the
    iterations of this run, and against earlier runs in this checkout."""
    digests = [r["digests"] for r in results if r and r.get("digests")]
    if not digests:
        return
    if len(digests) > 1:
        same = all(d == digests[0] for d in digests)
        tally.add(same, "outputs differ between iterations of the same seed")
    import numpy

    # the inputs come from the benchmark's code, the outputs from the program's
    key = "|".join([workload, scale, str(seed), source_digest(ROOT),
                    source_digest(ROOT, HERE.name), numpy.__version__])
    store_path = WORK / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    if key in store:
        tally.add(store[key] == digests[0], "outputs differ from an earlier run of this seed")
    else:
        store[key] = digests[0]
        tmp = store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        os.replace(tmp, store_path)


def trace_findings(workload: str, result: dict) -> list[str]:
    """Wrap sites that no longer exist, layers silent where the workload
    should use them, and bypassed layers that recorded calls."""
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    layers = result.get("layers", {})
    found = [f"wrap site missing: {m}" for m in result.get("missing", [])]
    found += [f"zero calls where work is expected: {n}"
              for n in sorted(spec.busy) if not layers.get(n, {}).get("calls")]
    found += [f"calls on a bypassed layer: {n}"
              for n in sorted(spec.bypassed) if layers.get(n, {}).get("calls")]
    return found


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str):
    """Iterate until ``seconds`` have passed; return (untraced, traced,
    setup samples)."""
    start = _now()
    untraced: list[dict | None] = []
    traced: list[dict | None] = []
    durations: list[float] = []
    i = 0
    while True:
        for is_traced in ((False, True) if trace else (False,)):
            t0 = _now()
            remaining = RUN_BUDGET_S - (t0 - start)
            res = spawn(workload, seed, scale, is_traced, f"i{i}", remaining)
            (traced if is_traced else untraced).append(res)
            durations.append(_now() - t0)
            i += 1
        elapsed = _now() - start
        rounds = len(untraced)
        if elapsed >= seconds:
            break
        if elapsed + elapsed / rounds > RUN_BUDGET_S:
            break
    setups = [r["setup_s"] for r in untraced if r]
    if not trace:
        setup_cost = min(durations) * 0.5
        while len(setups) < SETUP_SAMPLES and _now() - start + setup_cost < RUN_BUDGET_S:
            res = spawn(workload, seed, scale, False, f"s{i}",
                        RUN_BUDGET_S - (_now() - start), setup_only=True)
            i += 1
            if res is None:
                break
            setups.append(res["setup_s"])
    return untraced, traced, setups


def summarize(spec: dict, workload: str, seed: int, scale: str, untraced, traced,
              setups, strict_trace: bool):
    """Tally checks and compute the end-to-end and per-layer metrics."""
    tally = Tally()
    for n, r in enumerate(untraced):
        tally.absorb(r, f"iteration {n}")
    for n, r in enumerate(traced):
        tally.absorb(r, f"traced iteration {n}")
    check_determinism(tally, workload, seed, scale, untraced + traced)
    ok_untraced = [r for r in untraced if r]
    ok_traced = [r for r in traced if r]

    findings = []
    for r in ok_traced:
        findings += trace_findings(workload, r)
    findings = sorted(set(findings))
    if strict_trace:
        for f in findings:
            tally.add(False, f)

    wall = _median(r["wall_s"] for r in ok_untraced)
    e2e = {
        "setup_s": _median(setups),
        "wall_s": wall,
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in ok_untraced),
    }
    per_layer = {}
    if ok_traced:
        traced_wall = _median(r["wall_s"] for r in ok_traced)
        for m in spec["per_layer"]:
            per_layer[m["name"]] = _median(layer_value(m["name"], r) for r in ok_traced)
        per_layer["trace.wall_s"] = traced_wall
        per_layer["trace.overhead"] = traced_wall / wall if wall and traced_wall else None
        per_layer["trace.missing_sites"] = len(
            {m for r in ok_traced for m in r.get("missing", [])})
        per_layer["trace.unexpected_layers"] = len(
            [f for f in findings if not f.startswith("wrap site missing")])
    steps = {}
    for r in ok_untraced:
        for name, s in r["steps"].items():
            steps.setdefault(name, []).append(s)
    info = {
        "iterations": len(untraced),
        "traced_iterations": len(traced),
        "setup_samples": len(setups),
        "step_s": {k: statistics.median(v) for k, v in steps.items()},
        "values": {k: _median(r["values"].get(k) for r in ok_untraced)
                   for k in ("quality.few_acc", "quality.head_tail_gap",
                             "cli.train.samples_per_s", "curation.kept_ratio")},
        "error_rate": tally.failed / tally.attempted if tally.attempted else None,
        "trace_findings": findings,
    }
    return tally, e2e, per_layer, info


def _metrics_block(entries: list[dict], values: dict) -> dict | None:
    block = {}
    for m in entries:
        v = values.get(m["name"])
        if v is None:
            return None
        block[m["name"]] = {"value": v, "unit": m["unit"]}
    return block


def smoke(spec: dict) -> int:
    """Every workload at tiny size: two plain iterations and a traced one.
    Prints each metric with its unit; fails on any check or trace finding."""
    from workloads import WORKLOADS

    ok = True
    for workload in WORKLOADS:
        untraced = [spawn(workload, SMOKE_SEED, "tiny", False, f"smoke{k}", 60)
                    for k in range(2)]
        traced = [spawn(workload, SMOKE_SEED, "tiny", True, "smoke-t", 60)]
        setups = [r["setup_s"] for r in untraced if r]
        tally, e2e, per_layer, info = summarize(
            spec, workload, SMOKE_SEED, "tiny", untraced, traced, setups, strict_trace=True)
        print(f"== {workload}: attempted {tally.attempted}, failed {tally.failed}")
        for m in spec["end_to_end"]:
            print(f"  {m['name']:<34} {e2e.get(m['name'])!s:>24} {m['unit']}")
        for m in spec["per_layer"]:
            print(f"  {m['name']:<34} {per_layer.get(m['name'])!s:>24} {m['unit']}")
        for note in tally.notes:
            print(f"  FAILED {note}")
        ok = ok and tally.failed == 0 and None not in e2e.values()
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tailext" / "__init__.py").is_file():
        print(f"no tailext sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    if args.smoke:
        return smoke(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"--workload must be one of {names}", file=sys.stderr)
        return 2

    header = {"machine": describe(ROOT), "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds or spec["run_seconds"], "trace": args.trace}
    print(json.dumps(header))
    untraced, traced, setups = measure(args.workload, args.seed, header["seconds"],
                                       bool(args.trace), "full")
    tally, e2e, per_layer, info = summarize(spec, args.workload, args.seed, "full",
                                            untraced, traced, setups, strict_trace=False)
    print(json.dumps({"info": info}))
    for note in tally.notes:
        print(f"FAILED {note}", file=sys.stderr)
    entries = spec["per_layer"] if args.trace else spec["end_to_end"]
    block = _metrics_block(entries, per_layer if args.trace else e2e)
    if block is None:
        print("no successful iteration to measure", file=sys.stderr)
        return 1
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": block}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    record = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    record.write_text(json.dumps({**header, "info": info, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
