"""One iteration of one workload, in the fresh interpreter run.py starts.

Set-up (interpreter start, imports, input generation) is timed from the
moment the parent spawned this process; then the workload's steps run, with
the tracer installed when ``--trace 1``. The result is written as JSON to
``--result``; the program's own prints go to this process's stdout.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    src = Path(args.root) / "src"
    sys.path.insert(0, str(src))
    import tailext

    if not Path(tailext.__file__).resolve().is_relative_to(src.resolve()):
        print(f"imported tailext from {tailext.__file__}, not {src}", file=sys.stderr)
        return 3
    from workloads import WORKLOADS, Steps

    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    ctx = workload.setup(workdir, args.seed, args.scale)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    result: dict = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(f"{args.workload}-{args.seed}-{workdir.name}")
        tracing.install(tracer)
    steps = Steps(tracer)
    try:
        out = workload.run(ctx, steps)
    except Exception:  # a check that could not even read its input
        out = {}
        steps.check("outputs", [traceback.format_exc(limit=3)])
    result.update(
        wall_s=steps.wall_s if steps.first_start is not None else None,
        steps=steps.seconds,
        attempted=steps.attempted,
        failed=steps.failed,
        errors=steps.errors,
        digests=out.get("digests", {}),
        values=out.get("values", {}),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        result["layers"] = tracer.layers()
        result["counters"] = dict(tracer.counters)
        result["missing"] = list(tracer.missing)
        if args.trace_out:
            Path(args.trace_out).write_text(json.dumps(tracer.to_json()))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
