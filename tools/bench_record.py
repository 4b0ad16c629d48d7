"""Summarise perfbench results into BENCH_<label>.json at the repository root.

Run from the repository root after some ``perfbench/run.py`` runs:

    python3 tools/bench_record.py --label baseline
    python3 tools/bench_record.py --label parent --root ../parent-checkout

Reads the result records under <root>/.bench_work/results whose source
digest matches the src/ tree of <root> (so records left by other versions of
the code are skipped), and writes, per workload, the median and the
interquartile range of setup_s, wall_s and peak_rss_mb over the untraced
runs, and the median of every per-layer metric over the traced runs, with
the machine record the runs reported.

Compare two such summaries, the parent's first:

    python3 tools/bench_record.py --compare BENCH_x_parent.json BENCH_x.json

For each workload and end-to-end metric (all lower-is-better) it prints both
medians and quartiles, in how many runs paired by seed the change was lower
and higher (ties count for neither), and whether the gap between the
medians exceeds the parent's interquartile range.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))
from machine import source_digest  # noqa: E402

END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")


def spread(values: list[float]) -> dict:
    """Median, quartiles and IQR of the values, with the values themselves."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def summarise(records: list[dict]) -> dict:
    """The per-workload summary of result records of one source version."""
    workloads: dict[str, dict] = {}
    for rec in sorted(records, key=lambda r: (r["workload"], r["seed"])):
        w = workloads.setdefault(rec["workload"], {"untraced": [], "traced": []})
        w["traced" if rec["trace"] else "untraced"].append(rec)
    out = {}
    for name, runs in sorted(workloads.items()):
        entry: dict = {
            "runs": len(runs["untraced"]),
            "seeds": [r["seed"] for r in runs["untraced"]],
            "failed": sum(r["result"]["failed"] for r in runs["untraced"]),
            "attempted": sum(r["result"]["attempted"] for r in runs["untraced"]),
        }
        if runs["untraced"]:
            entry["end_to_end"] = {
                m: spread([r["result"]["metrics"][m]["value"] for r in runs["untraced"]])
                for m in END_TO_END
            }
        if runs["traced"]:
            entry["traced_runs"] = len(runs["traced"])
            names = runs["traced"][0]["result"]["metrics"]
            entry["per_layer"] = {
                m: statistics.median(
                    r["result"]["metrics"][m]["value"] for r in runs["traced"]
                )
                for m in names
            }
        out[name] = entry
    return out


def compare(parent: dict, change: dict) -> list[dict]:
    """Per workload both summaries ran and per end-to-end metric: the two
    spreads, the runs paired by seed, and the pairs in which the change was
    lower and higher."""
    rows = []
    for name in sorted(parent["workloads"].keys() & change["workloads"].keys()):
        before, after = parent["workloads"][name], change["workloads"][name]
        if "end_to_end" not in before or "end_to_end" not in after:
            continue
        for metric in END_TO_END:
            p, c = before["end_to_end"][metric], after["end_to_end"][metric]
            p_by_seed = dict(zip(before["seeds"], p["values"]))
            pairs = [(p_by_seed[seed], v) for seed, v in zip(after["seeds"], c["values"])
                     if seed in p_by_seed]
            rows.append({
                "workload": name, "metric": metric, "parent": p, "change": c,
                "pairs": len(pairs),
                "lower": sum(v < u for u, v in pairs),
                "higher": sum(v > u for u, v in pairs),
                "gap_exceeds_iqr": abs(c["median"] - p["median"]) > p["iqr"],
            })
    return rows


def _compare_line(row: dict) -> str:
    p, c = row["parent"], row["change"]
    verdict = "exceeds" if row["gap_exceeds_iqr"] else "within"
    return (f"{row['workload']} {row['metric']}: parent {p['median']:.4g} "
            f"[{p['q1']:.4g}, {p['q3']:.4g}], change {c['median']:.4g} "
            f"[{c['q1']:.4g}, {c['q3']:.4g}]; lower in {row['lower']} of {row['pairs']} "
            f"pairs, higher in {row['higher']}; median gap {c['median'] - p['median']:+.4g} "
            f"{verdict} the parent IQR {p['iqr']:.4g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--label", help="writes BENCH_<label>.json")
    mode.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"),
                      help="prints how two BENCH_*.json summaries compare")
    ap.add_argument("--root", type=Path, default=REPO,
                    help="checkout whose src/ and .bench_work/results are summarised")
    args = ap.parse_args(argv)

    if args.compare:
        parent, change = (json.loads(path.read_text()) for path in args.compare)
        for row in compare(parent, change):
            print(_compare_line(row))
        return 0
    if not args.label.replace("_", "").replace("-", "").isalnum():
        print(f"--label must be letters, digits, '_' or '-', got {args.label!r}",
              file=sys.stderr)
        return 2
    digest = source_digest(args.root)
    records = []
    for path in sorted((args.root / ".bench_work" / "results").glob("*.json")):
        rec = json.loads(path.read_text())
        if rec["machine"]["src_sha256"] == digest:
            records.append(rec)
    if not records:
        print(f"no results for src sha256 {digest} under {args.root}", file=sys.stderr)
        return 1
    machine = records[-1]["machine"]
    summary = {"label": args.label, "machine": machine, "workloads": summarise(records)}
    target = REPO / f"BENCH_{args.label}.json"
    target.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"wrote {target.name}: {len(records)} results")
    return 0


if __name__ == "__main__":
    sys.exit(main())
