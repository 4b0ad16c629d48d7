"""Seeded curation inputs for the cli_pipeline workload.

From a seed and the target prototypes this writes the three inputs of
``tailext curate``: the class-name file for ``synth --names``, the recorded
LLM responses, and a candidate corpus whose every record lands in a planned
outcome (kept, caption, similarity-low, similarity-high). It returns the
curation report the program must produce. The responses carry the same
hazards as the committed test fixture: self-leaks, leaks of other targets,
duplicate names, over-long replies and a name with no corpus records.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

KEPT, CAPTION, LOW, HIGH = "kept", "caption", "similarity-low", "similarity-high"
REJECTIONS = (CAPTION, LOW, HIGH)
# keep band of `tailext curate` at its defaults (gamma1 0.7, gamma2 0.98);
# planned cosines stay well clear of both edges
COSINE_RANGES = {KEPT: (0.73, 0.96), LOW: (-0.3, 0.66), HIGH: (0.984, 0.999)}
NAMED_CAPTIONS = (
    "photo of a {name} outdoors",
    "A  Fluffy   {NAME} resting",
    "close-up of one {name}, studio light",
)
UNNAMED_CAPTION = "a cute picture, no label given"
DECOYS_PER_LEAK = 3

_ADJECTIVES = (
    "amber azure brisk coral dusky ember fallow gilded hoary ivory jade "
    "khaki lilac marbled nacre ochre pallid quartz russet sable tawny "
    "umber vivid woad ashen bronze cobalt dappled"
).split()
_NOUNS = (
    "bittern condor dunnock egret finch grebe harrier ibis jacana kite "
    "linnet merlin nightjar oriole pipit quail rail siskin tern vireo "
    "warbler wren yellowlegs zitting"
).split()

SCENARIOS = ("self_leak", "other_leak", "duplicate", "overlong", "no_records",
             "all_rejected_name", "empty_target")


def _name_pool(rng: np.random.Generator) -> list[str]:
    pool = [f"{a} {n}" for a in _ADJECTIVES for n in _NOUNS]
    return [pool[i] for i in rng.permutation(len(pool))]


def _odd_case(name: str, rng: np.random.Generator) -> str:
    """Reply spelling the parser must normalize: case and spacing vary."""
    style = int(rng.integers(3))
    if style == 0:
        return name
    if style == 1:
        return name.title()
    return "  " + name.upper().replace(" ", "   ") + " "


def _outcomes(n: int, rng: np.random.Generator, all_rejected: bool) -> list[str]:
    """About 60% kept, 15% caption, 15% low and 10% high, in seeded order."""
    if all_rejected:
        out = [REJECTIONS[i % 3] for i in range(n)]
    else:
        rejects = [CAPTION] * int(0.15 * n) + [LOW] * int(0.15 * n)
        rejects += [HIGH] * max(1, int(0.1 * n))
        out = rejects + [KEPT] * (n - len(rejects))
    return [out[i] for i in rng.permutation(n)]


def _features(proto: np.ndarray, cosines: np.ndarray, rng: np.random.Generator) -> list:
    """Rows at the given cosines to the prototype, in random orthogonal
    directions, with norms from 0.5 to 4 (the similarity band ignores scale)."""
    p_hat = proto / np.linalg.norm(proto)
    u = rng.normal(size=(cosines.size, proto.size))
    u -= np.outer(u @ p_hat, p_hat)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    rows = cosines[:, None] * p_hat + np.sqrt(1.0 - cosines**2)[:, None] * u
    return (rows * rng.uniform(0.5, 4.0, size=(cosines.size, 1))).tolist()


def make_curation_inputs(
    out_dir: Path,
    seed: int,
    features: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    names_per_target: int = 5,
    records_per_name: int = 120,
) -> dict:
    """Write names.json, responses.json and corpus.jsonl into ``out_dir``
    and return the expected curation outcome.

    Targets are expanded when they have at most 100 training samples (the
    medium and few splits, which `tailext curate` expands by default).
    """
    rng = np.random.default_rng([seed, 0xC0FFEE])
    counts = np.bincount(labels, minlength=num_classes)
    expanded = [c for c in range(num_classes) if counts[c] <= 100]
    if len(expanded) < len(SCENARIOS):
        raise ValueError(f"curation inputs need {len(SCENARIOS)} expanded targets")
    pool = _name_pool(rng)
    if len(pool) < num_classes + len(expanded) * (names_per_target + 1):
        raise ValueError("name pool too small for this many classes")
    target_names = pool[:num_classes]
    fresh = iter(pool[num_classes:])

    responses: dict[str, str] = {}
    expected_targets: dict[str, dict] = {}
    empty_targets: list[int] = []
    num_aux = 0
    total_kept = 0
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "corpus.jsonl").open("w", encoding="utf-8") as corpus:
        for pos, tid in enumerate(expanded):
            # each hazard on one target, the same number for every seed, so
            # the amount of work does not depend on the seed
            hazards = {SCENARIOS[pos]} if pos < len(SCENARIOS) else set()
            proto = features[labels == tid].mean(axis=0)

            proposed = [next(fresh) for _ in range(names_per_target)]
            leaks: list[str] = []
            if "self_leak" in hazards:
                leaks.append(target_names[tid])
            if "other_leak" in hazards:
                other = [c for c in range(num_classes) if c != tid]
                leaks.append(target_names[other[int(rng.integers(len(other)))]])
            for leak in leaks:
                proposed[int(rng.integers(len(proposed)))] = leak
            proposed = list(dict.fromkeys(proposed))  # a leak may land twice
            reply = [_odd_case(n, rng) for n in proposed]
            if "duplicate" in hazards:
                at = int(rng.integers(len(reply)))
                reply.insert(at + 1, reply[at].upper())
            if "overlong" in hazards:
                reply.append(next(fresh))  # beyond k: the parser drops it
            responses[target_names[tid]] = ", ".join(reply)

            survivors = [n for n in proposed if n not in leaks]
            no_records = set()
            if "no_records" in hazards:
                no_records.add(survivors[int(rng.integers(len(survivors)))])
            all_rejected = set(survivors) if "empty_target" in hazards else set()
            if "all_rejected_name" in hazards:
                all_rejected.add(survivors[int(rng.integers(len(survivors)))])

            rejected = {r: 0 for r in REJECTIONS}
            retrieved = kept = 0
            for j, name in enumerate(survivors):
                if name in no_records:
                    continue
                outcomes = _outcomes(records_per_name, rng, name in all_rejected)
                cosines = np.asarray([
                    rng.uniform(*COSINE_RANGES.get(o, (-0.3, 0.999))) for o in outcomes])
                rows = _features(proto, cosines, rng)
                for seq, (outcome, row) in enumerate(zip(outcomes, rows)):
                    if outcome == CAPTION:
                        caption = UNNAMED_CAPTION
                    else:
                        tpl = NAMED_CAPTIONS[seq % len(NAMED_CAPTIONS)]
                        caption = tpl.format(name=name, NAME=name.upper())
                    rec = {
                        "class": name if seq % 2 else name.title(),
                        "image_ref": f"cand-{seed}-{tid}-{j}-{seq:03d}",
                        "caption": caption,
                        "features": row,
                    }
                    corpus.write(json.dumps(rec) + "\n")
                    if outcome == KEPT:
                        kept += 1
                    else:
                        rejected[outcome] += 1
                retrieved += len(outcomes)
                num_aux += KEPT in outcomes
            # records under leaked names must never be retrieved
            for leak in leaks:
                rows = _features(proto, np.full(DECOYS_PER_LEAK, 0.85), rng)
                for seq, row in enumerate(rows):
                    rec = {
                        "class": leak,
                        "image_ref": f"decoy-{seed}-{tid}-{seq}",
                        "caption": f"photo of a {leak}",
                        "features": row,
                    }
                    corpus.write(json.dumps(rec) + "\n")

            expected_targets[str(tid)] = {
                "class_name": target_names[tid],
                "proposed": len(proposed),
                "after_leak_filter": len(survivors),
                "retrieved": retrieved,
                "kept": kept,
                "rejected": rejected,
            }
            if kept == 0:
                empty_targets.append(tid)
            total_kept += kept

    (out_dir / "names.json").write_text(
        json.dumps({str(c): n for c, n in enumerate(target_names)}, indent=2) + "\n"
    )
    (out_dir / "responses.json").write_text(json.dumps(responses, indent=2) + "\n")
    return {
        "expanded_targets": expanded,
        "per_target": expected_targets,
        "empty_targets": empty_targets,
        "num_aux_classes": num_aux,
        "total_kept_samples": total_kept,
    }


def check_report(report: dict, expected: dict) -> list[str]:
    """Differences between a curation_report.json and the planned outcome,
    plus any target whose retrieved count is not kept + rejections."""
    problems = []
    for key, want in expected.items():
        if key == "per_target":
            continue
        if report.get(key) != want:
            problems.append(f"{key}: got {report.get(key)!r}, planned {want!r}")
    got_targets = report.get("per_target", {})
    if set(got_targets) != set(expected["per_target"]):
        problems.append("per_target covers other targets than planned")
    for tid, want in expected["per_target"].items():
        got = got_targets.get(tid, {})
        if got != want:
            problems.append(f"target {tid}: got {got!r}, planned {want!r}")
    for tid, got in got_targets.items():
        rejected = got.get("rejected", {})
        if got.get("retrieved") != got.get("kept", 0) + sum(rejected.values()):
            problems.append(f"target {tid}: retrieved != kept + rejections")
    return problems
