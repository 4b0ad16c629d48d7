"""Regenerate the curation fixture corpus and its golden outcome file.

Run from the repo root:  python3 tests/fixtures/make_curation_fixtures.py [OUT_DIR]
(OUT_DIR defaults to tests/fixtures/curation).

The corpus is constructed so every candidate has a planned outcome (kept,
caption, similarity-low, similarity-high) with comfortable margins to the
0.7 / 0.98 thresholds. The script runs the real filters once, asserts the
plan and the filters agree, and freezes the result into golden.json; the
test suite then holds curate() to that file exactly.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from tailext.core import FeatureDataset, LabelSpace, write_dataset
from tailext.curation import (
    CurationConfig,
    FixtureLLMClient,
    FixtureRetriever,
    compute_prototype,
    curate,
    filter_candidates,
)

HERE = Path(__file__).parent / "curation"

DIM = 8
TARGETS = [
    ("sports car", 150, 0),  # many: not expanded by default
    ("ragdoll", 40, 1),      # medium
    ("terrier", 10, 2),      # few
    ("falcon", 5, 3),        # few
]

RESPONSES = {
    "sports car": "sedan, coupe, SUV, luxury car, electric car",
    # self-leak "ragdoll" must be filtered out
    "ragdoll": "birman, Himalayan cat, ragdoll, maine coon, siamese",
    # duplicate "beagle" exercises dedup; "falcon" leaks another target
    "terrier": "beagle, beagle, fox terrier, bulldog, falcon",
    # "sphynx" has zero corpus records: the empty-retrieval path
    "falcon": "hawk, kestrel, eagle, osprey, sphynx",
}

# per proposed name: source target id and (outcome, cosine) per record.
KEPT = "kept"
CAP = "caption"
LOW = "similarity-low"
HIGH = "similarity-high"

PLAN = {
    "birman": (1, [(KEPT, 0.75), (KEPT, 0.80), (KEPT, 0.85), (KEPT, 0.90),
                   (KEPT, 0.95), (KEPT, 0.78), (KEPT, 0.88), (LOW, 0.40),
                   (LOW, 0.65), (HIGH, 0.99), (HIGH, 0.985), (CAP, 0.85)]),
    "himalayan cat": (1, [(KEPT, 0.82), (KEPT, 0.77), (KEPT, 0.93), (KEPT, 0.71),
                          (KEPT, 0.97), (LOW, 0.55), (HIGH, 0.999), (CAP, 0.30),
                          (CAP, 0.85)]),
    "maine coon": (1, [(KEPT, 0.75), (KEPT, 0.86), (KEPT, 0.91), (KEPT, 0.79),
                       (KEPT, 0.84), (KEPT, 0.96), (LOW, 0.40), (LOW, 0.65),
                       (HIGH, 0.99), (CAP, 0.85)]),
    # every siamese record is rejected: no auxiliary class appears for it
    "siamese": (1, [(CAP, 0.85), (CAP, 0.30), (CAP, 0.90), (CAP, 0.75),
                    (LOW, 0.55), (LOW, 0.40), (HIGH, 0.99), (HIGH, 0.985)]),
    "beagle": (2, [(KEPT, 0.75), (KEPT, 0.80), (KEPT, 0.85), (KEPT, 0.90),
                   (KEPT, 0.95), (KEPT, 0.72), (KEPT, 0.89), (KEPT, 0.94),
                   (LOW, 0.40), (LOW, 0.65), (HIGH, 0.99), (CAP, 0.85)]),
    "fox terrier": (2, [(KEPT, 0.81), (KEPT, 0.74), (KEPT, 0.92), (KEPT, 0.87),
                        (LOW, 0.40), (LOW, 0.55), (LOW, 0.65), (HIGH, 0.985),
                        (CAP, 0.30)]),
    # bulldog records never mention bulldog in the caption
    "bulldog": (2, [(CAP, 0.75), (CAP, 0.80), (CAP, 0.85), (CAP, 0.90),
                    (CAP, 0.95), (CAP, 0.40), (CAP, 0.99), (CAP, 0.55),
                    (CAP, 0.72), (CAP, 0.88)]),
    "hawk": (3, [(KEPT, 0.75), (KEPT, 0.80), (KEPT, 0.85), (KEPT, 0.90),
                 (KEPT, 0.95), (KEPT, 0.76), (LOW, 0.40), (LOW, 0.65),
                 (HIGH, 0.99), (HIGH, 0.999), (CAP, 0.85)]),
    "kestrel": (3, [(KEPT, 0.83), (KEPT, 0.78), (KEPT, 0.92), (LOW, 0.40),
                    (LOW, 0.55), (HIGH, 0.99), (CAP, 0.85)]),
    "eagle": (3, [(KEPT, 0.75), (KEPT, 0.94), (LOW, 0.65), (HIGH, 0.99),
                  (HIGH, 0.985), (CAP, 0.30)]),
    "osprey": (3, [(KEPT, 0.88), (KEPT, 0.73), (KEPT, 0.81), (KEPT, 0.96),
                   (LOW, 0.40), (CAP, 0.85)]),
}

KEPT_CAPTIONS = [
    "photo of a {name} outdoors",
    "A  Fluffy   {NAME} resting",  # odd case and spacing: normalization must cope
    "close-up of one {name}, studio light",
]
NO_NAME_CAPTION = "a cute animal picture, no label given"


def build_targets() -> tuple[FeatureDataset, LabelSpace]:
    feats, labels, ids = [], [], []
    for name, count, cid in TARGETS:
        center = np.zeros(DIM)
        center[cid] = 5.0
        # symmetric dyadic pairs: the class mean is exactly the center
        for i in range(count // 2):
            d = np.zeros(DIM)
            d[(cid + 4) % DIM] = 0.25 * (i % 4 + 1)
            feats.extend([center + d, center - d])
            labels.extend([cid, cid])
            ids.extend([f"t-{cid}-{2 * i}", f"t-{cid}-{2 * i + 1}"])
        if count % 2:
            feats.append(center.copy())
            labels.append(cid)
            ids.append(f"t-{cid}-{count - 1}")
    ds = FeatureDataset(np.stack(feats), np.array(labels), ids=tuple(ids))
    space = LabelSpace(
        num_target=len(TARGETS),
        class_names={cid: name for name, _, cid in TARGETS},
    )
    return ds, space


def build_corpus(ds: FeatureDataset) -> list[dict]:
    records = []
    for name, (tid, outcomes) in PLAN.items():
        proto = compute_prototype(ds, tid)
        p_hat = proto / np.linalg.norm(proto)  # exactly e_tid
        for seq, (outcome, cos_v) in enumerate(outcomes):
            u = np.zeros(DIM)
            u[4 + (seq % 4)] = 1.0  # exactly orthogonal to every class axis
            f = cos_v * p_hat + np.sqrt(1.0 - cos_v**2) * u
            f = f * (0.5, 1.0, 2.0, 4.0)[seq % 4]  # scale must not matter
            if outcome == CAP:
                caption = NO_NAME_CAPTION
            else:
                tpl = KEPT_CAPTIONS[seq % len(KEPT_CAPTIONS)]
                caption = tpl.format(name=name, NAME=name.upper())
            records.append(
                {
                    "class": name,
                    "image_ref": f"cand-{name.replace(' ', '-')}-{seq:03d}",
                    "caption": caption,
                    "features": f.tolist(),
                    "_planned": outcome,  # stripped before writing
                }
            )
    assert len(records) == 100, len(records)
    return records


def main(out: Path = HERE) -> None:
    out.mkdir(parents=True, exist_ok=True)
    ds, space = build_targets()
    write_dataset(ds, space, out / "train.jsonl", extra_meta={"fixture": "curation"})
    (out / "responses.json").write_text(json.dumps(RESPONSES, indent=2) + "\n")

    records = build_corpus(ds)
    with (out / "candidates.jsonl").open("w") as fh:
        for rec in records:
            fh.write(json.dumps({k: v for k, v in rec.items() if k != "_planned"}) + "\n")

    # audit: the real pipeline must agree with the plan record by record
    client = FixtureLLMClient(out)
    retriever = FixtureRetriever(out / "candidates.jsonl")
    cfg = CurationConfig()
    aux, merged, report = curate(space, ds, client, retriever, cfg)

    planned = {r["image_ref"]: r["_planned"] for r in records}
    reasons: dict[str, str] = {}
    for name, (tid, _) in PLAN.items():
        cands = retriever.retrieve(name, tid)
        kept, rejected = filter_candidates(
            cands, {tid: compute_prototype(ds, tid)}, cfg.gamma_low, cfg.gamma_high
        )
        for c in kept:
            reasons[c.image_ref] = KEPT
        for c, why in rejected:
            reasons[c.image_ref] = why
    mismatch = {r: (planned[r], reasons[r]) for r in planned if planned[r] != reasons[r]}
    assert not mismatch, mismatch
    assert set(aux.sample_ids()) == {r for r, o in planned.items() if o == KEPT}

    golden = {
        "gamma_low": cfg.gamma_low,
        "gamma_high": cfg.gamma_high,
        "expanded_targets": report["expanded_targets"],
        "kept_ids_in_order": list(aux.sample_ids()),
        "reasons": dict(sorted(reasons.items())),
        "aux_classes": {
            str(a): {"name": merged.class_names[a], "target": merged.neighbor_of[a]}
            for a in sorted(merged.neighbor_of)
        },
        "per_target": report["per_target"],
        "empty_targets": report["empty_targets"],
        "total_kept": len(aux),
    }
    (out / "golden.json").write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(
        f"fixture ready: {len(records)} candidates, {golden['total_kept']} kept, "
        f"{merged.num_auxiliary} aux classes"
    )


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else HERE)
