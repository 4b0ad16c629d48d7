"""Per-epoch auxiliary sampling: the per-class sample cap and the
head/medium/tail auxiliary-category attachment ratio.

The ratio entries are per-target auxiliary-category counts by split (how many
neighbor categories a target of that split gets attached each epoch), not
per-sample weights. Subsets are redrawn every epoch from per-(seed, epoch,
class) streams, so a capped class rotates through its full pool over time
while every draw stays replayable.

The default ratio comes from the total training samples of the many, medium
and few splits, N_h, N_m and N_t: 1 : ceil(N_h/N_m) : ceil(N_h/N_t) when all
three are non-empty. An empty split gets the entry 0, since it has no targets
to read it. When the many split is empty, the first non-empty split takes its
place as the reference, with entry 1, and each later non-empty split S gets
ceil(N_ref/N_S).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Mapping

import numpy as np

from .core import (
    ConfigError, DataError, FeatureDataset, LabelSpace, check_cap_and_ratio, derive_streams
)
from .metrics import SPLIT_NAMES, SplitAssignment, check_splits

__all__ = ["AuxSamplingPlan", "derive_ratio", "build_plan", "sample_epoch"]


def derive_ratio(split_totals: tuple[int, int, int]) -> tuple[int, int, int]:
    """Default attachment ratio 1 : ceil(N_h/N_m) : ceil(N_h/N_t).

    ``split_totals`` are the total sample counts of the many, medium and few
    splits; tail-heavy datasets therefore attach more auxiliary categories to
    tail targets. Empty splits follow the rule in the module docstring.
    """
    totals = tuple(int(v) for v in split_totals)
    if min(totals) < 0 or max(totals) < 1:
        raise DataError(f"split totals must be >= 0 and not all 0, got {split_totals}")
    ref = next(n for n in totals if n > 0)
    return tuple(-(-ref // n) if n > 0 else 0 for n in totals)  # type: ignore[return-value]


@dataclass(frozen=True)
class AuxSamplingPlan:
    """Declarative sampling plan, serialized into the TrainLog for audit.

    ``expanded_targets`` maps each expanded target class id to its split tag
    (one of ``metrics.SPLIT_NAMES``); the tag selects the ratio entry that bounds
    how many of the target's auxiliary categories are attached per epoch.
    """

    per_class_cap: int
    ratio: tuple[float, float, float]
    expanded_targets: Mapping[int, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "ratio",
                           check_cap_and_ratio(self.per_class_cap, self.ratio, "ratio"))
        tags = dict(self.expanded_targets)
        check_splits(tags.values(), ConfigError)
        object.__setattr__(self, "expanded_targets", tags)

    def categories_for(self, split_tag: str) -> int:
        return math.ceil(self.ratio[SPLIT_NAMES.index(split_tag)])

    def to_json(self) -> dict:
        targets = {str(t): tag for t, tag in sorted(self.expanded_targets.items())}
        return {**asdict(self), "expanded_targets": targets}


def build_plan(
    target_counts: np.ndarray,
    split_tags: tuple[str, ...],
    expanded: tuple[int, ...] | list[int],
    per_class_cap: int,
    ratio: tuple[float, float, float] | None,
) -> AuxSamplingPlan:
    """Assemble a plan from train counts and split tags.

    ``ratio`` of None derives the default from split sample totals (see
    ``derive_ratio``).
    """
    if ratio is None:
        totals = SplitAssignment(tuple(split_tags)).totals(target_counts)
        ratio = derive_ratio(tuple(totals[name] for name in SPLIT_NAMES))
    return AuxSamplingPlan(per_class_cap, ratio, {int(t): split_tags[int(t)] for t in expanded})


def sample_epoch(
    aux: FeatureDataset,
    space: LabelSpace,
    plan: AuxSamplingPlan,
    seed: int,
    epoch: int,
) -> tuple[FeatureDataset, np.ndarray]:
    """Draw one epoch's auxiliary subset.

    For each expanded target, the split-tag ratio entry bounds how many of its
    auxiliary categories are attached this epoch (a fresh per-epoch rotation);
    each attached category then contributes min(available, cap) samples drawn
    without replacement. Returns the sampled subset plus the effective
    per-auxiliary-class counts (length K, aligned with ids L..L+K-1; zero for
    classes left out this epoch, which must then be excluded from the loss).
    """
    L, K = space.num_target, space.num_auxiliary
    eff = np.zeros(K, dtype=np.int64)
    if K == 0 or len(aux) == 0:
        return aux.subset(np.empty(0, dtype=np.int64)), eff

    aux.validate_against(space)
    if any(not 0 <= t < L for t in plan.expanded_targets):
        raise DataError(f"plan expands {sorted(plan.expanded_targets)}, not all target ids "
                        f"of the label space [0, {L})")
    # a stable sort keeps each class's sample indices in ascending order, so
    # class c's pool is the slice by_label[start[c]:end[c]]
    by_label = np.argsort(aux.labels, kind="stable")
    counts = np.bincount(aux.labels, minlength=space.num_classes)
    end = np.cumsum(counts)
    start = end - counts

    # the attached classes, by target; the keys of every rotation, and then
    # of every capped class's draw, come from one pass (derive_streams)
    groups = []
    for target in sorted(plan.expanded_targets):
        # the target's auxiliary ids with samples, ascending
        group = space.aux_by_target[space.aux_start[target] : space.aux_start[target + 1]]
        categories = group[counts[group] > 0]
        n_attach = min(categories.size, plan.categories_for(plan.expanded_targets[target]))
        if n_attach:
            groups.append((target, categories, n_attach))
    rotations = derive_streams(seed, "aux-attach", epoch,
                               ids=[t for t, categories, n in groups if n < categories.size])
    attached = [
        categories[np.sort(next(rotations).permutation(categories.size)[:n])]
        if n < categories.size else categories
        for _, categories, n in groups
    ]
    attached = np.concatenate(attached) if attached else np.empty(0, dtype=np.int64)
    pools = counts[attached]
    take = np.minimum(pools, plan.per_class_cap)
    draws = derive_streams(seed, "aux-sample", epoch, ids=attached[take < pools])
    chosen = []
    for c, n in zip(attached.tolist(), take.tolist()):
        pool = by_label[start[c] : end[c]]
        if n < pool.size:
            pool = pool[np.sort(next(draws).choice(pool.size, size=n, replace=False))]
        chosen.append(pool)
    eff[attached - L] = take
    return aux.subset(np.concatenate(chosen) if chosen else np.empty(0, dtype=np.int64)), eff
