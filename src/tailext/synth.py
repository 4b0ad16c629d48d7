"""Synthetic data: long-tail count profiles, a two-level Gaussian class
hierarchy, and displaced-center auxiliary neighbor classes.

The hierarchy is the desk-scale stand-in for a real taxonomy: superclass
centers are spread wide (sigma_super), fine classes cluster around their
superclass (sigma_fine), and samples cluster around the fine center
(sigma_sample). Fewer superclasses for a fixed class budget means more fine
classes crowded into each cluster, i.e. a finer-grained label space.
"""
from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .core import (
    ClassStats,
    ConfigError,
    DataError,
    FeatureDataset,
    LabelSpace,
    check_size,
    derive_rng,
)

__all__ = [
    "CountProfile",
    "HierarchySpec",
    "make_counts",
    "make_hierarchy",
    "make_auxiliary",
    "named_rows",
    "check_auxiliary",
]


@dataclass(frozen=True)
class CountProfile:
    """Per-class training-count profile for a long-tail benchmark.

    kind "exponential" interpolates count_y = max_count * imbalance^(y/(n-1)),
    so class 0 gets max_count and the last class max_count * imbalance.
    kind "pareto" draws 1 + Pareto(alpha) variates, sorts them descending and
    rescales so the largest class gets max_count.
    """

    kind: str
    num_classes: int
    max_count: int
    imbalance: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in ("exponential", "pareto"):
            raise ConfigError(f"unknown count profile kind {self.kind!r}")
        check_size(self.num_classes, "num_classes")
        check_size(self.max_count, "max_count")
        if self.kind == "exponential":
            if self.imbalance is None or not (0.0 < self.imbalance <= 1.0):
                raise ConfigError(
                    "exponential profile needs imbalance ratio in (0, 1], got "
                    f"{self.imbalance!r}"
                )
        else:
            # written so that NaN fails the bound
            if self.alpha is None or not 0 < self.alpha < math.inf:
                raise ConfigError(
                    f"pareto profile needs a finite alpha > 0, got {self.alpha!r}"
                )

    def to_json(self) -> dict:
        """The fields the profile's kind reads."""
        unread = "alpha" if self.kind == "exponential" else "imbalance"
        return {k: v for k, v in asdict(self).items() if k != unread}


def make_counts(profile: CountProfile, seed: int = 0) -> ClassStats:
    """Realize a profile as integer counts, monotone non-increasing, all >= 1."""
    n = profile.num_classes
    if profile.kind == "exponential":
        if n == 1:
            raw = np.array([float(profile.max_count)])
        else:
            expo = np.arange(n) / (n - 1)
            raw = profile.max_count * profile.imbalance**expo
    else:
        draws = 1.0 + derive_rng(seed, "counts").pareto(profile.alpha, size=n)
        draws = np.sort(draws)[::-1]
        raw = profile.max_count * draws / draws[0]
    counts = np.maximum(np.rint(raw).astype(np.int64), 1)
    return ClassStats(counts)


@dataclass(frozen=True)
class HierarchySpec:
    """Geometry of the synthetic superclass/fine-class generator.

    Fine-class centers lie in a 2-d plane drawn per superclass. Isotropic
    offsets in high dimension would place every pair of fine classes
    ~sigma_fine*sqrt(2*feature_dim) apart, which no sample noise allowed by
    the spread ordering can bridge; confining them to a plane is what makes
    fine classes of the same superclass genuinely confusable while
    superclasses stay linearly separable. Inside the plane, siblings sit at
    jittered equal angles on a ring of radius sigma_fine*sqrt(2), so every
    class faces the same crowding as its siblings and per-class difficulty
    is set by how many classes share the superclass, not by collision luck.
    The default spreads are the ones every driver and ``tailext synth`` use:
    sigma_fine 2.5 is a slightly widened ring, which keeps the balanced arms
    of the granularity pilot centered on zero gap.
    """

    num_superclasses: int
    num_classes: int
    feature_dim: int = 64
    sigma_super: float = 10.0
    sigma_fine: float = 2.5
    sigma_sample: float = 1.0

    def __post_init__(self):
        if not 1 <= self.num_superclasses <= self.num_classes:
            raise ConfigError(
                f"need 1 <= num_superclasses <= num_classes, got "
                f"{self.num_superclasses} and {self.num_classes}"
            )
        # the fine-class ring's plane
        check_size(self.feature_dim, "feature_dim", low=2)
        if not math.inf > self.sigma_super > self.sigma_fine > self.sigma_sample > 0:
            raise ConfigError(
                "spreads must be finite and satisfy "
                "sigma_super > sigma_fine > sigma_sample > 0"
            )

    def superclass_of(self, y: int) -> int:
        """Round-robin assignment, spreading any remainder evenly."""
        return y % self.num_superclasses

    def to_json(self) -> dict:
        return asdict(self)


def _fill(
    rows: np.ndarray, center: np.ndarray, rng: np.random.Generator, sigma: float
) -> None:
    """Write ``center`` plus isotropic Gaussian draws into ``rows`` in place."""
    np.add(center, rng.normal(0.0, sigma, size=rows.shape), out=rows)


def make_hierarchy(
    spec: HierarchySpec,
    counts: ClassStats,
    seed: int = 0,
    test_per_class: int = 20,
) -> tuple[FeatureDataset, FeatureDataset]:
    """Draw a long-tail train set and an exactly balanced test set.

    All randomness flows through per-purpose derived streams, so any one
    class's samples can be regenerated independently of the others. Rows
    are grouped by class in ascending order, and the datasets hold no ids
    (``ids`` None); ``named_rows`` names them as ``tailext synth`` writes
    them.
    """
    if len(counts) != spec.num_classes:
        raise DataError(
            f"profile has {len(counts)} classes, hierarchy expects {spec.num_classes}"
        )
    check_size(test_per_class, "test_per_class")
    C = spec.feature_dim
    n_train = counts.counts
    # each array below multiplies settings, and numpy meets a shape past its
    # own limit with a bare ValueError
    check_size(spec.num_superclasses * C, "num_superclasses * feature_dim")
    check_size(sum(n_train.tolist()) * C, "train samples * feature_dim")
    check_size(spec.num_classes * test_per_class * C, "num_classes * test_per_class * feature_dim")
    super_centers = derive_rng(seed, "super-centers").normal(
        0.0, spec.sigma_super, size=(spec.num_superclasses, C)
    )
    # each superclass's plane, as an orthonormal (C, 2) basis
    bases = [
        np.linalg.qr(derive_rng(seed, "fine-basis", s).normal(size=(C, 2)))[0]
        for s in range(spec.num_superclasses)
    ]
    L = spec.num_classes
    # each superclass's classes, in ascending order
    members: list[list[int]] = [[] for _ in range(spec.num_superclasses)]
    for y in range(L):
        members[spec.superclass_of(y)].append(y)
    ring_slot = {}
    for s, ys in enumerate(members):
        rot = derive_rng(seed, "ring-rot", s).uniform(0.0, 2.0 * np.pi)
        order = derive_rng(seed, "ring-order", s).permutation(len(ys))
        for local, y in enumerate(ys):
            ring_slot[y] = (s, int(order[local]), len(ys), rot)
    train_X = np.empty((int(n_train.sum()), C))
    test_X = np.empty((L * test_per_class, C))
    start = 0
    for y in range(L):
        s, slot, k_s, rot = ring_slot[y]
        jitter = derive_rng(seed, "fine-center", y)
        angle = rot + 2.0 * np.pi * (slot + jitter.uniform(-0.25, 0.25)) / k_s
        radius = np.sqrt(2.0) * spec.sigma_fine * (1.0 + 0.05 * jitter.normal())
        offset = bases[s] @ np.array([radius * np.cos(angle), radius * np.sin(angle)])
        center = super_centers[s] + offset
        n_y = int(n_train[y])
        _fill(train_X[start : start + n_y], center, derive_rng(seed, "train", y),
              spec.sigma_sample)
        _fill(test_X[y * test_per_class : (y + 1) * test_per_class], center,
              derive_rng(seed, "test", y), spec.sigma_sample)
        start += n_y
    classes = np.arange(L, dtype=np.int64)
    return (FeatureDataset(train_X, np.repeat(classes, n_train)),
            FeatureDataset(test_X, np.repeat(classes, test_per_class)))


def named_rows(ds: FeatureDataset, kind: str) -> FeatureDataset:
    """``ds`` with each row named ``syn-<kind>-<class>-<i>``, where i counts
    the rows of its class before it: the ids ``tailext synth`` writes."""
    counters = defaultdict(itertools.count)
    return replace(ds, ids=tuple(f"syn-{kind}-{y}-{next(counters[y])}"
                                 for y in ds.labels.tolist()))


def check_auxiliary(per_target: int, samples_per_aux: int, offset: float, low: int = 1) -> None:
    """ConfigError naming the setting unless ``make_auxiliary`` takes it:
    ``per_target`` and ``samples_per_aux`` are sizes (``check_size``), of at
    least ``low`` and 1, and ``offset`` is finite. ``tailext synth`` checks
    its settings with ``low`` 0, which makes no auxiliary data, before it
    draws anything."""
    check_size(per_target, "per_target", low)
    check_size(samples_per_aux, "samples_per_aux")
    if not math.isfinite(offset):
        raise ConfigError(f"offset must be finite, got {offset}")


def make_auxiliary(
    base: FeatureDataset,
    space: LabelSpace,
    per_target: int,
    samples_per_aux: int,
    seed: int = 0,
    targets: Sequence[int] | None = None,
    offset: float = 3.0,
) -> tuple[FeatureDataset, LabelSpace]:
    """Synthesize neighbor categories for the designated target classes.

    Each auxiliary center sits at the target's empirical class mean plus
    `offset` along a random unit direction, and its samples spread around it
    with unit standard deviation; with the default geometry that puts
    neighbors between the fine-class spread and the superclass spread, close
    enough to compete with their target but not identical to it. Auxiliary
    class ids follow the target ids, L onward; their rows are grouped by
    class in ascending order, and the dataset holds no ids, as
    ``make_hierarchy``'s.
    """
    check_auxiliary(per_target, samples_per_aux, offset)
    if space.num_auxiliary:
        raise ConfigError("base label space already has auxiliary classes")
    L = space.num_target
    if targets is None:
        chosen = list(range(L))
    else:
        chosen = sorted(set(int(t) for t in targets))
        if chosen and not (0 <= chosen[0] and chosen[-1] < L):
            raise ConfigError(f"targets must lie in [0, {L}), got {chosen}")
    if not chosen:
        raise ConfigError("no target classes designated for expansion")

    C = base.feature_dim
    K = len(chosen) * per_target
    check_size(K * samples_per_aux * C, "auxiliary classes * samples_per_aux * feature_dim")
    feats = np.empty((K * samples_per_aux, C))
    neighbor_of: dict[int, int] = {}
    next_id = L
    for t in chosen:
        members = base.features[base.labels == t]
        if members.shape[0] == 0:
            raise DataError(f"target class {t} has no samples to anchor neighbors")
        center = members.mean(axis=0)
        for j in range(per_target):
            direction = derive_rng(seed, "aux-dir", t, j).normal(size=C)
            direction /= np.linalg.norm(direction)
            start = (next_id - L) * samples_per_aux
            _fill(feats[start : start + samples_per_aux], center + offset * direction,
                  derive_rng(seed, "aux-sample", t, j), 1.0)
            neighbor_of[next_id] = t
            next_id += 1
    labels = np.repeat(np.arange(L, next_id, dtype=np.int64), samples_per_aux)
    aux_ds = FeatureDataset(feats, labels)

    names = None
    if space.class_names is not None:
        names = dict(space.class_names)
        for a, t in neighbor_of.items():
            names[a] = f"{names.get(t, t)}#aux{a - L}"
    new_space = LabelSpace(
        num_target=L,
        num_auxiliary=K,
        neighbor_of=neighbor_of,
        class_names=names,
    )
    return aux_ds, new_space
