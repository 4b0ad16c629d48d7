"""Evaluation: many/medium/few split assignment, per-split and overall top-1
accuracy, head-tail gaps, and report emission in JSON and CSV form.

Split thresholds: many is strictly more than 100 training samples, few is
strictly fewer than 20, and the inclusive band 20..100 is medium; the three
bands partition the positive integers. Accuracies are percentages, printed to
one decimal in human-readable output and at full precision in JSON/CSV.
"""
from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .core import ClassStats, ConfigError, DataError, FeatureDataset, read_json, write_json

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .model import ClassifierState

__all__ = [
    "SPLIT_NAMES",
    "DEFAULT_EXPANSION",
    "SplitAssignment",
    "EvalReport",
    "assign_splits",
    "check_splits",
    "expand_splits",
    "expansion_targets",
    "evaluate",
    "count_rank_gap",
    "reports_to_csv",
]

SPLIT_NAMES = ("many", "medium", "few")
# the splits expanded by default: head classes are left alone
DEFAULT_EXPANSION = ("medium", "few")

EVAL_CSV_COLUMNS = (
    "seed",
    "masked",
    "num_classes",
    "overall_acc",
    "many_acc",
    "medium_acc",
    "few_acc",
    "head_tail_gap",
    "balanced_error_sum",
    "balanced_error_mean",
)


def assign_splits(stats: ClassStats) -> "SplitAssignment":
    """Tag every class as many (>100), medium (20..100) or few (<20)."""
    many, medium, few = SPLIT_NAMES
    return SplitAssignment(
        tags=tuple(many if c > 100 else medium if c >= 20 else few for c in stats.counts)
    )


def check_splits(names: Iterable[str], error: type[ValueError]) -> tuple[str, ...]:
    """``names`` as a tuple, each one of SPLIT_NAMES; raises ``error``
    otherwise. Every boundary that takes split names calls this: the expand
    setting and the sampling plan with ConfigError, SplitAssignment with
    DataError."""
    names = tuple(names)
    bad = sorted(set(names) - set(SPLIT_NAMES))
    if bad:
        raise error(f"unknown split names {bad}, expected some of {list(SPLIT_NAMES)}")
    return names


def expand_splits(expand: str | Iterable[str]) -> tuple[str, ...]:
    """The splits an expand setting selects: "all", comma-separated split
    names, or a sequence of them. ConfigError unless it names at least one
    split and nothing else."""
    if expand == "all":
        expand = SPLIT_NAMES
    elif isinstance(expand, str):
        expand = [t.strip() for t in expand.split(",") if t.strip()]
    names = check_splits(expand, ConfigError)
    if not names:
        raise ConfigError("expand must name at least one split or 'all'")
    return names


def expansion_targets(stats: ClassStats, expand: str | Iterable[str]) -> list[int]:
    """The target classes, ascending, whose split by training count is one
    that ``expand`` selects (see ``expand_splits``)."""
    splits = expand_splits(expand)
    return [c for c, tag in enumerate(assign_splits(stats).tags) if tag in splits]


@dataclass(frozen=True)
class SplitAssignment:
    """Per-class split tags derived from training counts."""

    tags: tuple[str, ...]

    def __post_init__(self):
        check_splits(self.tags, DataError)

    def classes_in(self, split: str) -> np.ndarray:
        return np.asarray([i for i, t in enumerate(self.tags) if t == split], dtype=np.int64)

    def totals(self, counts: np.ndarray) -> dict[str, int]:
        out = {name: 0 for name in SPLIT_NAMES}
        for y, tag in enumerate(self.tags):
            out[tag] += int(counts[y])
        return out


# EvalReport's JSON fields and the kind of value each holds
_REPORT_JSON = {
    "overall_acc": float,
    "many_acc": (float, None),
    "medium_acc": (float, None),
    "few_acc": (float, None),
    "head_tail_gap": (float, None),
    "balanced_error_sum": float,
    "balanced_error_mean": float,
    "split_sizes": {name: int for name in SPLIT_NAMES},
    "num_classes": int,
    "num_samples": int,
    "masked": bool,
    "seed": (int, None),
}


@dataclass(frozen=True)
class EvalReport:
    """Per-split and overall accuracy plus balanced error for one evaluation.

    Accuracies are percentages; a split with no test samples is reported as
    None (absent), never as zero, and the head-tail gap is only defined when
    both the many and few splits are present.
    """

    overall_acc: float
    many_acc: float | None
    medium_acc: float | None
    few_acc: float | None
    head_tail_gap: float | None
    balanced_error_sum: float
    balanced_error_mean: float
    split_sizes: Mapping[str, int]
    num_classes: int
    num_samples: int
    masked: bool
    seed: int | None = None

    def to_json(self) -> dict:
        return asdict(self)


    def to_text(self) -> str:
        def fmt(v: float | None) -> str:
            return "absent" if v is None else f"{v:.1f}"

        return (
            f"overall {fmt(self.overall_acc)} | many {fmt(self.many_acc)} | "
            f"medium {fmt(self.medium_acc)} | few {fmt(self.few_acc)} | "
            f"gap {fmt(self.head_tail_gap)}"
        )

    def csv_row(self) -> list:
        """The EVAL_CSV_COLUMNS values, with masked written as 1 or 0."""
        return [int(self.masked) if c == "masked" else getattr(self, c) for c in EVAL_CSV_COLUMNS]


def evaluate(
    state: "ClassifierState",
    test: FeatureDataset,
    splits: SplitAssignment,
    mask: bool = True,
    seed: int | None = None,
    *,
    _predictions: np.ndarray | None = None,
) -> EvalReport:
    """Top-1 accuracy overall and per split; gap = many - few.

    With ``mask`` set the classifier is restricted to its target rows first
    (a no-op when K = 0). Test samples are grouped by their class's split tag
    from the training counts. ``_predictions``, the scored classifier's
    predictions of ``test`` when the caller needs them too, saves a second
    prediction pass.
    """
    from .losses import balanced_error

    scored = state.masked() if mask else state
    if len(test) == 0:
        raise DataError("empty test set")
    if test.labels.max() >= scored.num_classes:
        raise DataError(
            f"test labels reach {test.labels.max()} but classifier has "
            f"{scored.num_classes} classes (masked={mask})"
        )
    preds = scored.predict_batch(test.features) if _predictions is None else _predictions
    labels = test.labels
    correct = preds == labels

    overall = 100.0 * float(correct.mean())
    split_acc: dict[str, float | None] = {}
    split_sizes: dict[str, int] = {}
    for name in SPLIT_NAMES:
        class_ids = splits.classes_in(name)
        sel = np.isin(labels, class_ids)
        split_sizes[name] = int(sel.sum())
        split_acc[name] = 100.0 * float(correct[sel].mean()) if sel.any() else None

    many, few = split_acc["many"], split_acc["few"]
    gap = many - few if many is not None and few is not None else None
    # Balanced error is defined over the target taxonomy: an unmasked
    # prediction landing on an auxiliary row is simply wrong.
    be = balanced_error(preds, labels, scored.space.num_target)
    return EvalReport(
        overall_acc=overall,
        many_acc=many,
        medium_acc=split_acc["medium"],
        few_acc=few,
        head_tail_gap=gap,
        balanced_error_sum=be.sum,
        balanced_error_mean=be.mean,
        split_sizes=split_sizes,
        num_classes=scored.num_classes,
        num_samples=len(test),
        masked=mask,
        seed=seed,
    )


def count_rank_gap(
    predictions: np.ndarray,
    labels: np.ndarray,
    stats: ClassStats,
) -> float:
    """Head-tail accuracy gap with head/tail defined by count rank terciles.

    Head classes are the most frequent third, tail classes the least
    frequent third (ties broken by class id, stable sort). Unlike the threshold
    splits this stays defined on balanced data, where it hovers around zero;
    the granularity pilot sweeps imbalance ratios down to 1.0 and needs a gap
    at every grid point.
    """
    preds = np.asarray(predictions, dtype=np.int64)
    labs = np.asarray(labels, dtype=np.int64)
    n_classes = len(stats)
    n_group = max(1, int(n_classes * (1 / 3)))
    order = np.argsort(-stats.counts, kind="stable")
    head = order[:n_group]
    tail = order[n_classes - n_group:]
    correct = preds == labs
    head_sel = np.isin(labs, head)
    tail_sel = np.isin(labs, tail)
    if not head_sel.any() or not tail_sel.any():
        raise DataError("head or tail rank group has no test samples")
    return 100.0 * (float(correct[head_sel].mean()) - float(correct[tail_sel].mean()))


def reports_to_csv(rows: list[tuple[Mapping, EvalReport]], extra_columns: tuple[str, ...]) -> str:
    """Render (extra-fields, report) pairs as a CSV string, one row each."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(extra_columns) + list(EVAL_CSV_COLUMNS))
    for extra, report in rows:
        writer.writerow([extra[c] for c in extra_columns] + report.csv_row())
    return buf.getvalue()


def write_report(report: EvalReport, path) -> None:
    write_json(path, report.to_json())


def read_report(path) -> EvalReport:
    """The report ``write_report`` wrote to ``path``; DataError unless the
    file holds one. Keys it does not know, such as the ``config`` of older
    reports, are ignored."""
    obj = read_json(path, _REPORT_JSON, DataError, "eval report")
    return EvalReport(**{key: obj[key] for key in _REPORT_JSON})
