"""Scoring objectives: balanced error, balanced softmax cross-entropy over the
target or merged label space, and the neighbor-silencing loss, each with
analytic gradients with respect to logits.

All exponent sums are computed after shifting by the maximum combined exponent
(logit plus log-count offset); class counts can differ by factors of several
hundred, so the log offsets alone are large enough to overflow a naive
implementation. Parameter gradients are composed in the model module via the
chain rule, keeping every loss here model-agnostic and pure.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .core import ClassStats, DataError, LabelSpace, check_lambda_s

__all__ = [
    "BalancedError",
    "SilenceWeights",
    "balanced_error",
    "bal_ce",
    "bal_ce_batch",
    "bal_ce_merged",
    "ns_ce",
    "ns_ce_batch",
]


class BalancedError(NamedTuple):
    """Both readings of the balanced error: the literal per-class sum and the
    conventional mean (sum / num_classes)."""

    sum: float
    mean: float


def balanced_error(
    predictions: Sequence[int], labels: Sequence[int], num_classes: int
) -> BalancedError:
    """Per-class error rates P(pred != y | y), summed and averaged over classes.

    Every class id in range(num_classes) must have at least one labeled sample;
    a class with no test samples has an undefined error rate and is rejected.
    """
    preds = np.asarray(predictions, dtype=np.int64)
    labs = np.asarray(labels, dtype=np.int64)
    if preds.shape != labs.shape or preds.ndim != 1:
        raise DataError("predictions and labels must be 1-d and the same length")
    if num_classes < 1:
        raise DataError("num_classes must be >= 1")
    total = np.bincount(labs, minlength=num_classes)[:num_classes]
    if (total == 0).any():
        missing = np.flatnonzero(total == 0)
        raise DataError(f"classes {missing.tolist()} have zero test samples")
    wrong = np.bincount(labs[preds != labs], minlength=num_classes)[:num_classes]
    rates = wrong.astype(np.float64) / total.astype(np.float64)
    s = float(rates.sum())
    return BalancedError(sum=s, mean=s / num_classes)


def bal_ce(z: np.ndarray, true_class: int, stats: ClassStats) -> tuple[float, np.ndarray]:
    """Balanced softmax cross-entropy: -log(n_y e^{z_y} / sum_j n_j e^{z_j}).

    Returns (loss, gradient wrt z). The gradient is softmax(z + log n) minus
    the one-hot of ``true_class``. Uniform counts reduce this to standard
    softmax cross-entropy. One row of :func:`bal_ce_batch`.
    """
    losses, grads = bal_ce_batch(np.asarray(z)[None, ...], np.asarray([true_class]), stats)
    return float(losses[0]), grads[0]


def bal_ce_merged(
    z: np.ndarray, true_class: int, stats: ClassStats
) -> tuple[float, np.ndarray]:
    """Balanced softmax CE over the merged L+K label space.

    The auxiliary classes simply extend the denominator sum, so the math is
    identical to :func:`bal_ce` applied to the full vector.
    """
    return bal_ce(z, true_class, stats)


class SilenceWeights:
    """Pair weights for the neighbor-silencing loss, evaluated on demand.

    lambda_ij = lambda_s when one of the pair is auxiliary and is the queried
    neighbor of the other, else 1. The relation holds only between a target
    and its own auxiliary classes: two auxiliaries queried from the same
    target do not silence each other, and target-target pairs always weigh 1.
    The relation is sparse (one entry per auxiliary class), so the dense
    pairwise matrix is never built: a batch's silenced entries are read off
    the label space's ``query_target`` array as index pairs.
    """

    def __init__(self, space: LabelSpace, lambda_s: float):
        check_lambda_s(lambda_s, DataError)
        self.space = space
        self.lambda_s = float(lambda_s)

    def pairs(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row, column) indices of the entries of ``rows(labels, M)`` that
        hold lambda_s; every other entry is 1.

        A target label silences the auxiliary columns queried from it; an
        auxiliary label silences the one target it was queried from.
        """
        query_target = self.space.query_target
        labels = np.asarray(labels, dtype=np.int64)
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= query_target.size:
            raise DataError("labels out of range")
        # auxiliary ids grouped by the target they were queried from; target
        # t's group is by_target[first[t] : first[t] + n_aux[t]]
        aux = np.flatnonzero(query_target >= 0)
        by_target = aux[np.argsort(query_target[aux], kind="stable")]
        n_aux = np.bincount(query_target[aux], minlength=query_target.size)
        first = np.cumsum(n_aux) - n_aux
        counts = n_aux[labels]
        starts = np.cumsum(counts) - counts
        target_rows = np.repeat(np.arange(labels.size), counts)
        pos = np.repeat(first[labels] - starts, counts) + np.arange(target_rows.size)
        partner = query_target[labels]
        aux_rows = np.flatnonzero(partner >= 0)
        return (
            np.concatenate([target_rows, aux_rows]),
            np.concatenate([by_target[pos], partner[aux_rows]]),
        )

    def rows(self, labels: np.ndarray, n_classes: int) -> np.ndarray:
        """Weight matrix (B, n_classes): row b holds lambda_{labels[b], j}."""
        if n_classes != self.space.query_target.size:
            raise DataError(
                f"{n_classes} weight columns for a "
                f"{self.space.query_target.size}-class label space"
            )
        labels = np.asarray(labels, dtype=np.int64)
        w = np.ones((labels.size, n_classes))
        w[self.pairs(labels)] = self.lambda_s
        return w


def ns_ce_batch(
    Z: np.ndarray,
    labels: np.ndarray,
    stats: ClassStats,
    space: LabelSpace,
    lambda_s: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized neighbor-silencing loss over a batch of logit rows.

    loss_b = log[1 + sum_{j != y_b} lambda_{y_b j} e^{log n_j - log n_{y_b} + z_j - z_{y_b}}]

    Returns (losses (B,), gradients (B, M)). Folding the leading 1 in as the
    true class's own term (exponent 0, weight 1) turns the expression into a
    weighted log-sum-exp. With lambda_s > 0 every weight is positive and the
    shift is the plain row maximum; with lambda_s = 0 the fully silenced
    terms are dropped before the shift, so a dominant silenced logit can
    neither push the reference above every surviving term nor overflow.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != len(stats):
        raise DataError(f"logits shape {Z.shape} != (B, {len(stats)})")
    if not np.isfinite(Z).all():
        raise DataError("non-finite logits")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= len(stats):
        raise DataError("labels out of range")
    if len(stats) != space.num_classes:
        raise DataError(
            f"stats cover {len(stats)} classes but label space has {space.num_classes}"
        )
    weights = SilenceWeights(space, lambda_s)
    rows = np.arange(Z.shape[0])
    # one (B, M) work array goes u -> t -> shifted -> exp -> scaled -> gradient
    work = Z + stats.log_counts()[None, :]
    work -= work[rows, labels][:, None]
    # every weight other than the silenced pairs' lambda_s is 1
    silenced = weights.pairs(labels)
    if weights.lambda_s == 0:
        # silenced terms leave the shift and the sum: their exponent becomes
        # exp(-inf) = 0, where 0 * exp(t - m) would overflow to 0 * inf = nan
        work[silenced] = -np.inf
    m = work.max(axis=1)
    work -= m[:, None]
    np.exp(work, out=work)
    work[silenced] *= weights.lambda_s
    total = work.sum(axis=1)
    losses = m + np.log(total)
    work /= total[:, None]
    work[rows, labels] -= 1.0
    return losses, work


def ns_ce(
    z: np.ndarray,
    true_class: int,
    stats: ClassStats,
    space: LabelSpace,
    lambda_s: float,
) -> tuple[float, np.ndarray]:
    """Neighbor-silencing loss for a single sample; see :func:`ns_ce_batch`.

    lambda_s = 1 recovers the merged-space balanced CE exactly; lambda_s = 0
    removes the true class's own neighbors from the competition entirely.
    """
    losses, grads = ns_ce_batch(
        np.asarray(z)[None, ...], np.asarray([true_class]), stats, space, lambda_s
    )
    return float(losses[0]), grads[0]


def bal_ce_batch(
    Z: np.ndarray, labels: np.ndarray, stats: ClassStats
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`bal_ce`; returns (losses (B,), gradients (B, M))."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != len(stats):
        raise DataError(f"logits shape {Z.shape} != (B, {len(stats)})")
    if not np.isfinite(Z).all():
        raise DataError("non-finite logits")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= len(stats):
        raise DataError("labels out of range")
    rows = np.arange(Z.shape[0])
    # one (B, M) work array goes u -> shifted -> exp -> gradient
    work = Z + stats.log_counts()[None, :]
    m = work.max(axis=1)
    u_true = work[rows, labels]
    work -= m[:, None]
    np.exp(work, out=work)
    total = work.sum(axis=1)
    losses = m + np.log(total) - u_true
    work /= total[:, None]
    work[rows, labels] -= 1.0
    return losses, work
