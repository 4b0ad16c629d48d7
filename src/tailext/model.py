"""Linear (optionally one-hidden-layer) classifier over feature vectors,
trained with mini-batch gradient descent on the mixed target + auxiliary set
and masked back to the target rows at inference. Masking restricts a view
and never mutates trained weights.

The epoch. Each epoch has its own class set, counts, loss and batches, all
built by ``_epoch`` before its first batch. Under an auxiliary sampling
plan it mixes the epoch's draw (``sample_epoch``) after the target data;
the auxiliary classes attached take the ids after L with their post-cap
counts, and those left out drop out of the denominator entirely. The batch
loss is bound once per epoch to those counts: neighbor silencing if an
auxiliary class is attached, else balanced CE. The draw runs over the
auxiliary set's row numbers, not its features, so no epoch copies a
feature. ``_epoch`` also draws the epoch's permutation, and its plan is
two flat arrays in batch order: the labels and each position's row, a
target row below N (the target row count) or N plus an auxiliary row. For
a silencing epoch the loss slices each batch's silenced (row, column)
pairs from one ``_silenced`` call over the epoch. The batch loop
(``_descend``) slices that plan; it does no work that the weights do not
decide.

One mini-batch loop (``_fit``) serves both ``train`` and
``linear_probe_retrain``: the probe hands it the frozen hidden layer's
features as a linear, target-only dataset, so it shares the epoch buffers
described below and the divergence guard (``DIVERGENCE_RATIO``).

Epoch block layout. An epoch's active output rows are the L target rows
plus the auxiliary rows attached that epoch, ascending (``_epoch``). At
the start of the epoch the output layer's weights and bias for those rows
are copied into one contiguous block; every batch of the epoch runs
forward, loss, backward and step on the block in place, and the block is
copied back at the end of the epoch. The per-batch buffers (the input
rows, the hidden features H, the logits, the output and hidden gradients,
dA and 1 - H^2) are allocated once per epoch, and freed with the epoch's
plan before the next epoch plans its batches; the last, partial batch uses
leading views of them. A batch takes its rows into the input buffer with
one ``np.take`` over the target features; a batch that holds auxiliary
rows then copies those over their positions, through one temporary of
their features. The loss writes its gradient over the logits, which
nothing reads afterwards, so no batch allocates an array the size of its
logits.

Update rule. Plain SGD steps ``g *= lr; p -= g``, the bits of
``p -= lr * g`` without its temporary, and keeps no state; a row outside
the epoch's active rows has a zero gradient, so it stays as it is.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .core import (
    ClassStats,
    DataError,
    DivergenceError,
    FeatureDataset,
    LabelSpace,
    RunConfig,
    check_size,
    derive_rng,
    read_json,
    write_file,
)
from .losses import _silenced, bal_ce_batch, ns_ce_batch
from .metrics import assign_splits
from .sampling import AuxSamplingPlan, build_plan, sample_epoch

__all__ = [
    "ClassifierState",
    "TrainLog",
    "train",
    "linear_probe_retrain",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 1

# A batch whose mean loss exceeds this multiple of the first batch's mean
# loss stops training as diverged. The output layer starts at zero, so the
# first loss is fixed by the class counts and the batch's labels alone. The
# largest multiple measured on working runs is 39 (crowded, imbalanced pilot
# cells at the default learning rate); SGD at lr 1e9 passes 6,000 within its
# first batches.
DIVERGENCE_RATIO = 1000.0

# predict_batch scores at most this many rows at a time, in balanced chunks
# (np.array_split). Fixed-size chunks leave short tails, such as the one row
# left of 1,025, that BLAS multiplies through other kernels than the full
# product, which changes logits in the last bit. Measured with OpenBLAS
# 0.3.31 on x86-64: balanced chunks gave the full product's logits bit for
# bit on every shape tried with 10 to 200 output rows (the masked case); at
# 300 and 380 rows a few logits differed in the last bit, which can move an
# argmax only on a tie to the last bit.
PREDICT_ROWS = 1024


@dataclass
class ClassifierState:
    """Classifier weights, one row per class id of the owning label space.

    ``weights`` is (L+K, D) where D is the feature dim for a linear model or
    the hidden width of the tanh hidden layer when one is configured.
    """

    weights: np.ndarray
    bias: np.ndarray
    space: LabelSpace
    hidden_weights: np.ndarray | None = None
    hidden_bias: np.ndarray | None = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise DataError("weights must be (M, D) with matching bias (M,)")
        if self.weights.shape[0] != self.space.num_classes:
            raise DataError(
                f"{self.weights.shape[0]} weight rows for a "
                f"{self.space.num_classes}-class label space"
            )
        if (self.hidden_weights is None) != (self.hidden_bias is None):
            raise DataError("hidden weights and bias must be given together")
        if self.hidden_weights is not None:
            self.hidden_weights = np.asarray(self.hidden_weights, dtype=np.float64)
            self.hidden_bias = np.asarray(self.hidden_bias, dtype=np.float64)
            width = self.weights.shape[1]
            if self.hidden_weights.ndim != 2 or self.hidden_weights.shape[0] != width:
                raise DataError("hidden weights must be (H, D), H the output layer's width")
            if self.hidden_bias.shape != (width,):
                raise DataError("hidden bias must be (H,), H the output layer's width")

    @property
    def num_classes(self) -> int:
        return int(self.weights.shape[0])

    @property
    def feature_dim(self) -> int:
        if self.hidden_weights is not None:
            return int(self.hidden_weights.shape[1])
        return int(self.weights.shape[1])

    def _represent(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The hidden layer's tanh features of X (X itself for a linear
        model), written into ``out`` when given."""
        if self.hidden_weights is None:
            return X
        H = np.matmul(X, self.hidden_weights.T, out=out)
        H += self.hidden_bias
        return np.tanh(H, out=H)

    def _features(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.feature_dim:
            raise DataError(
                f"features shape {X.shape} incompatible with feature dim {self.feature_dim}"
            )
        return X

    def logits_batch(self, X: np.ndarray) -> np.ndarray:
        Z = self._represent(self._features(X)) @ self.weights.T
        Z += self.bias
        return Z

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Argmax class per row; ties resolve to the lowest class id.

        Rows are scored in balanced chunks of at most PREDICT_ROWS (see
        there), so no (N, M) logits array is built.
        """
        X = self._features(X)
        chunks = np.array_split(X, max(1, -(-X.shape[0] // PREDICT_ROWS)))
        return np.concatenate([np.argmax(self.logits_batch(c), axis=1) for c in chunks])

    def masked(self) -> "ClassifierState":
        """Restrict to the L target rows; identity when K = 0."""
        L = self.space.num_target
        names = self.space.class_names
        masked_space = LabelSpace(
            num_target=L,
            num_auxiliary=0,
            neighbor_of={},
            class_names={i: n for i, n in names.items() if i < L} if names else None,
        )
        return ClassifierState(
            weights=self.weights[:L].copy(),
            bias=self.bias[:L].copy(),
            space=masked_space,
            hidden_weights=None if self.hidden_weights is None else self.hidden_weights.copy(),
            hidden_bias=None if self.hidden_bias is None else self.hidden_bias.copy(),
        )


@dataclass
class TrainLog:
    """Per-epoch record of losses and the sampling decisions that shaped them."""

    seed: int
    config: Mapping
    plan: Mapping | None
    epochs: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)


def _init_state(space: LabelSpace, feature_dim: int, cfg: RunConfig) -> ClassifierState:
    M = space.num_classes
    if cfg.hidden_dim is None:
        return ClassifierState(
            weights=np.zeros((M, feature_dim)), bias=np.zeros(M), space=space
        )
    check_size(M * cfg.hidden_dim, "classes * hidden_dim")
    check_size(cfg.hidden_dim * feature_dim, "hidden_dim * feature_dim")
    rng = derive_rng(cfg.seed, "init-hidden")
    bound = 1.0 / np.sqrt(feature_dim)
    return ClassifierState(
        weights=np.zeros((M, cfg.hidden_dim)),
        bias=np.zeros(M),
        space=space,
        hidden_weights=rng.uniform(-bound, bound, size=(cfg.hidden_dim, feature_dim)),
        hidden_bias=np.zeros(cfg.hidden_dim),
    )


def _epoch(
    dataset: FeatureDataset,
    target_counts: np.ndarray,
    space: LabelSpace,
    cfg: RunConfig,
    stream: str,
    numbered: FeatureDataset | None,
    plan: AuxSamplingPlan | None,
    epoch: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Callable, dict]:
    """One epoch's active output rows, plan and batch loss.

    With a ``plan``, the epoch's auxiliary draw follows the target data and
    the classes it attached take the ids after L; those left out have no
    row, so every count the loss sees is >= 1. The draw runs on
    ``numbered``, whose one column numbers the auxiliary set's rows from N,
    the target row count (``_fit``), so it copies no features. The epoch's
    positions, the N target rows and then the auxiliary rows drawn, are
    shuffled from the stream (cfg.seed, ``stream``, epoch).

    Returns (rows, labels, src, loss, log fields). ``labels`` and ``src``
    are in batch order: batch k is their slice [k * size, (k + 1) * size)
    for size cfg.batch_size, and ``src`` holds each position's row, a
    target row below N or N plus a row of the auxiliary set.
    ``loss(Z, labels, k)`` writes batch k's gradient into Z: the silencing
    loss at cfg.lambda_s when an auxiliary class is attached, with the
    batch's silenced pairs sliced from one ``_silenced`` call over the
    epoch, and balanced CE otherwise. Only a plan gives log fields:
    ``aux_active``, ``aux_effective_counts``.
    """
    L, N = space.num_target, len(dataset)
    src, labels, rows, counts, fields = (
        np.arange(N), dataset.labels, np.arange(L), target_counts, {}
    )
    if plan is not None:
        subset, eff = sample_epoch(numbered, space, plan, cfg.seed, epoch)
        active = np.flatnonzero(eff > 0) + L
        fields = {"aux_active": active.tolist(),
                  "aux_effective_counts": {str(c): int(eff[c - L]) for c in active.tolist()}}
        remap = np.full(space.num_classes, -1, dtype=np.int64)
        remap[active] = np.arange(L, L + active.size)
        src = np.concatenate([src, subset.features[:, 0].astype(np.int64)])
        labels = np.concatenate([labels, remap[subset.labels]])
        rows = np.concatenate([rows, active])
        counts = np.concatenate([counts, eff[active - L]])
    perm = derive_rng(cfg.seed, stream, epoch).permutation(labels.size)
    src, labels = src[perm], labels[perm]
    stats = ClassStats(counts)
    if rows.size == L:
        loss = lambda Z, y, batch: bal_ce_batch(Z, y, stats, out=Z)
        return rows, labels, src, loss, fields
    view = LabelSpace(num_target=L, num_auxiliary=rows.size - L, neighbor_of=dict(zip(
        range(L, rows.size), space.query_target[rows[L:]].tolist())))
    # the epoch's pairs by position, cut at the batches, with rows local to
    # their batch
    size = cfg.batch_size
    pair_rows, pair_cols = _silenced(view, labels)
    by_row = np.argsort(pair_rows, kind="stable")
    pair_rows, pair_cols = pair_rows[by_row], pair_cols[by_row]
    cut = np.searchsorted(pair_rows, np.arange(0, labels.size + size, size)).tolist()
    pair_rows %= size

    def loss(Z, y, batch):
        i, j = cut[batch], cut[batch + 1]
        return ns_ce_batch(Z, y, stats, view, cfg.lambda_s,
                           silenced=(pair_rows[i:j], pair_cols[i:j]), out=Z)

    return rows, labels, src, loss, fields


def _diverged(epoch: int, batch: int, reason: str) -> DivergenceError:
    return DivergenceError(f"training diverged at epoch {epoch}, batch {batch}: {reason}")


def _target_counts(dataset: FeatureDataset, num_target: int) -> np.ndarray:
    """Per-class counts of a non-empty, target-only dataset that covers
    every one of the ``num_target`` classes; DataError otherwise."""
    if len(dataset) == 0:
        raise DataError("empty target dataset")
    if dataset.labels.max() >= num_target:
        raise DataError("target dataset contains auxiliary or out-of-range labels")
    counts = dataset.class_counts(num_target)
    if (counts < 1).any():
        missing = np.flatnonzero(counts < 1).tolist()
        raise DataError(f"target classes {missing} have no training samples")
    return counts


def _fit(
    state: ClassifierState,
    dataset: FeatureDataset,
    target_counts: np.ndarray,
    cfg: RunConfig,
    stream: str,
    aux: FeatureDataset | None = None,
    plan: AuxSamplingPlan | None = None,
) -> list[dict]:
    """The mini-batch loop: train ``state`` in place for cfg.epochs epochs
    and return the per-epoch log entries.

    ``_epoch`` plans each epoch and binds its loss, with an auxiliary
    draw under a ``plan``, and ``_descend`` runs its batches.
    Raises DivergenceError, naming the epoch and batch, when a logit or
    batch loss turns non-finite or a batch loss exceeds DIVERGENCE_RATIO
    times the first batch's.
    """
    # the auxiliary set's row numbers after the N target rows, exact in
    # float64 below 2**53, with its labels: sample_epoch's draw reads only
    # labels, so drawing from this stand-in names the epoch's rows without
    # copying a feature or an id
    numbered = None
    if plan is not None:
        N = len(dataset)
        numbered = FeatureDataset(np.arange(N, N + len(aux), dtype=np.float64)[:, None],
                                  aux.labels)

    entries = []
    first_loss = None
    for epoch in range(cfg.epochs):
        rows, labels, src, loss, log_fields = _epoch(dataset, target_counts, state.space, cfg,
                                                     stream, numbered, plan, epoch)
        n = labels.size
        # the epoch's buffers go with _descend's frame, and its plan with
        # the del, before the next epoch plans its own
        loss_total, first_loss = _descend(
            state, rows, labels, src, loss, dataset.features,
            None if numbered is None else aux.features,
            min(cfg.batch_size, n), cfg.learning_rate, epoch, first_loss,
        )
        del rows, labels, src, loss
        entries.append(
            {"epoch": epoch, "mean_loss": loss_total / n, "mixed_size": int(n), **log_fields}
        )
    return entries


def _descend(
    state: ClassifierState,
    rows: np.ndarray,
    labels: np.ndarray,
    src: np.ndarray,
    loss: Callable,
    features: np.ndarray,
    aux_features: np.ndarray | None,
    size: int,
    learning_rate: float,
    epoch: int,
    first_loss: float | None,
) -> tuple[float, float]:
    """One epoch of SGD on ``state``: each batch, a slice of ``size``
    positions of ``_epoch``'s ``labels`` and ``src``, gathers its rows of
    ``features`` (rows below N, their row count) and ``aux_features`` (the
    rest, less N) and runs forward, ``loss``, backward and step on the
    block of output ``rows`` (module docstring). Returns the epoch's summed
    loss and the first batch's mean loss of the training, ``first_loss``
    when one is given; DivergenceError as ``_fit`` describes.
    """
    N = features.shape[0]
    out_layer = {"weights": state.weights, "bias": state.bias}
    hidden: dict[str, np.ndarray] = {}
    if state.hidden_weights is not None:
        hidden = {"hidden_weights": state.hidden_weights, "hidden_bias": state.hidden_bias}
    # gather the output layer into one row block (see the module docstring)
    params = {**hidden, **{name: full[rows] for name, full in out_layer.items()}}
    grads = {name: np.zeros_like(p) for name, p in params.items()}
    W, b = params["weights"], params["bias"]
    grad_W, grad_b = grads["weights"], grads["bias"]
    X_buf = np.empty((size, features.shape[1]))
    Z_buf = np.empty((size, rows.size))
    if hidden:
        H_buf = np.empty((size, state.hidden_weights.shape[0]))
        dA_buf = np.empty_like(H_buf)
        slope_buf = np.empty_like(H_buf)

    loss_total = 0.0
    for batch, start in enumerate(range(0, labels.size, size)):
        yb, idx = labels[start : start + size], src[start : start + size]
        B = yb.size
        # "clip" writes straight into the buffer, where the default "raise"
        # goes through a copy; it takes an auxiliary position's row number
        # down to N - 1, and that row is then written over. np.take gathers
        # the auxiliary rows faster than indexing, and at a lower peak RSS
        Xb = X_buf[:B]
        np.take(features, idx, axis=0, out=Xb, mode="clip")
        if aux_features is not None:
            aux_at = np.flatnonzero(idx >= N)
            Xb[aux_at] = np.take(aux_features, idx[aux_at] - N, axis=0)
        H = state._represent(Xb, out=H_buf[:B] if hidden else None)
        Z = Z_buf[:B]
        np.matmul(H, W.T, out=Z)
        Z += b
        try:
            # the gradient G is written over Z
            losses, G = loss(Z, yb, batch)
        except DataError:
            # the loss writes Z only after its checks, so Z holds the logits
            if np.isfinite(Z).all():
                raise
            raise _diverged(epoch, batch, "non-finite logits") from None
        batch_loss = float(losses.sum())
        loss_total += batch_loss
        mean_loss = batch_loss / B
        if first_loss is None:
            first_loss = mean_loss
        # a first loss of 0 (no class competes with any label) leaves only
        # the non-finite check
        if not math.isfinite(mean_loss) or (
            first_loss > 0 and mean_loss > DIVERGENCE_RATIO * first_loss
        ):
            raise _diverged(
                epoch, batch, f"mean batch loss {mean_loss:.6g}, first batch's "
                f"{first_loss:.6g}, limit {DIVERGENCE_RATIO:g} times the first",
            )

        G /= B
        np.matmul(G.T, H, out=grad_W)
        np.sum(G, axis=0, out=grad_b)
        if hidden:
            dA = dA_buf[:B]
            slope = slope_buf[:B]
            np.matmul(G, W, out=dA)
            np.multiply(H, H, out=slope)
            np.subtract(1.0, slope, out=slope)
            dA *= slope
            np.matmul(dA.T, Xb, out=grads["hidden_weights"])
            np.sum(dA, axis=0, out=grads["hidden_bias"])
        # p -= lr * g, bit for bit, with no temporary
        for name, p in params.items():
            g = grads[name]
            g *= learning_rate
            p -= g

    for name, full in out_layer.items():
        full[rows] = params[name]
    return loss_total, first_loss


def train(
    dataset: FeatureDataset,
    aux: FeatureDataset | None,
    space: LabelSpace,
    cfg: RunConfig,
) -> tuple[ClassifierState, TrainLog]:
    """Train on the mixed target + auxiliary data.

    Each epoch trains on ``_epoch``'s loss, so K = 0 gives the BalCE
    baseline regardless of lambda_s. Every random decision draws from a
    stream derived from (cfg.seed, purpose, epoch, ...), so identical inputs
    reproduce the TrainLog bit for bit. Raises DataError when an auxiliary
    row carries a target id, which the sampler would never draw, or an id
    outside the label space, and DivergenceError as ``_fit`` describes.
    """
    target_counts = _target_counts(dataset, space.num_target)
    plan: AuxSamplingPlan | None = None
    if aux is not None and len(aux):
        if aux.feature_dim != dataset.feature_dim:
            raise DataError(
                f"auxiliary feature dim {aux.feature_dim} != target {dataset.feature_dim}"
            )
        # which rules out K = 0 as well
        if aux.labels.min() < space.num_target or aux.labels.max() >= space.num_classes:
            raise DataError(f"auxiliary labels must be auxiliary ids in "
                            f"[{space.num_target}, {space.num_classes})")
        tags = assign_splits(ClassStats(target_counts)).tags
        expanded = sorted({t for t in space.neighbor_of.values()})
        plan = build_plan(target_counts, tags, expanded, cfg.per_class_cap, cfg.aux_ratio)

    state = _init_state(space, dataset.feature_dim, cfg)
    log = TrainLog(
        seed=cfg.seed,
        config=cfg.to_json(),
        plan=plan.to_json() if plan is not None else None,
        epochs=_fit(state, dataset, target_counts, cfg, "shuffle", aux, plan),
    )
    return state, log


def linear_probe_retrain(
    state: ClassifierState, dataset: FeatureDataset, cfg: RunConfig
) -> ClassifierState:
    """Discard the trained output layer and re-train an L-class one on the
    target dataset only (the classifier re-balancing alternative to masking).

    The hidden layer, when present, stays frozen: its features of the
    dataset are computed once and fitted as a linear, target-only dataset by
    the same loop as ``train`` (shuffled from the "probe-shuffle" stream),
    so a diverging probe raises DivergenceError too. For a purely linear
    model this is a fresh target-only balanced-CE classifier.
    """
    masked = state.masked()
    counts = _target_counts(dataset, masked.num_classes)
    features = FeatureDataset(
        state._represent(state._features(dataset.features)), dataset.labels
    )
    head = ClassifierState(
        np.zeros_like(masked.weights), np.zeros_like(masked.bias), masked.space
    )
    _fit(head, features, counts, cfg, "probe-shuffle")
    masked.weights, masked.bias = head.weights, head.bias
    return masked


def save_checkpoint(state: ClassifierState, path: str | Path) -> None:
    """Versioned JSON checkpoint including the label space."""
    payload: dict = {
        "format_version": CHECKPOINT_VERSION,
        "label_space": state.space.to_json(),
        "weights": state.weights.tolist(),
        "bias": state.bias.tolist(),
        "hidden": None,
    }
    if state.hidden_weights is not None:
        payload["hidden"] = {
            "weights": state.hidden_weights.tolist(),
            "bias": state.hidden_bias.tolist(),
        }
    write_file(path, (json.dumps(payload, sort_keys=True) + "\n").encode())


def load_checkpoint(path: str | Path) -> ClassifierState:
    """Read a checkpoint written by :func:`save_checkpoint`.

    A checkpoint that names an activation is accepted only when it is tanh,
    the one hidden-layer activation the model has.
    """
    payload = read_json(path, _CHECKPOINT_JSON, DataError, "checkpoint")
    if payload["format_version"] != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {payload['format_version']!r}")
    if payload["activation"] not in (None, "tanh"):
        raise DataError(f"{path}: unsupported activation {payload['activation']!r}")
    # sized before the label space is built, which allocates per class
    sizes = payload["label_space"]
    num_classes = sizes["num_target"] + (sizes["num_auxiliary"] or 0)
    if len(payload["weights"]) != num_classes:
        raise DataError(f"{path}: bad checkpoint: {len(payload['weights'])} weight rows "
                        f"for a {num_classes}-class label space")
    hidden = payload["hidden"] or {}
    try:
        state = ClassifierState(
            weights=payload["weights"],
            bias=payload["bias"],
            space=LabelSpace.from_json(payload["label_space"]),
            hidden_weights=hidden.get("weights"),
            hidden_bias=hidden.get("bias"),
        )
    # DataError and ConfigError too, and an integer too large for a float
    except (ValueError, OverflowError) as exc:
        raise DataError(f"{path}: bad checkpoint: {exc}") from None
    arrays = (state.weights, state.bias, state.hidden_weights, state.hidden_bias)
    if not all(a is None or np.isfinite(a).all() for a in arrays):
        raise DataError(f"{path}: non-finite weights or biases")
    return state


_CHECKPOINT_JSON = {
    "format_version": int,
    "activation": (str, None),
    "weights": [[float]],
    "bias": [float],
    "hidden": ({"weights": [[float]], "bias": [float]}, None),
    "label_space": {"num_target": int, "num_auxiliary": (int, None)},
}
