"""Linear (optionally one-hidden-layer) classifier over feature vectors,
trained with mini-batch gradient descent on the mixed target + auxiliary set.

Class counts used inside the loss are the post-cap per-epoch counts of the
mixed dataset, recomputed each epoch: the auxiliary sampler changes effective
counts, and auxiliary categories left unattached in an epoch are excluded from
that epoch's denominator entirely (their count is zero). At inference the
classifier is masked back to the target rows; masking restricts a view and
never mutates trained weights.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .core import (
    ClassStats,
    ConfigError,
    DataError,
    FeatureDataset,
    LabelSpace,
    RunConfig,
    derive_rng,
)
from .losses import bal_ce_batch, ns_ce_batch
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
            if self.weights.shape[1] != self.hidden_weights.shape[0]:
                raise DataError("output layer width must equal hidden width")

    @property
    def num_classes(self) -> int:
        return int(self.weights.shape[0])

    @property
    def feature_dim(self) -> int:
        if self.hidden_weights is not None:
            return int(self.hidden_weights.shape[1])
        return int(self.weights.shape[1])

    def _represent(self, X: np.ndarray) -> np.ndarray:
        if self.hidden_weights is None:
            return X
        return np.tanh(X @ self.hidden_weights.T + self.hidden_bias)

    def logits_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.feature_dim:
            raise DataError(
                f"features shape {X.shape} incompatible with feature dim {self.feature_dim}"
            )
        return self._represent(X) @ self.weights.T + self.bias

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Argmax class per row; ties resolve to the lowest class id."""
        return np.argmax(self.logits_batch(X), axis=1)

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
        return {
            "seed": self.seed,
            "config": dict(self.config),
            "plan": dict(self.plan) if self.plan is not None else None,
            "epochs": self.epochs,
        }


class _Optimizer:
    """SGD with momentum, or AdamW with the (0.9, 0.95) beta preset."""

    ADAM_BETAS = (0.9, 0.95)

    def __init__(self, cfg: RunConfig, params: dict[str, np.ndarray]):
        self.cfg = cfg
        self.kind = cfg.optimizer
        self.step_count = 0
        if self.kind == "sgd":
            self.slots = {k: {"v": np.zeros_like(p)} for k, p in params.items()}
        else:
            self.slots = {
                k: {"m": np.zeros_like(p), "v": np.zeros_like(p)} for k, p in params.items()
            }

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        cfg = self.cfg
        self.step_count += 1
        for name, p in params.items():
            g = grads[name]
            slot = self.slots[name]
            if self.kind == "sgd":
                if cfg.weight_decay:
                    g = g + cfg.weight_decay * p
                v = slot["v"]
                np.multiply(v, cfg.momentum, out=v)
                v += g
                p -= cfg.learning_rate * v
            else:
                b1, b2 = self.ADAM_BETAS
                if cfg.weight_decay:
                    p *= 1.0 - cfg.learning_rate * cfg.weight_decay
                slot["m"][:] = b1 * slot["m"] + (1 - b1) * g
                slot["v"][:] = b2 * slot["v"] + (1 - b2) * g * g
                m_hat = slot["m"] / (1 - b1**self.step_count)
                v_hat = slot["v"] / (1 - b2**self.step_count)
                p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)


def _init_state(space: LabelSpace, feature_dim: int, cfg: RunConfig) -> ClassifierState:
    M = space.num_classes
    if cfg.hidden_dim is None:
        return ClassifierState(
            weights=np.zeros((M, feature_dim)), bias=np.zeros(M), space=space
        )
    rng = derive_rng(cfg.seed, "init-hidden")
    bound = 1.0 / np.sqrt(feature_dim)
    return ClassifierState(
        weights=np.zeros((M, cfg.hidden_dim)),
        bias=np.zeros(M),
        space=space,
        hidden_weights=rng.uniform(-bound, bound, size=(cfg.hidden_dim, feature_dim)),
        hidden_bias=np.zeros(cfg.hidden_dim),
    )


def _epoch_view(
    dataset: FeatureDataset,
    target_counts: np.ndarray,
    aux_subset: FeatureDataset | None,
    eff_counts: np.ndarray | None,
    space: LabelSpace,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, ClassStats, LabelSpace]:
    """Mix target data with this epoch's auxiliary draw.

    Auxiliary classes with zero effective count this epoch are dropped from
    the active class set; the survivors are re-indexed contiguously after L so
    the loss sees a valid label space with all counts >= 1. Returns
    (features, labels-in-active-ids, active row indices, stats, space view).
    """
    L = space.num_target
    if aux_subset is None or eff_counts is None or not (eff_counts > 0).any():
        return (
            dataset.features,
            dataset.labels,
            np.arange(L),
            ClassStats(target_counts),
            LabelSpace(num_target=L),
        )
    active_aux = np.flatnonzero(eff_counts > 0) + L
    view_ids = L + np.arange(active_aux.size)
    remap = np.full(space.num_classes, -1, dtype=np.int64)
    remap[active_aux] = view_ids
    view_space = LabelSpace(
        num_target=L,
        num_auxiliary=active_aux.size,
        neighbor_of=dict(
            zip(view_ids.tolist(), space.query_target[active_aux].tolist())
        ),
    )
    stats = ClassStats(np.concatenate([target_counts, eff_counts[active_aux - L]]))
    feats = np.concatenate([dataset.features, aux_subset.features])
    labels = np.concatenate([dataset.labels, remap[aux_subset.labels]])
    rows = np.concatenate([np.arange(L), active_aux])
    return feats, labels, rows, stats, view_space


def train(
    dataset: FeatureDataset,
    aux: FeatureDataset | None,
    space: LabelSpace,
    cfg: RunConfig,
) -> tuple[ClassifierState, TrainLog]:
    """Train on the mixed target + auxiliary data.

    Uses the neighbor-silencing loss whenever auxiliary classes are active in
    an epoch and plain balanced CE otherwise (K = 0 degenerates to the BalCE
    baseline regardless of lambda_s). Every random decision draws from a
    stream derived from (cfg.seed, purpose, epoch, ...), so identical inputs
    reproduce the TrainLog bit for bit.
    """
    from .metrics import assign_splits

    if len(dataset) == 0:
        raise DataError("empty target dataset")
    if dataset.labels.max() >= space.num_target:
        raise DataError("target dataset contains auxiliary or out-of-range labels")
    if aux is not None and len(aux) and aux.feature_dim != dataset.feature_dim:
        raise DataError(
            f"auxiliary feature dim {aux.feature_dim} != target {dataset.feature_dim}"
        )

    L = space.num_target
    target_counts = dataset.class_counts(L)
    if (target_counts < 1).any():
        missing = np.flatnonzero(target_counts < 1).tolist()
        raise DataError(f"target classes {missing} have no training samples")

    use_aux = aux is not None and len(aux) > 0 and space.num_auxiliary > 0
    plan: AuxSamplingPlan | None = None
    if use_aux:
        tags = assign_splits(ClassStats(target_counts)).tags
        expanded = sorted({t for t in space.neighbor_of.values()})
        plan = build_plan(target_counts, tags, expanded, cfg.per_class_cap, cfg.aux_ratio)

    state = _init_state(space, dataset.feature_dim, cfg)
    params: dict[str, np.ndarray] = {"weights": state.weights, "bias": state.bias}
    if state.hidden_weights is not None:
        params["hidden_weights"] = state.hidden_weights
        params["hidden_bias"] = state.hidden_bias
    optimizer = _Optimizer(cfg, params)

    log = TrainLog(
        seed=cfg.seed,
        config=cfg.to_json(),
        plan=plan.to_json() if plan is not None else None,
    )

    for epoch in range(cfg.epochs):
        if use_aux:
            subset, eff = sample_epoch(aux, space, plan, cfg.seed, epoch)
        else:
            subset, eff = None, None
        feats, labels, rows, ep_stats, ep_space = _epoch_view(
            dataset, target_counts, subset, eff, space
        )
        n = labels.size
        perm = derive_rng(cfg.seed, "shuffle", epoch).permutation(n)
        loss_total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            Xb, yb = feats[idx], labels[idx]
            B = idx.size
            H = state._represent(Xb)
            W = state.weights[rows]
            Z = H @ W.T + state.bias[rows]
            if ep_space.num_auxiliary > 0:
                losses, G = ns_ce_batch(Z, yb, ep_stats, ep_space, cfg.lambda_s)
            else:
                losses, G = bal_ce_batch(Z, yb, ep_stats)
            loss_total += float(losses.sum())
            Gm = G / B
            grad_w = np.zeros_like(state.weights)
            grad_b = np.zeros_like(state.bias)
            grad_w[rows] = Gm.T @ H
            grad_b[rows] = Gm.sum(axis=0)
            grads = {"weights": grad_w, "bias": grad_b}
            if state.hidden_weights is not None:
                dA = (Gm @ W) * (1.0 - H * H)
                grads["hidden_weights"] = dA.T @ Xb
                grads["hidden_bias"] = dA.sum(axis=0)
            optimizer.step(params, grads)

        entry = {
            "epoch": epoch,
            "mean_loss": loss_total / n,
            "mixed_size": int(n),
        }
        if use_aux:
            active = (np.flatnonzero(eff > 0) + L).tolist()
            entry["aux_active"] = active
            entry["aux_effective_counts"] = {str(c): int(eff[c - L]) for c in active}
        log.epochs.append(entry)

    return state, log


def linear_probe_retrain(
    state: ClassifierState, dataset: FeatureDataset, cfg: RunConfig
) -> ClassifierState:
    """Discard the trained output layer and re-train an L-class one on the
    target dataset only (the classifier re-balancing alternative to masking).

    The hidden layer, when present, stays frozen; for a purely linear model
    this reduces to training a fresh target-only balanced-CE classifier.
    """
    L = state.space.num_target
    if len(dataset) == 0 or dataset.labels.max() >= L:
        raise DataError("probe dataset must be non-empty target-only data")
    counts = dataset.class_counts(L)
    if (counts < 1).any():
        raise DataError("probe dataset must cover every target class")
    stats = ClassStats(counts)

    rep = state._represent(dataset.features)
    weights = np.zeros((L, rep.shape[1]))
    bias = np.zeros(L)
    params = {"weights": weights, "bias": bias}
    optimizer = _Optimizer(cfg, params)
    n = len(dataset)
    for epoch in range(cfg.epochs):
        perm = derive_rng(cfg.seed, "probe-shuffle", epoch).permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            Hb, yb = rep[idx], dataset.labels[idx]
            Z = Hb @ weights.T + bias
            _, G = bal_ce_batch(Z, yb, stats)
            Gm = G / idx.size
            optimizer.step(params, {"weights": Gm.T @ Hb, "bias": Gm.sum(axis=0)})

    masked = state.masked()
    return ClassifierState(
        weights=weights,
        bias=bias,
        space=masked.space,
        hidden_weights=masked.hidden_weights,
        hidden_bias=masked.hidden_bias,
    )


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
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def load_checkpoint(path: str | Path) -> ClassifierState:
    """Read a checkpoint written by :func:`save_checkpoint`.

    A checkpoint that names an activation is accepted only when it is tanh,
    the one hidden-layer activation the model has.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        raise DataError(f"{path}: checkpoint is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{path}: checkpoint must hold a JSON object")
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {version!r}")
    activation = payload.get("activation", "tanh")
    if activation != "tanh":
        raise DataError(f"{path}: unsupported activation {activation!r}")
    hidden = payload.get("hidden")
    try:
        state = ClassifierState(
            weights=np.asarray(payload["weights"], dtype=np.float64),
            bias=np.asarray(payload["bias"], dtype=np.float64),
            space=LabelSpace.from_json(payload["label_space"]),
            hidden_weights=None if hidden is None else np.asarray(hidden["weights"]),
            hidden_bias=None if hidden is None else np.asarray(hidden["bias"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad checkpoint: {exc!r}") from exc
    arrays = (state.weights, state.bias, state.hidden_weights, state.hidden_bias)
    if not all(a is None or np.isfinite(a).all() for a in arrays):
        raise DataError(f"{path}: non-finite weights or biases")
    return state
