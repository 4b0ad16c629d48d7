"""Linear (optionally one-hidden-layer) classifier over feature vectors,
trained with mini-batch gradient descent on the mixed target + auxiliary set.

Class counts used inside the loss are the post-cap per-epoch counts of the
mixed dataset, recomputed each epoch: the auxiliary sampler changes effective
counts, and auxiliary categories left unattached in an epoch are excluded from
that epoch's denominator entirely (their count is zero). At inference the
classifier is masked back to the target rows; masking restricts a view and
never mutates trained weights.

Epoch block layout. An epoch's active output rows are the L target rows
plus the auxiliary rows attached that epoch, ascending (``_epoch_view``). At
the start of the epoch the output layer's weights, bias and optimizer slots
for those rows are copied into contiguous blocks; every batch of the epoch
runs forward, loss, backward and step on the blocks in place, and the
blocks are copied back at the end of the epoch. The per-batch buffers (the
hidden features H, the logits, the output and hidden gradients, dA and
1 - H^2) are allocated once per epoch; the last, partial batch uses leading
views of them.

Idle-row rule. A row outside the epoch's active rows gets a gradient of
exactly zero. Under plain SGD (momentum 0, no weight decay) a zero gradient
leaves the row bit for bit unchanged, so idle rows are not touched. Under
momentum, weight decay or AdamW a zero gradient still moves the row
(``_Optimizer.moves_idle_rows``), so idle rows are gathered into a block of
their own and stepped with a zero gradient on every batch. Every optimizer
update is elementwise, so stepping rows in blocks gives the same bits as
stepping the full arrays.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .core import (
    ClassStats,
    ConfigError,
    DataError,
    DivergenceError,
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

# A batch whose mean loss exceeds this multiple of the first batch's mean
# loss stops training as diverged. The output layer starts at zero, so the
# first loss is fixed by the class counts and the batch's labels alone. The
# largest multiple measured on working runs is 39 (crowded, imbalanced pilot
# cells at the default learning rate); SGD at lr 1e9 and AdamW at lr 1e3
# pass 6,000 within their first batches.
DIVERGENCE_RATIO = 1000.0


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

    def _represent(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The hidden layer's tanh features of X (X itself for a linear
        model), written into ``out`` when given."""
        if self.hidden_weights is None:
            return X
        H = np.matmul(X, self.hidden_weights.T, out=out)
        H += self.hidden_bias
        return np.tanh(H, out=H)

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
    """SGD with momentum, or AdamW with the (0.9, 0.95) beta preset.

    ``slots`` holds each parameter's state arrays by parameter name. A step
    may be given other parameter and slot arrays, such as row blocks of
    them: every update is elementwise.
    """

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

    @property
    def moves_idle_rows(self) -> bool:
        """Whether a zero gradient still changes a parameter: under momentum,
        weight decay or AdamW it does; under plain SGD it does not."""
        cfg = self.cfg
        return self.kind == "adamw" or cfg.momentum != 0 or cfg.weight_decay != 0

    def step(
        self,
        params: dict[str, np.ndarray],
        grads: dict[str, np.ndarray],
        slots: dict[str, dict[str, np.ndarray]] | None = None,
    ) -> None:
        """One update of every parameter in ``params``, in place; ``slots``
        defaults to the optimizer's own."""
        cfg = self.cfg
        slots = self.slots if slots is None else slots
        self.step_count += 1
        for name, p in params.items():
            g = grads[name]
            slot = slots[name]
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


def _diverged(epoch: int, batch: int, reason: str) -> DivergenceError:
    return DivergenceError(f"training diverged at epoch {epoch}, batch {batch}: {reason}")


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
    reproduce the TrainLog bit for bit. Raises DivergenceError, naming the
    epoch and batch, when a logit or batch loss turns non-finite or a batch
    loss exceeds DIVERGENCE_RATIO times the first batch's.
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
    out_layer = {"weights": state.weights, "bias": state.bias}
    hidden: dict[str, np.ndarray] = {}
    if state.hidden_weights is not None:
        hidden = {"hidden_weights": state.hidden_weights, "hidden_bias": state.hidden_bias}
    optimizer = _Optimizer(cfg, {**out_layer, **hidden})

    log = TrainLog(
        seed=cfg.seed,
        config=cfg.to_json(),
        plan=plan.to_json() if plan is not None else None,
    )

    first_loss = None
    for epoch in range(cfg.epochs):
        if use_aux:
            subset, eff = sample_epoch(aux, space, plan, cfg.seed, epoch)
        else:
            subset, eff = None, None
        feats, labels, rows, ep_stats, ep_space = _epoch_view(
            dataset, target_counts, subset, eff, space
        )

        # gather the output layer into row blocks (see the module docstring)
        blocks = {"": rows}
        if optimizer.moves_idle_rows and rows.size < space.num_classes:
            blocks["idle_"] = np.setdiff1d(np.arange(space.num_classes), rows)
        params = dict(hidden)
        slots = {name: optimizer.slots[name] for name in hidden}
        for tag, sel in blocks.items():
            for name, full in out_layer.items():
                params[tag + name] = full[sel]
                slots[tag + name] = {k: a[sel] for k, a in optimizer.slots[name].items()}
        W, b = params["weights"], params["bias"]
        grads = {"weights": np.empty_like(W), "bias": np.empty_like(b)}
        if "idle_" in blocks:
            grads["idle_weights"] = np.zeros_like(params["idle_weights"])
            grads["idle_bias"] = np.zeros_like(params["idle_bias"])
        n = labels.size
        width = min(cfg.batch_size, n)
        Z_buf = np.empty((width, rows.size))
        if hidden:
            grads["hidden_weights"] = np.empty_like(state.hidden_weights)
            grads["hidden_bias"] = np.empty_like(state.hidden_bias)
            H_buf = np.empty((width, state.hidden_weights.shape[0]))
            dA_buf = np.empty_like(H_buf)
            slope_buf = np.empty_like(H_buf)

        perm = derive_rng(cfg.seed, "shuffle", epoch).permutation(n)
        loss_total = 0.0
        for batch, start in enumerate(range(0, n, cfg.batch_size)):
            idx = perm[start : start + cfg.batch_size]
            Xb, yb = feats[idx], labels[idx]
            B = idx.size
            H = state._represent(Xb, out=H_buf[:B] if hidden else None)
            Z = Z_buf[:B]
            np.matmul(H, W.T, out=Z)
            Z += b
            try:
                if ep_space.num_auxiliary > 0:
                    losses, G = ns_ce_batch(Z, yb, ep_stats, ep_space, cfg.lambda_s)
                else:
                    losses, G = bal_ce_batch(Z, yb, ep_stats)
            except DataError:
                if np.isfinite(Z).all():
                    raise
                raise _diverged(epoch, batch, "non-finite logits") from None
            batch_loss = float(losses.sum())
            loss_total += batch_loss
            mean_loss = batch_loss / B
            if first_loss is None:
                first_loss = mean_loss
            # a first loss of 0 (no class competes with any label) leaves
            # only the non-finite check
            if not math.isfinite(mean_loss) or (
                first_loss > 0 and mean_loss > DIVERGENCE_RATIO * first_loss
            ):
                raise _diverged(
                    epoch, batch, f"mean batch loss {mean_loss:.6g}, first batch's "
                    f"{first_loss:.6g}, limit {DIVERGENCE_RATIO:g} times the first",
                )

            G /= B
            np.matmul(G.T, H, out=grads["weights"])
            np.sum(G, axis=0, out=grads["bias"])
            if hidden:
                dA = dA_buf[:B]
                slope = slope_buf[:B]
                np.matmul(G, W, out=dA)
                np.multiply(H, H, out=slope)
                np.subtract(1.0, slope, out=slope)
                dA *= slope
                np.matmul(dA.T, Xb, out=grads["hidden_weights"])
                np.sum(dA, axis=0, out=grads["hidden_bias"])
            optimizer.step(params, grads, slots)

        for tag, sel in blocks.items():
            for name, full in out_layer.items():
                full[sel] = params[tag + name]
                for k, a in optimizer.slots[name].items():
                    a[sel] = slots[tag + name][k]

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
            G /= idx.size
            optimizer.step(params, {"weights": G.T @ Hb, "bias": G.sum(axis=0)})

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
