"""End-to-end experiment drivers shared by the CLI and the acceptance tests.

Each driver builds its synthetic data, trains, and evaluates from a single
seed, so a grid of runs is reproducible cell by cell. The independent runs of
a driver (pilot cells, the arms of a method pair or an ablation cell) share
the available CPUs through ``core._map_runs``, with the same results at any
CPU count. Desk-scale defaults (100 classes, 64 dims, max 300 samples per
class) keep a full pilot grid or benchmark under a few minutes.
"""
from __future__ import annotations

from typing import Sequence

from .core import ClassStats, LabelSpace, RunConfig, _map_runs
from .metrics import assign_splits, count_rank_gap, evaluate, expansion_targets
from .model import linear_probe_retrain, train
from .synth import CountProfile, HierarchySpec, make_auxiliary, make_counts, make_hierarchy

__all__ = [
    "BENCH_CONFIG",
    "MLP_CONFIG",
    "run_pilot_cell",
    "run_pilot_grid",
    "build_benchmark",
    "run_method_pair",
    "run_ablation_cell",
]

# Benchmark default: linear classifier, 1:1:3 attachment ratio. Used for the
# method-vs-baseline comparison and the masking-vs-probe comparison, both of
# which live in the classifier head.
BENCH_CONFIG = RunConfig(aux_ratio=(1, 1, 3))

# Representation-learning variant: one tanh layer. Silencing strength only
# matters once a shared feature layer exists for the auxiliary classes to
# distort, so the lambda ablation runs on this config.
MLP_CONFIG = RunConfig(learning_rate=0.05, aux_ratio=(1, 1, 3), hidden_dim=128)


def run_pilot_cell(
    num_superclasses: int,
    imbalance: float,
    seed: int,
    num_classes: int = 100,
    feature_dim: int = 64,
    max_count: int = 300,
    test_per_class: int = 100,
    sigma_fine: float = 2.5,
    cfg: RunConfig | None = None,
) -> dict:
    """One granularity-pilot run: train balanced CE on a hierarchy with the
    given superclass count and imbalance ratio, report the head-tail gap.

    The gap uses count-rank terciles so it stays defined at imbalance 1.0.
    The slightly widened ring (sigma_fine 2.5) keeps the balanced arms of
    the sweep centered on zero gap; the granularity contrast is insensitive
    to it.
    """
    profile = CountProfile(
        "exponential", num_classes, max_count, imbalance=imbalance
    )
    counts = make_counts(profile, seed)
    spec = HierarchySpec(
        num_superclasses=num_superclasses,
        num_classes=num_classes,
        feature_dim=feature_dim,
        sigma_fine=sigma_fine,
    )
    train_ds, test_ds = make_hierarchy(spec, counts, seed, test_per_class)
    run_cfg = (cfg or RunConfig()).with_overrides(seed=seed)
    state, log = train(train_ds, None, LabelSpace(num_target=num_classes), run_cfg)
    stats = ClassStats(train_ds.class_counts(num_classes))
    # one prediction pass serves the report and the rank gap
    preds = state.masked().predict_batch(test_ds.features)
    report = evaluate(
        state, test_ds, assign_splits(stats), mask=True, seed=seed, _predictions=preds
    )
    gap = count_rank_gap(preds, test_ds.labels, stats)
    return {
        "num_superclasses": num_superclasses,
        "imbalance": imbalance,
        "seed": seed,
        "rank_gap": gap,
        "final_loss": log.epochs[-1]["mean_loss"],
        "report": report,
    }


def run_pilot_grid(
    superclass_grid: Sequence[int],
    imbalance_grid: Sequence[float],
    seeds: Sequence[int],
    **cell_kwargs,
) -> list[dict]:
    """Full pilot grid in a deterministic row order (S, imbalance, seed)."""
    cells = [(s, b, seed) for s in superclass_grid for b in imbalance_grid for seed in seeds]
    return _map_runs(lambda cell: run_pilot_cell(*cell, **cell_kwargs), cells)


def build_benchmark(
    seed: int,
    num_classes: int = 100,
    num_superclasses: int = 10,
    feature_dim: int = 64,
    max_count: int = 300,
    imbalance: float = 0.01,
    test_per_class: int = 100,
    sigma_fine: float = 2.5,
    per_target: int = 5,
    samples_per_aux: int = 120,
    offset: float = 3.0,
    expand: tuple[str, ...] = ("medium", "few"),
):
    """Long-tail target data plus synthetic neighbor categories.

    Expansion targets are selected by split tag (default: medium and few),
    mirroring the curation default of leaving head classes alone. Returns
    (train, test, aux, merged space).
    """
    counts = make_counts(
        CountProfile("exponential", num_classes, max_count, imbalance=imbalance), seed
    )
    spec = HierarchySpec(
        num_superclasses=num_superclasses,
        num_classes=num_classes,
        feature_dim=feature_dim,
        sigma_fine=sigma_fine,
    )
    train_ds, test_ds = make_hierarchy(spec, counts, seed, test_per_class)
    aux_ds, merged = make_auxiliary(
        train_ds,
        LabelSpace(num_target=num_classes),
        per_target=per_target,
        samples_per_aux=samples_per_aux,
        seed=seed,
        targets=expansion_targets(counts, expand),
        offset=offset,
    )
    return train_ds, test_ds, aux_ds, merged


def run_method_pair(seed: int, cfg: RunConfig | None = None, **geometry) -> dict:
    """Train the auxiliary-expansion method and its BalCE baseline on the
    same target data and seed; evaluate both masked to the target classes.

    The method arm runs in this process, so its state and log are returned
    as trained; the baseline arm may run in a forked child (see
    ``core._map_runs``), which sends back only its report.
    """
    cfg = (cfg or BENCH_CONFIG).with_overrides(seed=seed)
    train_ds, test_ds, aux_ds, merged = build_benchmark(seed, **geometry)
    L = merged.num_target
    splits = assign_splits(ClassStats(train_ds.class_counts(L)))

    def method_arm():
        state, log = train(train_ds, aux_ds, merged, cfg)
        return evaluate(state, test_ds, splits, mask=True, seed=seed), state, log

    def baseline_arm():
        state, _ = train(train_ds, None, LabelSpace(num_target=L), cfg)
        return evaluate(state, test_ds, splits, mask=True, seed=seed)

    (method, method_state, method_log), baseline = _map_runs(
        lambda arm: arm(), (method_arm, baseline_arm)
    )
    return {
        "seed": seed,
        "baseline": baseline,
        "method": method,
        "method_state": method_state,
        "train_ds": train_ds,
        "test_ds": test_ds,
        "splits": splits,
        "log": method_log,
    }


def run_ablation_cell(seed: int, cfg: RunConfig | None = None, **geometry) -> dict:
    """One seed of the loss/classifier ablation.

    Compares silencing strengths 0.1 vs 1.0 (the latter is the plain merged
    balanced CE) and, for the 0.1 model, masking vs linear-probe re-training.
    Pass MLP_CONFIG to run it in the representation-learning regime where
    the silencing strength has a visible effect. The 0.1 arm and its probe
    run in this process, the 1.0 arm possibly in a forked child (see
    ``core._map_runs``).
    """
    cfg = (cfg or BENCH_CONFIG).with_overrides(seed=seed)
    train_ds, test_ds, aux_ds, merged = build_benchmark(seed, **geometry)
    L = merged.num_target
    splits = assign_splits(ClassStats(train_ds.class_counts(L)))

    def arm(lam: float) -> list:
        """Reports of the lambda_s = lam model and, at 0.1, of its probe."""
        state, _ = train(train_ds, aux_ds, merged, cfg.with_overrides(lambda_s=lam))
        models = [state]
        if lam == 0.1:
            models.append(linear_probe_retrain(state, train_ds, cfg))
        return [evaluate(m, test_ds, splits, mask=True, seed=seed) for m in models]

    (masked, probe), (plain,) = _map_runs(arm, (0.1, 1.0))
    return {
        "seed": seed,
        "lambda_0.1": masked,
        "lambda_1.0": plain,
        "masked": masked,
        "probe": probe,
    }

