"""Training loop, parameter gradients, masking, probes, checkpoints."""
import gc
import json
import tracemalloc

import numpy as np
import pytest

from tailext.core import (
    ClassStats,
    DataError,
    DivergenceError,
    FeatureDataset,
    LabelSpace,
    RunConfig,
    build_label_space,
    derive_rng,
)
from tailext.experiments import MLP_CONFIG, build_benchmark
from tailext.losses import bal_ce, bal_ce_batch, ns_ce_batch
from tailext.metrics import assign_splits
from tailext.model import (
    CHECKPOINT_VERSION,
    DIVERGENCE_RATIO,
    PREDICT_ROWS,
    ClassifierState,
    TrainLog,
    _init_state,
    linear_probe_retrain,
    load_checkpoint,
    save_checkpoint,
    train,
)
from tailext.sampling import build_plan, sample_epoch


def toy_dataset(seed=0, n_per=4, classes=3, dim=3, spread=4.0):
    rng = derive_rng(seed, "toy")
    feats, labels = [], []
    for c in range(classes):
        center = np.zeros(dim)
        center[c % dim] = spread
        feats.append(center + rng.normal(scale=0.3, size=(n_per, dim)))
        labels.extend([c] * n_per)
    return FeatureDataset(np.concatenate(feats), np.asarray(labels))


def mean_loss_fn(W, b, X, y, stats, hidden=None):
    """Reference forward + mean balanced CE, independent of the trainer."""
    if hidden is not None:
        Wh, bh = hidden
        X = np.tanh(X @ Wh.T + bh)
    total = 0.0
    for i in range(len(y)):
        total += bal_ce(W @ X[i] + b, int(y[i]), stats)[0]
    return total / len(y)


class TestParameterGradients:
    """One full-batch SGD step moves params by exactly
    -lr * grad(mean loss), so the analytic chain rule can be checked against
    finite differences of an independent forward pass."""

    def test_linear_step_matches_numerical_gradient(self):
        ds = toy_dataset()
        space = LabelSpace(num_target=3)
        lr = 0.01
        cfg = RunConfig(epochs=1, batch_size=1024, learning_rate=lr)
        state, _ = train(ds, None, space, cfg)
        stats = ClassStats(ds.class_counts(3))
        W0, b0 = np.zeros((3, 3)), np.zeros(3)
        implied_gw = (W0 - state.weights) / lr
        implied_gb = (b0 - state.bias) / lr
        h = 1e-5
        for r in range(3):
            for c in range(3):
                Wp, Wm = W0.copy(), W0.copy()
                Wp[r, c] += h
                Wm[r, c] -= h
                num = (
                    mean_loss_fn(Wp, b0, ds.features, ds.labels, stats)
                    - mean_loss_fn(Wm, b0, ds.features, ds.labels, stats)
                ) / (2 * h)
                assert implied_gw[r, c] == pytest.approx(num, rel=1e-4, abs=1e-7)
        for r in range(3):
            bp, bm = b0.copy(), b0.copy()
            bp[r] += h
            bm[r] -= h
            num = (
                mean_loss_fn(W0, bp, ds.features, ds.labels, stats)
                - mean_loss_fn(W0, bm, ds.features, ds.labels, stats)
            ) / (2 * h)
            assert implied_gb[r] == pytest.approx(num, rel=1e-4, abs=1e-7)

    def test_hidden_layer_step_matches_numerical_gradient(self):
        ds = toy_dataset(seed=5)
        space = LabelSpace(num_target=3)
        lr, H, D = 0.01, 4, 3
        cfg = RunConfig(
            epochs=1, batch_size=1024, learning_rate=lr,
            hidden_dim=H, seed=7,
        )
        state, _ = train(ds, None, space, cfg)
        stats = ClassStats(ds.class_counts(3))

        # replay the documented init: uniform(+-1/sqrt(D)) hidden, zero output
        bound = 1.0 / np.sqrt(D)
        Wh0 = derive_rng(7, "init-hidden").uniform(-bound, bound, size=(H, D))
        bh0 = np.zeros(H)
        W0, b0 = np.zeros((3, H)), np.zeros(3)
        np.testing.assert_array_equal(state.hidden_weights.shape, (H, D))

        implied = {
            "hw": (Wh0 - state.hidden_weights) / lr,
            "hb": (bh0 - state.hidden_bias) / lr,
        }
        h = 1e-6

        def loss_at(Wh, bh):
            return mean_loss_fn(W0, b0, ds.features, ds.labels, stats, hidden=(Wh, bh))

        for r in range(H):
            for c in range(D):
                Wp, Wm = Wh0.copy(), Wh0.copy()
                Wp[r, c] += h
                Wm[r, c] -= h
                num = (loss_at(Wp, bh0) - loss_at(Wm, bh0)) / (2 * h)
                assert implied["hw"][r, c] == pytest.approx(num, rel=1e-3, abs=1e-6)
            bp, bm = bh0.copy(), bh0.copy()
            bp[r] += h
            bm[r] -= h
            num = (loss_at(Wh0, bp) - loss_at(Wh0, bm)) / (2 * h)
            assert implied["hb"][r] == pytest.approx(num, rel=1e-3, abs=1e-6)


class TestTraining:
    def test_separable_data_learned(self):
        ds = toy_dataset(n_per=8)
        cfg = RunConfig(epochs=20, learning_rate=0.5)
        state, log = train(ds, None, LabelSpace(num_target=3), cfg)
        acc = float((state.predict_batch(ds.features) == ds.labels).mean())
        assert acc == 1.0
        assert len(log.epochs) == 20

    def test_full_batch_loss_nonincreasing(self):
        ds = toy_dataset(seed=2, n_per=6)
        cfg = RunConfig(epochs=15, batch_size=1024, learning_rate=0.05)
        _, log = train(ds, None, LabelSpace(num_target=3), cfg)
        losses = [e["mean_loss"] for e in log.epochs]
        for prev, cur in zip(losses, losses[1:]):
            assert cur <= prev + 1e-10

    def test_deterministic_same_seed(self):
        ds = toy_dataset(seed=3)
        cfg = RunConfig(epochs=5, learning_rate=0.1, seed=42)
        s1, l1 = train(ds, None, LabelSpace(num_target=3), cfg)
        s2, l2 = train(ds, None, LabelSpace(num_target=3), cfg)
        np.testing.assert_array_equal(s1.weights, s2.weights)
        np.testing.assert_array_equal(s1.bias, s2.bias)
        assert [e["mean_loss"] for e in l1.epochs] == [e["mean_loss"] for e in l2.epochs]
        s3, _ = train(ds, None, LabelSpace(num_target=3), cfg.with_overrides(seed=43))
        assert not np.array_equal(s1.weights, s3.weights)

    def test_lambda_irrelevant_without_aux(self):
        ds = toy_dataset(seed=4)
        space = LabelSpace(num_target=3)
        a, _ = train(ds, None, space, RunConfig(epochs=3, lambda_s=0.0))
        b, _ = train(ds, None, space, RunConfig(epochs=3, lambda_s=1.0))
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_lambda_matters_with_aux(self):
        ds = toy_dataset(seed=4)
        space = build_label_space(3, [(3, 2)])
        rng = derive_rng(8, "auxfeat")
        aux = FeatureDataset(rng.normal(size=(10, 3)), np.full(10, 3))
        a, loga = train(
            ds, aux, space, RunConfig(epochs=3, lambda_s=0.0, aux_ratio=(1, 1, 3))
        )
        b, _ = train(
            ds, aux, space, RunConfig(epochs=3, lambda_s=1.0, aux_ratio=(1, 1, 3))
        )
        assert not np.array_equal(a.weights, b.weights)
        entry = loga.epochs[0]
        assert entry["aux_active"] == [3]
        assert entry["aux_effective_counts"] == {"3": 10}
        assert entry["mixed_size"] == len(ds) + 10
        assert loga.plan is not None

    def test_validation_errors(self):
        ds = toy_dataset()
        cfg = RunConfig(epochs=1)
        with pytest.raises(DataError):
            train(FeatureDataset(np.zeros((0, 3)), np.zeros(0, dtype=int)),
                  None, LabelSpace(num_target=3), cfg)
        with pytest.raises(DataError):
            train(ds, None, LabelSpace(num_target=2), cfg)  # label 2 out of range
        bad_aux = FeatureDataset(np.zeros((2, 5)), np.full(2, 3))
        with pytest.raises(DataError):
            train(ds, bad_aux, build_label_space(3, [(3, 0)]), cfg)
        gap = FeatureDataset(np.zeros((2, 3)), np.array([0, 2]))
        with pytest.raises(DataError):
            train(gap, None, LabelSpace(num_target=3), cfg)  # class 1 unseen

    def test_auxiliary_rows_must_carry_auxiliary_ids(self):
        """A target-labelled auxiliary row would never be drawn, and over a
        K = 0 space the whole set would train as the baseline: both are
        refused, as is an id beyond the label space."""
        ds, aux, space = rotating_aux_problem()
        cfg = RunConfig(epochs=1, per_class_cap=4, aux_ratio=(1, 1, 1))
        four_target_rows = aux.labels.copy()
        four_target_rows[:4] = 1
        bare = LabelSpace(num_target=4)
        for labels, where in ((four_target_rows, space), (aux.labels - 4, bare),
                              (aux.labels, bare)):
            with pytest.raises(DataError, match=r"auxiliary labels must be auxiliary ids"):
                train(ds, FeatureDataset(aux.features, labels), where, cfg)


def reference_ns_ce_batch(Z, labels, stats, space, lambda_s):
    """The silencing loss as it was written before it reused one work
    array: a fresh temporary for every step, and each pair weight taken
    from its definition over ``neighbor_of``."""
    nb = space.neighbor_of
    rows = np.arange(Z.shape[0])
    u = Z + stats.log_counts()[None, :]
    t = u - u[rows, labels][:, None]
    w = np.array([
        [lambda_s if nb.get(j) == y or nb.get(y) == j else 1.0 for j in range(space.num_classes)]
        for y in labels.tolist()
    ])
    if lambda_s == 0:
        t = np.where(w > 0, t, -np.inf)
    m = t.max(axis=1)
    scaled = w * np.exp(t - m[:, None])
    total = scaled.sum(axis=1)
    grads = scaled / total[:, None]
    grads[rows, labels] -= 1.0
    return m + np.log(total), grads


def reference_bal_ce_batch(Z, labels, stats):
    """Balanced CE as it was written before it reused one work array."""
    rows = np.arange(Z.shape[0])
    u = Z + stats.log_counts()[None, :]
    m = u.max(axis=1)
    exp_u = np.exp(u - m[:, None])
    total = exp_u.sum(axis=1)
    grads = exp_u / total[:, None]
    grads[rows, labels] -= 1.0
    return m + np.log(total) - u[rows, labels], grads


def reference_step(params, grads, cfg):
    """SGD on whole arrays: p -= lr * g."""
    for name, p in params.items():
        p -= cfg.learning_rate * grads[name]


def reference_train(dataset, aux, space, cfg):
    """The dense batch loop that train() replaced: every batch gathers the
    active weight rows, scatters its gradient into zero-filled full arrays
    and steps every row. Kept as the reference train() must match bit for
    bit."""
    L = space.num_target
    target_counts = dataset.class_counts(L)
    use_aux = aux is not None and len(aux) > 0 and space.num_auxiliary > 0
    plan = None
    if use_aux:
        tags = assign_splits(ClassStats(target_counts)).tags
        expanded = sorted(set(space.neighbor_of.values()))
        plan = build_plan(target_counts, tags, expanded, cfg.per_class_cap, cfg.aux_ratio)
    state = _init_state(space, dataset.feature_dim, cfg)
    params = {"weights": state.weights, "bias": state.bias}
    if state.hidden_weights is not None:
        params["hidden_weights"] = state.hidden_weights
        params["hidden_bias"] = state.hidden_bias
    log = TrainLog(
        seed=cfg.seed, config=cfg.to_json(),
        plan=plan.to_json() if plan is not None else None,
    )
    for epoch in range(cfg.epochs):
        # the epoch's view: the auxiliaries drawn this epoch, ascending, take
        # the ids after L; those left out have no row, count or neighbor
        feats, labels, attached = dataset.features, dataset.labels, []
        if use_aux:
            subset, eff = sample_epoch(aux, space, plan, cfg.seed, epoch)
            attached = [c for c in range(L, space.num_classes) if eff[c - L] > 0]
            view_id = {c: L + i for i, c in enumerate(attached)}
            feats = np.concatenate([feats, subset.features])
            labels = np.array([*labels.tolist(), *(view_id[c] for c in subset.labels.tolist())])
        rows = [*range(L), *attached]
        ep_stats = ClassStats(np.array([*target_counts.tolist(), *(eff[c - L] for c in attached)]))
        neighbor_of = {L + i: space.neighbor_of[c] for i, c in enumerate(attached)}
        ep_space = LabelSpace(num_target=L, num_auxiliary=len(attached), neighbor_of=neighbor_of)
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
                losses, G = reference_ns_ce_batch(Z, yb, ep_stats, ep_space, cfg.lambda_s)
            else:
                losses, G = reference_bal_ce_batch(Z, yb, ep_stats)
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
            reference_step(params, grads, cfg)
        entry = {"epoch": epoch, "mean_loss": loss_total / n, "mixed_size": int(n)}
        if use_aux:
            active = (np.flatnonzero(eff > 0) + L).tolist()
            entry["aux_active"] = active
            entry["aux_effective_counts"] = {str(c): int(eff[c - L]) for c in active}
        log.epochs.append(entry)
    return state, log


def rotating_aux_problem():
    """Four target classes (28 samples) and five auxiliary classes of six
    samples each. At ratio 1:1:1 with cap 4, each epoch attaches one of
    target 0's three auxiliaries and one of target 2's two, so the active
    rows change from epoch to epoch; 36 samples per epoch in batches of 16
    leave a partial last batch."""
    rng = derive_rng(31, "rotating")
    counts = (12, 8, 5, 3)
    centers = rng.normal(scale=3.0, size=(4, 5))
    feats = np.concatenate([c + rng.normal(size=(n, 5)) for c, n in zip(centers, counts)])
    labels = np.repeat(np.arange(4), counts)
    space = build_label_space(4, [(4, 0), (5, 0), (6, 0), (7, 2), (8, 2)])
    aux_labels = np.repeat(np.arange(4, 9), 6)
    aux_feats = centers[space.query_target[aux_labels]] + rng.normal(size=(30, 5))
    return FeatureDataset(feats, labels), FeatureDataset(aux_feats, aux_labels), space


OPTIMIZERS = {
    "sgd": dict(learning_rate=0.3),
}


class TestMatchesDenseReference:
    """train() on compact epoch blocks gives the dense loop's bits."""

    @pytest.mark.parametrize("opt", sorted(OPTIMIZERS))
    @pytest.mark.parametrize("hidden_dim", [None, 6])
    # "unattached": an auxiliary set under a plan that attaches no class
    @pytest.mark.parametrize("with_aux", [True, False, "unattached"])
    @pytest.mark.parametrize("lambda_s", [0.0, 0.1])
    def test_bit_identical(self, opt, hidden_dim, with_aux, lambda_s):
        ds, aux, space = rotating_aux_problem()
        if not with_aux:
            aux, space = None, LabelSpace(num_target=4)
        cfg = RunConfig(
            epochs=4, batch_size=16, per_class_cap=4,
            aux_ratio=(0, 0, 0) if with_aux == "unattached" else (1, 1, 1),
            hidden_dim=hidden_dim, lambda_s=lambda_s, seed=5, **OPTIMIZERS[opt],
        )
        state, log = train(ds, aux, space, cfg)
        want, want_log = reference_train(ds, aux, space, cfg)
        for name in ("weights", "bias", "hidden_weights", "hidden_bias"):
            got, ref = getattr(state, name), getattr(want, name)
            assert (got is None) == (ref is None)
            if ref is not None:
                assert np.array_equal(got, ref), name
        assert json.dumps(log.to_json()) == json.dumps(want_log.to_json())
        if with_aux:
            attached = {tuple(e["aux_active"]) for e in log.epochs}
            # the active rows rotate across epochs, or there are none
            assert len(attached) > 1 if with_aux is True else attached == {()}

    def test_batch_losses_match_reference_and_keep_their_arguments(self):
        rng = derive_rng(32, "loss-args")
        space = build_label_space(3, [(3, 0), (4, 0), (5, 2)])
        stats = ClassStats(np.array([40, 9, 3, 5, 6, 2]))
        Z = rng.normal(scale=4.0, size=(7, 6))
        Z[0, 3] = 900.0  # a silenced logit that dominates its row
        labels = np.array([0, 3, 2, 5, 1, 4, 0])
        Z0, labels0 = Z.copy(), labels.copy()
        for lam in (0.0, 0.1, 1.0):
            got = ns_ce_batch(Z, labels, stats, space, lam)
            want = reference_ns_ce_batch(Z, labels, stats, space, lam)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        got = bal_ce_batch(Z, labels, stats)
        want = reference_bal_ce_batch(Z, labels, stats)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert np.array_equal(Z, Z0) and np.array_equal(labels, labels0)


class TestEpochFromRowNumbers:
    """Each epoch's auxiliary draw names rows of the auxiliary set, and every
    batch is gathered into one per-epoch buffer, so an epoch copies no
    features: at the benchmark geometry one MLP train's traced peak stays
    under 6 MB above its inputs (copying each draw into a subset and
    concatenating it after the target features peaked at about 13.5 MB)."""

    def test_mlp_train_peak(self):
        tr, _, aux, merged = build_benchmark(1)
        gc.collect()
        tracemalloc.start()
        try:
            train(tr, aux, merged, MLP_CONFIG.with_overrides(epochs=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


class TestDivergence:
    def test_runaway_loss_names_epoch_and_batch(self):
        ds, aux, space = rotating_aux_problem()
        cfg = RunConfig(epochs=3, batch_size=16, aux_ratio=(1, 1, 1), learning_rate=1e9)
        with pytest.raises(DivergenceError, match=r"epoch 0, batch 1: mean batch loss"):
            train(ds, aux, space, cfg)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_logits_trip(self):
        ds = toy_dataset(n_per=8)
        cfg = RunConfig(epochs=2, batch_size=8, learning_rate=1e308)
        with pytest.raises(DivergenceError, match=r"epoch 0, batch 1: non-finite logits"):
            train(ds, None, LabelSpace(num_target=3), cfg)

    def test_bound_is_a_multiple_of_the_first_batch_loss(self):
        # lr 5 drives this problem to about 12 times its first loss, lr 1e9 far
        # beyond any sane multiple; the bound must split the two
        ds, aux, space = rotating_aux_problem()
        cfg = RunConfig(epochs=3, batch_size=16, aux_ratio=(1, 1, 1), learning_rate=5.0)
        train(ds, aux, space, cfg)
        with pytest.raises(DivergenceError, match=f"limit {DIVERGENCE_RATIO:g} times"):
            train(ds, aux, space, cfg.with_overrides(learning_rate=1e9))


class TestMasking:
    def make_state(self):
        rng = derive_rng(17, "mask")
        space = build_label_space(3, [(3, 0), (4, 2)])
        return ClassifierState(
            weights=rng.normal(size=(5, 4)), bias=rng.normal(size=5), space=space
        )

    def test_masked_predictions_equal_argmax_over_target_rows(self):
        state = self.make_state()
        X = derive_rng(18, "x").normal(size=(40, 4))
        masked = state.masked()
        assert masked.space.num_classes == 3
        np.testing.assert_array_equal(
            masked.predict_batch(X), np.argmax(state.logits_batch(X)[:, :3], axis=1)
        )

    def test_mask_does_not_mutate_original(self):
        state = self.make_state()
        before = state.weights.copy()
        masked = state.masked()
        masked.weights[:] = 0.0
        np.testing.assert_array_equal(state.weights, before)


class TestChunkedPrediction:
    """predict_batch scores balanced row chunks of at most PREDICT_ROWS; its
    predictions are those of one product over every row."""

    @pytest.mark.parametrize("hidden", [None, 128])
    @pytest.mark.parametrize("num_aux", [0, 280])
    def test_predictions_match_one_full_product(self, hidden, num_aux):
        rng = derive_rng(21, "chunks")
        L, D = 100, 64
        space = build_label_space(L, [(L + k, k % L) for k in range(num_aux)])
        width = hidden or D
        state = ClassifierState(
            weights=rng.normal(size=(L + num_aux, width)),
            bias=rng.normal(size=L + num_aux),
            space=space,
            hidden_weights=None if hidden is None else rng.normal(size=(hidden, D)) / 8,
            hidden_bias=None if hidden is None else rng.normal(size=hidden),
        )
        for n in (1, 2, PREDICT_ROWS - 1, PREDICT_ROWS + 1, 2 * PREDICT_ROWS + 2, 5000):
            X = rng.normal(scale=3.0, size=(n, D))
            want = np.argmax(state.logits_batch(X), axis=1)
            got = state.predict_batch(X)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_bad_shape_rejected(self):
        state = ClassifierState(weights=np.eye(3), bias=np.zeros(3),
                                space=LabelSpace(num_target=3))
        with pytest.raises(DataError):
            state.predict_batch(np.zeros((4, 2)))
        with pytest.raises(DataError):
            state.predict_batch(np.zeros(3))


def reference_probe(state, dataset, cfg):
    """The probe's own batch loop from before it ran through train()'s loop:
    full-array weights, fresh temporaries every batch. Kept as the
    reference linear_probe_retrain() must match bit for bit."""
    L = state.space.num_target
    stats = ClassStats(dataset.class_counts(L))
    rep = state._represent(dataset.features)
    weights = np.zeros((L, rep.shape[1]))
    bias = np.zeros(L)
    params = {"weights": weights, "bias": bias}
    n = len(dataset)
    for epoch in range(cfg.epochs):
        perm = derive_rng(cfg.seed, "probe-shuffle", epoch).permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            Hb, yb = rep[idx], dataset.labels[idx]
            Z = Hb @ weights.T + bias
            _, G = bal_ce_batch(Z, yb, stats)
            G /= idx.size
            reference_step(params, {"weights": G.T @ Hb, "bias": G.sum(axis=0)}, cfg)
    return weights, bias


class TestProbe:
    @pytest.mark.parametrize("opt", sorted(OPTIMIZERS))
    @pytest.mark.parametrize("hidden_dim", [None, 6])
    def test_matches_reference_loop(self, opt, hidden_dim):
        # 28 target samples in batches of 16 leave a partial last batch
        ds, aux, space = rotating_aux_problem()
        cfg = RunConfig(
            epochs=4, batch_size=16, per_class_cap=4, aux_ratio=(1, 1, 1),
            hidden_dim=hidden_dim, seed=5, **OPTIMIZERS[opt],
        )
        state, _ = train(ds, aux, space, cfg)
        probe = linear_probe_retrain(state, ds, cfg)
        weights, bias = reference_probe(state, ds, cfg)
        assert np.array_equal(probe.weights, weights)
        assert np.array_equal(probe.bias, bias)
        assert not np.array_equal(weights, state.weights[:4])  # the head was refitted

    def test_diverging_probe_names_epoch_and_batch(self):
        ds, aux, space = rotating_aux_problem()
        cfg = RunConfig(epochs=3, batch_size=16, aux_ratio=(1, 1, 1))
        state, _ = train(ds, aux, space, cfg)
        with pytest.raises(DivergenceError, match=r"epoch 0, batch 1: mean batch loss"):
            linear_probe_retrain(state, ds, cfg.with_overrides(learning_rate=1e9))

    def test_probe_replaces_head_and_freezes_hidden(self):
        ds = toy_dataset(seed=6, n_per=8)
        space = build_label_space(3, [(3, 0)])
        aux = FeatureDataset(derive_rng(9, "aux").normal(size=(6, 3)), np.full(6, 3))
        cfg = RunConfig(
            epochs=10, learning_rate=0.3, hidden_dim=8, aux_ratio=(1, 1, 3)
        )
        state, _ = train(ds, aux, space, cfg)
        probe = linear_probe_retrain(state, ds, cfg)
        assert probe.space.num_target == 3 and probe.space.num_auxiliary == 0
        assert probe.weights.shape == (3, 8)
        np.testing.assert_array_equal(probe.hidden_weights, state.hidden_weights)
        acc = float((probe.predict_batch(ds.features) == ds.labels).mean())
        assert acc > 0.9

    def test_probe_input_validation(self):
        ds = toy_dataset()
        state, _ = train(ds, None, LabelSpace(num_target=3), RunConfig(epochs=1))
        with pytest.raises(DataError):
            linear_probe_retrain(
                state, FeatureDataset(np.zeros((1, 3)), np.array([7])), RunConfig()
            )
        missing = FeatureDataset(np.zeros((2, 3)), np.array([0, 1]))
        with pytest.raises(DataError):
            linear_probe_retrain(state, missing, RunConfig())


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        space = build_label_space(2, [(2, 1)])
        rng = derive_rng(20, "ckpt")
        state = ClassifierState(
            weights=rng.normal(size=(3, 5)),
            bias=rng.normal(size=3),
            space=space,
            hidden_weights=rng.normal(size=(5, 4)),
            hidden_bias=rng.normal(size=5),
        )
        p = tmp_path / "ck.json"
        save_checkpoint(state, p)
        back = load_checkpoint(p)
        np.testing.assert_array_equal(back.weights, state.weights)
        np.testing.assert_array_equal(back.bias, state.bias)
        np.testing.assert_array_equal(back.hidden_weights, state.hidden_weights)
        np.testing.assert_array_equal(back.hidden_bias, state.hidden_bias)
        assert back.space == space

    def test_activation_key_must_be_tanh(self, tmp_path):
        space = LabelSpace(num_target=2)
        state = ClassifierState(
            np.ones((2, 3)), np.zeros(2), space,
            hidden_weights=np.ones((3, 4)), hidden_bias=np.zeros(3),
        )
        p = tmp_path / "ck.json"
        save_checkpoint(state, p)
        payload = json.loads(p.read_text())
        assert "activation" not in payload
        payload["activation"] = "tanh"  # written by older versions
        p.write_text(json.dumps(payload))
        np.testing.assert_array_equal(load_checkpoint(p).hidden_weights, np.ones((3, 4)))
        payload["activation"] = "relu"
        p.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="relu"):
            load_checkpoint(p)

    def test_version_and_missing_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"format_version": 99}\n')
        with pytest.raises(DataError):
            load_checkpoint(p)
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "absent.json")
        assert CHECKPOINT_VERSION == 1

    def test_state_shape_validation(self):
        with pytest.raises(DataError):
            ClassifierState(np.zeros((2, 3)), np.zeros(3), LabelSpace(num_target=2))
        with pytest.raises(DataError):
            ClassifierState(np.zeros((2, 3)), np.zeros(2), LabelSpace(num_target=5))
        with pytest.raises(DataError):
            ClassifierState(
                np.zeros((2, 3)), np.zeros(2), LabelSpace(num_target=2),
                hidden_weights=np.zeros((4, 6)), hidden_bias=np.zeros(4),
            )
