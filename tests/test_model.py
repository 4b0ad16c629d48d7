"""Training loop, parameter gradients, masking, probes, checkpoints."""
import json

import numpy as np
import pytest

from tailext.core import (
    ClassStats,
    DataError,
    FeatureDataset,
    LabelSpace,
    RunConfig,
    build_label_space,
    derive_rng,
)
from tailext.losses import bal_ce
from tailext.model import (
    CHECKPOINT_VERSION,
    ClassifierState,
    linear_probe_retrain,
    load_checkpoint,
    save_checkpoint,
    train,
)


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
    """One full-batch SGD step (momentum 0) moves params by exactly
    -lr * grad(mean loss), so the analytic chain rule can be checked against
    finite differences of an independent forward pass."""

    def test_linear_step_matches_numerical_gradient(self):
        ds = toy_dataset()
        space = LabelSpace(num_target=3)
        lr = 0.01
        cfg = RunConfig(epochs=1, batch_size=1024, learning_rate=lr, momentum=0.0)
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
            epochs=1, batch_size=1024, learning_rate=lr, momentum=0.0,
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
        cfg = RunConfig(epochs=20, learning_rate=0.5, momentum=0.0)
        state, log = train(ds, None, LabelSpace(num_target=3), cfg)
        acc = float((state.predict_batch(ds.features) == ds.labels).mean())
        assert acc == 1.0
        assert len(log.epochs) == 20

    def test_full_batch_loss_nonincreasing(self):
        ds = toy_dataset(seed=2, n_per=6)
        cfg = RunConfig(epochs=15, batch_size=1024, learning_rate=0.05, momentum=0.0)
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

    def test_adamw_runs(self):
        ds = toy_dataset(seed=9)
        cfg = RunConfig(epochs=5, optimizer="adamw", learning_rate=0.05, weight_decay=0.01)
        state, _ = train(ds, None, LabelSpace(num_target=3), cfg)
        assert np.isfinite(state.weights).all()

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
            ds, aux, space, RunConfig(epochs=3, lambda_s=0.0, momentum=0.0, aux_ratio=(1, 1, 3))
        )
        b, _ = train(
            ds, aux, space, RunConfig(epochs=3, lambda_s=1.0, momentum=0.0, aux_ratio=(1, 1, 3))
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


class TestProbe:
    def test_probe_replaces_head_and_freezes_hidden(self):
        ds = toy_dataset(seed=6, n_per=8)
        space = build_label_space(3, [(3, 0)])
        aux = FeatureDataset(derive_rng(9, "aux").normal(size=(6, 3)), np.full(6, 3))
        cfg = RunConfig(
            epochs=10, learning_rate=0.3, momentum=0.0, hidden_dim=8, aux_ratio=(1, 1, 3)
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
