"""Loss oracles, analytic-vs-numerical gradients, and algebraic identities.

Closed-form values below were worked out by hand from the definitions (state
noted next to each) rather than by running the implementation.
"""
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from tailext.core import (
    ClassStats, ConfigError, DataError, LabelSpace, RunConfig, build_label_space, derive_rng
)
from tailext.losses import (
    _silenced,
    bal_ce,
    bal_ce_batch,
    bal_ce_merged,
    balanced_error,
    ns_ce,
    ns_ce_batch,
)


def fd_grad(fn, z, h=1e-5):
    """Central finite difference of a scalar fn at z."""
    g = np.zeros_like(z)
    for i in range(z.size):
        e = np.zeros_like(z)
        e[i] = h
        g[i] = (fn(z + e) - fn(z - e)) / (2 * h)
    return g


def random_space(rng, max_total=10):
    L = int(rng.integers(1, max_total))
    K = int(rng.integers(0, max_total - L + 1))
    pairs = [(L + k, int(rng.integers(0, L))) for k in range(K)]
    return build_label_space(L, pairs)


class TestFrozenValues:
    def test_two_class_uniform(self):
        # z = (0, 0), counts (1, 1), y = 0: softmax is (1/2, 1/2)
        loss, grad = bal_ce(np.zeros(2), 0, ClassStats(np.array([1, 1])))
        assert loss == pytest.approx(0.6931471805599453, abs=1e-15)
        np.testing.assert_allclose(grad, [-0.5, 0.5], atol=1e-15)

    def test_count_offsets_enter_denominator(self):
        # z = 0 everywhere, counts (100, 10, 1), y = 2:
        # loss = log(111) - log(1), grad = n/111 - onehot
        loss, grad = bal_ce(np.zeros(3), 2, ClassStats(np.array([100, 10, 1])))
        assert loss == pytest.approx(4.709530201312334, rel=1e-14)
        np.testing.assert_allclose(
            grad, [100 / 111, 10 / 111, 1 / 111 - 1], rtol=1e-14
        )

    def test_uniform_counts_reduce_to_ce(self):
        # z = (2, 0), y = 0: loss = log(1 + e^-2)
        loss, grad = bal_ce(np.array([2.0, 0.0]), 0, ClassStats(np.array([1, 1])))
        assert loss == pytest.approx(0.12692801104297263, rel=1e-14)
        np.testing.assert_allclose(
            grad, [-0.11920292202211755, 0.11920292202211755], rtol=1e-13
        )

    def test_silencing_discounts_neighbor_term(self):
        # One target, one aux queried from it, equal counts, z = (0, 0), y = 0:
        # loss = log(1 + 0.1), grad = (-1/11, 1/11)
        space = build_label_space(1, [(1, 0)])
        stats = ClassStats(np.array([1, 1]))
        loss, grad = ns_ce(np.zeros(2), 0, stats, space, lambda_s=0.1)
        assert loss == pytest.approx(0.09531017980432486, rel=1e-14)
        np.testing.assert_allclose(grad, [-1 / 11, 1 / 11], rtol=1e-14)

    def test_full_silencing_removes_neighbor(self):
        # lambda_s = 0: the aux term vanishes, only the true-class term
        # survives, so the loss is exactly 0 regardless of the aux logit.
        space = build_label_space(1, [(1, 0)])
        stats = ClassStats(np.array([1, 1]))
        loss, grad = ns_ce(np.array([0.0, 500.0]), 0, stats, space, lambda_s=0.0)
        assert loss == 0.0
        np.testing.assert_allclose(grad, [0.0, 0.0], atol=1e-15)


class TestGradients:
    def test_bal_ce_matches_finite_difference(self):
        rng = derive_rng(11, "fd-balce")
        for _ in range(60):
            n = int(rng.integers(2, 10))
            stats = ClassStats(rng.integers(1, 500, size=n))
            z = rng.normal(scale=3.0, size=n)
            y = int(rng.integers(0, n))
            _, grad = bal_ce(z, y, stats)
            num = fd_grad(lambda v: bal_ce(v, y, stats)[0], z)
            np.testing.assert_allclose(grad, num, rtol=1e-4, atol=1e-6)

    def test_ns_ce_matches_finite_difference(self):
        rng = derive_rng(12, "fd-nsce")
        for _ in range(60):
            space = random_space(rng)
            M = space.num_classes
            stats = ClassStats(rng.integers(1, 500, size=M))
            z = rng.normal(scale=3.0, size=M)
            y = int(rng.integers(0, M))
            lam = float(rng.choice([0.0, 0.1, 0.5, 1.0]))
            _, grad = ns_ce(z, y, stats, space, lam)
            num = fd_grad(lambda v: ns_ce(v, y, stats, space, lam)[0], z)
            np.testing.assert_allclose(grad, num, rtol=1e-4, atol=1e-6)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_gradient_rows_sum_to_zero(self, seed):
        rng = derive_rng(seed, "gradsum")
        space = random_space(rng)
        M = space.num_classes
        stats = ClassStats(rng.integers(1, 100, size=M))
        Z = rng.normal(size=(4, M))
        labels = rng.integers(0, M, size=4)
        _, g1 = bal_ce_batch(Z, labels, stats)
        _, g2 = ns_ce_batch(Z, labels, stats, space, 0.3)
        np.testing.assert_allclose(g1.sum(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(g2.sum(axis=1), 0.0, atol=1e-12)


class TestIdentities:
    def test_uniform_counts_equal_plain_ce(self):
        # independent oracle: logsumexp from scipy
        rng = derive_rng(21, "id-ce")
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            z = rng.normal(scale=5.0, size=n)
            y = int(rng.integers(0, n))
            loss, _ = bal_ce(z, y, ClassStats(np.ones(n, dtype=int)))
            want = float(logsumexp(z) - z[y])
            assert abs(loss - want) < 1e-12

    def test_lambda_one_equals_merged_bal_ce(self):
        rng = derive_rng(22, "id-merged")
        for _ in range(1000):
            space = random_space(rng)
            M = space.num_classes
            stats = ClassStats(rng.integers(1, 400, size=M))
            z = rng.normal(scale=4.0, size=M)
            y = int(rng.integers(0, M))
            a, ga = ns_ce(z, y, stats, space, lambda_s=1.0)
            b, gb = bal_ce_merged(z, y, stats)
            assert abs(a - b) < 1e-12
            np.testing.assert_allclose(ga, gb, atol=1e-12)

    @given(st.integers(0, 10**6), st.floats(-50, 50))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, seed, c):
        rng = derive_rng(seed, "shift")
        space = random_space(rng)
        M = space.num_classes
        stats = ClassStats(rng.integers(1, 300, size=M))
        z = rng.normal(size=M)
        y = int(rng.integers(0, M))
        a, _ = ns_ce(z, y, stats, space, 0.25)
        b, _ = ns_ce(z + c, y, stats, space, 0.25)
        assert a == pytest.approx(b, rel=1e-10, abs=1e-10)

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_loss_nondecreasing_in_lambda(self, seed):
        rng = derive_rng(seed, "lam-mono")
        space = build_label_space(3, [(3, 0), (4, 0), (5, 2)])
        stats = ClassStats(rng.integers(1, 200, size=6))
        z = rng.normal(scale=3.0, size=6)
        losses = [ns_ce(z, 0, stats, space, lam)[0] for lam in (0.0, 0.1, 0.5, 1.0)]
        for lo, hi in zip(losses, losses[1:]):
            assert hi >= lo - 1e-12

    def test_zero_lambda_equals_dropping_silenced_classes(self):
        # Shift safety: with lambda_s = 0 the silenced exponents must not
        # participate in the max shift, so the value equals a recomputation on
        # the reduced class set even when a silenced logit dominates.
        space = build_label_space(2, [(2, 0)])
        stats = ClassStats(np.array([50, 20, 7]))
        z = np.array([1.0, -2.0, 300.0])
        loss, grad = ns_ce(z, 0, stats, space, 0.0)
        keep = [0, 1]
        sub, gs = ns_ce(
            z[keep], 0, ClassStats(stats.counts[keep]), LabelSpace(num_target=2), 0.0
        )
        assert loss == pytest.approx(sub, rel=1e-14)
        np.testing.assert_allclose(grad[keep], gs, atol=1e-14)
        assert grad[2] == 0.0


class TestBatchForms:
    def test_batch_matches_single_sample_loop(self):
        rng = derive_rng(31, "batch")
        space = random_space(rng)
        M = space.num_classes
        stats = ClassStats(rng.integers(1, 300, size=M))
        Z = rng.normal(size=(16, M))
        labels = rng.integers(0, M, size=16)
        losses, grads = ns_ce_batch(Z, labels, stats, space, 0.1)
        for b in range(16):
            l, g = ns_ce(Z[b], int(labels[b]), stats, space, 0.1)
            assert losses[b] == pytest.approx(l, rel=1e-14)
            np.testing.assert_allclose(grads[b], g, atol=1e-14)

    def test_input_validation(self):
        stats = ClassStats(np.array([1, 1]))
        space = LabelSpace(num_target=2)
        with pytest.raises(DataError):
            bal_ce(np.array([np.nan, 0.0]), 0, stats)
        with pytest.raises(DataError):
            bal_ce(np.zeros(3), 0, stats)
        with pytest.raises(DataError):
            bal_ce(np.zeros(2), 2, stats)
        with pytest.raises(DataError):
            bal_ce_batch(np.zeros((2, 2)), np.array([0, -1]), stats)
        with pytest.raises(DataError):
            bal_ce_batch(np.zeros((1, 2)), np.array([2]), stats)
        with pytest.raises(DataError):
            ns_ce_batch(np.zeros((1, 2)), np.array([5]), stats, space, 0.1)
        with pytest.raises(DataError):
            ns_ce_batch(np.zeros((1, 3)), np.array([0]), stats, space, 0.1)


    @given(st.integers(0, 10**6), st.sampled_from([0.0, 0.1, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_in_place_with_given_pairs_keeps_the_bits(self, seed, lam):
        """Gradients written over Z, or into another buffer, and the pairs
        passed in shuffled order give the defaults' losses and gradients
        bit for bit."""
        rng = derive_rng(seed, "in-place")
        space = random_space(rng)
        M = space.num_classes
        stats = ClassStats(rng.integers(1, 300, size=M))
        labels = rng.integers(0, M, size=9)
        Z = rng.normal(scale=5.0, size=(9, M))
        rows, cols = _silenced(space, labels)
        shuffled = rng.permutation(rows.size)
        pairs = (rows[shuffled], cols[shuffled])
        calls = {
            "ns": (lambda Z, **kw: ns_ce_batch(Z, labels, stats, space, lam, **kw),
                   [{}, {"silenced": pairs}]),
            "bal": (lambda Z, **kw: bal_ce_batch(Z, labels, stats, **kw), [{}]),
        }
        for loss, extra in calls.values():
            want_losses, want_grads = loss(Z)
            for kw in extra:
                work = Z.copy()
                losses, grads = loss(work, out=work, **kw)
                assert grads is work
                assert losses.tobytes() == want_losses.tobytes()
                assert grads.tobytes() == want_grads.tobytes()
                out = np.empty_like(Z)
                losses, grads = loss(Z.copy(), out=out, **kw)
                assert grads is out and grads.tobytes() == want_grads.tobytes()

    def test_raising_call_leaves_z_untouched(self):
        """Every check runs before the gradients are written over Z, so the
        divergence guard reads the logits the loss refused."""
        stats = ClassStats(np.array([3, 1, 2]))
        space = LabelSpace(num_target=2, num_auxiliary=1, neighbor_of={2: 0})
        finite = np.array([[0.5, -1.0, 2.0], [1.5, 0.0, -0.25]])
        bad_logits = finite.copy()
        bad_logits[1, 2] = np.inf
        labels = np.array([0, 2])
        calls = [
            (bad_logits, lambda Z: bal_ce_batch(Z, labels, stats, out=Z)),
            (bad_logits, lambda Z: ns_ce_batch(Z, labels, stats, space, 0.1, out=Z)),
            (finite, lambda Z: bal_ce_batch(Z, np.array([0, 3]), stats, out=Z)),
            (finite, lambda Z: ns_ce_batch(Z, np.array([-1, 0]), stats, space, 0.1, out=Z)),
            (finite, lambda Z: ns_ce_batch(Z, labels, stats, space, -0.5, out=Z)),
            (finite, lambda Z: ns_ce_batch(Z, labels, stats, space, np.nan, out=Z)),
            (finite, lambda Z: ns_ce_batch(Z, labels, stats, LabelSpace(num_target=4), 0.1,
                                           silenced=(np.array([0]), np.array([2])), out=Z)),
        ]
        for logits, call in calls:
            Z = logits.copy()
            with pytest.raises(DataError):
                call(Z)
            assert Z.tobytes() == logits.tobytes()


class TestSilenceWeights:
    """The silenced pairs ``_silenced`` reads off the label space's groups,
    and the lambda_s checks of the loss and of ``RunConfig``."""

    def test_pair_rules(self):
        # targets 0..2, aux 3 and 4 both queried from target 1
        space = build_label_space(3, [(3, 1), (4, 1)])

        def pair_weight(i, j):
            _, cols = _silenced(space, np.array([i]))
            return 0.2 if j in cols.tolist() else 1.0

        assert pair_weight(1, 3) == 0.2
        assert pair_weight(3, 1) == 0.2
        assert pair_weight(4, 1) == 0.2
        assert pair_weight(3, 4) == 1.0  # siblings do not silence each other
        assert pair_weight(0, 3) == 1.0  # not its querying target
        assert pair_weight(0, 1) == 1.0
        assert pair_weight(3, 3) == 1.0

    def test_silenced_indices(self):
        # targets 0..2, aux 3 and 4 both queried from target 1
        space = build_label_space(3, [(3, 1), (4, 1)])

        def silenced(labels):
            rows, cols = _silenced(space, np.array(labels))
            return [sorted(cols[rows == b].tolist()) for b in range(len(labels))]

        # target 0 is not the querying target; an auxiliary silences only its
        # target, never itself or its sibling
        assert silenced([0, 1, 2, 3, 4]) == [[], [3, 4], [], [1], [1]]
        assert silenced([1, 3, 0]) == [[3, 4], [1], []]

    def test_negative_lambda_rejected_and_gt_one_warns(self):
        """Both boundaries reject a bad lambda_s; only ``RunConfig`` warns
        above 1, once, naming the line that built it."""
        space = build_label_space(1, [(1, 0)])
        stats = ClassStats(np.array([3, 2]))
        Z, labels = np.zeros((2, 2)), np.array([0, 1])
        for bad in (-0.5, float("nan"), float("inf")):
            with pytest.raises(DataError, match="lambda_s must be"):
                ns_ce_batch(Z, labels, stats, space, bad)
            with pytest.raises(ConfigError, match="lambda_s must be"):
                RunConfig(lambda_s=bad)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = sys._getframe().f_lineno + 1
            RunConfig(lambda_s=1.2)
            ns_ce_batch(Z, labels, stats, space, 1.2)
        assert [(w.filename, w.lineno) for w in caught] == [(__file__, line)]
        assert "lambda_s=1.2 > 1" in str(caught[0].message)

    def test_gt_one_through_with_overrides_names_the_caller(self):
        """``with_overrides`` builds through ``dataclasses.replace``, the
        path of ``sweep --axis lambda_s`` and ``run_ablation_cell``; its
        warning names the caller's line too."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = sys._getframe().f_lineno + 1
            RunConfig().with_overrides(lambda_s=1.5)
        assert [(w.filename, w.lineno) for w in caught] == [(__file__, line)]


def space_with_bare_targets(rng):
    """Random label space with 0-2 auxiliaries per target; at least one
    target has none."""
    L = int(rng.integers(2, 7))
    per_target = rng.integers(0, 3, size=L)
    per_target[int(rng.integers(0, L))] = 0
    owners = rng.permutation(np.repeat(np.arange(L), per_target))
    return build_label_space(L, [(L + k, int(t)) for k, t in enumerate(owners)])


def brute_pair_weights(space, lam):
    """(M, M) pair weights straight from the definition over neighbor_of."""
    nb = space.neighbor_of
    M = space.num_classes
    return np.array([
        [lam if nb.get(j) == i or nb.get(i) == j else 1.0 for j in range(M)]
        for i in range(M)
    ])


class TestArrayForms:
    @given(st.integers(0, 10**6), st.sampled_from([0.0, 0.1, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_rows_match_brute_force_pair_rule(self, seed, lam):
        rng = derive_rng(seed, "rows-brute")
        space = space_with_bare_targets(rng)
        M = space.num_classes
        want = brute_pair_weights(space, lam)
        labels = np.concatenate([np.arange(M), rng.integers(0, M, size=5)])
        rows, cols = _silenced(space, labels)
        assert len(set(zip(rows.tolist(), cols.tolist()))) == rows.size  # no repeats
        got = np.ones((labels.size, M))
        got[rows, cols] = lam
        np.testing.assert_array_equal(got, want[labels])

    @given(st.integers(0, 10**6), st.sampled_from([0.0, 0.1, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_batch_loss_matches_masked_reference(self, seed, lam):
        # every silenced term dominates its row by 1000; at lambda_s = 0 it
        # must drop out of the shift as well as out of the sum
        rng = derive_rng(seed, "ns-masked")
        space = space_with_bare_targets(rng)
        M = space.num_classes
        stats = ClassStats(rng.integers(1, 300, size=M))
        labels = rng.integers(0, M, size=8)
        silenced = brute_pair_weights(space, 0.0)[labels] == 0
        Z = rng.normal(scale=5.0, size=(8, M)) + 1000.0 * silenced
        losses, grads = ns_ce_batch(Z, labels, stats, space, lam)
        assert np.isfinite(losses).all() and np.isfinite(grads).all()
        pair = brute_pair_weights(space, lam)
        u = Z + stats.log_counts()
        for b, y in enumerate(labels):
            keep = pair[y] > 0
            t = u[b] - u[b, y]
            want = logsumexp(t[keep], b=pair[y][keep])
            assert losses[b] == pytest.approx(want, rel=1e-12, abs=1e-12)
            want_grad = np.zeros(M)
            want_grad[keep] = pair[y][keep] * np.exp(t[keep] - want)
            want_grad[y] -= 1.0
            np.testing.assert_allclose(grads[b], want_grad, atol=1e-12)


class TestBalancedError:
    def test_hand_counted(self):
        # class 0: 3 samples 1 wrong; class 1: 1 sample 0 wrong
        be = balanced_error([0, 1, 1, 0], [0, 1, 0, 0], num_classes=2)
        assert be.sum == pytest.approx(1 / 3, rel=1e-15)
        assert be.mean == pytest.approx(1 / 6, rel=1e-15)

    def test_missing_class_rejected(self):
        with pytest.raises(DataError):
            balanced_error([0, 0], [0, 0], num_classes=2)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            balanced_error([0, 1], [0], num_classes=2)
