"""Auxiliary sampling: ratio derivation, the per-class cap, epoch rotation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailext.core import (
    ClassStats,
    ConfigError,
    DataError,
    FeatureDataset,
    build_label_space,
    derive_rng,
)
from tailext.metrics import assign_splits
from tailext.sampling import AuxSamplingPlan, build_plan, derive_ratio, sample_epoch


class TestDeriveRatio:
    def test_hand_computed_values(self):
        assert derive_ratio((10000, 5000, 1000)) == (1, 2, 10)
        assert derive_ratio((9, 4, 4)) == (1, 3, 3)  # ceil(9/4) = 3
        assert derive_ratio((500, 500, 500)) == (1, 1, 1)
        assert derive_ratio((7, 3, 2)) == (1, 3, 4)

    def test_empty_split_gets_zero(self):
        assert derive_ratio((100, 0, 5)) == (1, 0, 20)
        assert derive_ratio((100, 30, 0)) == (1, 4, 0)
        # an empty many split hands the reference to the first non-empty split
        assert derive_ratio((0, 294, 101)) == (0, 1, 3)
        assert derive_ratio((0, 0, 7)) == (0, 0, 1)
        with pytest.raises(DataError):
            derive_ratio((0, 0, 0))
        with pytest.raises(DataError):
            derive_ratio((5, -1, 3))

    @given(st.tuples(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(1, 10**6)))
    @settings(max_examples=60, deadline=None)
    def test_ceiling_property(self, totals):
        one, med, few = derive_ratio(totals)
        n_h, n_m, n_t = totals
        assert one == 1
        assert med - 1 < n_h / n_m <= med
        assert few - 1 < n_h / n_t <= few


class TestPlan:
    def test_categories_for_ceils_fractional_entries(self):
        plan = AuxSamplingPlan(per_class_cap=50, ratio=(1, 0.5, 2.2), expanded_targets={0: "few"})
        assert plan.categories_for("many") == 1
        assert plan.categories_for("medium") == 1
        assert plan.categories_for("few") == 3

    def test_validation(self):
        with pytest.raises(ConfigError, match="per_class_cap"):
            AuxSamplingPlan(per_class_cap=0, ratio=(1, 1, 3))
        with pytest.raises(ConfigError, match="^ratio must be"):
            AuxSamplingPlan(per_class_cap=50, ratio=(1, -1, 3))
        with pytest.raises(ConfigError, match="^ratio must be"):
            AuxSamplingPlan(per_class_cap=50, ratio=(1, float("nan"), 3))
        with pytest.raises(ConfigError):
            AuxSamplingPlan(per_class_cap=50, ratio=(1, 1, 3), expanded_targets={0: "huge"})

    def test_build_plan_derives_when_ratio_none(self):
        counts = np.array([150, 150, 40, 9, 9])
        tags = ("many", "many", "medium", "few", "few")
        plan = build_plan(counts, tags, [3, 4], per_class_cap=50, ratio=None)
        # many=300, medium=40, few=18 -> (1, ceil(300/40)=8, ceil(300/18)=17)
        assert plan.ratio == (1.0, 8.0, 17.0)
        assert plan.expanded_targets == {3: "few", 4: "few"}
        assert plan.to_json()["expanded_targets"] == {"3": "few", "4": "few"}

    def test_build_plan_ratio_oracles(self):
        for counts, want in (
            ([300, 150, 50, 30, 10, 5], (1.0, 6.0, 30.0)),  # many=450, medium=80, few=15
            ([101, 50, 5], (1.0, 3.0, 21.0)),
        ):
            tags = assign_splits(ClassStats(np.array(counts))).tags
            assert build_plan(np.array(counts), tags, [], 50, ratio=None).ratio == want

    def test_build_plan_explicit_ratio_passthrough(self):
        plan = build_plan(np.array([5, 5]), ("few", "few"), [0], 20, (1, 1, 3))
        assert plan.ratio == (1.0, 1.0, 3.0)
        assert plan.per_class_cap == 20


def make_aux(pools: dict[int, int], dim=4, seed=0):
    """Aux dataset with `pools[class_id]` samples per auxiliary class."""
    rng = derive_rng(seed, "mkaux")
    feats, labels, ids = [], [], []
    for c, n in sorted(pools.items()):
        feats.append(rng.normal(size=(n, dim)))
        labels.extend([c] * n)
        ids.extend(f"aux-{c}-{i}" for i in range(n))
    return FeatureDataset(np.concatenate(feats), np.asarray(labels), ids=tuple(ids))


class TestSampleEpoch:
    def setup_method(self):
        # 3 targets; target 1 (medium) has aux 3,4; target 2 (few) has 5,6,7
        self.space = build_label_space(3, [(3, 1), (4, 1), (5, 2), (6, 2), (7, 2)])
        self.pools = {3: 120, 4: 30, 5: 120, 6: 40, 7: 10}
        self.aux = make_aux(self.pools)
        self.plan = AuxSamplingPlan(
            per_class_cap=50, ratio=(1, 1, 3),
            expanded_targets={1: "medium", 2: "few"},
        )

    def test_cap_and_attachment_contract(self):
        subset, eff = sample_epoch(self.aux, self.space, self.plan, seed=0, epoch=0)
        # medium target attaches 1 of its 2 categories, few attaches all 3
        active = np.flatnonzero(eff > 0) + 3
        assert ((eff > 0).sum()) == 4
        assert sum(1 for c in active if c in (3, 4)) == 1
        assert all(c in active for c in (5, 6, 7))
        for c in active:
            assert eff[c - 3] == min(self.pools[int(c)], 50)
        counts = np.bincount(subset.labels, minlength=8)
        for c in range(3, 8):
            assert counts[c] == eff[c - 3]

    def test_replayable_and_rotating(self):
        a, ea = sample_epoch(self.aux, self.space, self.plan, seed=7, epoch=3)
        b, eb = sample_epoch(self.aux, self.space, self.plan, seed=7, epoch=3)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(ea, eb)
        c, _ = sample_epoch(self.aux, self.space, self.plan, seed=7, epoch=4)
        assert (a.features.shape != c.features.shape
                or not np.array_equal(a.features, c.features))

    def test_capped_class_rotates_through_pool(self):
        # a 120-sample class under cap 50 must surface every sample over time
        seen: set[str] = set()
        for epoch in range(50):
            subset, _ = sample_epoch(self.aux, self.space, self.plan, 1, epoch)
            for sid, lab in zip(subset.sample_ids(), subset.labels):
                if lab == 5:
                    seen.add(sid)
        all_ids = {
            sid for sid, lab in zip(self.aux.sample_ids(), self.aux.labels) if lab == 5
        }
        assert seen == all_ids

    def test_zero_ratio_entry_attaches_nothing(self):
        plan = AuxSamplingPlan(per_class_cap=50, ratio=(1, 0, 3),
                               expanded_targets={1: "medium", 2: "few"})
        _, eff = sample_epoch(self.aux, self.space, plan, seed=0, epoch=0)
        assert eff[0] == 0 and eff[1] == 0  # target 1's categories skipped
        assert (eff[2:] > 0).all()

    def test_no_aux_classes(self):
        space = build_label_space(3, [])
        empty = FeatureDataset(np.zeros((0, 4)), np.zeros(0, dtype=int))
        subset, eff = sample_epoch(empty, space, self.plan, 0, 0)
        assert len(subset) == 0 and eff.size == 0

    def test_small_pool_taken_whole(self):
        _, eff = sample_epoch(self.aux, self.space, self.plan, seed=2, epoch=0)
        assert eff[7 - 3] == 10  # pool below cap comes back in full

    # -7 would read target 2's auxiliary group from the end, 8 past the end
    @pytest.mark.parametrize("target", [-1, -7, 3, 8])
    def test_plan_target_outside_the_targets_rejected(self, target):
        plan = AuxSamplingPlan(per_class_cap=50, ratio=(1, 1, 3),
                               expanded_targets={target: "few"})
        with pytest.raises(DataError, match="not all target ids of the label space"):
            sample_epoch(self.aux, self.space, plan, seed=0, epoch=0)


def reference_sample_epoch(aux, space, plan, seed, epoch):
    """sample_epoch written out per class: a flatnonzero pool per label and a
    scan of neighbor_of per expanded target, drawing from the same streams."""
    L, K = space.num_target, space.num_auxiliary
    eff = np.zeros(K, dtype=np.int64)
    by_class = {int(c): np.flatnonzero(aux.labels == c) for c in np.unique(aux.labels)}
    chosen = []
    for target in sorted(plan.expanded_targets):
        categories = [
            c for c, t in sorted(space.neighbor_of.items()) if t == target and c in by_class
        ]
        n_attach = min(len(categories), plan.categories_for(plan.expanded_targets[target]))
        if n_attach == 0:
            continue
        if n_attach < len(categories):
            order = derive_rng(seed, "aux-attach", epoch, target).permutation(len(categories))
            categories = [categories[i] for i in sorted(order[:n_attach])]
        for c in categories:
            pool = by_class[c]
            take = min(pool.size, plan.per_class_cap)
            if take < pool.size:
                rng = derive_rng(seed, "aux-sample", epoch, c)
                pool = pool[np.sort(rng.choice(pool.size, size=take, replace=False))]
            chosen.append(pool)
            eff[c - L] = take
    idx = np.concatenate(chosen) if chosen else np.empty(0, dtype=np.int64)
    return aux.subset(idx), eff


def random_draw(seed):
    """A random (aux, space, plan, epoch): targets with zero to three
    auxiliary classes, one target with none, some classes without samples,
    the classes' rows interleaved, and a random cap, ratio and expansion."""
    rng = derive_rng(seed, "sample-ref")
    L = int(rng.integers(2, 7))
    per_target = rng.integers(0, 4, size=L)
    per_target[int(rng.integers(0, L))] = 0  # a target with no auxiliaries
    owners = rng.permutation(np.repeat(np.arange(L), per_target))
    space = build_label_space(L, [(L + k, int(t)) for k, t in enumerate(owners)])
    # some auxiliary classes have no samples at all
    pools = {L + k: int(n) for k, n in enumerate(rng.integers(0, 40, size=owners.size))}
    pools = {c: n for c, n in pools.items() if n}
    if pools:
        aux = make_aux(pools, seed=seed)
    else:
        aux = FeatureDataset(np.zeros((0, 4)), np.zeros(0, dtype=int))
    aux = aux.subset(rng.permutation(len(aux)))  # interleave the classes
    tags = ("many", "medium", "few")
    plan = AuxSamplingPlan(
        per_class_cap=int(rng.integers(1, 30)),
        ratio=tuple(float(r) for r in rng.choice([0, 0.5, 1, 2, 3], size=3)),
        expanded_targets={
            t: tags[int(rng.integers(0, 3))] for t in range(L) if rng.random() < 0.8
        },
    )
    return aux, space, plan, int(rng.integers(0, 5))


class TestSampleEpochReference:
    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_class_reference(self, seed):
        aux, space, plan, epoch = random_draw(seed)
        got, got_eff = sample_epoch(aux, space, plan, seed, epoch)
        want, want_eff = reference_sample_epoch(aux, space, plan, seed, epoch)
        np.testing.assert_array_equal(got_eff, want_eff)
        assert got.sample_ids() == want.sample_ids()
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_array_equal(got.features, want.features)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_draw_reads_only_labels(self, seed):
        """A draw over the auxiliary set's row numbers, as training makes
        it, names the rows of the draw over the set itself."""
        aux, space, plan, epoch = random_draw(seed)
        numbered = FeatureDataset(np.arange(len(aux), dtype=np.float64)[:, None], aux.labels)
        drawn, drawn_eff = sample_epoch(numbered, space, plan, seed, epoch)
        want, want_eff = sample_epoch(aux, space, plan, seed, epoch)
        got = aux.subset(drawn.features[:, 0].astype(np.int64))
        np.testing.assert_array_equal(drawn_eff, want_eff)
        assert got.sample_ids() == want.sample_ids()
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_array_equal(got.features, want.features)
