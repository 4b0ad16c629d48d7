"""Synthetic generators: count profiles, hierarchy geometry, aux neighbors."""
import gc
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

from tailext.core import ClassStats, ConfigError, DataError, LabelSpace
from tailext.synth import (
    CountProfile,
    HierarchySpec,
    make_auxiliary,
    make_counts,
    make_hierarchy,
)


class TestCountProfiles:
    def test_exponential_endpoints_and_factor(self):
        # first class max_count, last class max_count * imbalance
        prof = CountProfile("exponential", num_classes=100, max_count=1280,
                            imbalance=5 / 1280)
        counts = make_counts(prof).counts
        assert counts[0] == 1280
        assert counts[-1] == 5
        assert counts.max() / counts.min() == 256.0

    def test_exponential_interpolation_closed_form(self):
        prof = CountProfile("exponential", num_classes=3, max_count=100, imbalance=0.01)
        # count_y = 100 * 0.01^(y/2) -> 100, 10, 1
        np.testing.assert_array_equal(make_counts(prof).counts, [100, 10, 1])

    def test_uniform_at_one(self):
        prof = CountProfile("exponential", num_classes=7, max_count=50, imbalance=1.0)
        np.testing.assert_array_equal(make_counts(prof).counts, np.full(7, 50))

    def test_monotone_and_floor(self):
        prof = CountProfile("exponential", num_classes=60, max_count=300, imbalance=0.001)
        counts = make_counts(prof).counts
        assert (np.diff(counts) <= 0).all()
        assert counts.min() >= 1

    def test_pareto_profile(self):
        prof = CountProfile("pareto", num_classes=40, max_count=500, alpha=6.0)
        a = make_counts(prof, seed=3).counts
        b = make_counts(prof, seed=3).counts
        np.testing.assert_array_equal(a, b)
        assert a[0] == 500
        assert (np.diff(a) <= 0).all()
        assert a.min() >= 1
        c = make_counts(prof, seed=4).counts
        assert not np.array_equal(a, c)

    def test_profile_validation(self):
        with pytest.raises(ConfigError):
            CountProfile("exponential", 10, 100, imbalance=0.0)
        with pytest.raises(ConfigError):
            CountProfile("exponential", 10, 100, imbalance=1.5)
        with pytest.raises(ConfigError):
            CountProfile("exponential", 10, 100)  # imbalance missing
        for alpha in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                CountProfile("pareto", 10, 100, alpha=alpha)
        with pytest.raises(ConfigError):
            CountProfile("zipf", 10, 100, imbalance=0.5)
        with pytest.raises(ConfigError):
            CountProfile("exponential", 0, 100, imbalance=0.5)


SPEC = HierarchySpec(num_superclasses=4, num_classes=12, feature_dim=16,
                     sigma_super=10.0, sigma_fine=2.5, sigma_sample=1.0)


class TestHierarchy:
    def test_shapes_counts_and_balanced_test(self):
        counts = make_counts(
            CountProfile("exponential", 12, max_count=40, imbalance=0.1)
        )
        train, test = make_hierarchy(SPEC, counts, seed=1, test_per_class=9)
        assert len(train) == int(counts.counts.sum())
        np.testing.assert_array_equal(train.class_counts(12), counts.counts)
        np.testing.assert_array_equal(test.class_counts(12), np.full(12, 9))
        assert train.feature_dim == 16
        assert train.provenance == "synthetic"
        assert len(set(train.sample_ids())) == len(train)

    def test_reproducible_bytewise(self):
        counts = make_counts(CountProfile("exponential", 12, 30, imbalance=0.2))
        a_tr, a_te = make_hierarchy(SPEC, counts, seed=5)
        b_tr, b_te = make_hierarchy(SPEC, counts, seed=5)
        np.testing.assert_array_equal(a_tr.features, b_tr.features)
        np.testing.assert_array_equal(a_te.features, b_te.features)
        c_tr, _ = make_hierarchy(SPEC, counts, seed=6)
        assert not np.array_equal(a_tr.features, c_tr.features)

    def test_superclass_round_robin(self):
        assert [SPEC.superclass_of(y) for y in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_superclass_structure_in_feature_space(self):
        # class means must sit far closer to same-superclass means than to
        # different-superclass means, by construction of the spreads
        counts = ClassStats(np.full(12, 60))
        train, _ = make_hierarchy(SPEC, counts, seed=2)
        means = np.stack([train.features[train.labels == y].mean(axis=0)
                          for y in range(12)])
        within, across = [], []
        for a in range(12):
            for b in range(a + 1, 12):
                d = np.linalg.norm(means[a] - means[b])
                same = SPEC.superclass_of(a) == SPEC.superclass_of(b)
                (within if same else across).append(d)
        assert max(within) < min(across)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            HierarchySpec(num_superclasses=13, num_classes=12)
        with pytest.raises(ConfigError):
            HierarchySpec(4, 12, sigma_super=1.0, sigma_fine=2.0, sigma_sample=0.5)
        with pytest.raises(ConfigError):
            HierarchySpec(4, 12, feature_dim=1)  # the ring needs a plane
        with pytest.raises(ConfigError):
            HierarchySpec(4, 12, sigma_super=float("inf"))
        with pytest.raises(DataError):
            make_hierarchy(SPEC, ClassStats(np.full(5, 10)))  # wrong class total
        with pytest.raises(ConfigError):
            make_hierarchy(SPEC, ClassStats(np.full(12, 10)), test_per_class=0)

    def test_json_roundtrip_of_spec(self):
        payload = SPEC.to_json()
        assert HierarchySpec(**payload) == SPEC

    def test_datasets_hold_no_ids(self):
        train, test = make_hierarchy(SPEC, ClassStats(np.full(12, 3)), seed=0,
                                     test_per_class=2)
        assert train.ids is None and test.ids is None

    def test_classes_grouped_by_superclass_in_one_pass(self, monkeypatch):
        """The ring slots group the classes by superclass once, so
        ``superclass_of`` runs at most twice per class, not once per
        (superclass, class) pair and once more per class."""
        spec = HierarchySpec(num_superclasses=8, num_classes=40, feature_dim=4)
        calls = []
        superclass_of = HierarchySpec.superclass_of

        def counted(self, y):
            calls.append(y)
            return superclass_of(self, y)

        monkeypatch.setattr(HierarchySpec, "superclass_of", counted)
        make_hierarchy(spec, ClassStats(np.full(40, 2)), seed=0, test_per_class=1)
        assert 0 < len(calls) <= 2 * spec.num_classes


class TestAuxiliary:
    def setup_method(self):
        counts = ClassStats(np.full(6, 30))
        spec = HierarchySpec(num_superclasses=2, num_classes=6, feature_dim=8)
        self.train, _ = make_hierarchy(spec, counts, seed=11)
        self.space = LabelSpace(num_target=6)

    def test_structure_and_determinism(self):
        aux, merged = make_auxiliary(
            self.train, self.space, per_target=2, samples_per_aux=15,
            seed=3, targets=[1, 4], offset=3.0,
        )
        assert merged.num_target == 6
        assert merged.num_auxiliary == 4
        np.testing.assert_array_equal(merged.query_target[6:], [1, 1, 4, 4])
        assert len(aux) == 4 * 15
        np.testing.assert_array_equal(np.unique(aux.labels), [6, 7, 8, 9])
        aux2, _ = make_auxiliary(self.train, self.space, 2, 15, seed=3,
                                 targets=[1, 4], offset=3.0)
        np.testing.assert_array_equal(aux.features, aux2.features)
        assert aux.ids is None

    def test_offset_controls_displacement(self):
        # tiny offset: aux samples distributed like fresh samples at the class
        # mean; large offset: clearly displaced. KS on distance-to-center.
        members = self.train.features[self.train.labels == 2]
        center = members.mean(axis=0)

        def center_dists(offset):
            aux, _ = make_auxiliary(self.train, self.space, 1, 400, seed=5,
                                    targets=[2], offset=offset)
            return np.linalg.norm(aux.features - center, axis=1)

        near = center_dists(1e-9)
        reference = np.linalg.norm(
            np.random.default_rng(0).normal(size=(400, 8)), axis=1
        )
        assert sps.ks_2samp(near, reference).pvalue > 0.01
        far = center_dists(10.0)
        assert sps.ks_2samp(far, reference).pvalue < 1e-6
        assert far.mean() > near.mean() + 5.0

    def test_names_extended(self):
        named = LabelSpace(num_target=6, class_names={i: f"c{i}" for i in range(6)})
        _, merged = make_auxiliary(self.train, named, 1, 5, targets=[0])
        assert merged.class_names[6].startswith("c0#aux")

    def test_validation(self):
        with pytest.raises(ConfigError):
            make_auxiliary(self.train, self.space, per_target=0, samples_per_aux=5)
        with pytest.raises(ConfigError):
            make_auxiliary(self.train, self.space, 1, 0)
        with pytest.raises(ConfigError):
            make_auxiliary(self.train, self.space, 1, 5, targets=[9])
        with pytest.raises(ConfigError):
            make_auxiliary(self.train, self.space, 1, 5, targets=[])
        for offset in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                make_auxiliary(self.train, self.space, 1, 5, offset=offset)
        merged_space = LabelSpace(num_target=6, num_auxiliary=1, neighbor_of={6: 0})
        with pytest.raises(ConfigError):
            make_auxiliary(self.train, merged_space, 1, 5)
        empty = self.train.subset(np.flatnonzero(self.train.labels != 3))
        with pytest.raises(DataError):
            make_auxiliary(empty, self.space, 1, 5, targets=[3])


def traced_peak(fn):
    """Run fn under tracemalloc; return (its result, the traced peak bytes)."""
    gc.collect()
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def held_bytes(ds):
    """Bytes a dataset holds: its feature and label arrays and, when it has
    them, its ids."""
    held = ds.features.nbytes + ds.labels.nbytes
    if ds.ids is not None:
        held += sys.getsizeof(ds.ids) + sum(sys.getsizeof(i) for i in ds.ids)
    return held


class TestBuiltInPlace:
    """Each dataset's arrays are allocated once and filled class by class, so
    at the benchmark geometry the traced peak stays within 1.25 times what
    the returned datasets hold, their feature and label arrays, as generated
    datasets hold no ids (joining per-class draws with np.concatenate
    peaked at about 1.85 times)."""

    COUNTS = make_counts(CountProfile("exponential", 100, 300, imbalance=0.01))
    SPEC = HierarchySpec(num_superclasses=10, num_classes=100, feature_dim=64,
                         sigma_fine=2.5)

    def test_hierarchy_peak(self):
        (train, test), peak = traced_peak(
            lambda: make_hierarchy(self.SPEC, self.COUNTS, seed=0, test_per_class=100)
        )
        assert peak <= 1.25 * (held_bytes(train) + held_bytes(test))

    def test_auxiliary_peak(self):
        train, _ = make_hierarchy(self.SPEC, self.COUNTS, seed=0, test_per_class=1)
        targets = np.flatnonzero(self.COUNTS.counts <= 100)  # medium and few
        (aux, _), peak = traced_peak(lambda: make_auxiliary(
            train, LabelSpace(num_target=100), per_target=5, samples_per_aux=120,
            seed=0, targets=targets,
        ))
        assert len(aux) == targets.size * 5 * 120
        assert peak <= 1.25 * held_bytes(aux)
