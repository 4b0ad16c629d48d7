"""Core domain types: RNG derivation, label spaces, stats, datasets, config."""
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailext import core
from tailext.core import (
    ClassStats,
    ConfigError,
    DataError,
    FeatureDataset,
    LabelSpace,
    RunConfig,
    build_label_space,
    derive_rng,
    read_dataset,
    write_dataset,
)


class TestDeriveRng:
    def test_same_path_same_stream(self):
        a = derive_rng(7, "train", 3).normal(size=16)
        b = derive_rng(7, "train", 3).normal(size=16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = derive_rng(7, "train", 3).normal(size=16)
        b = derive_rng(7, "train", 4).normal(size=16)
        c = derive_rng(7, "test", 3).normal(size=16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_seed_changes_stream(self):
        a = derive_rng(0, "x").normal(size=8)
        b = derive_rng(1, "x").normal(size=8)
        assert not np.array_equal(a, b)

    def test_negative_component_rejected(self):
        with pytest.raises(ConfigError):
            derive_rng(0, -1)

    @given(st.integers(0, 2**32), st.text(max_size=20), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_replayable_for_arbitrary_paths(self, seed, name, idx):
        a = derive_rng(seed, name, idx).integers(0, 1 << 30, size=4)
        b = derive_rng(seed, name, idx).integers(0, 1 << 30, size=4)
        np.testing.assert_array_equal(a, b)


class TestLabelSpace:
    def test_closed_set(self):
        space = LabelSpace(num_target=5)
        assert space.num_classes == 5
        np.testing.assert_array_equal(space.query_target, np.full(5, -1))

    def test_neighbor_relation(self):
        space = LabelSpace(num_target=3, num_auxiliary=2, neighbor_of={3: 1, 4: 1})
        np.testing.assert_array_equal(space.query_target, [-1, -1, -1, 1, 1])

    def test_neighbor_keys_must_cover_aux_ids(self):
        with pytest.raises(ConfigError):
            LabelSpace(num_target=3, num_auxiliary=2, neighbor_of={3: 0})
        with pytest.raises(ConfigError):
            LabelSpace(num_target=3, num_auxiliary=1, neighbor_of={2: 0})

    def test_neighbor_target_in_range(self):
        with pytest.raises(ConfigError):
            LabelSpace(num_target=3, num_auxiliary=1, neighbor_of={3: 7})

    def test_json_roundtrip(self):
        space = LabelSpace(
            num_target=2, num_auxiliary=1, neighbor_of={2: 0},
            class_names={0: "cat", 1: "dog", 2: "lynx"},
        )
        again = LabelSpace.from_json(space.to_json())
        assert again == space

    def test_build_label_space_rejects_duplicates(self):
        with pytest.raises(ConfigError):
            build_label_space(2, [(2, 0), (2, 1)])

    def test_build_label_space(self):
        space = build_label_space(2, [(2, 0), (3, 1)])
        assert space.num_auxiliary == 2
        assert space.neighbor_of[3] == 1


class TestClassStats:
    def test_zero_count_rejected(self):
        with pytest.raises(DataError):
            ClassStats(np.array([3, 0, 2]))

    def test_log_counts(self):
        stats = ClassStats(np.array([1, 10, 100]))
        np.testing.assert_allclose(stats.log_counts(), np.log([1, 10, 100]))


class TestFeatureDataset:
    def test_shape_validation(self):
        with pytest.raises(DataError):
            FeatureDataset(np.zeros(3), np.zeros(3, dtype=int))
        with pytest.raises(DataError):
            FeatureDataset(np.zeros((3, 2)), np.zeros(4, dtype=int))

    def test_ids_length_checked(self):
        with pytest.raises(DataError):
            FeatureDataset(np.zeros((2, 2)), np.zeros(2, dtype=int), ids=("a",))

    def test_subset_keeps_ids(self):
        ds = FeatureDataset(np.arange(6.0).reshape(3, 2), np.array([0, 1, 0]),
                            ids=("a", "b", "c"))
        sub = ds.subset([2, 0])
        assert sub.ids == ("c", "a")
        np.testing.assert_array_equal(sub.labels, [0, 0])

    def test_subset_is_an_independent_read_only_copy(self):
        rng = np.random.default_rng(3)
        ds = FeatureDataset(rng.normal(size=(50, 4)), rng.integers(0, 5, size=50),
                            ids=tuple(f"s{i}" for i in range(50)))
        idx = rng.integers(0, 50, size=30)  # with repeats, out of order
        sub = ds.subset(idx)
        for got, full in ((sub.features, ds.features), (sub.labels, ds.labels)):
            want = full[idx].copy()
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous and not got.flags.writeable
            assert not np.shares_memory(got, full)
        assert sub.ids == tuple(ds.ids[i] for i in idx)

    def test_class_counts(self):
        ds = FeatureDataset(np.zeros((4, 2)), np.array([0, 0, 2, 1]))
        np.testing.assert_array_equal(ds.class_counts(4), [2, 1, 1, 0])

    def test_validate_against(self):
        ds = FeatureDataset(np.zeros((2, 2)), np.array([0, 5]))
        with pytest.raises(DataError):
            ds.validate_against(LabelSpace(num_target=3))


class TestRoundtrip:
    def test_write_read_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = FeatureDataset(rng.normal(size=(5, 4)), np.array([0, 1, 1, 2, 0]),
                            ids=tuple(f"s{i}" for i in range(5)))
        space = build_label_space(3, class_names={0: "a", 1: "b", 2: "c"})
        write_dataset(ds, space, tmp_path / "d.jsonl", extra_meta={"note": 1})
        back, space2, meta = read_dataset(tmp_path / "d.jsonl")
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.sample_ids() == ds.sample_ids()
        assert space2 == space
        assert meta["note"] == 1

    def test_missing_sidecar(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text("{}\n")
        with pytest.raises(DataError):
            read_dataset(p)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            read_dataset(tmp_path / "nope.jsonl")


def _cached_dataset(tmp_path):
    """A dataset written with write_dataset, and the path it was written to."""
    rng = np.random.default_rng(11)
    ds = FeatureDataset(rng.normal(size=(40, 6)), rng.integers(0, 4, size=40),
                        ids=tuple(f"s{i}" for i in range(40)))
    path = tmp_path / "d.jsonl"
    write_dataset(ds, LabelSpace(num_target=4), path, extra_meta={"note": 1})
    return ds, path


def _edit_first_feature(path, value):
    lines = path.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["features"][0] = value
    lines[0] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")


def _edit_sidecar(path, edit):
    sidecar = path.with_suffix(".meta.json")
    meta = json.loads(sidecar.read_text())
    edit(meta)
    sidecar.write_text(json.dumps(meta))


def _flip_byte(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


# each damages the binary cache's claim to stand in for the JSONL
CACHE_DAMAGE = {
    "missing": lambda p: p.with_suffix(".cache.npy").unlink(),
    "stale-jsonl": lambda p: _edit_first_feature(p, 0.25),
    # byte 200 lies in the feature data, after the 128-byte array header
    "corrupted": lambda p: _flip_byte(p.with_suffix(".cache.npy"), 200),
    "truncated": lambda p: p.with_suffix(".cache.npy").write_bytes(
        p.with_suffix(".cache.npy").read_bytes()[:300]),
    "no-key": lambda p: _edit_sidecar(p, lambda m: m.pop("binary_cache")),
    "file-outside-dir": lambda p: _edit_sidecar(
        p, lambda m: m["binary_cache"].update(file="../d.cache.npy")),
}


class TestBinaryCache:
    def test_hit_skips_the_jsonl_parse(self, tmp_path, monkeypatch):
        ds, path = _cached_dataset(tmp_path)

        def no_parse(*args):
            raise AssertionError("JSONL parsed despite a valid cache")

        monkeypatch.setattr(core, "_read_jsonl", no_parse)
        back, _, meta = read_dataset(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.sample_ids() == ds.sample_ids()
        assert meta["note"] == 1
        assert meta["binary_cache"]["file"] == "d.cache.npy"

    @pytest.mark.parametrize("damage", sorted(CACHE_DAMAGE))
    def test_untrusted_cache_falls_back_to_jsonl(self, tmp_path, damage):
        ds, path = _cached_dataset(tmp_path)
        CACHE_DAMAGE[damage](path)
        back, space, _ = read_dataset(path)
        expected = ds.features.copy()
        if damage == "stale-jsonl":
            expected[0, 0] = 0.25
        np.testing.assert_array_equal(back.features, expected)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.sample_ids() == ds.sample_ids()
        assert space == LabelSpace(num_target=4)

    @pytest.mark.parametrize("fault", ["nan-written", "dim-disagrees", "labels-outside"])
    def test_errors_match_on_both_paths(self, tmp_path, fault):
        messages = []
        for with_cache in (True, False):
            d = tmp_path / str(with_cache)
            d.mkdir()
            ds, path = _cached_dataset(d)
            if fault == "nan-written":
                feats = ds.features.copy()
                feats[6, 2] = np.nan
                write_dataset(FeatureDataset(feats, ds.labels, ids=ds.ids),
                              LabelSpace(num_target=4), path)
            elif fault == "dim-disagrees":
                _edit_sidecar(path, lambda m: m.update(feature_dim=5))
            else:
                _edit_sidecar(path, lambda m: m.update(label_space={"num_target": 2}))
            if not with_cache:
                path.with_suffix(".cache.npy").unlink()
            with pytest.raises(DataError) as exc:
                read_dataset(path)
            messages.append(str(exc.value).replace(str(d), "<dir>"))
        assert messages[0] == messages[1]
        if fault == "nan-written":
            assert messages[0] == "<dir>/d.jsonl:7: non-finite feature value"

    def test_rewrites_are_byte_identical(self, tmp_path):
        ds, _ = _cached_dataset(tmp_path)
        for name in ("a", "b"):
            write_dataset(ds, LabelSpace(num_target=4), tmp_path / name / "d.jsonl")
        for fname in ("d.jsonl", "d.cache.npy", "d.meta.json"):
            assert (tmp_path / "a" / fname).read_bytes() == (
                tmp_path / "b" / fname).read_bytes()

    def test_rows_are_json_dumps_and_read_back_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        # arbitrary bit patterns: subnormals, NaN, inf and 17-digit values
        feats = rng.integers(0, 2**63, size=(50, 8), dtype=np.int64).view(np.float64)
        feats = feats * rng.choice([-1.0, 1.0], size=feats.shape)
        feats[0, :6] = [-0.0, 5e-324, 2.2250738585072014e-308, 0.1 + 0.2, np.nan, np.inf]
        feats[1, :2] = [-np.inf, 1.7976931348623157e308]
        ids = tuple(f"r{i}" for i in range(50))
        ds = FeatureDataset(feats, np.arange(50) % 3, ids=ids)
        path = tmp_path / "d.jsonl"
        write_dataset(ds, LabelSpace(num_target=3), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == [
            json.dumps({"id": ids[i], "label": i % 3, "features": feats[i].tolist()})
            for i in range(50)
        ]
        finite = np.isfinite(feats).all(axis=1)
        kept = FeatureDataset(feats[finite], np.arange(50)[finite] % 3,
                              ids=tuple(np.asarray(ids)[finite]))
        write_dataset(kept, LabelSpace(num_target=3), path)
        via_cache, _, _ = read_dataset(path)
        path.with_suffix(".cache.npy").unlink()
        via_jsonl, _, _ = read_dataset(path)
        for back in (via_cache, via_jsonl):
            np.testing.assert_array_equal(back.features.view(np.uint64),
                                          kept.features.view(np.uint64))


def _awkward_dataset(rows=30):
    """Non-ASCII ids and non-finite features: what a text split could mangle."""
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(rows, 5))
    feats[3, 1] = np.nan
    feats[rows - 2, 4] = -np.inf
    ids = tuple(f"{'猫ß'[i % 2]}-{i}" for i in range(rows))
    return FeatureDataset(feats, np.arange(rows) % 3, ids=ids)


class TestSplitWrite:
    OUTPUTS = ("d.jsonl", "d.cache.npy", "d.meta.json")

    def test_bytes_do_not_depend_on_the_split(self, tmp_path, force_parts):
        ds = _awkward_dataset()
        written = []
        for parts in (1, 2, 3):
            force_parts(parts)
            out = tmp_path / str(parts)
            write_dataset(ds, LabelSpace(num_target=3), out / "d.jsonl",
                          extra_meta={"note": "é"})
            assert sorted(p.name for p in out.iterdir()) == sorted(self.OUTPUTS)
            written.append([(out / name).read_bytes() for name in self.OUTPUTS])
        assert written[1] == written[0] and written[2] == written[0]
        lines = written[0][0].decode("ascii").splitlines()
        assert lines[3] == json.dumps({"id": ds.ids[3], "label": 0,
                                       "features": ds.features[3].tolist()})

    def test_error_in_a_worker_range_leaves_no_parts(self, tmp_path, force_parts):
        ds = _awkward_dataset()
        # bytes are not JSON: the last range fails to format
        bad = FeatureDataset(ds.features, ds.labels, ids=ds.ids[:-1] + (b"raw",))
        messages = []
        for parts in (1, 3):
            force_parts(parts)
            out = tmp_path / str(parts)
            with pytest.raises(TypeError) as exc:
                write_dataset(bad, LabelSpace(num_target=3), out / "d.jsonl")
            messages.append(str(exc.value))
            assert [p.name for p in out.iterdir()] == ["d.jsonl"]
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_cache_holds_the_bytes_of_write_array(self, tmp_path, order):
        ds = _awkward_dataset()
        ds = FeatureDataset(np.asarray(ds.features, order=order), ds.labels, ids=ds.ids)
        write_dataset(ds, LabelSpace(num_target=3), tmp_path / "d.jsonl")
        expected = io.BytesIO()
        id_bytes = np.frombuffer(json.dumps(list(ds.ids)).encode("utf-8"), dtype=np.uint8)
        for array in (ds.features, ds.labels, id_bytes):
            np.lib.format.write_array(expected, array, allow_pickle=False)
        assert (tmp_path / "d.cache.npy").read_bytes() == expected.getvalue()


def _square_unless(bad: dict):
    """x * x, or raises bad[x] for the runs named in ``bad``."""

    def fn(x):
        if x in bad:
            raise bad[x]
        return x * x

    return fn


class TestMapRuns:
    def test_results_in_item_order_at_any_part_count(self, force_parts):
        for parts in (1, 2, 3):
            force_parts(parts)
            assert core._map_runs(_square_unless({}), range(7)) == [x * x for x in range(7)]
            # more parts than runs: one run each
            assert core._map_runs(_square_unless({}), [5, 6]) == [25, 36]
            assert core._map_runs(_square_unless({}), []) == []

    def test_first_failed_run_in_item_order_is_raised(self, force_parts):
        # at 2 parts runs 1 and 3 fail in the child, run 2 in this process
        bad = {1: DataError("run 1"), 2: ConfigError("run 2"), 3: DataError("run 3")}
        for parts in (1, 2, 3):
            force_parts(parts)
            with pytest.raises(DataError, match="^run 1$"):
                core._map_runs(_square_unless(bad), range(6))
            with pytest.raises(ConfigError, match="^run 2$"):
                core._map_runs(_square_unless({2: bad[2], 3: bad[3]}), range(6))

    def test_native_threads_share_the_cpus(self, force_parts, monkeypatch):
        pids = []
        for cpus in (2, 4):
            force_parts(cpus)
            # a BLAS pool of one more thread in every process
            monkeypatch.setattr(core, "_NATIVE_THREADS", 1)
            pids.append(len(set(core._map_runs(lambda _: core.os.getpid(), range(4)))))
        assert pids == [1, 2]

    def test_a_child_that_dies_is_an_error(self, force_parts):
        force_parts(2)

        def fn(x):
            if x == 1:
                core.os._exit(7)
            return x

        with pytest.raises(RuntimeError, match="exited with code 7"):
            core._map_runs(fn, [0, 1])


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.lambda_s == 0.1
        assert cfg.per_class_cap == 50
        assert (cfg.learning_rate, cfg.momentum) == (0.15, 0.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(lambda_s=-0.1)
        with pytest.raises(ConfigError):
            RunConfig(per_class_cap=0)
        with pytest.raises(ConfigError):
            RunConfig(optimizer="adagrad")
        with pytest.raises(ConfigError):
            RunConfig(aux_ratio=(1, -1, 3))
        nan, inf = float("nan"), float("inf")
        for bad in (
            dict(hidden_dim=0), dict(hidden_dim=-1), dict(hidden_dim=2.0),
            dict(hidden_dim=True), dict(weight_decay=-0.1), dict(weight_decay=nan),
            dict(weight_decay=inf), dict(momentum=-0.1), dict(momentum=1.0),
            dict(momentum=nan), dict(learning_rate=nan), dict(learning_rate=inf),
            dict(lambda_s=nan), dict(lambda_s=inf), dict(aux_ratio=(1, nan, 3)),
            dict(aux_ratio=(1, 1, inf)),
        ):
            with pytest.raises(ConfigError):
                RunConfig(**bad)
        assert RunConfig(hidden_dim=np.int64(3), momentum=0.9).hidden_dim == 3

    def test_lambda_above_one_warns(self):
        with pytest.warns(UserWarning):
            RunConfig(lambda_s=1.5)

    def test_overrides_and_json(self):
        cfg = RunConfig(aux_ratio=(1, 1, 3)).with_overrides(seed=9, lambda_s=0.5)
        assert cfg.seed == 9 and cfg.lambda_s == 0.5
        again = RunConfig(**json.loads(json.dumps(cfg.to_json())))
        assert again == cfg
