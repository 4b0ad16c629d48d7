"""Core domain types: RNG derivation, label spaces, stats, datasets, config."""
import ast
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
    derive_streams,
    read_dataset,
    write_dataset,
)
from tailext.curation import FixtureRetriever


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

    def test_seed_outside_64_bits_rejected(self):
        # masked to 64 bits, each of these gave another seed's stream
        for seed in (2**64, -(2**64), -1, 2**65 + 3):
            with pytest.raises(ConfigError, match=r"seed must be in \[0, 2\*\*64\)"):
                derive_rng(seed, "x")
        derive_rng(2**64 - 1, "x")

    @given(st.integers(0, 2**32), st.text(max_size=20), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_replayable_for_arbitrary_paths(self, seed, name, idx):
        a = derive_rng(seed, name, idx).integers(0, 1 << 30, size=4)
        b = derive_rng(seed, name, idx).integers(0, 1 << 30, size=4)
        np.testing.assert_array_equal(a, b)


# seeds, path components and ids at the edges of SeedSequence's 32-bit
# words: zero, one word, two words and the largest of each
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 2, 2**64 - 1)
EDGE_PATHS = ((), ("aux-sample",), ("aux-attach", 0), ("aux-sample", 2**32 - 1),
              ("aux-sample", 2**32), ("shuffle", 2**40, "x"), ("", 2**64 - 1), (2**70,),
              ("aux-sample", np.int64(7)))
# one- and two-word ids, out of order
EDGE_IDS = (0, 1, 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1, 7, 2**33 + 5, 3)


def _seed_sequence_key(seed, *path):
    spawn_key = tuple(core._hash_component(p) for p in path)
    return np.random.SeedSequence(seed, spawn_key=spawn_key).generate_state(2, np.uint64)


def _stream_keys(seed, *path, ids):
    return [g.bit_generator.state["state"]["key"].copy()
            for g in derive_streams(seed, *path, ids=ids)]


class TestDeriveStreams:
    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_keys_are_seed_sequences(self, seed):
        for path in EDGE_PATHS:
            got = _stream_keys(seed, *path, ids=list(EDGE_IDS))
            assert len(got) == len(EDGE_IDS)
            for i, key in zip(EDGE_IDS, got):
                np.testing.assert_array_equal(key, _seed_sequence_key(seed, *path, i))

    @given(st.integers(0, 2**64 - 1),
           st.lists(st.one_of(st.text(max_size=8), st.integers(0, 2**70)), max_size=3),
           st.lists(st.integers(0, 2**64 - 1), max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_keys_for_arbitrary_streams(self, seed, path, ids):
        got = _stream_keys(seed, *path, ids=np.array(ids, dtype=np.uint64))
        assert len(got) == len(ids)
        for i, key in zip(ids, got):
            np.testing.assert_array_equal(key, _seed_sequence_key(seed, *path, i))

    def test_draws_are_derive_rngs(self):
        """Each id's draws equal derive_rng's, though the generator before
        it left a half-used 64-bit word and a drawn buffer behind."""
        ids = np.array([0, 5, 2**32 + 1, 3, 5])
        for i, gen in zip(ids.tolist(), derive_streams(11, "aux-sample", 4, ids=ids)):
            ref = derive_rng(11, "aux-sample", 4, i)
            np.testing.assert_array_equal(gen.permutation(40), ref.permutation(40))
            np.testing.assert_array_equal(gen.choice(90, size=17, replace=False),
                                          ref.choice(90, size=17, replace=False))
            np.testing.assert_array_equal(gen.integers(0, 2**32, size=3, dtype=np.uint32),
                                          ref.integers(0, 2**32, size=3, dtype=np.uint32))

    def test_no_ids_no_streams(self):
        assert list(derive_streams(0, "x", ids=[])) == []
        assert list(derive_streams(0, "x", ids=np.empty(0, dtype=np.int64))) == []

    @pytest.mark.parametrize("ids", [[-1], [3, -2], np.array([0, -1])])
    def test_negative_id_rejected(self, ids):
        # at the call, before any stream is drawn
        with pytest.raises(ConfigError, match="must be non-negative"):
            derive_streams(0, "x", ids=ids)

    def test_id_beyond_64_bits_rejected(self):
        with pytest.raises(ConfigError, match=r"stream ids must be below 2\*\*64"):
            derive_streams(0, "x", ids=[1, 2**64])

    def test_seed_and_path_checked_as_derive_rngs(self):
        with pytest.raises(ConfigError, match=r"seed must be in \[0, 2\*\*64\)"):
            derive_streams(2**64, "x", ids=[1])
        with pytest.raises(ConfigError, match="must be non-negative"):
            derive_streams(0, "x", -1, ids=[1])


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

    def test_class_ceiling_checked_before_allocating(self):
        # 10**12 classes would be 7.28 TiB of query_target
        with pytest.raises(ConfigError, match=f"at most {core.MAX_CLASSES} classes, got"):
            LabelSpace(num_target=10**12)
        top = core.MAX_CLASSES
        with pytest.raises(ConfigError, match=f"got {top + 1}"):
            LabelSpace(num_target=top, num_auxiliary=1, neighbor_of={top: 0})
        assert LabelSpace(num_target=top).query_target.size == top

    @given(L=st.integers(1, 6), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_groups_match_neighbor_of(self, L, data):
        """Class c's group is the auxiliary ids ``neighbor_of`` maps to c,
        ascending, whatever order the owners come in; a target without
        auxiliaries, and every auxiliary class, has an empty one."""
        owners = data.draw(st.lists(st.integers(0, L - 1), max_size=12), label="owners")
        space = build_label_space(L, [(L + k, t) for k, t in enumerate(owners)])
        start, by_target = space.aux_start, space.aux_by_target
        got = [by_target[start[c]:start[c + 1]].tolist() for c in range(space.num_classes)]
        want = [sorted(a for a, t in space.neighbor_of.items() if t == c)
                for c in range(space.num_classes)]
        assert got == want
        assert start.size == space.num_classes + 1 and start[-1] == len(owners)
        assert not (start.flags.writeable or by_target.flags.writeable)

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
        """One read-only array, computed at construction: every batch of an
        epoch shares its stats, so the log runs once per epoch."""
        stats = ClassStats(np.array([1, 10, 100]))
        logs = stats.log_counts()
        np.testing.assert_allclose(logs, np.log([1, 10, 100]))
        assert logs is stats.log_counts() and not logs.flags.writeable


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

    def test_sidecar_holds_the_sizes_once(self, tmp_path):
        ds = FeatureDataset(np.zeros((3, 2)), np.array([0, 1, 3]))
        space = build_label_space(3, [(3, 1)])
        path = tmp_path / "d.jsonl"
        write_dataset(ds, space, path)
        sidecar = json.loads(path.with_suffix(".meta.json").read_text())
        assert sorted(sidecar) == ["binary_cache", "feature_dim", "label_space", "provenance"]
        # an older sidecar's top-level sizes are ignored, even when stale
        _edit_sidecar(path, lambda meta: meta.update(num_target=9, num_auxiliary=0))
        assert read_dataset(path)[1] == space

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

        monkeypatch.setattr(core, "read_records", no_parse)
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

    @pytest.mark.parametrize("dim", [0, -1, 6.0, "6", True, None])
    def test_sidecar_feature_dim_must_be_an_integer_above_zero(self, tmp_path, dim):
        _, path = _cached_dataset(tmp_path)
        _edit_sidecar(path, lambda m: m.update(feature_dim=dim))
        with pytest.raises(DataError, match="bad header sidecar.*feature_dim"):
            read_dataset(path)

    def test_label_beyond_int64_is_a_data_error(self, tmp_path):
        _, path = _cached_dataset(tmp_path)
        path.with_suffix(".cache.npy").unlink()
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["label"] = 2**70
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="int64"):
            read_dataset(path)

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

    def test_error_in_a_worker_range_leaves_no_parts(self, tmp_path, force_parts,
                                                     monkeypatch):
        ds = _awkward_dataset()

        def dumps(record):  # the last range fails to format
            if record["id"] == ds.ids[-1]:
                raise TypeError(f"cannot format {record['id']}")
            return json.dumps(record)

        monkeypatch.setattr(core, "json", SimpleNamespace(dumps=dumps))
        messages = []
        for parts in (1, 3):
            force_parts(parts)
            out = tmp_path / str(parts)
            with pytest.raises(TypeError) as exc:
                write_dataset(ds, LabelSpace(num_target=3), out / "d.jsonl")
            messages.append(str(exc.value))
            assert [p.name for p in out.iterdir()] == ["d.jsonl"]
        assert messages[0] == messages[1]

    def test_ids_are_strings_on_both_paths(self, tmp_path):
        ds = FeatureDataset(np.ones((3, 2)), np.array([0, 1, 0]), ids=(7, 8, 9))
        with pytest.raises(DataError, match="ids must be strings, got 7$"):
            write_dataset(ds, LabelSpace(num_target=2), tmp_path / "out" / "d.jsonl")
        assert not (tmp_path / "out").exists()
        # a manifest that holds them all the same, in its JSONL and its cache
        # alike: the cache does not turn them into strings the JSONL refuses
        path = tmp_path / "d.jsonl"
        write_dataset(FeatureDataset(ds.features, ds.labels, ids=("7", "8", "9")),
                      LabelSpace(num_target=2), path)
        path.write_text(path.read_text().replace('"id": "7"', '"id": 7'))
        cache = path.with_suffix(".cache.npy")
        with cache.open("rb") as fh:
            arrays = [np.lib.format.read_array(fh) for _ in range(3)]
        arrays[2] = np.frombuffer(json.dumps([7, "8", "9"]).encode(), dtype=np.uint8)
        data = io.BytesIO()
        for array in arrays:
            np.lib.format.write_array(data, array)
        cache.write_bytes(data.getvalue())
        _edit_sidecar(path, lambda m: m["binary_cache"].update(
            jsonl_sha256=hashlib.sha256(path.read_bytes()).hexdigest(),
            cache_sha256=hashlib.sha256(data.getvalue()).hexdigest()))
        for _ in ("via the cache", "without it"):
            with pytest.raises(DataError) as exc:
                read_dataset(path)
            assert str(exc.value) == f"{path}:1: record.id must be a string, got 7"
            cache.unlink(missing_ok=True)

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


NOT_STR = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                   st.lists(st.text(max_size=2), max_size=2))
NOT_INT = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False),
                    st.text(max_size=3), st.lists(st.integers(), max_size=2))
FAULTS = ("missing", "field", "strings", "nested", "short", "long", "non-finite", "bools",
          "not-utf8", "non-object", "not-json", "too-deep")


@st.composite
def _malformed_line(draw, rec: dict, fields: dict) -> bytes:
    """The bytes of a line that holds ``rec`` made to break one record rule."""
    rec = {**rec, "features": list(rec["features"])}
    feats = rec["features"]
    i = draw(st.integers(0, len(feats) - 1))
    fault = draw(st.sampled_from(FAULTS))
    if fault == "missing":
        del rec[draw(st.sampled_from(sorted(rec)))]
    elif fault == "field":
        key = draw(st.sampled_from(sorted(fields)))
        rec[key] = draw(NOT_INT if fields[key] is int else NOT_STR)
    elif fault == "strings":
        feats[i] = draw(st.one_of(st.text(max_size=4), st.just(str(feats[i]))))
    elif fault == "nested":
        rec["features"] = draw(st.sampled_from([[[v] for v in feats],
                                                feats[:i] + [feats[i:i + 1]] + feats[i + 1:]]))
    elif fault == "short":
        del feats[draw(st.integers(0, len(feats) - 1)):]
    elif fault == "long":
        feats += draw(st.lists(st.floats(-9, 9), min_size=1, max_size=3))
    elif fault == "non-finite":
        feats[i] = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    elif fault == "bools":  # json reads them as bools, which numpy takes for numbers
        flag = draw(st.booleans())
        rec["features"] = draw(st.sampled_from([[flag] * len(feats),
                                                feats[:i] + [flag] + feats[i + 1:]]))
    elif fault == "not-utf8":
        rec[draw(st.sampled_from([k for k, kind in fields.items() if kind is str]))] = "@@"
        return json.dumps(rec).encode().replace(b"@@", b"\xff")
    elif fault == "non-object":
        return json.dumps(draw(st.one_of(st.none(), st.integers(), st.text(max_size=3),
                                         st.lists(st.integers(), max_size=2)))).encode()
    elif fault == "not-json":
        return json.dumps(rec).encode()[:-1]
    else:  # deeper than json.loads can recurse
        return b"[" * 100_000 + b"]" * 100_000
    return json.dumps(rec).encode()


@pytest.mark.parametrize("parts", [1, 2, 3])
def test_record_columns_follow_fields_and_line_up_with_rows(tmp_path, force_parts, parts):
    """One column per field, in the order of ``fields`` and not of the keys
    in a line, and item i of each belongs to feature row i, at any part
    count and across a blank line."""
    recs = [{"id": f"r{i}", "note": ("a", "b")[i % 2], "label": i,
             "features": [float(i), -0.5 * i]} for i in range(12)]
    lines = [json.dumps(r) for r in recs]
    lines.insert(5, "")
    path = tmp_path / "records.jsonl"
    path.write_text("\n".join(lines) + "\n")
    force_parts(parts)
    feats, columns = core.read_records(path, 2, {"label": int, "note": str, "id": str},
                                       lambda line_no: f"line {line_no}")
    assert columns == [[r["label"] for r in recs], [r["note"] for r in recs],
                       [r["id"] for r in recs]]
    assert feats.tolist() == [r["features"] for r in recs]
    assert not feats.flags.writeable


_RECORDS = {
    "manifest": ({"id": "r", "label": 1, "features": [0.5, -1.25, 2.0]},
                 {"id": str, "label": int}),
    "corpus": ({"class": "lynx", "image_ref": "i", "caption": "c",
                "features": [0.5, -1.25, 2.0]},
               {"class": str, "image_ref": str, "caption": str}),
}


@pytest.mark.parametrize("kind", sorted(_RECORDS))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_malformed_record_names_its_line(tmp_path, force_parts, kind, data):
    """One malformed line in a manifest without its binary cache, or in a
    corpus, is a DataError naming that line, the same one at 1 and at 3
    parts, with no child left behind. A corpus's first line sets its dim,
    so only later lines of a corpus are made too short or too long."""
    rec, fields = _RECORDS[kind]
    path = tmp_path / f"{kind}.jsonl"
    if kind == "manifest":
        ds = FeatureDataset(np.tile(rec["features"], (30, 1)), np.arange(30) % 2,
                            ids=tuple(f"r{i}" for i in range(30)))
        write_dataset(ds, LabelSpace(num_target=2), path)
        path.with_suffix(".cache.npy").unlink()
        load, where = read_dataset, f"{path}:{{}}: "
    else:
        path.write_text("".join(json.dumps(rec) + "\n" for _ in range(30)))
        load, where = FixtureRetriever, "bad corpus record at line {}: "
    line_no = data.draw(st.integers(1 + (kind == "corpus"), 30), label="line")
    lines = path.read_bytes().splitlines()
    lines[line_no - 1] = data.draw(_malformed_line(rec, fields), label="line bytes")
    path.write_bytes(b"\n".join(lines) + b"\n")
    messages = []
    for parts in (1, 3):
        force_parts(parts)
        with pytest.raises(DataError) as exc:
            load(path)
        messages.append(str(exc.value))
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)
    assert messages[0].startswith(where.format(line_no))
    assert messages[1] == messages[0]


def test_json_is_decoded_only_in_core():
    """Every JSON input goes through ``core``: no other module of the
    package calls ``json.loads`` or ``json.load``."""
    package = Path(core.__file__).parent
    calls = []
    for source in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("loads", "load")
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"):
                calls.append((source.name, node.lineno))
    assert calls and {name for name, _ in calls} == {"core.py"}, calls


def _calls_of(*callees: str, reading: tuple[str, ...] = ()) -> list[tuple[str, str]]:
    """Every call of one of ``callees`` in the package, as (callee, owner)
    pairs sorted, the owner being the top-level function or method it is in.
    With ``reading``, only the calls whose arguments name one of those
    variables or attributes count."""
    package = Path(core.__file__).parent
    made = []
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text(), filename=str(source))
        owners = []  # (name, node) of each top-level statement, methods apart
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                owners += [(f"{stmt.name}.{getattr(s, 'name', '')}", s) for s in stmt.body]
            else:
                owners.append((getattr(stmt, "name", "<module>"), stmt))
        for owner, stmt in owners:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    callee = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if callee in callees and (not reading or _names_any(node, reading)):
                        made.append((callee, f"{source.stem}.{owner}"))
    return sorted(made)


def _names_any(call: ast.Call, names: tuple[str, ...]) -> bool:
    """Whether an argument of ``call`` mentions a variable or attribute named
    in ``names``."""
    return any(getattr(node, "id", getattr(node, "attr", None)) in names
               for arg in [*call.args, *(k.value for k in call.keywords)]
               for node in ast.walk(arg))


def test_auxiliaries_are_grouped_by_target_only_in_the_label_space():
    """Only ``LabelSpace`` sorts, counts or selects auxiliary ids by the
    target they were queried from; the loss and the sampler read its
    ``aux_by_target`` groups."""
    made = _calls_of("argsort", "sort", "lexsort", "bincount", "flatnonzero", "nonzero",
                     "unique", "where", reading=("query_target", "neighbor_of"))
    assert made == [("argsort", "core.LabelSpace.__post_init__"),
                    ("bincount", "core.LabelSpace.__post_init__")], made


def test_each_epoch_is_built_only_in_epoch():
    """In ``model`` only ``_epoch`` draws an epoch's auxiliaries and binds
    its batch loss; the batch loop calls the loss it returns."""
    made = [c for c in _calls_of("sample_epoch", "ns_ce_batch", "bal_ce_batch")
            if c[1].startswith("model.")]
    assert made == [("bal_ce_batch", "model._epoch"), ("ns_ce_batch", "model._epoch"),
                    ("sample_epoch", "model._epoch")], made


def test_concurrency_has_two_owners():
    """Only ``core._map_runs`` forks, and only ``curation.curate`` makes a
    thread pool."""
    made = _calls_of("fork", "ThreadPoolExecutor")
    assert made == [("ThreadPoolExecutor", "curation.curate"), ("fork", "core._map_runs")], made


def test_synthetic_targets_have_one_recipe():
    """The drivers build target data only through ``experiments._target_data``;
    ``tailext synth`` keeps its own composition, for its Pareto profile and
    spread settings."""
    made = _calls_of("make_counts", "make_hierarchy")
    assert made == [("make_counts", "cli.cmd_synth"), ("make_counts", "experiments._target_data"),
                    ("make_hierarchy", "cli.cmd_synth"),
                    ("make_hierarchy", "experiments._target_data")], made


def test_experiments_import_no_curation():
    """The experiment drivers take the default expansion from ``metrics``,
    so loading them leaves the curation module, and what it imports, out."""
    script = "import sys, tailext.experiments; print('tailext.curation' in sys.modules)"
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


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


_SPLITS_SCRIPT = r"""
import json, os, sys
from pathlib import Path
import numpy as np
from tailext import core
from tailext.core import FeatureDataset, LabelSpace, write_dataset
from tailext.curation import FixtureRetriever

core._PART_MIN_FLOATS = 1
core._NATIVE_THREADS = 0
core.os.sched_getaffinity = lambda pid: {0, 1, 2}
print("printed before the splits")
out = Path(sys.argv[1])
ds = FeatureDataset(np.arange(30.0).reshape(10, 3), np.arange(10) % 2)
write_dataset(ds, LabelSpace(num_target=2), out / "d.jsonl")
corpus = out / "corpus.jsonl"
corpus.write_text("".join(json.dumps({"class": "lynx", "image_ref": f"i{i}", "caption": "c",
                                      "features": [i, 1.0]}) + "\n" for i in range(9)))
assert [c.feature[0] for c in FixtureRetriever(corpus).retrieve("lynx", 0)] == list(range(9))
(out / "d.cache.npy").unlink()
back = core.read_dataset(out / "d.jsonl")[0]
assert back.features.tolist() == ds.features.tolist() and back.labels.tolist() == ds.labels.tolist()
print(len(set(core._map_runs(lambda _: os.getpid(), range(3)))), "processes")
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
print("multiprocessing imported:", "multiprocessing" in sys.modules)
"""


def test_splits_fork_without_multiprocessing(tmp_path):
    """Every caller of ``_map_runs`` split into parts in a fresh interpreter:
    ``write_dataset``, a corpus load, a read of a manifest without its
    binary cache, and ``_map_runs`` itself. Stdout is redirected to a file
    and so block-buffered: a line printed before the splits is written
    once, not again by a child, no child is left, and ``multiprocessing``
    is never imported."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    stdout = tmp_path / "stdout.txt"
    with stdout.open("wb") as fh:
        done = subprocess.run([sys.executable, "-c", _SPLITS_SCRIPT, str(tmp_path)], env=env,
                              stdout=fh, stderr=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert stdout.read_text().splitlines() == [
        "printed before the splits", "3 processes", "no child left",
        "multiprocessing imported: False",
    ]


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.lambda_s == 0.1
        assert cfg.per_class_cap == 50
        assert cfg.learning_rate == 0.15
        assert "momentum" not in cfg.to_json()  # training is plain SGD

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(lambda_s=-0.1)
        with pytest.raises(ConfigError):
            RunConfig(per_class_cap=0)
        with pytest.raises(ConfigError):
            RunConfig(aux_ratio=(1, -1, 3))
        nan, inf = float("nan"), float("inf")
        for bad in (
            dict(hidden_dim=0), dict(hidden_dim=-1), dict(hidden_dim=2.0),
            dict(hidden_dim=True), dict(momentum=0.9), dict(momentum=nan),
            dict(seed=-1), dict(seed=2**64), dict(learning_rate=nan), dict(learning_rate=inf),
            dict(lambda_s=nan), dict(lambda_s=inf), dict(aux_ratio=(1, nan, 3)),
            dict(aux_ratio=(1, 1, inf)),
        ):
            with pytest.raises(ConfigError):
                RunConfig(**bad)
        assert RunConfig(hidden_dim=np.int64(3), momentum=0.0).hidden_dim == 3
        assert RunConfig(seed=2**64 - 1).seed == 2**64 - 1

    def test_lambda_above_one_warns(self):
        with pytest.warns(UserWarning):
            RunConfig(lambda_s=1.5)

    def test_overrides_and_json(self):
        cfg = RunConfig(aux_ratio=(1, 1, 3)).with_overrides(seed=9, lambda_s=0.5)
        assert cfg.seed == 9 and cfg.lambda_s == 0.5
        again = RunConfig(**json.loads(json.dumps(cfg.to_json())))
        assert again == cfg
