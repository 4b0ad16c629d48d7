"""Shared domain types: label spaces, class statistics, feature datasets, run
configuration, and deterministic RNG derivation.

Everything here is immutable after construction and safe to share across
concurrent readers. All randomness in the toolkit flows from a single 64-bit
seed through counter-based Philox streams derived per logical purpose, so
sub-modules draw independent, reproducible samples.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "ConfigError",
    "DataError",
    "ExternalServiceError",
    "DivergenceError",
    "LabelSpace",
    "ClassStats",
    "FeatureDataset",
    "RunConfig",
    "build_label_space",
    "derive_rng",
    "write_dataset",
    "read_dataset",
]


class ConfigError(ValueError):
    """Invalid configuration or arguments (CLI exit code 2)."""


class DataError(ValueError):
    """Malformed or inconsistent data (CLI exit code 3)."""


class ExternalServiceError(RuntimeError):
    """An outbound service (LLM, retriever, embedder) failed (CLI exit code 4)."""


class DivergenceError(ConfigError):
    """Training diverged: a non-finite logit or batch loss, or a runaway
    batch loss (CLI exit code 2, like any other setting that cannot train)."""


def _hash_component(part: int | str) -> int:
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ConfigError(f"stream path components must be non-negative, got {part}")
        return int(part)
    digest = hashlib.blake2s(str(part).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def derive_rng(seed: int, *path: int | str) -> np.random.Generator:
    """Derive an independent generator for the stream named by ``path``.

    The same (seed, path) always yields an identical stream; distinct paths
    yield statistically independent streams. Components may be ints (epoch or
    class indices) or strings (subsystem names), hashed to spawn keys of a
    Philox counter-based generator.
    """
    key = tuple(_hash_component(p) for p in path)
    seq = np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class LabelSpace:
    """Partition of contiguous class ids into L target and K auxiliary classes.

    Ids 0..L-1 are target classes; L..L+K-1 are auxiliary. ``neighbor_of``
    maps each auxiliary id to the target id it was queried from. K = 0 is the
    plain closed-set baseline. ``query_target`` is the same relation as a
    read-only (L+K,) array, built once: the target each auxiliary id was
    queried from, and -1 at every target id.
    """

    num_target: int
    num_auxiliary: int = 0
    neighbor_of: Mapping[int, int] = field(default_factory=dict)
    class_names: Mapping[int, str] | None = None
    query_target: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        L, K = self.num_target, self.num_auxiliary
        if L < 1:
            raise ConfigError(f"need at least one target class, got {L}")
        if K < 0:
            raise ConfigError(f"negative auxiliary count {K}")
        expected = set(range(L, L + K))
        if set(self.neighbor_of) != expected:
            raise ConfigError(
                f"neighbor_of keys must be exactly the auxiliary ids {sorted(expected)}, "
                f"got {sorted(self.neighbor_of)}"
            )
        for aux, tgt in self.neighbor_of.items():
            if not 0 <= tgt < L:
                raise ConfigError(f"auxiliary {aux} maps to invalid target {tgt}")
        object.__setattr__(self, "neighbor_of", dict(self.neighbor_of))
        if self.class_names is not None:
            object.__setattr__(self, "class_names", dict(self.class_names))
        query_target = np.full(L + K, -1, dtype=np.int64)
        for aux, tgt in self.neighbor_of.items():
            query_target[aux] = tgt
        query_target.setflags(write=False)
        object.__setattr__(self, "query_target", query_target)

    @property
    def num_classes(self) -> int:
        return self.num_target + self.num_auxiliary

    def to_json(self) -> dict:
        out: dict = {
            "num_target": self.num_target,
            "num_auxiliary": self.num_auxiliary,
            "neighbor_of": {str(k): v for k, v in sorted(self.neighbor_of.items())},
        }
        if self.class_names is not None:
            out["class_names"] = {str(k): v for k, v in sorted(self.class_names.items())}
        return out

    @classmethod
    def from_json(cls, obj: Mapping) -> "LabelSpace":
        names = obj.get("class_names")
        return cls(
            num_target=int(obj["num_target"]),
            num_auxiliary=int(obj.get("num_auxiliary", 0)),
            neighbor_of={int(k): int(v) for k, v in obj.get("neighbor_of", {}).items()},
            class_names={int(k): str(v) for k, v in names.items()} if names else None,
        )


def build_label_space(
    num_target: int,
    neighbor_pairs: Sequence[tuple[int, int]] = (),
    class_names: Mapping[int, str] | None = None,
) -> LabelSpace:
    """Build a validated LabelSpace from (auxiliary id, target id) pairs.

    Auxiliary ids must be contiguous starting at ``num_target``; duplicate
    auxiliary ids or out-of-range targets are rejected.
    """
    seen: dict[int, int] = {}
    for aux, tgt in neighbor_pairs:
        if aux in seen:
            raise ConfigError(f"duplicate auxiliary id {aux}")
        seen[aux] = tgt
    return LabelSpace(
        num_target=num_target,
        num_auxiliary=len(seen),
        neighbor_of=seen,
        class_names=class_names,
    )


@dataclass(frozen=True)
class ClassStats:
    """Per-class training sample counts n_y for the classes in scope.

    Zero-count classes are rejected at construction: the balanced losses take
    log n_y, so a silent zero would poison training instead of failing fast.
    """

    counts: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.counts, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise DataError("counts must be a non-empty 1-d array")
        if (arr < 1).any():
            bad = np.flatnonzero(arr < 1)
            raise DataError(f"classes {bad.tolist()} have count < 1")
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)

    def __len__(self) -> int:
        return int(self.counts.size)

    def log_counts(self) -> np.ndarray:
        return np.log(self.counts.astype(np.float64))


@dataclass(frozen=True)
class FeatureDataset:
    """Labeled feature-vector samples, the universal training currency.

    ``features`` is (N, C) float64, ``labels`` (N,) int64. ``ids`` are stable
    per-sample identifiers used in manifests; generated if omitted.
    """

    features: np.ndarray
    labels: np.ndarray
    provenance: str = "synthetic"
    ids: tuple[str, ...] | None = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise DataError(f"features must be 2-d (N, C), got shape {feats.shape}")
        if labels.shape != (feats.shape[0],):
            raise DataError(
                f"labels shape {labels.shape} does not match {feats.shape[0]} samples"
            )
        if self.provenance not in ("synthetic", "ingested"):
            raise DataError(f"unknown provenance {self.provenance!r}")
        if self.ids is not None and len(self.ids) != feats.shape[0]:
            raise DataError("ids length does not match sample count")
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        if self.ids is not None:
            object.__setattr__(self, "ids", tuple(self.ids))

    def __len__(self) -> int:
        return int(self.labels.size)

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def sample_ids(self) -> tuple[str, ...]:
        if self.ids is not None:
            return self.ids
        return tuple(f"{self.provenance[:5]}-{i:06d}" for i in range(len(self)))

    def validate_against(self, space: LabelSpace) -> None:
        if len(self) and (self.labels.min() < 0 or self.labels.max() >= space.num_classes):
            raise DataError(
                f"labels outside [0, {space.num_classes}) for the owning label space"
            )

    def class_counts(self, num_classes: int) -> np.ndarray:
        return np.bincount(self.labels, minlength=num_classes)[:num_classes]

    def subset(self, indices: np.ndarray | Sequence[int]) -> "FeatureDataset":
        idx = np.asarray(indices, dtype=np.int64)
        ids = self.ids
        return FeatureDataset(
            features=self.features[idx],
            labels=self.labels[idx],
            provenance=self.provenance,
            ids=tuple([ids[i] for i in idx.tolist()]) if ids is not None else None,
        )


def _sidecar_path(manifest: Path) -> Path:
    return manifest.with_suffix(".meta.json")


# Sidecar key naming the binary cache of a manifest and the two hashes that
# decide whether it may stand in for the JSONL.
_CACHE_KEY = "binary_cache"
_CHUNK = 1 << 20
# Floats of JSON text one part must format or parse before it is worth a
# fork: about 50 ms of json.dumps at ~1.25 us per float on one core.
_PART_MIN_FLOATS = 40_000


# Threads this process runs besides its Python threads, such as the pool
# OpenBLAS starts when numpy loads (one thread per CPU unless told
# otherwise); 0 where the platform does not list a process's threads.
# Counted once, here, just after numpy loaded: OpenBLAS stops its pool at
# every fork and starts it again only at its next threaded call.
try:
    _NATIVE_THREADS = max(0, len(os.listdir("/proc/self/task")) - threading.active_count())
except OSError:
    _NATIVE_THREADS = 0


def _cpu_count() -> int:
    """How many processes may share independent work: one per available
    CPU. It is 1, the caller's own serial loop, on a platform without fork
    or while the process runs other threads, whose held locks a forked
    child would inherit."""
    if threading.active_count() > 1 or not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


def _part_count(floats: int) -> int:
    """Into how many row ranges text work on ``floats`` values is split: one
    per CPU that ``_cpu_count`` allows, each of at least _PART_MIN_FLOATS."""
    return max(1, min(_cpu_count(), math.ceil(floats / _PART_MIN_FLOATS)))


def _run_part(task: Callable, part: int, conn) -> None:
    try:
        result = (True, task(part))
    except Exception as exc:  # raised again in the parent, in part order
        result = (False, exc)
    conn.send(result)
    conn.close()


@contextmanager
def _forked(task: Callable, parts: int) -> Iterator[Iterator]:
    """Run ``task(1)`` ... ``task(parts - 1)`` in forked children while the
    caller does part 0 itself.

    Yields an iterator over the children's results in part order; it raises
    a child's exception when it reaches that part. On exit every child whose
    result was not received is killed, and every child is joined.
    """
    if parts > 1:
        # imported here: most runs never split, and the import holds ~0.8 MB
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
    children = []
    received = 0

    def results():
        nonlocal received
        for proc, conn in children:
            try:
                ok, value = conn.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"part worker exited with code {proc.exitcode}") from None
            received += 1
            if not ok:
                raise value
            yield value

    try:
        for part in range(1, parts):
            conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_run_part, args=(task, part, child_conn))
            proc.start()
            children.append((proc, conn))
            # the parent holds no write end, so a child that dies reads as EOF
            child_conn.close()
        yield results()
    finally:
        for proc, _ in children[received:]:
            proc.kill()
        for proc, conn in children:
            proc.join()
            conn.close()


def _map_runs(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]`` for independent runs, in item order.

    The items are dealt round-robin to parts: this process runs part 0 and
    forked children the others (see ``_forked``), so only what ``fn``
    returns is sent back, pickled. Every process runs its native threads
    as well, a forked child a BLAS pool of the same size, so there is one
    part per 1 + _NATIVE_THREADS of the CPUs that ``_cpu_count`` allows:
    more would leave the pools spinning for CPU time, which made an MLP
    ablation cell three times slower under a BLAS pool of 2 on 2 CPUs.

    A run that raises ends its part, and once every part has finished the
    exception of the first failed run in item order is raised, as the
    serial loop would raise it.
    """
    parts = max(1, min(_cpu_count() // (1 + _NATIVE_THREADS), len(items)))

    def run_part(part: int):
        done = []
        for i in range(part, len(items), parts):
            try:
                done.append(fn(items[i]))
            except Exception as exc:  # raised below if no earlier run failed
                return done, (i, exc)
        return done, None

    with _forked(run_part, parts) as rest:
        dealt = [run_part(0), *rest]
    failed = [f for _, f in dealt if f is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    out: list = [None] * len(items)
    for part, (done, _) in enumerate(dealt):
        out[part::parts] = done
    return out


class _HashingWriter:
    """Writes bytes to a binary file and keeps the sha256 of all of them."""

    def __init__(self, fh):
        self.fh = fh
        self.sha = hashlib.sha256()

    def write(self, data) -> int:
        self.sha.update(data)
        return self.fh.write(data)


def _sha256_of(fh) -> str:
    sha = hashlib.sha256()
    while chunk := fh.read(_CHUNK):
        sha.update(chunk)
    return sha.hexdigest()


def write_dataset(
    dataset: FeatureDataset,
    space: LabelSpace,
    path: str | Path,
    extra_meta: Mapping | None = None,
) -> None:
    """Write a JSONL manifest, its binary cache and its header sidecar.

    One record per line: ``{"id": str, "label": int, "features": [float...]}``.
    The sidecar records C, L, K, the neighbor relation, and any provenance
    metadata the caller supplies (generator spec, seed). ``<stem>.cache.npy``
    holds the same features, labels and ids as three arrays back to back; the
    sidecar names it with the sha256 of both files, so ``read_dataset`` can
    skip parsing float text while the two still match.

    The rows are formatted in contiguous ranges (see ``_part_count``): this
    process writes the first straight to the manifest, and forked children
    write the others to part files beside it, which are then appended in
    order. The bytes do not depend on the number of ranges.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    ids = dataset.sample_ids()
    parts = _part_count(dataset.features.size)
    bounds = [len(dataset) * k // parts for k in range(parts + 1)]
    part_files = {k: path.with_name(f"{path.name}.part{k}") for k in range(1, parts)}

    def write_rows(out, part: int) -> None:
        for i in range(bounds[part], bounds[part + 1]):
            rec = {
                "id": ids[i],
                "label": int(dataset.labels[i]),
                "features": dataset.features[i].tolist(),
            }
            out.write((json.dumps(rec) + "\n").encode("utf-8"))

    def write_part(part: int) -> None:
        with part_files[part].open("wb") as fh:
            write_rows(fh, part)

    try:
        with _forked(write_part, parts) as done, path.open("wb") as fh:
            out = _HashingWriter(fh)
            write_rows(out, 0)
            for part, _ in enumerate(done, 1):
                with part_files[part].open("rb") as src:
                    while chunk := src.read(_CHUNK):
                        out.write(chunk)
    finally:
        for part_file in part_files.values():
            part_file.unlink(missing_ok=True)
    cache = path.with_suffix(".cache.npy")
    id_bytes = np.frombuffer(json.dumps(list(ids)).encode("utf-8"), dtype=np.uint8)
    with cache.open("wb") as fh:
        cache_out = _HashingWriter(fh)
        for array in (dataset.features, dataset.labels, id_bytes):
            # the bytes np.lib.format.write_array writes, without its chunked
            # tobytes copies of the array
            header = np.lib.format.header_data_from_array_1_0(array)
            np.lib.format.write_array_header_1_0(cache_out, header)
            data = array.T if header["fortran_order"] else np.ascontiguousarray(array)
            cache_out.write(memoryview(data).cast("B"))
    meta = {
        "feature_dim": dataset.feature_dim,
        "num_target": space.num_target,
        "num_auxiliary": space.num_auxiliary,
        "label_space": space.to_json(),
        "provenance": dataset.provenance,
    }
    if extra_meta:
        meta.update(extra_meta)
    meta[_CACHE_KEY] = {
        "file": cache.name,
        "jsonl_sha256": out.sha.hexdigest(),
        "cache_sha256": cache_out.sha.hexdigest(),
    }
    _sidecar_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _read_cache(path: Path, meta: Mapping, dim: int):
    """(features, labels, ids) from the manifest's binary cache, or None
    unless the cache and the JSONL both match the hashes in the sidecar and
    the arrays agree in dtype and shape with each other and with ``dim``."""
    entry = meta.get(_CACHE_KEY)
    if not isinstance(entry, dict) or not isinstance(entry.get("file"), str):
        return None
    cache = path.parent / entry["file"]
    if cache.parent != path.parent or not cache.is_file():
        return None
    try:
        with path.open("rb") as fh:
            if _sha256_of(fh) != entry.get("jsonl_sha256"):
                return None
        with cache.open("rb") as fh:
            if _sha256_of(fh) != entry.get("cache_sha256"):
                return None
            fh.seek(0)
            feats, labels, id_bytes = (
                np.lib.format.read_array(fh, allow_pickle=False) for _ in range(3)
            )
            ids = json.loads(id_bytes.tobytes()) if id_bytes.dtype == np.uint8 else None
    except (OSError, ValueError):
        return None
    if not (
        isinstance(ids, list)
        and labels.dtype == np.int64
        and labels.shape == (len(ids),)
        and feats.dtype == np.float64
        and feats.shape == (len(ids), dim)
    ):
        return None
    return feats, labels, [str(i) for i in ids]


def _read_jsonl(path: Path, dim: int):
    """(features, labels, ids, line numbers) parsed from the JSONL text."""
    ids: list[str] = []
    labels: list[int] = []
    rows: list[list[float]] = []
    line_nos: list[int] = []
    # binary lines: json.loads decodes them, so bad UTF-8 is a bad record
    with path.open("rb") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                ids.append(str(rec["id"]))
                labels.append(int(rec["label"]))
                rows.append(rec["features"])
            except (KeyError, ValueError) as exc:
                raise DataError(f"{path}:{line_no}: bad manifest record: {exc}") from exc
            line_nos.append(line_no)
    try:
        feats = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: feature rows do not form a numeric matrix: {exc}") from exc
    if feats.size == 0:
        feats = feats.reshape(0, dim)
    if feats.ndim != 2 or feats.shape[1] != dim:
        raise DataError(
            f"{path}: feature rows of shape {feats.shape[1:]} disagree with sidecar "
            f"feature dim {dim}"
        )
    return feats, labels, ids, line_nos


def read_dataset(path: str | Path) -> tuple[FeatureDataset, LabelSpace, dict]:
    """Read a JSONL manifest and its sidecar; returns (dataset, space, meta).

    The binary cache named in the sidecar is used in place of the JSONL text
    only while both files match their recorded sha256; otherwise the JSONL is
    parsed. A missing, stale or damaged cache is never an error by itself.
    """
    path = Path(path)
    sidecar = _sidecar_path(path)
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    if not sidecar.exists():
        raise DataError(f"header sidecar not found: {sidecar}")
    try:
        meta = json.loads(sidecar.read_text())
        space = LabelSpace.from_json(meta["label_space"])
        dim = int(meta["feature_dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{sidecar}: bad header sidecar: {exc!r}") from exc
    cached = _read_cache(path, meta, dim)
    if cached is not None:
        feats, labels, ids = cached
        # a manifest that matches its hash is writer output: record i is line i + 1
        line_nos = range(1, len(labels) + 1)
    else:
        feats, labels, ids, line_nos = _read_jsonl(path, dim)
    # json reads NaN and Infinity; they must not reach training or scoring
    finite = np.isfinite(feats).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise DataError(f"{path}:{line_nos[row]}: non-finite feature value")
    ds = FeatureDataset(
        features=feats,
        labels=np.asarray(labels, dtype=np.int64),
        provenance=meta.get("provenance", "ingested"),
        ids=tuple(ids),
    )
    ds.validate_against(space)
    return ds, space, meta


def check_lambda_s(lambda_s: float, error: type[ValueError]) -> None:
    """Reject a negative or non-finite silencing strength with ``error`` and
    warn above 1.

    Both boundaries that take lambda_s call this: ``RunConfig`` with
    ConfigError, the silencing loss with DataError.
    """
    if not (math.isfinite(lambda_s) and lambda_s >= 0):
        raise error(f"lambda_s must be a finite number >= 0, got {lambda_s}")
    if lambda_s > 1:
        warnings.warn(
            f"lambda_s={lambda_s} > 1 amplifies neighbor competition "
            "instead of silencing it",
            stacklevel=3,
        )


@dataclass(frozen=True)
class RunConfig:
    """Hyper-parameters of one training run, and the only place their
    defaults are written.

    The determinism contract: identical RunConfig plus identical inputs must
    produce bit-identical metric outputs. Defaults follow the recommended
    operating point: lambda_s=0.1, per-class cap 50, plain SGD at lr 0.15.
    Plain SGD (momentum 0) is the default because the crowded pilot cells do
    worse under momentum. On ``run_pilot_cell`` at S = 5, seeds 0-5, the
    largest batch mean loss reached 22-39 times the first batch's under
    plain SGD and 87-156 times under momentum 0.9, and the balanced-data
    rank gap was 0.6 +- 5.7 points against -6.3 +- 4.4. Plain SGD does not
    settle the S = 5 cells either: at S = 25 the same ratio stays within
    4.8-8.1.
    ``aux_ratio`` of None means derive the head:medium:tail attachment
    counts from split totals by ceiling division.
    """

    seed: int = 0
    lambda_s: float = 0.1
    per_class_cap: int = 50
    aux_ratio: tuple[float, float, float] | None = None
    epochs: int = 30
    batch_size: int = 128
    learning_rate: float = 0.15
    optimizer: str = "sgd"
    momentum: float = 0.0
    weight_decay: float = 0.0
    hidden_dim: int | None = None

    def __post_init__(self):
        check_lambda_s(self.lambda_s, ConfigError)
        if self.per_class_cap < 1:
            raise ConfigError(f"per_class_cap must be >= 1, got {self.per_class_cap}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        # written so that NaN fails every bound
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        width = self.hidden_dim
        if width is not None and (
            isinstance(width, bool) or not isinstance(width, (int, np.integer)) or width < 1
        ):
            raise ConfigError(f"hidden_dim must be None or an integer >= 1, got {width!r}")
        if self.optimizer not in ("sgd", "adamw"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.aux_ratio is not None:
            ratio = tuple(float(r) for r in self.aux_ratio)
            if len(ratio) != 3 or not all(0 <= r < math.inf for r in ratio):
                raise ConfigError(f"aux_ratio must be 3 finite numbers >= 0, got {ratio}")
            object.__setattr__(self, "aux_ratio", ratio)

    def with_overrides(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "lambda_s": self.lambda_s,
            "per_class_cap": self.per_class_cap,
            "aux_ratio": list(self.aux_ratio) if self.aux_ratio is not None else None,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "optimizer": self.optimizer,
            "momentum": self.momentum,
            "weight_decay": self.weight_decay,
            "hidden_dim": self.hidden_dim,
        }
