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
import mmap
import os
import pickle
import re
import reprlib
import sys
import threading
import warnings
from dataclasses import InitVar, asdict, dataclass, field, replace
from itertools import accumulate
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
    "check_json",
    "check_size",
    "decode_json",
    "derive_rng",
    "derive_streams",
    "write_dataset",
    "read_dataset",
    "read_json",
    "read_records",
    "write_json",
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


# The JSON types a value of each kind may have, ``list`` and ``dict``
# standing for ``[kind]`` and ``{...}``, and the kind's name in messages:
# a bool is no number, and a numeric string none either.
_JSON_KINDS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    bool: ((bool,), "a boolean"),
    None: ((type(None),), "null"),
    list: ((list,), "a list"),
    dict: ((dict,), "an object"),
}
_CLASS_ID = re.compile(r"0|[1-9][0-9]{0,17}")


def _kind(kind) -> tuple[tuple[type, ...], str]:
    return _JSON_KINDS[type(kind) if isinstance(kind, (list, dict)) else kind]


def check_json(value, kind, name: str, error: Callable[[str], Exception]):
    """``value``, a decoded JSON value, if it holds ``kind``; otherwise
    raises ``error(message)`` for its first part that does not, the message
    ``{name} must be {kind}, got {value!r}`` (the repr shortened by
    ``reprlib``), where a field is named ``name.key`` (``key`` when ``name``
    is empty) and a list item ``name[i]``.

    A kind is ``int`` (a bool is no integer), ``float`` (an int or a
    float), ``str``, ``bool`` or ``None``; a tuple, any one of its kinds; ``[kind]``,
    a list of that kind; ``{key: kind}``, an object with those keys, where
    a key whose kind admits None may be absent and reads as None, and other
    keys are kept unchecked; ``{int: kind}``, an object keyed by canonical
    decimal class ids ("7", never "07" or "+7"), returned with int keys; or
    ``{str: kind}``, an object with any keys.
    """
    if (kind is None or type(kind) is type) and type(value) in _JSON_KINDS[kind][0]:
        return value  # the common case, on the record reader's path
    options = kind if isinstance(kind, tuple) else (kind,)
    fitting = [k for k in options if type(value) in _kind(k)[0]]
    if not fitting:
        wanted = " or ".join(_kind(k)[1] for k in options)
        raise error(f"{name or 'the value'} must be {wanted}, got {reprlib.repr(value)}")
    kind = fitting[0]
    if isinstance(kind, list):
        item = kind[0]
        if item in (int, float, str, bool) and all(type(v) in _JSON_KINDS[item][0] for v in value):
            return value
        return [check_json(v, item, f"{name}[{i}]", error) for i, v in enumerate(value)]
    if not isinstance(kind, dict):
        return value
    child = (lambda key: f"{name}.{key}") if name else str
    keys = next(iter(kind), None)
    if keys is int or keys is str:  # {int: kind} or {str: kind}
        item = kind[keys]
        for key in value:
            if keys is int and not _CLASS_ID.fullmatch(key):
                raise error(f"{child('key')} must be a class id, got {key!r}")
        return {keys(key): check_json(v, item, child(key), error) for key, v in value.items()}
    out = dict(value)
    for key, sub in kind.items():
        if key not in value and None not in (sub if isinstance(sub, tuple) else (sub,)):
            raise error(f"{child(key)} is missing")
        out[key] = check_json(value.get(key), sub, child(key), error)
    return out


def decode_json(raw: bytes, kind, error: Callable[[str], Exception]):
    """The JSON value in ``raw``, checked against ``kind`` (``check_json``);
    ``error(message)`` when ``raw`` is not JSON or does not hold ``kind``."""
    try:
        value = json.loads(raw)
    # bad UTF-8 too, as json.loads decodes the bytes; and nesting too deep
    # for its recursion
    except (ValueError, RecursionError) as exc:
        raise error(f"not valid JSON: {exc}") from None
    return check_json(value, kind, "", error)


def _existing_file(path: str | Path, what: str, error: Callable[[str], Exception]) -> Path:
    """``path`` as a Path; ``error`` naming it as ``what`` unless a file is there."""
    path = Path(path)
    if not path.is_file():
        raise error(f"{what} not found: {path}")
    return path


def read_json(path: str | Path, kind, error: Callable[[str], Exception], what: str):
    """The JSON value in the file at ``path``, checked against ``kind``
    (``decode_json``). A file that is missing, is not JSON or does not hold
    ``kind`` raises ``error`` naming the file as ``what``."""
    path = _existing_file(path, what, error)
    return decode_json(path.read_bytes(), kind,
                       lambda message: error(f"{path}: bad {what}: {message}"))


def write_json(path: str | Path, value) -> None:
    """Write ``value`` to ``path`` as JSON indented by 2, keys sorted."""
    Path(path).write_text(json.dumps(value, indent=2, sort_keys=True) + "\n")


def _hash_component(part: int | str) -> int:
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ConfigError(f"stream path components must be non-negative, got {part}")
        return int(part)
    digest = hashlib.blake2s(str(part).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def check_seed(seed: int) -> int:
    """``seed`` as an int; ConfigError unless it is in [0, 2**64), where no
    two seeds give a generator the same entropy. The boundaries that take a
    seed call this: ``derive_rng``, ``derive_streams`` and ``RunConfig``, and
    the commands that check theirs before any work or draw nothing from it
    (``cli``)."""
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")
    return seed


# The largest size setting: a count of classes, samples, features, hidden
# units, batch rows or epochs. A 64-bit x86 or ARM process addresses at most
# 2**48 bytes, so no array it allocates holds more elements; past 2**63 a
# size would not even fit numpy's int64.
MAX_SIZE = 2**48


def check_size(value: int, name: str, low: int = 1) -> None:
    """ConfigError naming ``name`` unless the size setting ``value`` is in
    [``low``, MAX_SIZE]. Every boundary that takes a size calls this:
    ``RunConfig``, ``check_cap_and_ratio``, the synthetic data's
    ``CountProfile``, ``HierarchySpec``, ``make_hierarchy`` and
    ``check_auxiliary``, and ``tailext sweep`` for its aux_count values. So
    do the allocations whose element count multiplies size settings, with
    ``value`` that product: ``make_hierarchy``'s and ``make_auxiliary``'s
    feature arrays and ``model``'s hidden-layer weights."""
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    if value > MAX_SIZE:
        raise ConfigError(f"{name} must be at most 2**48, more than any process can "
                          f"allocate, got {value}")


def derive_rng(seed: int, *path: int | str) -> np.random.Generator:
    """Derive an independent generator for the stream named by ``path``.

    The same (seed, path) always yields an identical stream; distinct paths
    yield statistically independent streams. Components may be ints (epoch or
    class indices) or strings (subsystem names), hashed to spawn keys of a
    Philox counter-based generator. ConfigError for a seed outside
    [0, 2**64) (``check_seed``) or a negative int component.
    """
    key = tuple(_hash_component(p) for p in path)
    seq = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))


# SeedSequence's constants (numpy/random/bit_generator.pyx) and its
# 4-word pool
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_M32 = 0xFFFFFFFF


def _hashmix(value: np.ndarray, const: int, mult: int = _MULT_A) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix of the uint32 array ``value``, whose arithmetic
    wraps as the Cython original's does; returns the hashed words and the
    next hash constant. With ``mult`` _MULT_B it is ``generate_state``'s
    hash of a pool word."""
    following = const * mult & _M32
    value = (value ^ const) * following
    return value ^ value >> 16, following


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _MIX_L * x - _MIX_R * y
    return mixed ^ mixed >> 16


def derive_streams(seed: int, *path: int | str, ids) -> Iterator[np.random.Generator]:
    """The generators ``derive_rng(seed, *path, i)`` for each i of ``ids``,
    in order, from one vectorized pass over their keys.

    Each yielded generator draws exactly what derive_rng's would. It is one
    reused Generator whose Philox is re-keyed for each id, so it serves
    until the next id's is drawn. ``ids`` is a sequence of ints in
    [0, 2**64); ConfigError for one outside it, and as ``derive_rng`` for
    the seed and the path.

    Every id's entropy starts with the seed's and the path's words, so one
    SeedSequence of (seed, path) mixes those for all ids. The port below
    goes on from its pool as SeedSequence would: it mixes in each id's
    words, then hashes the pool into the key as ``generate_state(2,
    np.uint64)`` does.
    """
    try:
        ids = np.array([_hash_component(i) for i in np.asarray(ids, dtype=object).tolist()],
                       dtype=np.uint64)
    except OverflowError:
        raise ConfigError(f"stream ids must be below 2**64, got {reprlib.repr(ids)}") from None
    head = np.random.SeedSequence(check_seed(seed),
                                  spawn_key=tuple(_hash_component(p) for p in path))
    # An id's SeedSequence pads the seed to the pool's 4 words. With an
    # empty path the head leaves the seed, at most 2 words, unpadded, which
    # mixes into the same pool. The head's hash constant moved once per pool
    # word, once per ordered pair of pool words and 4 times per path word
    # (an int is at least one 32-bit word).
    path_words = sum(max(1, -(-key.bit_length() // 32)) for key in head.spawn_key)
    const = _INIT_A * pow(_MULT_A, 4 * (_POOL_SIZE + path_words), 2**32) & _M32
    low, high = (ids & _M32).astype(np.uint32), (ids >> 32).astype(np.uint32)
    # an id below 2**32 is one word, any other two
    wide = high > 0
    pool = np.repeat(head.pool[:, None], ids.size, axis=1)
    for word, at in ((low, slice(None)), (high[wide], wide)):
        for dst in range(_POOL_SIZE):
            hashed, const = _hashmix(word, const)
            pool[dst, at] = _mix(pool[dst, at], hashed)
    const = _INIT_B
    for dst in range(_POOL_SIZE):
        pool[dst], const = _hashmix(pool[dst], const, _MULT_B)
    return _rekeyed(np.ascontiguousarray(pool.T, dtype="<u4").view("<u8").astype(np.uint64))


def _rekeyed(keys: np.ndarray) -> Iterator[np.random.Generator]:
    """One Generator, its Philox set for each key in turn as Philox(key=k)
    starts: counter 0 and an empty buffer. A generator of its own, so that
    ``derive_streams`` checks its arguments when it is called."""
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    zeros = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": None},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in keys:
        state["state"]["key"] = key
        bits.state = state
        yield gen


# The most classes, L + K, of a label space (up to about 24 MB of derived
# arrays: query_target, aux_by_target and aux_start): a file's counts size it
# before anything compares them with the data.
MAX_CLASSES = 2**20


@dataclass(frozen=True)
class LabelSpace:
    """Partition of contiguous class ids into L target and K auxiliary classes.

    Ids 0..L-1 are target classes; L..L+K-1 are auxiliary. ``neighbor_of``
    maps each auxiliary id to the target id it was queried from. K = 0 is the
    plain closed-set baseline. Two read-only forms of the same relation are
    built once: ``query_target``, the (L+K,) target each auxiliary id was
    queried from (-1 at every target id), and the auxiliary ids grouped by
    target, class c's ascending in
    ``aux_by_target[aux_start[c]:aux_start[c + 1]]`` (empty for an auxiliary
    class). L + K is at most MAX_CLASSES.
    """

    num_target: int
    num_auxiliary: int = 0
    neighbor_of: Mapping[int, int] = field(default_factory=dict)
    class_names: Mapping[int, str] | None = None
    query_target: np.ndarray = field(init=False, repr=False, compare=False)
    aux_by_target: np.ndarray = field(init=False, repr=False, compare=False)
    aux_start: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        L, K = self.num_target, self.num_auxiliary
        if L < 1:
            raise ConfigError(f"need at least one target class, got {L}")
        if K < 0:
            raise ConfigError(f"negative auxiliary count {K}")
        if L + K > MAX_CLASSES:
            raise ConfigError(f"a label space holds at most {MAX_CLASSES} classes, got {L + K}")
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
        aux_by_target = L + np.argsort(query_target[L:], kind="stable")
        aux_start = np.zeros(L + K + 1, dtype=np.int64)
        np.cumsum(np.bincount(query_target[L:], minlength=L + K), out=aux_start[1:])
        for name, arr in (("query_target", query_target), ("aux_by_target", aux_by_target),
                          ("aux_start", aux_start)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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
    def from_json(cls, obj) -> "LabelSpace":
        """The label space ``to_json`` wrote; DataError unless ``obj`` holds
        its kinds of values, ConfigError unless they make a label space."""
        kinds = {"num_target": int, "num_auxiliary": (int, None),
                 "neighbor_of": ({int: int}, None), "class_names": ({int: str}, None)}
        obj = check_json(obj, kinds, "label_space", DataError)
        return cls(
            num_target=obj["num_target"],
            num_auxiliary=obj["num_auxiliary"] or 0,
            neighbor_of=obj["neighbor_of"] or {},
            class_names=obj["class_names"] or None,
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
        try:
            arr = np.asarray(self.counts, dtype=np.int64)
        except OverflowError as exc:
            raise DataError(f"counts must fit in int64: {exc}") from None
        if arr.ndim != 1 or arr.size == 0:
            raise DataError("counts must be a non-empty 1-d array")
        if (arr < 1).any():
            bad = np.flatnonzero(arr < 1)
            raise DataError(f"classes {bad.tolist()} have count < 1")
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)
        logs = np.log(arr.astype(np.float64))
        logs.setflags(write=False)
        object.__setattr__(self, "_log_counts", logs)

    def __len__(self) -> int:
        return int(self.counts.size)

    def log_counts(self) -> np.ndarray:
        return self._log_counts


@dataclass(frozen=True)
class FeatureDataset:
    """Labeled feature-vector samples, the universal training currency.

    ``features`` is (N, C) float64, ``labels`` (N,) int64. ``ids`` are stable
    per-sample identifiers used in manifests. With ``ids`` None, as the
    generators in ``synth`` leave them, ``sample_ids()`` numbers the rows
    by position (``synth-000000``, ...): a caller that writes a generated
    dataset gets those unless it names the rows first, as ``tailext synth``
    does with ``synth.named_rows``.
    """

    features: np.ndarray
    labels: np.ndarray
    provenance: str = "synthetic"
    ids: tuple[str, ...] | None = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        try:
            labels = np.asarray(self.labels, dtype=np.int64)
        except OverflowError as exc:
            raise DataError(f"labels must fit in int64: {exc}") from exc
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


def _process_count(floats: int | None = None) -> int:
    """How many processes may share independent work: one per
    1 + _NATIVE_THREADS of the CPUs available, since every process runs its
    native threads as well, a forked child a BLAS pool of the same size.
    More would leave the pools spinning for CPU time, which made an MLP
    ablation cell three times slower under a BLAS pool of 2 on 2 CPUs. Text
    work on ``floats`` values also gives each process at least
    _PART_MIN_FLOATS of them. It is 1, the caller's own serial loop, on a
    platform without fork or while the process runs other threads, whose
    held locks a forked child would inherit."""
    if threading.active_count() > 1 or not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    count = (cpus or 1) // (1 + _NATIVE_THREADS)
    if floats is not None:
        count = min(count, math.ceil(floats / _PART_MIN_FLOATS))
    return max(1, count)


def _flush_stdio() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):  # no stream, or a closed one
            pass


def _map_runs(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]`` for independent items, in item order.

    The items are dealt round-robin to at most ``_process_count()`` parts:
    this process runs part 0, item 0 always among them, and forked children
    the others, each sending back only what ``fn`` returned, pickled.
    Standard output and error are flushed before each fork, so a child
    never writes again what the caller printed, and a child leaves through
    ``os._exit``, so none of the caller's exit handlers or ``finally``
    blocks run a second time.

    An item that raises ends its part. Once every child has been reaped,
    a RuntimeError names the exit code of the first child that ended
    without sending its results; otherwise the exception of the first
    failed item in item order is raised, as the serial loop would raise it.
    """
    parts = max(1, min(_process_count(), len(items)))

    def run_part(part: int):
        done = []
        for i in range(part, len(items), parts):
            try:
                done.append(fn(items[i]))
            except Exception as exc:  # raised below if no earlier item failed
                return done, (i, exc)
        return done, None

    pids: list[int] = []
    pipes: list[int] = []  # the read end of each child's pipe
    try:
        for part in range(1, parts):
            read_fd, write_fd = os.pipe()
            pipes.append(read_fd)
            try:
                _flush_stdio()
                pid = os.fork()
                if pid == 0:
                    code = 0
                    try:
                        with open(write_fd, "wb") as out:
                            pickle.dump(run_part(part), out, protocol=pickle.HIGHEST_PROTOCOL)
                    except BaseException:  # not all was sent: the caller reports the exit code
                        code = 1
                        sys.excepthook(*sys.exc_info())
                    finally:
                        _flush_stdio()
                        os._exit(code)
            finally:
                # the caller holds no write end, so a child that dies reads as EOF
                os.close(write_fd)
            pids.append(pid)
        dealt = [run_part(0)]
        for read_fd in pipes:
            with open(read_fd, "rb", closefd=False) as src:
                try:
                    dealt.append(pickle.load(src))
                except (EOFError, pickle.UnpicklingError):  # nothing, or not all of it
                    dealt.append(None)
    finally:
        for read_fd in pipes:
            os.close(read_fd)  # a child still sending then fails, and exits
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if None in dealt:
        raise RuntimeError(f"part worker exited with code {codes[dealt.index(None) - 1]}")
    failed = [f for _, f in dealt if f is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    out: list = [None] * len(items)
    for part, (done, _) in enumerate(dealt):
        out[part::parts] = done
    return out


def _row_problem(features, dim: int, owner: str) -> str | None:
    """Why one record's features are unusable, or None."""
    try:
        check_json(features, [float], "features", ValueError)
        if not features:
            return "features list is empty"
        if len(features) != dim:
            return f"features have {len(features)} values, the {owner} has {dim}"
        finite = np.isfinite(np.array(features, dtype=np.float64)).all()
    except (ValueError, OverflowError) as exc:  # an int past the largest float too
        return str(exc)
    return None if finite else "non-finite feature value"


def _parse_record(line: bytes, fields: Mapping[str, type], seen: dict) -> tuple[tuple, object]:
    """The values of ``fields``, each the first equal one in ``seen``, and
    the features of one JSON record, None if it has none; raises ValueError
    naming what is wrong with the record."""
    try:
        rec = json.loads(line)
    # bad UTF-8 too, as json.loads decodes the bytes; and nesting too deep
    # for its recursion
    except (ValueError, RecursionError) as exc:
        raise ValueError(repr(exc)) from None
    rec = check_json(rec, fields, "record", ValueError)
    return tuple(seen.setdefault(rec[key], rec[key]) for key in fields), rec.get("features")


def _newlines(fh, size: int) -> int:
    """The newlines in the next ``size`` bytes of ``fh``."""
    return sum(fh.read(min(_CHUNK, size - done)).count(b"\n") for done in range(0, size, _CHUNK))


def read_records(
    path: Path,
    dim: int | None,
    fields: Mapping[str, type],
    where: Callable[[int], str],
) -> tuple[np.ndarray, list[list]]:
    """(features, columns) of a JSONL file of records with a ``features``
    list: one column per name in ``fields``, in their order, the list of
    that field's values, and the read-only (N, dim) float64 array of the
    features, where item i of every column and row i of the array belong
    to record i in file order. Blank lines are skipped.

    Every record must be a JSON object with the keys of ``fields``, each
    holding its kind (``check_json``), and ``features``, a flat list of
    ``dim`` finite numbers, where neither a string nor a bool is a number.
    ``dim`` of None takes the first record's length.
    The first line that breaks a rule raises DataError, its message
    ``where(line number)`` and then the problem.

    The file is parsed in byte ranges that start at line boundaries, one
    per process (``_process_count``): this process parses the first and
    forked children the others, each into its own rows of one array in
    memory shared with them. A part checks its records one at a time and
    writes each one's features into its row at once, so its first bad
    line is the first one it reaches; across parts, ``_map_runs`` raises
    the error of the first part that failed. Only the field columns come
    back from a child, equal values in them held, and sent, once.
    The result and the error do not depend on the number of ranges.
    """
    owner = "corpus" if dim is None else "sidecar"
    size = path.stat().st_size
    parts = 1
    with path.open("rb") as fh:
        for line in fh:
            if line.strip():
                if dim is None:
                    try:
                        first = _parse_record(line, {}, {})[1]
                    except ValueError:  # reported when its part loads
                        first = None
                    dim = len(first) if isinstance(first, list) else 0
                # about size / len(line) records of dim floats each
                parts = _process_count(dim * size // len(line))
                break
        dim = dim or 0  # a file without records has no columns either
        # each part starts at the first line that begins at or after its offset
        bounds = [0]
        for k in range(1, parts):
            fh.seek(size * k // parts - 1)
            fh.readline()
            bounds.append(fh.tell())
        bounds.append(size)
        fh.seek(0)
        newlines = [_newlines(fh, stop - start) for start, stop in zip(bounds, bounds[1:])]
    # line numbers count from the top of the file, and every line but the
    # file's last ends in its own part: part k's rows start at the row of
    # its first line, and the last line of the file has a row even without
    # a newline
    first_lines = list(accumulate(newlines, initial=1))
    rows = first_lines[-1]
    row_bytes = dim * 8
    try:
        shared = mmap.mmap(-1, max(1, rows * row_bytes))  # no mapping is empty
    except (OverflowError, OSError) as exc:  # a dim far beyond what the file holds
        raise DataError(f"{path}: no room for {rows} rows of {dim} features: {exc}") from None
    feats = np.frombuffer(shared, count=rows * dim).reshape(rows, dim)

    def load(part: int) -> tuple[int, list[list]]:
        """The count of part's records and their field columns."""
        columns: list[list] = [[] for _ in fields]
        appends = [column.append for column in columns]
        # equal field values, such as a corpus's class names, are held, and
        # sent back, once
        seen: dict = {}
        row = first_lines[part] - 1
        with path.open("rb") as fh:
            fh.seek(bounds[part])
            offset = bounds[part]
            for line_no, line in enumerate(fh, first_lines[part]):
                if offset >= bounds[part + 1]:
                    break
                offset += len(line)
                line = line.strip()
                if not line:
                    continue
                try:
                    values, features = _parse_record(line, fields, seen)
                    # checked before numpy's row assignment, which takes "1.5",
                    # None and bools: the sum raises on a non-number or an int past
                    # the float range and is not finite after a NaN or an infinity;
                    # json reads bools only where a line spells true or false
                    try:
                        usable = (isinstance(features, list) and 0 < len(features) == dim
                                  and math.isfinite(sum(features)))
                    except (TypeError, OverflowError):
                        usable = False
                    if not usable or (
                        (b"true" in line or b"false" in line) and bool in map(type, features)
                    ):
                        problem = _row_problem(features, dim, owner)
                        if problem:  # None if only the sum overflowed
                            raise ValueError(problem)
                except ValueError as exc:
                    raise DataError(f"{where(line_no)}: {exc}") from None
                for append, value in zip(appends, values):
                    append(value)
                feats[row] = features
                row += 1
        return row - (first_lines[part] - 1), columns

    count = 0
    columns: list[list] = [[] for _ in fields]
    for part, (loaded, part_columns) in enumerate(_map_runs(load, range(parts))):
        # close the rows that blank lines left empty, so record i is row i
        start = first_lines[part] - 1
        if start != count:
            shared.move(count * row_bytes, start * row_bytes, loaded * row_bytes)
        count += loaded
        for column, part_column in zip(columns, part_columns):
            column.extend(part_column)
    feats = feats[:count]
    feats.setflags(write=False)
    return feats, columns


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

    One record per line: ``{"id": str, "label": int, "features": [float...]}``;
    an id that is not a string raises DataError before any file is made.
    The sidecar records C, the label space (L, K, the neighbor relation) and
    any provenance metadata the caller supplies (generator spec, seed).
    ``<stem>.cache.npy`` holds the same features, labels and ids as three
    arrays back to back; the sidecar names it with the sha256 of both files,
    so ``read_dataset`` can skip parsing float text while the two still
    match.

    The rows are formatted in contiguous ranges, one per process (see
    ``_process_count``): this process writes the first straight to the
    manifest, and forked children write the others to part files beside it,
    which are then appended in order. The bytes do not depend on the number
    of ranges.
    """
    path = Path(path)
    ids = dataset.sample_ids()
    # the JSONL reader takes only string ids, so no manifest holds another
    if any(not isinstance(bad := sample_id, str) for sample_id in ids):
        raise DataError(f"{path}: ids must be strings, got {reprlib.repr(bad)}")
    path.parent.mkdir(parents=True, exist_ok=True)
    parts = _process_count(dataset.features.size)
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

    try:
        with path.open("wb") as fh:
            out = _HashingWriter(fh)

            def write_range(part: int) -> None:
                if part == 0:  # always run by this process
                    write_rows(out, 0)
                    return
                with part_files[part].open("wb") as part_fh:
                    write_rows(part_fh, part)

            _map_runs(write_range, range(parts))
            for part_file in part_files.values():
                with part_file.open("rb") as src:
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
    write_json(_sidecar_path(path), meta)


def _read_cache(path: Path, meta: Mapping, dim: int):
    """(features, labels, ids) from the manifest's binary cache, or None
    unless the cache and the JSONL both match the hashes in the sidecar,
    the arrays agree in dtype and shape with each other and with ``dim``,
    and every id is a string, as the JSONL reader requires."""
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
        isinstance(ids, list) and all(isinstance(sample_id, str) for sample_id in ids)
        and labels.dtype == np.int64
        and labels.shape == (len(ids),)
        and feats.dtype == np.float64
        and feats.shape == (len(ids), dim)
    ):
        return None
    return feats, labels, ids


def read_dataset(path: str | Path) -> tuple[FeatureDataset, LabelSpace, dict]:
    """Read a JSONL manifest and its sidecar; returns (dataset, space, meta).

    The binary cache named in the sidecar is used in place of the JSONL text
    only while both files match their recorded sha256; otherwise the JSONL is
    parsed. A missing, stale or damaged cache is never an error by itself.
    """
    path = _existing_file(path, "manifest", DataError)
    sidecar = _sidecar_path(path)
    meta = read_json(sidecar, {"feature_dim": int}, DataError, "header sidecar")
    dim = meta["feature_dim"]
    try:
        if dim < 1:
            raise DataError(f"feature_dim must be >= 1, got {dim}")
        space = LabelSpace.from_json(meta.get("label_space"))
    except ValueError as exc:  # ConfigError from LabelSpace too
        raise DataError(f"{sidecar}: bad header sidecar: {exc}") from None
    cached = _read_cache(path, meta, dim)
    if cached is None:
        feats, (ids, labels) = read_records(
            path, dim, {"id": str, "label": int}, lambda line_no: f"{path}:{line_no}"
        )
    else:
        feats, labels, ids = cached
        # json writes NaN and Infinity, which must not reach training or
        # scoring; a manifest that matches its hash is writer output, so
        # record i is line i + 1
        finite = np.isfinite(feats).all(axis=1)
        if not finite.all():
            raise DataError(f"{path}:{int(np.argmin(finite)) + 1}: non-finite feature value")
    ds = FeatureDataset(
        features=feats,
        labels=labels,
        provenance=meta.get("provenance", "ingested"),
        ids=tuple(ids),
    )
    ds.validate_against(space)
    return ds, space, meta


def check_lambda_s(lambda_s: float, error: type[ValueError]) -> None:
    """Reject a negative or non-finite silencing strength with ``error``.

    Both boundaries that take lambda_s call this: ``RunConfig`` with
    ConfigError, the silencing loss with DataError.
    """
    if not (math.isfinite(lambda_s) and lambda_s >= 0):
        raise error(f"lambda_s must be a finite number >= 0, got {lambda_s}")


def check_cap_and_ratio(per_class_cap: int, ratio, ratio_name: str):
    """The attachment ratio as three floats, or None (derive it) as given;
    ConfigError unless the cap is a size (``check_size``) and every ratio
    entry finite and >= 0.
    Both boundaries that take them call this, naming the ratio as they do:
    ``RunConfig`` (aux_ratio) and ``sampling.AuxSamplingPlan`` (ratio)."""
    check_size(per_class_cap, "per_class_cap")
    if ratio is None:
        return None
    ratio = tuple(float(r) for r in ratio)
    if len(ratio) != 3 or not all(0 <= r < math.inf for r in ratio):
        raise ConfigError(f"{ratio_name} must be 3 finite numbers >= 0, got {ratio}")
    return ratio


@dataclass(frozen=True)
class RunConfig:
    """Hyper-parameters of one training run, and the only place their
    defaults are written.

    The determinism contract: identical RunConfig plus identical inputs must
    produce bit-identical metric outputs. Defaults follow the recommended
    operating point: lambda_s=0.1, per-class cap 50, plain SGD at lr 0.15.
    Training has no momentum because the crowded pilot cells do worse under
    it. On ``run_pilot_cell`` at S = 5, seeds 0-5, the largest batch mean
    loss reached 22-39 times the first batch's under plain SGD and 87-156
    times under momentum 0.9, and the balanced-data rank gap was 0.6 +- 5.7
    points against -6.3 +- 4.4. Plain SGD does not settle the S = 5 cells
    either: at S = 25 the same ratio stays within 4.8-8.1. ``momentum`` is
    no field: it is accepted only at 0, the plain SGD that training does,
    so that code that still passes ``momentum=0.0`` (the A1 acceptance
    test does) constructs.
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
    hidden_dim: int | None = None
    momentum: InitVar[float] = 0.0

    def __post_init__(self, momentum):
        if momentum != 0:
            raise ConfigError(f"momentum must be 0 (training is plain SGD), got {momentum}")
        check_seed(self.seed)
        check_lambda_s(self.lambda_s, ConfigError)
        if self.lambda_s > 1:
            # name the caller's line: past this module's frames, the generated
            # __init__ (run in these globals) and with_overrides' replace
            frame, level = sys._getframe(), 1
            while frame.f_back and frame.f_globals["__name__"] in (__name__, "dataclasses"):
                frame, level = frame.f_back, level + 1
            warnings.warn(f"lambda_s={self.lambda_s} > 1 amplifies neighbor competition "
                          "instead of silencing it", stacklevel=level)
        object.__setattr__(self, "aux_ratio",
                           check_cap_and_ratio(self.per_class_cap, self.aux_ratio, "aux_ratio"))
        check_size(self.epochs, "epochs")
        check_size(self.batch_size, "batch_size")
        # written so that NaN fails every bound
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        width = self.hidden_dim
        if width is not None:
            if isinstance(width, bool) or not isinstance(width, (int, np.integer)):
                raise ConfigError(f"hidden_dim must be None or an integer, got {width!r}")
            check_size(width, "hidden_dim")

    def with_overrides(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)

    def to_json(self) -> dict:
        return asdict(self)
