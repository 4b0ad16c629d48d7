"""Auxiliary-category curation: ask a language model for fine-grained
neighbor names, drop label leaks, retrieve candidate records, and keep the
ones that pass the caption and prototype-similarity rules. Only the queries,
which wait on the model, run on threads; the rest runs in the caller.

The heavy lifting (embeddings, image search) lives behind two small
interfaces, so the whole pipeline runs offline against fixture files in
tests and against HTTP services in production.
"""
from __future__ import annotations

import json
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Protocol, Sequence

import numpy as np

from .core import (
    ClassStats,
    ConfigError,
    DataError,
    ExternalServiceError,
    FeatureDataset,
    LabelSpace,
    _existing_file,
    decode_json,
    read_json,
    read_records,
)
from .metrics import DEFAULT_EXPANSION, expand_splits, expansion_targets

__all__ = [
    "Candidate",
    "CurationConfig",
    "LLMClient",
    "HttpLLMClient",
    "FixtureLLMClient",
    "Retriever",
    "FixtureRetriever",
    "normalize_name",
    "build_prompt",
    "query_neighbors",
    "filter_leaks",
    "compute_prototype",
    "filter_candidates",
    "curate",
]

_WS = re.compile(r"\s+")


def normalize_name(name: str) -> str:
    """Case-folded, whitespace-collapsed form used for all name comparisons."""
    return _WS.sub(" ", name.strip().casefold())


def check_keep_band(gamma_low: float, gamma_high: float) -> None:
    """ConfigError unless 0 <= gamma_low < gamma_high <= 1. Both boundaries
    that take the prototype keep band call this: ``CurationConfig`` and
    ``filter_candidates``."""
    if not 0.0 <= gamma_low < gamma_high <= 1.0:
        raise ConfigError(
            f"need 0 <= gamma_low < gamma_high <= 1, got ({gamma_low}, {gamma_high})"
        )


def check_k(k: int) -> None:
    """ConfigError unless k, the neighbor names asked for per class, is >= 1.
    Both boundaries that take k call this: ``CurationConfig`` and
    ``build_prompt``."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")


@dataclass(frozen=True)
class CurationConfig:
    """Settings of ``curate``; ``concurrency`` bounds the LLM queries in
    flight at once, and nothing else runs on its threads."""

    k: int = 5
    gamma_low: float = 0.7
    gamma_high: float = 0.98
    expand: tuple[str, ...] = DEFAULT_EXPANSION
    retries: int = 2
    concurrency: int = 8

    def __post_init__(self):
        check_k(self.k)
        check_keep_band(self.gamma_low, self.gamma_high)
        object.__setattr__(self, "expand", expand_splits(self.expand))
        if self.retries < 0 or self.concurrency < 1:
            raise ConfigError("retries must be >= 0 and concurrency >= 1")

    def to_json(self) -> dict:
        return asdict(self)


def build_prompt(class_name: str, k: int) -> str:
    """The structural in-context prompt, with the requested list size and
    the class to expand substituted in."""
    if not class_name or not class_name.strip():
        raise ConfigError("class name for prompting must be non-empty")
    check_k(k)
    return (
        "Task: Given a category name, please list out "
        f"{k} classes that are fine-grained categories related to the "
        "provided classes.\n"
        "\n"
        "Query: sports car\n"
        "\n"
        "Response: sedan, coupe, SUV, luxury car, electric car\n"
        "\n"
        f"Query: {class_name}\n"
        "\n"
        "Response:"
    )


class LLMClient(Protocol):
    def complete(self, prompt: str) -> str: ...


class HttpLLMClient:
    """Minimal chat-completion client over HTTP.

    Endpoint and key default to the TAILEXT_LLM_URL / TAILEXT_LLM_KEY
    environment variables. A failure that may pass (no connection, a
    timeout, HTTP 429 or 5xx) is retried with a short backoff; any other
    ends the call at once.
    """

    def __init__(
        self,
        base_url: str | None = None,
        api_key: str | None = None,
        model: str = "gpt-4",
        timeout: float = 30.0,
        transport_retries: int = 2,
        backoff: float = 0.5,
    ):
        self.base_url = (base_url or os.environ.get("TAILEXT_LLM_URL", "")).rstrip("/")
        if not self.base_url:
            raise ConfigError(
                "no LLM endpoint: pass base_url or set TAILEXT_LLM_URL"
            )
        self.api_key = api_key or os.environ.get("TAILEXT_LLM_KEY")
        self.model = model
        self.timeout = timeout
        self.transport_retries = transport_retries
        self.backoff = backoff

    def complete(self, prompt: str) -> str:
        # imported on first use: every CLI command imports this module
        import http.client
        import urllib.error
        import urllib.request

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        body = json.dumps({
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
        }).encode()
        def failed(problem: str) -> ExternalServiceError:
            return ExternalServiceError(f"LLM endpoint {self.base_url}: {problem}")

        for attempt in range(self.transport_retries + 1):
            time.sleep(self.backoff * attempt)
            try:
                request = urllib.request.Request(
                    f"{self.base_url}/chat/completions", data=body, headers=headers
                )
                with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                    raw = resp.read()
                break
            except urllib.error.HTTPError as exc:  # a status other than 2xx
                exc.close()
                if exc.code != 429 and exc.code < 500:
                    raise failed(f"refused the request: HTTP {exc.code}") from None
                last = f"HTTP {exc.code}"
            except (OSError, ValueError, http.client.HTTPException) as exc:
                # no connection, a timeout or a dropped connection may pass;
                # a malformed URL or response does not
                reason = exc.reason if isinstance(exc, urllib.error.URLError) else exc
                if not isinstance(reason, OSError):
                    raise failed(repr(exc)) from None
                last = repr(exc)
        else:
            raise failed(f"unreachable after {self.transport_retries + 1} attempts: {last}")
        payload = decode_json(raw, {"choices": [{"message": {"content": str}}]},
                              lambda problem: failed(f"malformed completion payload: {problem}"))
        if not payload["choices"]:
            raise failed("malformed completion payload: no choices")
        return payload["choices"][0]["message"]["content"]


class FixtureLLMClient:
    """Replays recorded responses from ``responses.json`` in a fixture dir.

    The file maps normalized query names to raw response strings. The query
    name is recovered from the last "Query:" line of the prompt, so the
    client stays faithful to whatever prompt the pipeline actually built.
    """

    def __init__(self, fixture_dir: str | Path):
        path = Path(fixture_dir)
        if path.is_dir():
            path = path / "responses.json"
        recorded = read_json(path, {str: str}, DataError, "LLM fixture")
        self.responses: dict[str, str] = {
            normalize_name(k): v for k, v in recorded.items()
        }

    def complete(self, prompt: str) -> str:
        queries = re.findall(r"^Query:\s*(.+)$", prompt, flags=re.MULTILINE)
        if not queries:
            raise ExternalServiceError("prompt has no Query line to replay")
        key = normalize_name(queries[-1])
        if key not in self.responses:
            raise ExternalServiceError(f"no recorded response for query {key!r}")
        return self.responses[key]


def query_neighbors(
    client: LLMClient, class_name: str, k: int, retries: int = CurationConfig.retries
) -> list[str]:
    """Ask for k fine-grained neighbors and parse the comma-separated reply.

    Names come back trimmed, lowercased, and deduplicated in reply order.
    Empty or unparsable replies are retried; persistent failure raises.
    """
    prompt = build_prompt(class_name, k)
    for _ in range(retries + 1):
        raw = client.complete(prompt)
        names = []
        for piece in raw.split(","):
            name = normalize_name(piece)
            if name and name not in names:
                names.append(name)
        if names:
            return names[:k]
    raise ExternalServiceError(
        f"no parsable neighbor names for {class_name!r} after {retries + 1} attempts"
    )


def filter_leaks(names: Sequence[str], target_names) -> list[str]:
    """Drop any proposed name already present in the target label set."""
    blocked = {normalize_name(t) for t in target_names}
    return [n for n in names if normalize_name(n) not in blocked]


@dataclass(frozen=True)
class Candidate:
    """One retrieved record flowing through the filters."""

    image_ref: str
    caption: str
    feature: np.ndarray
    proposed_class: str
    source_target: int

    def __post_init__(self):
        object.__setattr__(
            self, "feature", np.asarray(self.feature, dtype=np.float64)
        )


def compute_prototype(dataset: FeatureDataset, class_id: int) -> np.ndarray:
    """Exact arithmetic mean of the class's training features."""
    mask = dataset.labels == class_id
    if not mask.any():
        raise DataError(f"class {class_id} has no samples to average")
    return dataset.features[mask].mean(axis=0)


def _with_norm(v: np.ndarray) -> tuple[np.ndarray, float]:
    v = np.asarray(v, dtype=np.float64)
    return v, np.linalg.norm(v)


def _cosine(a: np.ndarray, na: float, b: np.ndarray, nb: float) -> float:
    if a.shape != b.shape:
        raise DataError(f"cosine dim mismatch: {a.shape} vs {b.shape}")
    if na == 0.0 or nb == 0.0:
        raise DataError("cosine undefined for zero-norm vector")
    return float(a @ b / (na * nb))


def filter_candidates(
    cands: Sequence[Candidate],
    protos: Mapping[int, np.ndarray],
    gamma_low: float,
    gamma_high: float,
) -> tuple[list[Candidate], list[tuple[Candidate, str]]]:
    """Apply the caption rule, then the prototype keep band.

    ``protos`` maps each source target to its prototype vector. A candidate
    survives iff its proposed class name appears in the caption (normalized
    substring) and gamma_low < cos(prototype, feature) < gamma_high.
    Rejections carry the first rule that fired: "caption", "similarity-low",
    or "similarity-high".
    """
    check_keep_band(gamma_low, gamma_high)
    kept: list[Candidate] = []
    rejected: list[tuple[Candidate, str]] = []
    # each prototype with its norm, and each proposed name, once per call
    normed = {target: _with_norm(vector) for target, vector in protos.items()}
    wanted = {name: normalize_name(name) for name in {cand.proposed_class for cand in cands}}
    for cand in cands:
        if wanted[cand.proposed_class] not in normalize_name(cand.caption):
            rejected.append((cand, "caption"))
            continue
        if cand.source_target not in normed:
            raise DataError(f"no prototype for target {cand.source_target}")
        sim = _cosine(*normed[cand.source_target], *_with_norm(cand.feature))
        if sim <= gamma_low:
            rejected.append((cand, "similarity-low"))
        elif sim >= gamma_high:
            rejected.append((cand, "similarity-high"))
        else:
            kept.append(cand)
    return kept, rejected


class Retriever(Protocol):
    def retrieve(self, class_name: str, source_target: int) -> list[Candidate]: ...


class FixtureRetriever:
    """Serves candidates from a JSONL corpus keyed by proposed class name.

    Each line: {"class": str, "image_ref": str, "caption": str,
    "features": [float, ...]}. The corpus is loaded on every CPU by
    ``core.read_records``, which checks every record: all four keys
    present, class, image_ref and caption strings, and the features a flat
    list of finite numbers as long as the first record's. The features are
    kept as one read-only float64 array, and candidates carry views of its
    rows. The rest is held as columns: the image_ref and caption lists, and
    for each normalized class name the ascending int64 array of its rows.
    """

    FIELDS = {"class": str, "image_ref": str, "caption": str}

    def __init__(self, corpus_path: str | Path):
        self._features, (names, self._image_refs, self._captions) = read_records(
            _existing_file(corpus_path, "candidate corpus", DataError), None, self.FIELDS,
            lambda line_no: f"bad corpus record at line {line_no}",
        )
        # each distinct name -> the number of its normalized form, numbered
        # in order of first appearance
        keys: dict[str, int] = {}
        number = {name: keys.setdefault(normalize_name(name), len(keys))
                  for name in dict.fromkeys(names)}
        codes = np.fromiter(map(number.__getitem__, names), dtype=np.int64, count=len(names))
        # a stable sort keeps each name's rows in file order
        rows = np.argsort(codes, kind="stable")
        ends = np.cumsum(np.bincount(codes, minlength=len(keys)))
        self._rows: dict[str, np.ndarray] = dict(zip(keys, np.split(rows, ends[:-1])))

    def retrieve(self, class_name: str, source_target: int) -> list[Candidate]:
        rows = self._rows.get(normalize_name(class_name))
        return [
            Candidate(
                image_ref=self._image_refs[row],
                caption=self._captions[row],
                feature=self._features[row],
                proposed_class=class_name,
                source_target=source_target,
            )
            for row in ([] if rows is None else rows.tolist())
        ]


def curate(
    space: LabelSpace,
    dataset: FeatureDataset,
    client: LLMClient,
    retriever: Retriever,
    cfg: CurationConfig | None = None,
) -> tuple[FeatureDataset, LabelSpace, dict]:
    """Run the full pipeline for every class in the expansion splits.

    Two stages: first every target's prompt -> query, on at most
    ``cfg.concurrency`` threads; then, in the calling thread and in target
    order, leak filter -> retrieve -> caption and similarity filters. So a
    failed query stops the run before any retrieval. Returns the curated
    auxiliary dataset, the label space grown by one auxiliary class per
    surviving neighbor name, and a report with per-stage counts. Targets
    whose candidates all get filtered are recorded in the report, not fatal.
    """
    cfg = cfg or CurationConfig()
    if space.num_auxiliary:
        raise ConfigError("curate expects a closed-set label space (K = 0)")
    if space.class_names is None:
        raise ConfigError("curation needs class names on the label space")
    missing = [c for c in range(space.num_target) if c not in space.class_names]
    if missing:
        raise ConfigError(f"label space lacks names for targets {missing}")
    dataset.validate_against(space)

    targets = expansion_targets(ClassStats(dataset.class_counts(space.num_target)), cfg.expand)
    all_names = [space.class_names[c] for c in range(space.num_target)]

    # only the LLM queries wait on anything, so only they share the pool;
    # map hands them back in target order, and at the first failure cancels
    # the ones no worker has started
    with ThreadPoolExecutor(max_workers=cfg.concurrency) as pool:
        proposals = list(pool.map(
            lambda tid: query_neighbors(client, space.class_names[tid], cfg.k, cfg.retries),
            targets,
        ))

    # auxiliary ids are given in target-id order, the order of ``targets``
    feats: list[np.ndarray] = []
    labels: list[int] = []
    ids: list[str] = []
    pairs: list[tuple[int, int]] = []
    aux_names: dict[int, str] = {}
    per_target: dict[str, dict] = {}

    for tid, proposed in zip(targets, proposals):
        # each name's candidates are filtered as they are retrieved, so only
        # one name's are alive at a time
        survivors = filter_leaks(proposed, all_names)
        proto = {tid: compute_prototype(dataset, tid)}
        rejected = {"caption": 0, "similarity-low": 0, "similarity-high": 0}
        retrieved = kept_here = 0
        for name in survivors:
            cands = retriever.retrieve(name, tid)
            retrieved += len(cands)
            kept, dropped = filter_candidates(cands, proto, cfg.gamma_low, cfg.gamma_high)
            for _, reason in dropped:
                rejected[reason] += 1
            if kept:
                aux_id = space.num_target + len(pairs)
                pairs.append((aux_id, tid))
                aux_names[aux_id] = name
                feats.extend(c.feature for c in kept)
                labels.extend([aux_id] * len(kept))
                ids.extend(c.image_ref for c in kept)
                kept_here += len(kept)
        per_target[str(tid)] = {
            "class_name": space.class_names[tid],
            "proposed": len(proposed),
            "after_leak_filter": len(survivors),
            "retrieved": retrieved,
            "kept": kept_here,
            "rejected": rejected,
        }

    # every kept feature passed the cosine check against a (D,) prototype
    aux = FeatureDataset(
        features=np.array(feats).reshape(-1, dataset.feature_dim),
        labels=np.asarray(labels, dtype=np.int64),
        provenance="ingested",
        ids=tuple(ids),
    )
    merged = LabelSpace(
        num_target=space.num_target,
        num_auxiliary=len(pairs),
        neighbor_of=dict(pairs),
        class_names={**space.class_names, **aux_names},
    )

    report = {
        "config": cfg.to_json(),
        "expanded_targets": targets,
        "per_target": per_target,
        "empty_targets": [t for t in targets if per_target[str(t)]["kept"] == 0],
        "num_aux_classes": merged.num_auxiliary,
        "total_kept_samples": len(aux),
        "warnings": [] if feats else ["no candidates survived curation; auxiliary set is empty"],
    }
    return aux, merged, report
