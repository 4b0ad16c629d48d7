"""Curation pipeline: prompting, leak filtering, the keep band, end-to-end
runs against the frozen fixture corpus, and the HTTP client."""
import gc
import importlib.util
import json
import os
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailext import curation
from tailext.core import (
    ConfigError,
    DataError,
    ExternalServiceError,
    FeatureDataset,
    LabelSpace,
    read_dataset,
    write_dataset,
)
from tailext.curation import (
    Candidate,
    CurationConfig,
    FixtureLLMClient,
    FixtureRetriever,
    HttpLLMClient,
    build_prompt,
    compute_prototype,
    curate,
    filter_candidates,
    filter_leaks,
    normalize_name,
    query_neighbors,
)

FIXTURES = Path(__file__).parent / "fixtures" / "curation"


class TestNames:
    def test_normalize(self):
        assert normalize_name("  Maine\t Coon ") == "maine coon"
        assert normalize_name("SUV") == "suv"
        assert normalize_name("a  b\n c") == "a b c"

    def test_prompt_structure(self):
        p = build_prompt("ragdoll", k=5)
        assert p.startswith("Task: Given a category name, please list out 5 classes")
        assert "Query: sports car\n\nResponse: sedan, coupe, SUV, luxury car, electric car" in p
        assert p.endswith("Query: ragdoll\n\nResponse:")
        assert build_prompt("x", k=3).count("3 classes") == 1

    def test_prompt_validation(self):
        with pytest.raises(ConfigError):
            build_prompt("   ", k=5)
        with pytest.raises(ConfigError):
            build_prompt("cat", k=0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_one_k_rule(self, k):
        """``CurationConfig`` and ``build_prompt`` refuse the same k with the
        same message."""
        messages = []
        for boundary in (lambda: CurationConfig(k=k), lambda: build_prompt("cat", k)):
            with pytest.raises(ConfigError) as exc:
                boundary()
            messages.append(str(exc.value))
        assert messages == [f"k must be >= 1, got {k}"] * 2


class ScriptedClient:
    """Returns canned replies in order; repeats the last one when exhausted."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        idx = min(self.calls - 1, len(self.replies) - 1)
        return self.replies[idx]


class TestQueryNeighbors:
    def test_parse_dedup_truncate(self):
        client = ScriptedClient(["Sedan, coupe,  sedan , SUV, wagon, van, bus"])
        names = query_neighbors(client, "sports car", k=5)
        assert names == ["sedan", "coupe", "suv", "wagon", "van"]

    def test_retry_then_success(self):
        client = ScriptedClient(["", " , ,", "hawk, kestrel"])
        assert query_neighbors(client, "falcon", k=5, retries=2) == ["hawk", "kestrel"]
        assert client.calls == 3

    def test_persistent_empty_raises(self):
        client = ScriptedClient([""])
        with pytest.raises(ExternalServiceError):
            query_neighbors(client, "falcon", k=5, retries=1)
        assert client.calls == 2

    def test_leak_filter(self):
        targets = ["Ragdoll", "sports  car", "terrier"]
        proposed = ["birman", "ragdoll", "SPORTS CAR", "beagle"]
        assert filter_leaks(proposed, targets) == ["birman", "beagle"]


class TestPrototypesAndCosine:
    def test_prototype_exact_mean(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(30, 6))
        labels = np.asarray([0, 1] * 15)
        ds = FeatureDataset(feats, labels)
        proto = compute_prototype(ds, 1)
        # independent resummation in a different order
        members = [feats[i] for i in range(30) if labels[i] == 1]
        want = sum(reversed(members)) / len(members)
        np.testing.assert_allclose(proto, want, atol=1e-12)

    def test_prototype_missing_class(self):
        ds = FeatureDataset(np.zeros((2, 3)), np.array([0, 0]))
        with pytest.raises(DataError):
            compute_prototype(ds, 1)

    # cosines 0.5, 0.8, 1.0 and 0.0 against the prototype (2, 0, 0, 0)
    FEATURES = ((1.0, 1.0, 1.0, 1.0), (4.0, 3.0, 0.0, 0.0), (3.0, 0.0, 0.0, 0.0),
                (0.0, 1.0, 0.0, 0.0))

    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    @settings(max_examples=40, deadline=None)
    def test_cosine_scale_invariant(self, scale, proto_scale):
        protos = {0: np.array([2.0, 0.0, 0.0, 0.0]) * proto_scale}
        cands = [cand(feature=np.asarray(f) * scale) for f in self.FEATURES]
        kept, rejected = filter_candidates(cands, protos, 0.6, 0.95)
        assert kept == [cands[1]]
        assert rejected == [(cands[0], "similarity-low"), (cands[2], "similarity-high"),
                            (cands[3], "similarity-low")]

    def test_cosine_errors(self):
        unit = (1.0, 0.0, 0.0, 0.0)
        zero = (0.0, 0.0, 0.0, 0.0)
        # a dim mismatch, a zero-norm prototype, a zero-norm feature
        for proto, feature in (((1.0, 0.0, 0.0), unit), (zero, unit), (unit, zero)):
            with pytest.raises(DataError, match="cosine"):
                filter_candidates([cand(feature=feature)], {0: np.asarray(proto)}, 0.7, 0.98)


def cand(name="hawk", caption="a hawk in flight", feature=(1.0, 0.0),
         target=0, ref="img-1"):
    return Candidate(image_ref=ref, caption=caption, feature=np.asarray(feature),
                     proposed_class=name, source_target=target)


class TestFilterCandidates:
    PROTOS = {0: np.array([2.0, 0.0, 0.0, 0.0])}

    def test_caption_rule_fires_first(self):
        # similarity would also reject this one; caption wins
        c = cand(caption="no relevant words", feature=(0.0, 1.0, 0.0, 0.0))
        kept, rejected = filter_candidates([c], self.PROTOS, 0.5, 0.9)
        assert kept == [] and rejected == [(c, "caption")]

    def test_caption_match_is_normalized_substring(self):
        c = cand(name="Maine Coon", caption="A  MAINE   coon on a sofa",
                 feature=(1.0, 0.5, 0.0, 0.0))
        kept, _ = filter_candidates([c], self.PROTOS, 0.5, 0.99)
        assert kept == [c]

    def test_exact_boundaries_are_exclusive(self):
        # cos((2,0,0,0), (1,1,1,1)) = 2/(2*2) = 0.5, exact in floats
        low = cand(feature=(1.0, 1.0, 1.0, 1.0))
        kept, rejected = filter_candidates([low], self.PROTOS, 0.5, 0.9)
        assert rejected == [(low, "similarity-low")]
        # cos((2,0,0,0), (4,3,0,0)) = 8/(2*5) = 0.8, exact in floats
        high = cand(feature=(4.0, 3.0, 0.0, 0.0))
        kept, rejected = filter_candidates([high], self.PROTOS, 0.5, 0.8)
        assert rejected == [(high, "similarity-high")]
        kept, rejected = filter_candidates([high], self.PROTOS, 0.5, 0.81)
        assert kept == [high]

    def test_partition_preserves_order(self):
        cands = [
            cand(ref="a", feature=(1.0, 0.1, 0.0, 0.0)),
            cand(ref="b", caption="nothing"),
            cand(ref="c", feature=(0.1, 1.0, 0.0, 0.0)),
            cand(ref="d", feature=(1.0, 0.2, 0.0, 0.0)),
        ]
        kept, rejected = filter_candidates(cands, self.PROTOS, 0.5, 0.999)
        assert [c.image_ref for c in kept] == ["a", "d"]
        assert [c.image_ref for c, _ in rejected] == ["b", "c"]
        refs = sorted([c.image_ref for c in kept] + [c.image_ref for c, _ in rejected])
        assert refs == ["a", "b", "c", "d"]

    def test_gamma_validation_and_missing_proto(self):
        with pytest.raises(ConfigError):
            filter_candidates([], self.PROTOS, 0.9, 0.8)
        with pytest.raises(ConfigError):
            filter_candidates([], self.PROTOS, -0.1, 0.8)
        with pytest.raises(DataError):
            filter_candidates([cand(target=7)], self.PROTOS, 0.5, 0.9)


class TestFixtureBackends:
    def test_llm_fixture_replays_last_query(self, tmp_path):
        (tmp_path / "responses.json").write_text(
            json.dumps({"Sports   Car": "sedan, coupe"})
        )
        client = FixtureLLMClient(tmp_path)
        assert client.complete(build_prompt("sports car", k=5)) == "sedan, coupe"

    def test_llm_fixture_missing_query(self, tmp_path):
        (tmp_path / "responses.json").write_text("{}")
        client = FixtureLLMClient(tmp_path)
        with pytest.raises(ExternalServiceError):
            client.complete(build_prompt("sphynx", k=5))
        with pytest.raises(ExternalServiceError):
            client.complete("no query lines here")

    def test_llm_fixture_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            FixtureLLMClient(tmp_path / "absent")

    def test_retriever_lookup_normalized(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        rec = {"class": "Maine  Coon", "image_ref": "i1", "caption": "a cat",
               "features": [1.0, 2.0]}
        p.write_text(json.dumps(rec) + "\n\n")
        out = FixtureRetriever(p).retrieve("maine coon", source_target=3)
        assert len(out) == 1
        assert out[0].image_ref == "i1"
        assert out[0].source_target == 3
        np.testing.assert_array_equal(out[0].feature, [1.0, 2.0])
        assert FixtureRetriever(p).retrieve("unknown", 0) == []

    def test_retriever_bad_record(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text('{"image_ref": "i1"}\n')
        with pytest.raises(DataError, match="line 1"):
            FixtureRetriever(p)
        good = {"class": "tabby", "image_ref": "i1", "caption": "a tabby",
                "features": [1.0, 2.0]}
        p.write_bytes(json.dumps(good).encode() + b'\n{"class": "\xff"}\n')
        with pytest.raises(DataError, match="line 2"):
            FixtureRetriever(p)
        with pytest.raises(DataError):
            FixtureRetriever(tmp_path / "absent.jsonl")

    @pytest.mark.parametrize("key", ["image_ref", "caption", "features"])
    def test_retriever_rejects_record_missing_key_at_load(self, tmp_path, key):
        good = {"class": "tabby", "image_ref": "i1", "caption": "a tabby",
                "features": [1.0, 2.0]}
        bad = {k: v for k, v in good.items() if k != key}
        p = tmp_path / "corpus.jsonl"
        p.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(DataError, match=f"line 2.*{key}"):
            FixtureRetriever(p)

    def test_retriever_rows_keep_file_order_across_blocks(self, tmp_path):
        rng = np.random.default_rng(2)
        recs = [{"class": ("tabby", "Maine Coon", "lynx")[i % 3], "image_ref": f"i{i}",
                 "caption": "c", "features": rng.normal(size=3).tolist()}
                for i in range(11)]
        recs[4]["features"] = [1, 2, 3]  # integers are numbers too
        p = tmp_path / "corpus.jsonl"
        p.write_text("".join(json.dumps(r) + "\n" for r in recs))
        retriever = FixtureRetriever(p)
        for name in ("tabby", "maine coon", "lynx"):
            want = [r for r in recs if normalize_name(r["class"]) == name]
            got = retriever.retrieve(name, 0)
            assert [c.image_ref for c in got] == [r["image_ref"] for r in want]
            for cand, rec in zip(got, want):
                assert cand.feature.dtype == np.float64
                assert cand.feature.tolist() == rec["features"]
                assert not cand.feature.flags.writeable

        recs[6]["features"][1] = float("nan")
        p.write_text("".join(json.dumps(r) + "\n" for r in recs))
        with pytest.raises(DataError, match="line 7: non-finite"):
            FixtureRetriever(p)


class TestHeldAsColumns:
    """A loaded corpus holds, besides its feature array, the image_ref and
    caption columns and one int64 row number per record. With image_refs of
    the size perfbench's corpus uses (18 characters, 67 bytes as a str) that
    is about 95 bytes per record; a 3-tuple and a boxed row number per
    record made it about 170."""

    RECORDS = 6000

    def test_bytes_held_per_record(self, tmp_path, force_parts):
        p = tmp_path / "corpus.jsonl"
        p.write_text("".join(
            json.dumps({"class": f"Class {i % 60}", "image_ref": f"cand-0000-{i:08d}",
                        "caption": f"a picture of class {i % 60}",
                        "features": [0.25 * (i % 7), 1.0]}) + "\n"
            for i in range(self.RECORDS)))
        force_parts(1)
        gc.collect()
        tracemalloc.start()
        try:
            retriever = FixtureRetriever(p)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(retriever.retrieve("class 7", 0)) == self.RECORDS // 60
        assert held / self.RECORDS <= 120

    def test_a_load_holds_one_record_of_floats_at_a_time(self, tmp_path, force_parts):
        # each record's floats go into its row as soon as it is checked, so
        # the load holds one record's Python floats at a time
        rng = np.random.default_rng(8)
        p = tmp_path / "corpus.jsonl"
        p.write_text("".join(
            json.dumps({"class": f"Class {i % 80}", "image_ref": f"cand-0000-{i:08d}",
                        "caption": f"a picture of class {i % 80}",
                        "features": rng.normal(size=64).tolist()}) + "\n"
            for i in range(4000)))
        force_parts(1)
        gc.collect()
        tracemalloc.start()
        try:
            retriever = FixtureRetriever(p)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(retriever.retrieve("class 7", 0)) == 50
        assert peak - held < 1 << 20


def _corpus_lines(count=30, features=(0.25, 0.75)):
    """Corpus records whose lines all have the same length, so a split into
    k byte ranges starts part j at line count * j / k + 1."""
    return [json.dumps({"class": ("puma", "lynx", "ibex")[i % 3],
                        "image_ref": f"i{i:03d}", "caption": "c",
                        "features": list(features)[::1 - 2 * (i % 2)]})
            for i in range(count)]


class TestSplitCorpus:
    def load_each_way(self, path, force_parts):
        """The retriever, or its DataError text, for 1, 2 and 3 parts."""
        outcomes = []
        for parts in (1, 2, 3):
            force_parts(parts)
            try:
                outcomes.append(FixtureRetriever(path))
            except DataError as exc:
                outcomes.append(str(exc))
            with pytest.raises(ChildProcessError):  # every child was reaped
                os.waitpid(-1, os.WNOHANG)
        return outcomes

    def test_rows_do_not_depend_on_the_split(self, tmp_path, force_parts):
        lines = _corpus_lines()
        lines[7] = ""  # blank lines are skipped but still counted
        p = tmp_path / "corpus.jsonl"
        p.write_text("\n".join(lines) + "\n")
        loaded = self.load_each_way(p, force_parts)
        for name in ("puma", "lynx", "ibex"):
            want = [(c.image_ref, c.feature.tolist()) for c in loaded[0].retrieve(name, 0)]
            assert len(want) == 10 - (name == "lynx")
            for retriever in loaded[1:]:
                got = retriever.retrieve(name, 0)
                assert [(c.image_ref, c.feature.tolist()) for c in got] == want
                assert all(c.feature.dtype == np.float64 for c in got)

    # split three ways, the 30 lines form parts 1-10, 11-20 and 21-30
    @pytest.mark.parametrize("line_no", [5, 15, 25])
    @pytest.mark.parametrize("fault", ["missing-key", "non-finite", "not-json", "short"])
    def test_bad_record_in_each_part(self, tmp_path, force_parts, fault, line_no):
        lines = _corpus_lines()
        rec = json.loads(lines[line_no - 1])
        if fault == "missing-key":
            del rec["caption"]
        elif fault == "non-finite":
            rec["features"][1] = float("nan")
        elif fault == "short":
            rec["features"] = [1.0]
        lines[line_no - 1] = json.dumps(rec)[:-1] if fault == "not-json" else json.dumps(rec)
        p = tmp_path / "corpus.jsonl"
        p.write_text("\n".join(lines) + "\n")
        errors = self.load_each_way(p, force_parts)
        assert errors[0].startswith(f"bad corpus record at line {line_no}: ")
        assert errors[1] == errors[0] and errors[2] == errors[0]

    def test_dim_change_at_a_part_boundary(self, tmp_path, force_parts):
        # line 21 starts the third of three parts
        lines = _corpus_lines(20) + _corpus_lines(10, features=(1, 2, 3.25))
        p = tmp_path / "corpus.jsonl"
        p.write_text("\n".join(lines) + "\n")
        errors = self.load_each_way(p, force_parts)
        assert errors == ["bad corpus record at line 21: features have 3 values, "
                          "the corpus has 2"] * 3

    def test_an_earlier_bad_line_is_reported_first(self, tmp_path, force_parts):
        # line 9 is caught by the finite-sum check, line 12 when it is parsed
        lines = _corpus_lines()
        rec = json.loads(lines[8])
        rec["features"][0] = float("inf")
        lines[8] = json.dumps(rec)
        lines[11] = "{"
        p = tmp_path / "corpus.jsonl"
        p.write_text("\n".join(lines) + "\n")
        errors = self.load_each_way(p, force_parts)
        assert errors == ["bad corpus record at line 9: non-finite feature value"] * 3

    def test_features_whose_sum_overflows_load_bit_exact(self, tmp_path, force_parts):
        # every value is finite but no record's sum is, so each record is
        # checked again in full, and kept
        rows = [(1e308, 1e308, -1e308), (-1e308, -1e308, 2.5)] * 15
        lines = _corpus_lines()
        for i, row in enumerate(rows):
            rec = json.loads(lines[i])
            rec["features"] = list(row)
            lines[i] = json.dumps(rec)
        p = tmp_path / "corpus.jsonl"
        p.write_text("\n".join(lines) + "\n")
        for retriever in self.load_each_way(p, force_parts):
            got = {c.image_ref: c.feature for name in ("puma", "lynx", "ibex")
                   for c in retriever.retrieve(name, 0)}
            assert np.array([got[f"i{i:03d}"] for i in range(30)]).tobytes() == (
                np.array(rows).tobytes())
        # a manifest without its cache is read by the same code
        ds = FeatureDataset(np.array(rows), np.arange(30) % 3)
        path = tmp_path / "d.jsonl"
        write_dataset(ds, LabelSpace(num_target=3), path)
        path.with_suffix(".cache.npy").unlink()
        for parts in (1, 2, 3):
            force_parts(parts)
            assert read_dataset(path)[0].features.tobytes() == ds.features.tobytes()

    def test_an_empty_corpus_loads(self, tmp_path, force_parts):
        p = tmp_path / "corpus.jsonl"
        for text in ("", "\n\n"):
            p.write_text(text)
            assert [r.retrieve("lynx", 0) for r in self.load_each_way(p, force_parts)] == [[]] * 3

    def test_curate_does_not_depend_on_the_split_or_the_threads(self, tmp_path, force_parts):
        # the fixture corpus without the records target 2 keeps: its names
        # are still retrieved and rejected for all three reasons, but kept
        # by none, so target 2 is empty
        golden = json.loads((FIXTURES / "golden.json").read_text())
        terriers = {a["name"] for a in golden["aux_classes"].values() if a["target"] == 2}
        recs = [json.loads(line)
                for line in (FIXTURES / "candidates.jsonl").read_text().splitlines()]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            json.dumps(r) + "\n" for r in recs
            if not (normalize_name(r["class"]) in terriers
                    and golden["reasons"][r["image_ref"]] == "kept")))
        dataset, space, _ = read_dataset(FIXTURES / "train.jsonl")
        outcomes = []
        for concurrency in (1, 2):
            for parts in (1, 2, 3):
                force_parts(parts)
                aux, merged, report = curate(space, dataset, FixtureLLMClient(FIXTURES),
                                             FixtureRetriever(corpus),
                                             CurationConfig(concurrency=concurrency))
                assert report["config"].pop("concurrency") == concurrency
                outcomes.append((aux.features.tobytes(), aux.sample_ids(),
                                 aux.labels.tolist(), merged, report))
        assert outcomes[1:] == outcomes[:1] * 5
        _, ids, _, merged, report = outcomes[0]
        assert report["empty_targets"] == [2]
        assert all(n > 0 for n in report["per_target"]["2"]["rejected"].values())
        assert len(ids) == golden["total_kept"] - 12
        assert set(merged.neighbor_of.values()) == {1, 3}


class _Handler(BaseHTTPRequestHandler):
    payload: dict | bytes = {}  # bytes are sent as they are
    status = 200
    hits = 0  # requests served since the fixture started

    def do_POST(self):
        type(self).hits += 1
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        payload = type(self).payload
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(type(self).status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_endpoint():
    _Handler.hits = 0
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    # shutdown() waits for the serving loop's next poll, 0.5 s by default
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    thread.join(timeout=5)
    server.server_close()


class TestHttpLLMClient:
    def test_success(self, http_endpoint):
        _Handler.payload = {"choices": [{"message": {"content": "hawk, kestrel"}}]}
        _Handler.status = 200
        client = HttpLLMClient(base_url=http_endpoint, api_key="k")
        assert client.complete("prompt") == "hawk, kestrel"

    def test_malformed_payload(self, http_endpoint):
        _Handler.payload = {"choices": []}
        _Handler.status = 200
        client = HttpLLMClient(base_url=http_endpoint)
        with pytest.raises(ExternalServiceError, match="malformed"):
            client.complete("prompt")

    def test_http_error_retried_then_raises(self, http_endpoint):
        _Handler.payload = {"error": "overloaded"}
        _Handler.status = 503
        client = HttpLLMClient(base_url=http_endpoint, transport_retries=1,
                               backoff=0.01)
        with pytest.raises(ExternalServiceError, match="unreachable"):
            client.complete("prompt")

    @pytest.mark.parametrize("status, payload, sent, message", [
        pytest.param(401, {"error": "bad key"}, 1, "HTTP 401", id="unauthorized"),
        pytest.param(404, {"error": "no route"}, 1, "HTTP 404", id="not-found"),
        pytest.param(200, b"<html>busy</html>", 1, "malformed", id="body-not-json"),
        pytest.param(200, {"choices": [{"message": {"content": 5}}]}, 1, "malformed",
                     id="content-not-a-string"),
        pytest.param(429, {"error": "slow down"}, 3, "unreachable", id="rate-limited"),
        pytest.param(503, {"error": "overloaded"}, 3, "unreachable", id="unavailable"),
    ])
    def test_only_failures_that_may_pass_are_retried(self, http_endpoint, status, payload,
                                                     sent, message):
        _Handler.payload = payload
        _Handler.status = status
        client = HttpLLMClient(base_url=http_endpoint, transport_retries=2, backoff=0.01)
        with pytest.raises(ExternalServiceError, match=message):
            client.complete("prompt")
        assert _Handler.hits == sent

    def test_connection_refused(self):
        client = HttpLLMClient(base_url="http://127.0.0.1:9", timeout=0.2,
                               transport_retries=0, backoff=0.0)
        with pytest.raises(ExternalServiceError):
            client.complete("prompt")

    def test_requires_endpoint(self, monkeypatch):
        monkeypatch.delenv("TAILEXT_LLM_URL", raising=False)
        with pytest.raises(ConfigError):
            HttpLLMClient()


@pytest.fixture(scope="module")
def result():
    dataset, space, _ = read_dataset(FIXTURES / "train.jsonl")
    client = FixtureLLMClient(FIXTURES)
    retriever = FixtureRetriever(FIXTURES / "candidates.jsonl")
    return curate(space, dataset, client, retriever, CurationConfig())


@pytest.fixture(scope="module")
def golden():
    return json.loads((FIXTURES / "golden.json").read_text())


class TestCurateGolden:
    """End-to-end run against the frozen corpus; expected outcomes were
    planned record by record when the fixture was generated."""

    def test_kept_ids_exact_order(self, result, golden):
        aux, _, _ = result
        assert list(aux.sample_ids()) == golden["kept_ids_in_order"]
        assert len(aux) == golden["total_kept"]
        assert aux.provenance == "ingested"

    def test_label_space_growth(self, result, golden):
        _, merged, _ = result
        assert merged.num_auxiliary == len(golden["aux_classes"])
        for aux_id, info in golden["aux_classes"].items():
            aux_id = int(aux_id)
            assert merged.neighbor_of[aux_id] == info["target"]
            assert merged.class_names[aux_id] == info["name"]

    def test_report_counts(self, result, golden):
        _, _, report = result
        assert report["expanded_targets"] == golden["expanded_targets"]
        assert report["empty_targets"] == golden["empty_targets"]
        assert report["per_target"] == golden["per_target"]
        assert report["total_kept_samples"] == golden["total_kept"]
        assert report["warnings"] == []

    def test_rejection_reasons_accounted(self, result, golden):
        _, _, report = result
        planned = {"caption": 0, "similarity-low": 0, "similarity-high": 0}
        for reason in golden["reasons"].values():
            if reason != "kept":
                planned[reason] += 1
        got = {"caption": 0, "similarity-low": 0, "similarity-high": 0}
        for entry in report["per_target"].values():
            for reason, n in entry["rejected"].items():
                got[reason] += n
        assert got == planned

    def test_kept_features_come_from_corpus(self, result):
        aux, _, _ = result
        by_ref = {}
        with (FIXTURES / "candidates.jsonl").open() as fh:
            for line in fh:
                rec = json.loads(line)
                by_ref[rec["image_ref"]] = rec["features"]
        for i, ref in enumerate(aux.sample_ids()):
            np.testing.assert_array_equal(aux.features[i], by_ref[ref])


class EmptyRetriever:
    def retrieve(self, class_name, source_target):
        return []


class ShapedRetriever:
    """One candidate per name, captioned with it, of ones in ``shape``."""

    def __init__(self, shape):
        self.shape = shape

    def retrieve(self, class_name, source_target):
        return [cand(name=class_name, caption=f"a {class_name}", target=source_target,
                     feature=np.ones(self.shape))]


class RecordingRetriever:
    """Serves ``inner``'s candidates; records the thread of every call."""

    def __init__(self, inner):
        self.inner = inner
        self.threads: list[int] = []

    def retrieve(self, class_name, source_target):
        self.threads.append(threading.get_ident())
        return self.inner.retrieve(class_name, source_target)


class FailingClient:
    """Replays ``inner`` but fails the query for ``fail``; records the class
    of every query, in the order they came."""

    def __init__(self, inner, fail):
        self.inner, self.fail = inner, fail
        self.queried: list[str] = []
        self.lock = threading.Lock()

    def complete(self, prompt):
        name = prompt.rsplit("Query: ", 1)[1].split("\n", 1)[0]
        with self.lock:
            self.queried.append(name)
        if name == self.fail:
            raise ExternalServiceError(f"no answer for {name}")
        return self.inner.complete(prompt)


class TestCurateEdges:
    def space_and_data(self):
        dataset, space, _ = read_dataset(FIXTURES / "train.jsonl")
        return space, dataset

    def test_no_candidates_anywhere(self):
        space, dataset = self.space_and_data()
        client = FixtureLLMClient(FIXTURES)
        aux, merged, report = curate(space, dataset, client, EmptyRetriever())
        assert len(aux) == 0
        assert aux.features.shape == (0, dataset.feature_dim)
        assert aux.features.dtype == np.float64
        assert merged == space
        assert report["num_aux_classes"] == 0
        assert report["warnings"]
        assert sorted(report["empty_targets"]) == report["expanded_targets"]

    def test_rejects_open_space(self):
        space, dataset = self.space_and_data()
        opened = LabelSpace(
            num_target=space.num_target, num_auxiliary=1,
            neighbor_of={space.num_target: 0},
        )
        with pytest.raises(ConfigError):
            curate(opened, dataset, FixtureLLMClient(FIXTURES), EmptyRetriever())

    def test_rejects_unnamed_space(self):
        space, dataset = self.space_and_data()
        unnamed = LabelSpace(num_target=space.num_target)
        with pytest.raises(ConfigError):
            curate(unnamed, dataset, FixtureLLMClient(FIXTURES), EmptyRetriever())

    def test_sequential_matches_threaded(self):
        space, dataset = self.space_and_data()
        client = FixtureLLMClient(FIXTURES)
        retriever = FixtureRetriever(FIXTURES / "candidates.jsonl")
        seq = curate(space, dataset, client, retriever, CurationConfig(concurrency=1))
        par = curate(space, dataset, client, retriever, CurationConfig(concurrency=8))
        np.testing.assert_array_equal(seq[0].features, par[0].features)
        assert seq[0].sample_ids() == par[0].sample_ids()
        assert seq[1] == par[1]
        # reports match except for the recorded concurrency setting itself
        seq_rep = {k: v for k, v in seq[2].items() if k != "config"}
        par_rep = {k: v for k, v in par[2].items() if k != "config"}
        assert seq_rep == par_rep

    def test_first_failure_stops_the_queries_at_one_job(self):
        space, dataset = self.space_and_data()
        targets = ["ragdoll", "terrier", "falcon"]  # the expanded ones, in order
        for i in (0, 2):
            client = FailingClient(FixtureLLMClient(FIXTURES), fail=targets[i])
            retriever = RecordingRetriever(FixtureRetriever(FIXTURES / "candidates.jsonl"))
            with pytest.raises(ExternalServiceError, match=targets[i]):
                curate(space, dataset, client, retriever, CurationConfig(concurrency=1))
            # the queries ran in target order, and at most the next one was
            # started before the failure cancelled the rest
            assert client.queried[:i + 1] == targets[:i + 1]
            assert len(client.queried) <= i + 2
            # retrieval waits for every query, so a failed one stops it all
            assert retriever.threads == []

    @pytest.mark.parametrize("jobs", [1, 8])
    def test_retrieval_runs_on_the_calling_thread(self, jobs):
        space, dataset = self.space_and_data()
        retriever = RecordingRetriever(FixtureRetriever(FIXTURES / "candidates.jsonl"))
        curate(space, dataset, FixtureLLMClient(FIXTURES), retriever,
               CurationConfig(concurrency=jobs))
        assert retriever.threads
        assert set(retriever.threads) == {threading.get_ident()}

    @pytest.mark.parametrize("shape", [(8, 1), (7,)])
    def test_feature_not_a_flat_vector_of_the_dim(self, shape):
        space, dataset = self.space_and_data()
        assert dataset.feature_dim == 8
        with pytest.raises(DataError, match="cosine"):
            curate(space, dataset, FixtureLLMClient(FIXTURES), ShapedRetriever(shape))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            CurationConfig(k=0)
        with pytest.raises(ConfigError):
            CurationConfig(gamma_low=0.99, gamma_high=0.98)
        with pytest.raises(ConfigError):
            CurationConfig(expand=("huge",))
        with pytest.raises(ConfigError):
            CurationConfig(expand=())
        with pytest.raises(ConfigError):
            CurationConfig(concurrency=0)


class TestFixtureGenerator:
    def test_rebuilds_the_committed_fixture(self, tmp_path):
        script = FIXTURES.parent / "make_curation_fixtures.py"
        spec = importlib.util.spec_from_file_location("make_curation_fixtures", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main(tmp_path)
        for name in ("candidates.jsonl", "responses.json", "golden.json", "train.jsonl"):
            assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name
