"""Split thresholds, accuracy bookkeeping, rank gaps, report round trips."""
import csv
import gc
import io
import json
import tracemalloc

import numpy as np
import pytest

from tailext.core import (
    ClassStats,
    ConfigError,
    DataError,
    FeatureDataset,
    LabelSpace,
    build_label_space,
    write_json,
)
from tailext.metrics import (
    EVAL_CSV_COLUMNS,
    EvalReport,
    SplitAssignment,
    assign_splits,
    count_rank_gap,
    evaluate,
    expansion_targets,
    read_report,
    reports_to_csv,
)
from tailext.model import ClassifierState


class TestSplitAssignment:
    def test_threshold_boundaries(self):
        tags = assign_splits(ClassStats(np.array([150, 101, 100, 20, 19, 1]))).tags
        assert tags == ("many", "many", "medium", "medium", "few", "few")

    def test_classes_in_and_totals(self):
        splits = assign_splits(ClassStats(np.array([150, 40, 5, 3])))
        np.testing.assert_array_equal(splits.classes_in("few"), [2, 3])
        np.testing.assert_array_equal(splits.classes_in("many"), [0])
        totals = splits.totals(np.array([150, 40, 5, 3]))
        assert totals == {"many": 150, "medium": 40, "few": 8}

    def test_bad_tag_rejected(self):
        with pytest.raises(DataError):
            SplitAssignment(tags=("many", "huge"))

    def test_expansion_targets(self):
        stats = ClassStats(np.array([150, 40, 5, 101, 20]))
        assert expansion_targets(stats, "all") == [0, 1, 2, 3, 4]
        assert expansion_targets(stats, " medium, few ") == [1, 2, 4]
        assert expansion_targets(stats, ("many",)) == [0, 3]
        for bad in ("huge", "few,huge", "", ",", (), ("many", "all")):
            with pytest.raises(ConfigError):
                expansion_targets(stats, bad)


def diag_state(num_classes, dim=None):
    """Classifier that predicts argmax of the raw features."""
    dim = dim or num_classes
    return ClassifierState(
        weights=np.eye(num_classes, dim), bias=np.zeros(num_classes),
        space=LabelSpace(num_target=num_classes),
    )


def onehot_data(labels, num_classes, flip_mask=None):
    """Test set the diagonal classifier gets right except where flipped."""
    labels = np.asarray(labels)
    feats = np.zeros((labels.size, num_classes))
    for i, y in enumerate(labels):
        feats[i, y] = 1.0
    if flip_mask is not None:
        for i in np.flatnonzero(flip_mask):
            feats[i] = 0.0
            feats[i, (labels[i] + 1) % num_classes] = 1.0
    return FeatureDataset(feats, labels)


class TestEvaluate:
    def test_overall_is_samplesize_weighted_split_combination(self):
        # 4 classes: many, many, medium, few; flip a controlled subset
        counts = ClassStats(np.array([200, 150, 50, 5]))
        splits = assign_splits(counts)
        labels = np.repeat([0, 1, 2, 3], 10)
        flips = np.zeros(40, dtype=bool)
        flips[0:2] = True    # class 0: 8/10
        flips[20:25] = True  # class 2: 5/10
        ds = onehot_data(labels, 4, flips)
        rep = evaluate(diag_state(4), ds, splits, mask=True)
        assert rep.many_acc == pytest.approx(100 * 18 / 20)
        assert rep.medium_acc == pytest.approx(50.0)
        assert rep.few_acc == pytest.approx(100.0)
        # overall recombines the splits weighted by their sample counts
        want = (18 / 20 * 20 + 0.5 * 10 + 1.0 * 10) / 40 * 100
        assert rep.overall_acc == pytest.approx(want)
        assert rep.head_tail_gap == pytest.approx(rep.many_acc - rep.few_acc)
        assert rep.split_sizes == {"many": 20, "medium": 10, "few": 10}
        # balanced error: per-class error rates (.2, 0, .5, 0)
        assert rep.balanced_error_sum == pytest.approx(0.7)
        assert rep.balanced_error_mean == pytest.approx(0.7 / 4)

    def test_empty_split_reported_absent(self):
        counts = ClassStats(np.array([200, 150]))  # no few classes at all
        splits = assign_splits(counts)
        ds = onehot_data([0, 1, 1], 2)
        rep = evaluate(diag_state(2), ds, splits)
        assert rep.few_acc is None
        assert rep.medium_acc is None
        assert rep.head_tail_gap is None
        assert rep.overall_acc == 100.0

    def test_masking_restricts_aux_rows(self):
        # aux row 2 would win every sample if left unmasked
        space = LabelSpace(num_target=2, num_auxiliary=1, neighbor_of={2: 0})
        W = np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        state = ClassifierState(weights=W, bias=np.zeros(3), space=space)
        ds = onehot_data([0, 1], 2)
        splits = assign_splits(ClassStats(np.array([150, 10])))
        masked = evaluate(state, ds, splits, mask=True)
        assert masked.overall_acc == 100.0
        assert masked.num_classes == 2
        # unmasked, the aux row captures everything: accuracy collapses and
        # the balanced error (defined over the target taxonomy) maxes out
        raw = evaluate(state, ds, splits, mask=False)
        assert raw.overall_acc == 0.0
        assert raw.num_classes == 3
        assert raw.balanced_error_sum == pytest.approx(2.0)
        assert not raw.masked

    def test_empty_test_rejected(self):
        ds = FeatureDataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(DataError):
            evaluate(diag_state(2), ds, assign_splits(ClassStats(np.array([5, 5]))))


class TestCountRankGap:
    def test_tercile_gap_hand_computed(self):
        # 6 classes, counts descending: head = {0, 1}, tail = {4, 5}
        stats = ClassStats(np.array([100, 90, 50, 40, 10, 5]))
        labels = np.repeat(np.arange(6), 4)
        preds = labels.copy()
        preds[labels == 4] = 0          # class 4 fully wrong
        preds[np.flatnonzero(labels == 5)[:2]] = 1  # class 5 half wrong
        gap = count_rank_gap(preds, labels, stats)
        assert gap == pytest.approx(100.0 * (1.0 - 0.25))

    def test_zero_on_perfect_balanced(self):
        stats = ClassStats(np.full(6, 30))
        labels = np.repeat(np.arange(6), 3)
        assert count_rank_gap(labels, labels, stats) == 0.0

    def test_needs_samples_in_both_groups(self):
        stats = ClassStats(np.array([50, 40, 30, 20, 10, 5]))
        labels = np.zeros(4, dtype=int)  # tail classes unseen
        with pytest.raises(DataError):
            count_rank_gap(labels, labels, stats)


def small_report(**over):
    base = dict(
        overall_acc=75.0, many_acc=90.0, medium_acc=70.0, few_acc=40.0,
        head_tail_gap=50.0, balanced_error_sum=1.2, balanced_error_mean=0.3,
        split_sizes={"many": 10, "medium": 5, "few": 5}, num_classes=4,
        num_samples=20, masked=True, seed=3,
    )
    base.update(over)
    return EvalReport(**base)


class TestReportSerialization:
    def test_json_roundtrip_preserves_none(self, tmp_path):
        rep = small_report(few_acc=None, head_tail_gap=None)
        write_json(tmp_path / "r.json", rep.to_json())
        back = read_report(tmp_path / "r.json")
        assert back == rep
        assert back.few_acc is None

    def test_to_text_marks_absent(self):
        txt = small_report(few_acc=None, head_tail_gap=None).to_text()
        assert "few absent" in txt
        assert "many 90.0" in txt

    def test_csv_emission(self):
        rows = [({"axis": "lambda_s", "value": 0.1}, small_report())]
        out = reports_to_csv(rows, ("axis", "value"))
        parsed = list(csv.reader(io.StringIO(out)))
        assert parsed[0] == ["axis", "value"] + list(EVAL_CSV_COLUMNS)
        assert parsed[1][0] == "lambda_s"
        assert parsed[1][2 + EVAL_CSV_COLUMNS.index("overall_acc")] == "75.0"

    def test_write_report_stable(self, tmp_path):
        p = tmp_path / "r.json"
        write_json(p, small_report().to_json())
        first = p.read_bytes()
        write_json(p, small_report().to_json())
        assert p.read_bytes() == first
        assert json.loads(first)["overall_acc"] == 75.0


class TestEvaluateMemory:
    def test_transient_stays_under_half_a_logits_array(self):
        # 10,000 test rows over 100 target classes, with a hidden layer and
        # 50 auxiliary rows that the mask drops; predictions are scored in
        # row chunks, so no (N, L) logits array is built
        rng = np.random.default_rng(4)
        L, N, D, width = 100, 10_000, 64, 128
        state = ClassifierState(
            weights=rng.normal(size=(L + 50, width)),
            bias=rng.normal(size=L + 50),
            space=build_label_space(L, [(L + k, k) for k in range(50)]),
            hidden_weights=rng.normal(size=(width, D)) / 8,
            hidden_bias=rng.normal(size=width),
        )
        test = FeatureDataset(rng.normal(size=(N, D)), np.repeat(np.arange(L), N // L))
        splits = assign_splits(ClassStats(np.linspace(300, 3, L).astype(np.int64)))
        gc.collect()
        tracemalloc.start()
        try:
            report = evaluate(state, test, splits, mask=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.num_samples == N
        assert peak < 0.5 * N * L * 8
