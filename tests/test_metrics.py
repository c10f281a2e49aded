"""Metric semantics pinned by independent brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specsal.metrics
from specsal.exceptions import MetricInputError, ShapeError
from specsal.metrics import (
    MetricReport,
    adaptive_threshold,
    attribute_eval,
    average_f1,
    evaluate_pair,
    mae,
    mean_report,
    pearson_cc,
    precision_recall,
    roc_auc,
)

# ---------------------------------------------------------------------------
# oracles: written from the definitions, sharing no code with the package


def brute_mae(pred, gt):
    total = math.fsum(abs(float(p) - float(g)) for p, g in zip(pred.ravel(), gt.ravel()))
    return total / pred.size


def brute_avg_f1(pred, gt):
    scores = []
    for i in range(1, 256):
        threshold = i / 256.0
        binary = pred >= threshold
        tp = float(np.logical_and(binary, gt == 1).sum())
        predicted = float(binary.sum())
        actual = float((gt == 1).sum())
        precision = tp / predicted if predicted else 1.0
        recall = tp / actual
        if precision + recall == 0:
            scores.append(0.0)
        else:
            scores.append(2.0 * precision * recall / (precision + recall))
    return math.fsum(scores) / 255.0


def brute_auc(pred, gt):
    positives = pred.ravel()[gt.ravel() == 1]
    negatives = pred.ravel()[gt.ravel() == 0]
    total = 0.0
    for p in positives:
        for n in negatives:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(positives) * len(negatives))


def brute_pearson(pred, gt):
    x = pred.ravel().astype(float)
    y = gt.ravel().astype(float)
    mx = math.fsum(x) / len(x)
    my = math.fsum(y) / len(y)
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def loop_midranks(values):
    """Midranks by a loop over the tie groups of a stable sort."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_values = values[order]
    group_starts = np.concatenate(
        ([0], np.flatnonzero(np.diff(sorted_values)) + 1, [len(values)])
    )
    for start, end in zip(group_starts[:-1], group_starts[1:]):
        ranks[order[start:end]] = 0.5 * (start + 1 + end)
    return ranks


def random_pair(rng, quantize):
    """A random prediction and a two-class ground truth on an 8x8 grid."""
    pred = rng.random((8, 8))
    if quantize:
        pred = np.round(pred * 8.0) / 8.0  # force heavy score ties
    while True:
        gt = (rng.random((8, 8)) < rng.uniform(0.2, 0.8)).astype(float)
        if 0 < gt.sum() < gt.size:
            return pred, gt


def test_all_metrics_match_oracles_on_100_random_pairs():
    rng = np.random.default_rng(42)
    for index in range(100):
        pred, gt = random_pair(rng, quantize=index % 2 == 0)
        assert abs(mae(pred, gt) - brute_mae(pred, gt)) < 1e-12
        assert abs(average_f1(pred, gt) - brute_avg_f1(pred, gt)) < 1e-12
        assert abs(roc_auc(pred, gt) - brute_auc(pred, gt)) < 1e-12
        assert abs(pearson_cc(pred, gt) - brute_pearson(pred, gt)) < 1e-12


# ---------------------------------------------------------------------------
# hand cases


def test_mae_hand_cases():
    gt = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert mae(gt, gt) == 0.0
    assert mae(1.0 - gt, gt) == 1.0
    pred = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert mae(pred, gt) == 0.25


def test_mae_rejects_bad_domains():
    with pytest.raises(ShapeError):
        mae(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(MetricInputError, match="outside"):
        mae(np.full((2, 2), 1.5), np.zeros((2, 2)))
    with pytest.raises(MetricInputError, match="binary"):
        mae(np.zeros((2, 2)), np.full((2, 2), 0.5))
    with pytest.raises(MetricInputError, match="non-finite"):
        mae(np.full((2, 2), np.nan), np.zeros((2, 2)))


def test_precision_recall_perfect_prediction():
    gt = np.array([[1.0, 0.0], [0.0, 1.0]])
    for threshold in (0.1, 0.5, 0.9):
        assert precision_recall(gt, gt, threshold) == (1.0, 1.0)


def test_precision_recall_all_ones_prediction():
    gt = np.zeros((4, 4))
    gt[:2, :2] = 1.0
    pre, rec = precision_recall(np.ones((4, 4)), gt, 0.5)
    assert pre == 4.0 / 16.0
    assert rec == 1.0


def test_precision_recall_hand_counts():
    # TP=1, FP=1, FN=1 on four pixels
    pred = np.array([1.0, 1.0, 0.0, 0.0])
    gt = np.array([1.0, 0.0, 1.0, 0.0])
    assert precision_recall(pred, gt, 0.5) == (0.5, 0.5)


def test_precision_recall_empty_gt_is_an_error():
    with pytest.raises(MetricInputError, match="foreground"):
        precision_recall(np.ones((2, 2)), np.zeros((2, 2)), 0.5)


def test_adaptive_threshold_is_capped():
    assert adaptive_threshold(np.full((2, 2), 0.2)) == pytest.approx(0.4)
    assert adaptive_threshold(np.full((2, 2), 0.8)) == 1.0


def test_adaptive_threshold_is_the_reporting_default():
    rng = np.random.default_rng(0)
    pred, gt = random_pair(rng, quantize=False)
    explicit = precision_recall(pred, gt, adaptive_threshold(pred))
    assert precision_recall(pred, gt) == explicit


def test_avg_f1_extremes():
    gt = np.zeros((4, 4))
    gt[1:3, 1:3] = 1.0
    assert average_f1(gt, gt) == 1.0
    assert average_f1(1.0 - gt, gt) == 0.0


def test_auc_extremes_and_ties():
    gt = np.zeros((4, 4))
    gt[:2] = 1.0
    assert roc_auc(gt, gt) == 1.0
    assert roc_auc(np.full((4, 4), 0.7), gt) == 0.5  # constant: all ties, midrank
    with pytest.raises(MetricInputError, match="both classes"):
        roc_auc(np.ones((2, 2)) * 0.5, np.ones((2, 2)))


def loop_avg_f1(pred, gt):
    """avg-F1 from counts taken by comparing against each threshold in turn; the
    F1 arithmetic and the final mean are the kernel's, so a match is bit-exact."""
    pred, gt = pred.ravel(), gt.ravel()
    positives = float(gt.sum())
    scores = []
    for i in range(1, 256):
        chosen = pred >= i / 256.0
        tp = float(gt[chosen].sum())
        predicted = int(chosen.sum())
        precision = tp / predicted if predicted else 1.0
        recall = tp / positives
        denominator = precision + recall
        scores.append(2.0 * precision * recall / denominator if denominator > 0 else 0.0)
    return float(np.mean(scores))


def auc_from_midranks(ranks, gt):
    positives = int(gt.sum())
    negatives = gt.size - positives
    rank_sum = float(ranks[gt.ravel() == 1.0].sum())
    return (rank_sum - positives * (positives + 1) / 2.0) / (positives * negatives)


def test_avg_f1_matches_the_threshold_loop_bit_for_bit():
    rng = np.random.default_rng(5)
    grid = np.arange(257) / 256.0
    edges = np.concatenate([grid, np.nextafter(grid, 2.0), np.nextafter(grid, -1.0), [-0.0]])
    edges = edges[(edges >= 0.0) & (edges <= 1.0)]
    maps = [
        rng.choice(edges, size=(32, 32)),  # on, just above and just below every threshold
        edges[: edges.size // 16 * 16].reshape(-1, 16),
        np.round(rng.random((64, 64)) * 255.0) / 255.0,  # an 8-bit PGM map read back
        rng.random((24, 40)),
        rng.choice(np.array([0.0, -0.0, 1.0]), size=(16, 16)),
    ]
    maps += [np.full((8, 8), value) for value in (0.0, -0.0, 1.0, 0.5, 1.0 / 256.0,
                                                  np.nextafter(0.5, 0.0), 0.3)]
    for pred in maps:
        for _ in range(4):
            gt = (rng.random(pred.shape) < rng.uniform(0.05, 0.95)).astype(float)
            gt.flat[0] = 1.0  # at least one positive
            assert average_f1(pred, gt).hex() == loop_avg_f1(pred, gt).hex()


def test_auc_matches_loop_midranks_on_tied_maps_bit_for_bit():
    rng = np.random.default_rng(12)
    for index in range(60):
        levels = (1, 2, 4, 255)[index % 4]
        pred = np.round(rng.random((int(rng.integers(2, 48)), 32)) * levels) / levels
        gt = (rng.random(pred.shape) < rng.uniform(0.05, 0.95)).astype(float)
        gt.flat[:2] = (0.0, 1.0)  # both classes
        expected = auc_from_midranks(loop_midranks(pred.ravel()), gt)
        assert roc_auc(pred, gt).hex() == expected.hex()


def test_midranks_match_the_tie_group_loop_bit_for_bit():
    # roc_auc ranks through its own tie groups; these cases pin it to the loop's
    # midranks, through the AUC they give for several two-class ground truths
    rng = np.random.default_rng(11)
    sad_like = np.round(rng.random((64, 64)) * 255.0) / 255.0
    cases = [
        np.array([0.3, 0.3, 0.3, 0.3]),
        np.array([0.0, -0.0, 1.0, 0.0]),
        rng.random(1000),  # no ties
        np.round(rng.random(1000) * 4.0) / 4.0,  # five tie groups
        sad_like.ravel(),
    ]
    for values in cases:
        expected_ranks = loop_midranks(values)
        for positives in (1, values.size // 2, values.size - 1):
            gt = np.zeros(values.size)
            gt[rng.permutation(values.size)[:positives]] = 1.0
            expected = auc_from_midranks(expected_ranks, gt)
            assert roc_auc(values, gt).hex() == expected.hex()
    with pytest.raises(MetricInputError, match="both classes"):
        roc_auc(np.array([0.5]), np.array([1.0]))  # one pixel holds one class only


@settings(max_examples=200, deadline=None, database=None)
@given(st.floats(0.0, 1.0), st.data())
def test_auc_tells_scores_one_float64_step_apart(base, data):
    # 2-5 distinct scores: 0.0 (also as -0.0), 1.0, and base with its two float64
    # neighbours, which a float32 or rounded comparison would merge into one tie
    pool = [0.0, -0.0, 1.0, base, np.nextafter(base, 0.0), np.nextafter(base, 1.0)]
    size = data.draw(st.integers(2, 40))
    pred = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size)))
    positives = data.draw(st.sampled_from([1, size - 1, data.draw(st.integers(1, size - 1))]))
    gt = np.zeros(size)
    gt[data.draw(st.permutations(range(size)))[:positives]] = 1.0
    auc = roc_auc(pred, gt).hex()
    assert auc == auc_from_midranks(loop_midranks(pred), gt).hex()
    assert auc == brute_auc(pred, gt).hex()


@pytest.mark.parametrize("values, message", [
    ([0.5, np.nan], "prediction contains non-finite values"),
    ([0.5, np.inf], "prediction contains non-finite values"),
    ([0.5, -np.inf], "prediction contains non-finite values"),
    ([np.nan, -1.0], "prediction contains non-finite values"),
    ([0.0, np.nextafter(1.0, 2.0)],
     "prediction values outside [0,1]: min 0.0, max 1.0000000000000002"),
    ([np.nextafter(0.0, -1.0), 1.0], "prediction values outside [0,1]: min -5e-324, max 1.0"),
])
def test_validated_keeps_its_error_texts(values, message):
    with pytest.raises(MetricInputError) as caught:
        specsal.metrics._validated(np.array(values), np.array([0.0, 1.0]))
    assert str(caught.value) == message


def test_validated_accepts_negative_zero():
    pred, gt = specsal.metrics._validated(np.array([-0.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0]))
    assert np.signbit(pred[0]) and gt.tolist() == [0.0, 1.0, 1.0]


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(7)
    for _ in range(20):
        pred, gt = random_pair(rng, quantize=True)
        squashed = 1.0 / (1.0 + np.exp(-(3.0 * pred - 1.0)))  # strictly increasing
        assert abs(roc_auc(pred, gt) - roc_auc(squashed, gt)) < 1e-12


def test_cc_hand_cases():
    x = np.array([0.1, 0.4, 0.9, 0.2])
    gt = np.array([0.0, 1.0, 1.0, 0.0])
    assert pearson_cc(x, gt) == pytest.approx(brute_pearson(x, gt), abs=1e-15)
    assert pearson_cc(gt, gt) == pytest.approx(1.0, abs=1e-12)
    assert pearson_cc(1.0 - gt, gt) == pytest.approx(-1.0, abs=1e-12)
    # orthogonal hand case
    assert pearson_cc(np.array([0.0, 1.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0, 0.0])) == 0.0


def test_cc_sign_flips_under_complement():
    rng = np.random.default_rng(3)
    pred, gt = random_pair(rng, quantize=False)
    assert pearson_cc(1.0 - pred, gt) == pytest.approx(-pearson_cc(pred, gt), abs=1e-12)


def test_mae_complement_symmetry():
    rng = np.random.default_rng(4)
    pred, gt = random_pair(rng, quantize=False)
    assert mae(1.0 - pred, 1.0 - gt) == pytest.approx(mae(pred, gt), abs=1e-15)


def test_cc_rejects_constant_maps():
    gt = np.zeros((2, 2))
    gt[0, 0] = 1.0
    with pytest.raises(MetricInputError, match="constant"):
        pearson_cc(np.full((2, 2), 0.5), gt)


# ---------------------------------------------------------------------------
# report assembly


def test_evaluate_pair_perfect_fixture_flags_only_degenerate_metrics():
    gt = np.zeros((4, 4))
    gt[1:3, 1:3] = 1.0
    report = evaluate_pair(gt, gt)
    assert report.mae == 0.0
    assert report.pre == 1.0 and report.rec == 1.0
    assert report.avg_f1 == 1.0
    assert report.auc == 1.0
    assert report.cc == pytest.approx(1.0, abs=1e-12)
    assert report.errors == ()

    constant = evaluate_pair(np.full((4, 4), 0.5), gt)
    assert constant.cc is None
    assert any(flag.startswith("cc:") for flag in constant.errors)
    assert constant.auc == 0.5  # ties are fine, only cc degenerates


def test_evaluate_pair_all_foreground_gt_flags_auc():
    report = evaluate_pair(np.full((2, 2), 0.5), np.ones((2, 2)))
    assert report.auc is None
    assert any(flag.startswith("auc:") for flag in report.errors)


def test_evaluate_pair_thresholds_once_and_flags_both_columns(monkeypatch):
    calls = []

    def counted(pred, gt):
        calls.append(1)
        return precision_recall(pred, gt)

    monkeypatch.setattr(specsal.metrics, "precision_recall", counted)
    gt = np.zeros((4, 4))
    gt[1:3, 1:3] = 1.0
    assert evaluate_pair(gt, gt).pre == 1.0
    assert len(calls) == 1

    empty = evaluate_pair(np.full((4, 4), 0.5), np.zeros((4, 4)))
    assert empty.pre is None and empty.rec is None
    assert {"pre", "rec"} <= {flag.split(":")[0] for flag in empty.errors}


def test_evaluate_pair_validates_the_pair_once(monkeypatch):
    # the metrics still run _validated, but on the checked pair it only unwraps
    checked = []
    original = specsal.metrics._validated

    def counted(pred, gt):
        checked.append(type(pred) is not specsal.metrics._Checked)
        return original(pred, gt)

    monkeypatch.setattr(specsal.metrics, "_validated", counted)
    rng = np.random.default_rng(5)
    pred, gt = rng.random((6, 7)), (rng.random((6, 7)) > 0.5).astype(float)
    report = evaluate_pair(pred, gt)
    assert checked == [True] + [False] * 5
    assert (report.pre, report.rec) == precision_recall(pred, gt)
    assert (report.mae, report.avg_f1, report.auc, report.cc) == (
        mae(pred, gt), average_f1(pred, gt), roc_auc(pred, gt), pearson_cc(pred, gt))


def test_mean_report_skips_flagged_entries():
    gt = np.zeros((4, 4))
    gt[1:3, 1:3] = 1.0
    good = evaluate_pair(gt, gt)
    flagged = evaluate_pair(np.full((4, 4), 0.5), gt)
    merged = mean_report([good, flagged])
    assert merged.cc == good.cc  # the flagged cc is excluded from the mean
    assert merged.mae == pytest.approx((good.mae + flagged.mae) / 2.0)
    assert any("skipped 1 of 2" in flag for flag in merged.errors)
    with pytest.raises(MetricInputError):
        mean_report([])


def test_attribute_eval_slices_match_manual_filtering():
    rng = np.random.default_rng(9)
    entries = []
    for attributes in (("CS",), ("CS", "SO"), ("CB",)):
        pred, gt = random_pair(rng, quantize=False)
        entries.append((attributes, evaluate_pair(pred, gt)))
    result = attribute_eval(entries)
    assert set(result) == {"all", "CS", "SO", "CB"}
    cs_manual = mean_report([r for attrs, r in entries if "CS" in attrs])
    assert result["CS"].mae == cs_manual.mae
    assert result["CS"].auc == cs_manual.auc
    assert result["SO"].mae == entries[1][1].mae
    assert result["CB"].mae == entries[2][1].mae


def test_attribute_eval_uniform_attribute_equals_global():
    rng = np.random.default_rng(11)
    entries = []
    for _ in range(4):
        pred, gt = random_pair(rng, quantize=False)
        entries.append((("CS",), evaluate_pair(pred, gt)))
    result = attribute_eval(entries)
    assert result["CS"] == result["all"]


def test_metric_report_serialization():
    gt = np.zeros((4, 4))
    gt[1:3, 1:3] = 1.0
    doc = evaluate_pair(gt, gt).to_dict()
    assert list(doc)[:6] == list(MetricReport.COLUMNS)
    assert "threshold_protocol" in doc
    assert "errors" not in doc  # clean runs serialize without the flag list
