"""Saliency evaluation metrics with a fixed, documented threshold protocol.

All functions take a predicted map with values in [0, 1] and a binary ground
truth of the same shape. Degenerate inputs raise MetricInputError instead of
returning a conventional value; `evaluate_pair` converts those per-metric
errors into flagged absences so one bad metric cannot sink a whole run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import MetricInputError, ShapeError

THRESHOLD_PROTOCOL = "adaptive 2*mean(pred) capped at 1; avg_f1 over i/256, i=1..255"


class _Checked(np.ndarray):
    """A flat prediction that _validated passed. evaluate_pair hands it, with the flat
    ground truth _validated returned, to each metric, so the pair is checked once."""


def _validated(pred, gt):
    """Flat float64 pair; min and max propagate NaN, so NaN and ±inf fail the range test."""
    if type(pred) is _Checked:
        return pred.view(np.ndarray), gt
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeError(f"prediction {pred.shape} vs ground truth {gt.shape}")
    if pred.size == 0:
        raise MetricInputError("empty maps have no metrics")
    low, high = pred.min(), pred.max()
    if not (0.0 <= low and high <= 1.0):
        if not np.isfinite(pred).all():
            raise MetricInputError("prediction contains non-finite values")
        raise MetricInputError(f"prediction values outside [0,1]: min {low}, max {high}")
    if not ((gt == 0.0) | (gt == 1.0)).all():
        raise MetricInputError("ground truth must be binary")
    return pred.ravel(), gt.ravel()


def mae(pred, gt) -> float:
    pred, gt = _validated(pred, gt)
    return float(np.abs(pred - gt).mean())


def adaptive_threshold(pred) -> float:
    """The reported operating point: twice the mean saliency, capped at 1."""
    return min(1.0, 2.0 * float(np.asarray(pred, dtype=np.float64).mean()))


def precision_recall(pred, gt, threshold: float | None = None):
    """(precision, recall) after binarizing at ``threshold``.

    ``None`` selects the adaptive threshold. Pixels scoring >= threshold count
    as predicted foreground. Precision of an empty prediction is defined as 1.
    """
    pred, gt = _validated(pred, gt)
    positives = gt.sum()
    if positives == 0:
        raise MetricInputError("ground truth has no foreground pixels")
    if threshold is None:
        threshold = adaptive_threshold(pred)
    if not 0.0 <= threshold <= 1.0:
        raise MetricInputError(f"threshold {threshold} outside [0,1]")
    chosen = pred >= threshold
    true_positives = float(gt[chosen].sum())
    predicted = int(chosen.sum())
    precision = true_positives / predicted if predicted else 1.0
    recall = true_positives / float(positives)
    return precision, recall


def average_f1(pred, gt) -> float:
    """Mean F1 over the 255-point uniform threshold grid.

    Each pixel falls in bin floor(256 * pred), with 1.0 in bin 255. Scaling by
    256 is exact in binary floating point, so bin >= i exactly when
    pred >= i/256: prefix sums of two 256-bin histograms (all pixels and
    positives) give every threshold's counts, with no sort.
    """
    pred, gt = _validated(pred, gt)
    positives = gt.sum()
    if positives == 0:
        raise MetricInputError("ground truth has no foreground pixels")
    bins = np.minimum((pred * 256.0).astype(np.intp), 255)
    # pixels and positives strictly below each threshold i/256, i = 1..255
    below_counts = np.cumsum(np.bincount(bins, minlength=256))[:-1]
    positives_below = np.cumsum(np.bincount(bins, weights=gt, minlength=256))[:-1]
    true_positives = positives - positives_below
    predicted = pred.size - below_counts
    precision = np.where(predicted > 0, true_positives / np.maximum(predicted, 1), 1.0)
    recall = true_positives / positives
    denominator = precision + recall
    f1 = np.where(
        denominator > 0, 2.0 * precision * recall / np.where(denominator > 0, denominator, 1.0), 0.0
    )
    return float(f1.mean())


def roc_auc(pred, gt) -> float:
    """Exact ROC area as the Mann-Whitney U statistic over P * N pairs.

    Binary searches of the sorted positives into the sorted negatives count,
    per positive, the negatives below it and those at or below it: twice its
    wins, ties counting half. That integer sum is at most n**2 / 2, exact in
    float64 for n < 1.34e8 pixels, so U and the AUC equal the rank-sum form's.
    """
    pred, gt = _validated(pred, gt)
    positives = int(gt.sum())
    negatives = gt.size - positives
    if positives == 0 or negatives == 0:
        raise MetricInputError("ROC area needs both classes in the ground truth")
    background, scores = np.sort(pred[gt == 0.0]), np.sort(pred[gt == 1.0])
    below = np.searchsorted(background, scores, "left").sum()
    at_or_below = np.searchsorted(background, scores, "right").sum()
    return float((below + at_or_below) / 2.0 / (positives * negatives))


def pearson_cc(pred, gt) -> float:
    """Pearson correlation of the flattened maps."""
    pred, gt = _validated(pred, gt)
    a = pred - pred.mean()
    b = gt - gt.mean()
    denominator = np.sqrt((a * a).sum() * (b * b).sum())
    if denominator == 0.0:
        raise MetricInputError("correlation of a constant map is undefined")
    return float((a * b).sum() / denominator)


@dataclass
class MetricReport:
    """One evaluation row; metrics whose preconditions failed hold None."""

    mae: float
    pre: float | None
    rec: float | None
    avg_f1: float | None
    auc: float | None
    cc: float | None
    errors: tuple = ()

    COLUMNS = ("mae", "pre", "rec", "avg_f1", "auc", "cc")

    def to_dict(self) -> dict:
        doc = {name: getattr(self, name) for name in self.COLUMNS}
        doc["threshold_protocol"] = THRESHOLD_PROTOCOL
        if self.errors:
            doc["errors"] = list(self.errors)
        return doc


def evaluate_pair(pred, gt) -> MetricReport:
    """Score one prediction; degenerate metrics are flagged, not raised."""
    pred, gt = _validated(pred, gt)  # shared domain errors surface before any metric
    pred = pred.view(_Checked)
    values = {}
    errors = []
    # precision_recall yields two columns from one thresholding pass.
    metric_functions = {
        ("mae",): mae,
        ("pre", "rec"): precision_recall,
        ("avg_f1",): average_f1,
        ("auc",): roc_auc,
        ("cc",): pearson_cc,
    }
    for names, metric in metric_functions.items():
        try:
            result = metric(pred, gt)
        except MetricInputError as err:
            values.update(dict.fromkeys(names))
            errors.extend(f"{name}: {err}" for name in names)
            continue
        values.update(zip(names, result if len(names) > 1 else (result,)))
    return MetricReport(errors=tuple(errors), **values)


def mean_report(reports) -> MetricReport:
    """Columnwise mean over reports, skipping flagged (None) entries."""
    reports = list(reports)
    if not reports:
        raise MetricInputError("cannot average zero metric reports")
    values = {}
    errors = []
    for name in MetricReport.COLUMNS:
        defined = [getattr(r, name) for r in reports if getattr(r, name) is not None]
        skipped = len(reports) - len(defined)
        if skipped:
            errors.append(f"{name}: skipped {skipped} of {len(reports)} images")
        values[name] = float(np.mean(defined)) if defined else None
    return MetricReport(errors=tuple(errors), **values)


def attribute_eval(scored_entries) -> dict:
    """Aggregate (attributes, MetricReport) pairs into per-attribute means.

    Returns {"all": ..., attribute: ...}; attributes never seen are absent
    from the result rather than reported as zero.
    """
    scored_entries = list(scored_entries)
    if not scored_entries:
        raise MetricInputError("cannot evaluate an empty entry list")
    by_attribute = {}
    for attributes, report in scored_entries:
        for attribute in attributes:
            by_attribute.setdefault(attribute, []).append(report)
    result = {"all": mean_report(report for _, report in scored_entries)}
    for attribute in sorted(by_attribute):
        result[attribute] = mean_report(by_attribute[attribute])
    return result
