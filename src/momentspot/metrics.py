"""Retrieval and highlight quality metrics on plain floats/numpy.

Ranking ties always break toward the lower index so every metric is
deterministic. Detection AP is all-point interpolated; ranking AP (highlight
metrics) is the classic non-interpolated mean of precision at positive ranks.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass

from .data import read_jsonl

# QVHighlights' definitions: "Very Good" clips are the highlight positives and
# mAP averages over IoU 0.5:0.05:0.95
VERY_GOOD_LEVEL = 4
DEFAULT_IOU_THRESHOLDS = tuple(0.5 + 0.05 * i for i in range(10))


def iou_1d(a, b):
    """Intersection over union of two [start, end] spans."""
    s1, e1 = float(a[0]), float(a[1])
    s2, e2 = float(b[0]), float(b[1])
    inter = max(0.0, min(e1, e2) - max(s1, s2))
    union = (e1 - s1) + (e2 - s2) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def giou_1d(a, b):
    """Generalized IoU: IoU minus the separation gap fraction. Range [-1, 1]."""
    s1, e1 = float(a[0]), float(a[1])
    s2, e2 = float(b[0]), float(b[1])
    inter = max(0.0, min(e1, e2) - max(s1, s2))
    union = (e1 - s1) + (e2 - s2) - inter
    enclosure = max(e1, e2) - min(s1, s2)
    if union <= 0.0 or enclosure <= 0.0:
        return 0.0
    # enclosure - union recomputed from the rounded union can go negative;
    # the separation gap is the same quantity without that hazard
    gap = max(0.0, max(s1, s2) - min(e1, e2))
    return inter / union - gap / enclosure


def _ranked_order(scores):
    """Indices sorted by score descending, ties toward the lower index."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def _order_windows(windows):
    """Sort [start, end, score] rows by confidence, ties toward earlier rows."""
    return [windows[i] for i in _ranked_order([w[2] for w in windows])]


def recall_at_1(pred_windows_per_query, gt_windows_per_query, threshold):
    """Fraction of queries whose top-confidence window hits any gt at IoU >= threshold."""
    if len(pred_windows_per_query) != len(gt_windows_per_query):
        raise ValueError("prediction/gt query counts differ")
    if not gt_windows_per_query:
        raise ValueError("recall_at_1 on an empty query set")
    hits = 0
    for preds, gts in zip(pred_windows_per_query, gt_windows_per_query):
        if not preds or not gts:
            continue
        top = _order_windows(preds)[0]
        if any(iou_1d(top, gt) >= threshold for gt in gts):
            hits += 1
    return hits / len(gt_windows_per_query)


def average_precision_detection(pred_windows, gt_windows, threshold):
    """All-point interpolated detection AP for one query at one IoU threshold.

    Predictions are greedily matched in confidence order to the unmatched gt
    with the highest IoU clearing the threshold. Returns None when the query
    has no gt windows (AP undefined).
    """
    n_gt = len(gt_windows)
    if n_gt == 0:
        return None
    ordered = _order_windows(pred_windows)
    taken = [False] * n_gt
    tp = []
    for pred in ordered:
        best_iou, best_j = -1.0, -1
        for j, gt in enumerate(gt_windows):
            if taken[j]:
                continue
            ov = iou_1d(pred, gt)
            if ov >= threshold and ov > best_iou:
                best_iou, best_j = ov, j
        if best_j >= 0:
            taken[best_j] = True
            tp.append(1)
        else:
            tp.append(0)
    ap = 0.0
    cum = 0
    precisions = []
    for k, flag in enumerate(tp, start=1):
        cum += flag
        precisions.append(cum / k)
    # interpolated precision: best precision achievable at this rank or later
    for k in range(len(precisions) - 2, -1, -1):
        precisions[k] = max(precisions[k], precisions[k + 1])
    prev_recall = 0.0
    cum = 0
    for k, flag in enumerate(tp):
        cum += flag
        recall = cum / n_gt
        if recall > prev_recall:
            ap += (recall - prev_recall) * precisions[k]
            prev_recall = recall
    return ap


def mean_ap(pred_windows_per_query, gt_windows_per_query):
    """mAP at each of DEFAULT_IOU_THRESHOLDS plus their average; queries without gt are skipped."""
    if len(pred_windows_per_query) != len(gt_windows_per_query):
        raise ValueError("prediction/gt query counts differ")
    per_threshold = {}
    for thr in DEFAULT_IOU_THRESHOLDS:
        aps = []
        for preds, gts in zip(pred_windows_per_query, gt_windows_per_query):
            ap = average_precision_detection(preds, gts, thr)
            if ap is not None:
                aps.append(ap)
        per_threshold[thr] = sum(aps) / len(aps) if aps else 0.0
    avg = sum(per_threshold.values()) / len(per_threshold)
    return per_threshold, avg


def hit_at_1(pred_saliency_per_query, gt_levels_per_query):
    """Fraction of queries whose top-scored clip has gt level >= VERY_GOOD_LEVEL."""
    if len(pred_saliency_per_query) != len(gt_levels_per_query):
        raise ValueError("prediction/gt query counts differ")
    if not gt_levels_per_query:
        raise ValueError("hit_at_1 on an empty query set")
    hits = 0
    for scores, levels in zip(pred_saliency_per_query, gt_levels_per_query):
        top = _ranked_order(scores)[0]
        if levels[top] >= VERY_GOOD_LEVEL:
            hits += 1
    return hits / len(gt_levels_per_query)


def ranking_average_precision(scores, positives):
    """Non-interpolated AP of a full ranking against binary relevance.

    positives is a boolean sequence; returns None when nothing is positive.
    """
    order = _ranked_order(scores)
    n_pos = sum(bool(p) for p in positives)
    if n_pos == 0:
        return None
    cum = 0
    total = 0.0
    for rank, idx in enumerate(order, start=1):
        if positives[idx]:
            cum += 1
            total += cum / rank
    return total / n_pos


def hd_map(pred_saliency_per_query, gt_levels_per_query):
    """Mean ranking AP of predicted clip scores against level >= VERY_GOOD_LEVEL clips."""
    if len(pred_saliency_per_query) != len(gt_levels_per_query):
        raise ValueError("prediction/gt query counts differ")
    aps = []
    for scores, levels in zip(pred_saliency_per_query, gt_levels_per_query):
        ap = ranking_average_precision(scores, [lv >= VERY_GOOD_LEVEL for lv in levels])
        if ap is not None:
            aps.append(ap)
    return sum(aps) / len(aps) if aps else 0.0


def mean_iou(pred_windows_per_query, gt_windows_per_query):
    """Mean over queries of the top-1 window's best IoU against any gt."""
    if len(pred_windows_per_query) != len(gt_windows_per_query):
        raise ValueError("prediction/gt query counts differ")
    if not gt_windows_per_query:
        raise ValueError("mean_iou on an empty query set")
    vals = []
    for preds, gts in zip(pred_windows_per_query, gt_windows_per_query):
        if not preds or not gts:
            vals.append(0.0)
            continue
        top = _order_windows(preds)[0]
        vals.append(max(iou_1d(top, gt) for gt in gts))
    return sum(vals) / len(vals)


# -- report assembly ----------------------------------------------------------


@dataclass
class MetricReport:
    r1_050: float
    r1_070: float
    map_050: float
    map_075: float
    map_avg: float
    hd_map: float
    hit_at_1: float
    miou: float

    def to_dict(self):
        return asdict(self)


@dataclass
class QueryPrediction:
    qid: int
    windows: list   # [[start_sec, end_sec, score], ...] any order
    saliency: list  # per-clip scores


def _check_window(w):
    """w itself if it is [start, end, score] (3 real numbers); ValueError otherwise."""
    if not (isinstance(w, (list, tuple)) and len(w) == 3
            and all(isinstance(x, numbers.Real) for x in w)):
        raise ValueError(f"window {w!r} is not [start, end, score]")
    return w


def compute_report(predictions, annotations):
    """Assemble the full MetricReport for matching (prediction, annotation) sets.

    A prediction whose window is not [start, end, score], or whose saliency
    list does not have one score per annotated clip, raises ValueError
    naming its qid.
    """
    by_qid = {p.qid: p for p in predictions}
    if len(by_qid) != len(predictions):
        raise ValueError("duplicate qids in predictions")
    preds_w, gts_w, preds_s, gts_lv = [], [], [], []
    for ann in annotations:
        if ann.qid not in by_qid:
            raise ValueError(f"missing prediction for qid {ann.qid}")
        p = by_qid[ann.qid]
        try:
            for w in p.windows:
                _check_window(w)
        except ValueError as err:
            raise ValueError(f"qid {ann.qid}: {err}") from None
        if len(p.saliency) != len(ann.saliency_levels):
            raise ValueError(f"qid {ann.qid}: {len(p.saliency)} saliency scores for "
                             f"{len(ann.saliency_levels)} clips")
        preds_w.append(p.windows)
        gts_w.append(ann.relevant_windows)
        preds_s.append(p.saliency)
        gts_lv.append(ann.saliency_levels)
    per_thr, avg = mean_ap(preds_w, gts_w)
    return MetricReport(
        r1_050=recall_at_1(preds_w, gts_w, 0.5),
        r1_070=recall_at_1(preds_w, gts_w, 0.7),
        map_050=per_thr[0.5],
        map_075=per_thr[0.75],
        map_avg=avg,
        hd_map=hd_map(preds_s, gts_lv),
        hit_at_1=hit_at_1(preds_s, gts_lv),
        miou=mean_iou(preds_w, gts_w),
    )


def save_predictions(predictions, path):
    with open(path, "w", encoding="utf-8") as fh:
        for p in predictions:
            fh.write(json.dumps({
                "qid": p.qid,
                "pred_relevant_windows": [[float(a), float(b), float(c)] for a, b, c in p.windows],
                "pred_saliency_scores": [float(s) for s in p.saliency],
            }) + "\n")


def load_predictions(path):
    """Read save_predictions' JSON lines; parse errors, including a window
    that is not 3 numbers, carry line numbers."""
    rows = read_jsonl(path, ("qid", "pred_relevant_windows", "pred_saliency_scores"),
                      lambda obj: QueryPrediction(qid=obj["qid"],
                                                  windows=[_check_window(w) for w in
                                                           obj["pred_relevant_windows"]],
                                                  saliency=obj["pred_saliency_scores"]))
    return [pred for _, pred in rows]
