"""Retrieval and highlight quality metrics on plain floats/numpy.

Ranking ties always break toward the lower index so every metric is
deterministic. Detection AP is all-point interpolated; ranking AP (highlight
metrics) is the classic non-interpolated mean of precision at positive ranks.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .data import read_jsonl

# QVHighlights' definitions: "Very Good" clips are the highlight positives and
# mAP averages over IoU 0.5:0.05:0.95
VERY_GOOD_LEVEL = 4
DEFAULT_IOU_THRESHOLDS = tuple(0.5 + 0.05 * i for i in range(10))


def span_parts(sa, ea, sb, eb):
    """(inter, union, enclosure, gap) of [start, end] span pairs, elementwise:
    the span geometry of the IoU, the gIoU, the match costs and the gIoU loss.
    One pair of Python floats gives Python floats."""
    # equal values whichever pair runs; only the sign of a zero may differ
    maximum, minimum = (max, min) if type(sa) is float else (np.maximum, np.minimum)
    inter = maximum(minimum(ea, eb) - maximum(sa, sb), 0.0)
    union = (ea - sa) + (eb - sb) - inter
    enclosure = maximum(ea, eb) - minimum(sa, sb)
    # the separation itself: enclosure - union from the rounded union can go negative
    gap = maximum(maximum(sa, sb) - minimum(ea, eb), 0.0)
    return inter, union, enclosure, gap


def span_iou(sa, ea, sb, eb):
    """IoU of span pairs, elementwise; 0 where the union is empty."""
    inter, union, _, _ = span_parts(sa, ea, sb, eb)
    if type(union) is float:
        return inter / union if union > 0.0 else 0.0
    with np.errstate(all="ignore"):  # masked-out quotients may divide by 0 or overflow
        return np.where(union > 0.0, inter / union, 0.0)


def span_giou(sa, ea, sb, eb):
    """Generalized IoU of span pairs, elementwise, in [-1, 1]; 0 where the
    union or the enclosure is empty."""
    inter, union, enclosure, gap = span_parts(sa, ea, sb, eb)
    if type(union) is float:
        return inter / union - gap / enclosure if union > 0.0 and enclosure > 0.0 else 0.0
    with np.errstate(all="ignore"):  # masked-out quotients may divide by 0 or overflow
        return np.where((union > 0.0) & (enclosure > 0.0), inter / union - gap / enclosure, 0.0)


def iou_1d(a, b):
    """Intersection over union of two [start, end] spans."""
    return float(span_iou(float(a[0]), float(a[1]), float(b[0]), float(b[1])))


def giou_1d(a, b):
    """Generalized IoU: IoU minus the separation gap fraction. Range [-1, 1]."""
    return float(span_giou(float(a[0]), float(a[1]), float(b[0]), float(b[1])))


def _ranked_order(scores):
    """Indices sorted by score descending, ties toward the lower index: the
    sort is stable, so equal scores (0.0 and -0.0 among them) keep index order."""
    return sorted(range(len(scores)), key=scores.__getitem__, reverse=True)


def _iou_rows(windows, gt_windows):
    """One query's [start, end, score] windows sorted by confidence, ties
    toward earlier rows, as rows of their IoUs with each gt window: the
    (P, G) matrix, in plain floats, that recall@1, mIoU and AP all read."""
    ordered = sorted(windows, key=lambda w: -w[2])  # stable: ties keep their order
    pred = np.array([(w[0], w[1]) for w in ordered], dtype=float).reshape(-1, 2)
    gt = np.array([(g[0], g[1]) for g in gt_windows], dtype=float).reshape(-1, 2)
    return span_iou(pred[:, :1], pred[:, 1:], gt[:, 0], gt[:, 1]).tolist()


def _query_rows(pred_windows_per_query, gt_windows_per_query):
    if len(pred_windows_per_query) != len(gt_windows_per_query):
        raise ValueError("prediction/gt query counts differ")
    return [_iou_rows(p, g) for p, g in zip(pred_windows_per_query, gt_windows_per_query)]


def _recall(rows_per_query, threshold):
    if not rows_per_query:
        raise ValueError("recall_at_1 on an empty query set")
    hits = sum(bool(rows) and any(ov >= threshold for ov in rows[0]) for rows in rows_per_query)
    return hits / len(rows_per_query)


def _mean_top_iou(rows_per_query):
    if not rows_per_query:
        raise ValueError("mean_iou on an empty query set")
    vals = [max(rows[0]) if rows and rows[0] else 0.0 for rows in rows_per_query]
    return sum(vals) / len(vals)


def _detection_ap(rows, n_gt, threshold):
    """All-point interpolated AP of one query's sorted IoU rows at one threshold."""
    taken = [False] * n_gt
    cum_tp, hits = [], 0
    for row in rows:
        best_iou, best_j = -1.0, -1
        for j, ov in enumerate(row):
            if not taken[j] and ov >= threshold and ov > best_iou:
                best_iou, best_j = ov, j
        if best_j >= 0:
            taken[best_j] = True
            hits += 1
        cum_tp.append(hits)
    precisions = [c / k for k, c in enumerate(cum_tp, start=1)]
    # interpolated precision: best precision achievable at this rank or later
    for k in range(len(precisions) - 2, -1, -1):
        precisions[k] = max(precisions[k], precisions[k + 1])
    ap, prev_recall = 0.0, 0.0
    for c, precision in zip(cum_tp, precisions):
        recall = c / n_gt
        if recall > prev_recall:
            ap += (recall - prev_recall) * precision
            prev_recall = recall
    return ap


def _mean_ap(rows_per_query, gt_windows_per_query):
    # a threshold above a query's best IoU matches nothing: its AP is 0.0
    queries = [(rows, len(gts), max(map(max, rows), default=-1.0))
               for rows, gts in zip(rows_per_query, gt_windows_per_query) if len(gts)]
    per_threshold = {}
    for thr in DEFAULT_IOU_THRESHOLDS:
        aps = [_detection_ap(rows, n_gt, thr) if thr <= best else 0.0
               for rows, n_gt, best in queries]
        per_threshold[thr] = sum(aps) / len(aps) if aps else 0.0
    return per_threshold, sum(per_threshold.values()) / len(per_threshold)


def recall_at_1(pred_windows_per_query, gt_windows_per_query, threshold):
    """Fraction of queries whose top-confidence window hits any gt at IoU >= threshold."""
    return _recall(_query_rows(pred_windows_per_query, gt_windows_per_query), threshold)


def average_precision_detection(pred_windows, gt_windows, threshold):
    """All-point interpolated detection AP for one query at one IoU threshold.

    Predictions are greedily matched in confidence order to the unmatched gt
    with the highest IoU clearing the threshold. Returns None when the query
    has no gt windows (AP undefined).
    """
    if len(gt_windows) == 0:
        return None
    return _detection_ap(_iou_rows(pred_windows, gt_windows), len(gt_windows), threshold)


def mean_ap(pred_windows_per_query, gt_windows_per_query):
    """mAP at each of DEFAULT_IOU_THRESHOLDS plus their average; queries without gt are skipped."""
    return _mean_ap(_query_rows(pred_windows_per_query, gt_windows_per_query),
                    gt_windows_per_query)


def _hit_at_1(orders, gt_levels_per_query):
    if not gt_levels_per_query:
        raise ValueError("hit_at_1 on an empty query set")
    hits = sum(levels[order[0]] >= VERY_GOOD_LEVEL
               for order, levels in zip(orders, gt_levels_per_query))
    return hits / len(gt_levels_per_query)


def hit_at_1(pred_saliency_per_query, gt_levels_per_query):
    """Fraction of queries whose top-scored clip has gt level >= VERY_GOOD_LEVEL."""
    if len(pred_saliency_per_query) != len(gt_levels_per_query):
        raise ValueError("prediction/gt query counts differ")
    return _hit_at_1(map(_ranked_order, pred_saliency_per_query), gt_levels_per_query)


def _ranking_ap(order, positives):
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


def ranking_average_precision(scores, positives):
    """Non-interpolated AP of a full ranking against binary relevance.

    positives is a boolean sequence; returns None when nothing is positive.
    """
    return _ranking_ap(_ranked_order(scores), positives)


def _hd_map(orders, gt_levels_per_query):
    aps = []
    for order, levels in zip(orders, gt_levels_per_query):
        ap = _ranking_ap(order, [lv >= VERY_GOOD_LEVEL for lv in levels])
        if ap is not None:
            aps.append(ap)
    return sum(aps) / len(aps) if aps else 0.0


def hd_map(pred_saliency_per_query, gt_levels_per_query):
    """Mean ranking AP of predicted clip scores against level >= VERY_GOOD_LEVEL clips."""
    if len(pred_saliency_per_query) != len(gt_levels_per_query):
        raise ValueError("prediction/gt query counts differ")
    return _hd_map(map(_ranked_order, pred_saliency_per_query), gt_levels_per_query)


def mean_iou(pred_windows_per_query, gt_windows_per_query):
    """Mean over queries of the top-1 window's best IoU against any gt."""
    return _mean_top_iou(_query_rows(pred_windows_per_query, gt_windows_per_query))


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


def _finite_numbers(values):
    """Whether every value is a real number, not a bool, with a finite float value."""
    if not all(t is not bool and issubclass(t, numbers.Real) for t in set(map(type, values))):
        return False
    try:
        return all(map(math.isfinite, values))
    except OverflowError:  # an int too large for a float
        return False


def _check_window(w):
    """w itself if it is [start, end, score], 3 finite real numbers, start <= end; ValueError otherwise."""
    if not (isinstance(w, (list, tuple)) and len(w) == 3 and _finite_numbers(w) and w[0] <= w[1]):
        raise ValueError(f"window {w!r} is not [start, end, score] of finite numbers, start <= end")
    return w


def _check_saliency(scores):
    """scores itself if every score is a finite real number; ValueError otherwise."""
    if not _finite_numbers(scores):
        i, x = next((i, x) for i, x in enumerate(scores) if not _finite_numbers([x]))
        raise ValueError(f"saliency score {x!r} of clip {i} is not a finite number")
    return scores


def compute_report(predictions, annotations):
    """Assemble the full MetricReport for matching (prediction, annotation) sets.

    A prediction whose window is not [start, end, score] of finite numbers,
    start <= end, whose saliency list does not have one score per annotated
    clip, or whose saliency score is not a finite number raises ValueError
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
            if len(p.saliency) != len(ann.saliency_levels):
                raise ValueError(f"{len(p.saliency)} saliency scores for "
                                 f"{len(ann.saliency_levels)} clips")
            _check_saliency(p.saliency)
        except ValueError as err:
            raise ValueError(f"qid {ann.qid}: {err}") from None
        preds_w.append(p.windows)
        gts_w.append(ann.relevant_windows)
        preds_s.append(p.saliency)
        gts_lv.append(ann.saliency_levels)
    rows = _query_rows(preds_w, gts_w)
    per_thr, avg = _mean_ap(rows, gts_w)
    orders = [_ranked_order(s) for s in preds_s]  # one ranking per query, shared by HD mAP and HIT@1
    return MetricReport(
        r1_050=_recall(rows, 0.5),
        r1_070=_recall(rows, 0.7),
        map_050=per_thr[0.5],
        map_075=per_thr[0.75],
        map_avg=avg,
        hd_map=_hd_map(orders, gts_lv),
        hit_at_1=_hit_at_1(orders, gts_lv),
        miou=_mean_top_iou(rows),
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
    that is not 3 finite numbers or ends before it starts and a saliency
    score that is not a finite number, carry line numbers."""
    rows = read_jsonl(path, ("qid", "pred_relevant_windows", "pred_saliency_scores"),
                      lambda obj: QueryPrediction(qid=obj["qid"],
                                                  windows=[_check_window(w) for w in
                                                           obj["pred_relevant_windows"]],
                                                  saliency=_check_saliency(
                                                      obj["pred_saliency_scores"])))
    return [pred for _, pred in rows]
