"""Set matching between predicted and gt moments, and the matched-pair losses."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .autodiff import (Tensor, absval, clip01, concat, div, log_softmax_rows,
                       maximum, minimum, mul, narrow, relu, sub, tsum)
from .metrics import giou_1d

WIDTH_FLOOR = 1e-4


def span_from_cw(cw):
    """(center, width) -> [start, end] clipped to [0, 1], width floored. numpy in/out."""
    c, w = float(cw[0]), float(cw[1])
    w = max(w, WIDTH_FLOOR)
    s = min(max(c - 0.5 * w, 0.0), 1.0)
    e = min(max(c + 0.5 * w, 0.0), 1.0)
    return [s, e]


@dataclass
class MatchResult:
    pred_indices: list
    gt_indices: list


def match_cost_matrix(pred_moments, fg_probs, gt_moments, weights):
    """Pairwise assignment costs: l1 + (1 - gIoU) + (-fg prob), each weighted."""
    pred_moments = np.asarray(pred_moments, dtype=float)
    gt_moments = np.asarray(gt_moments, dtype=float)
    fg_probs = np.asarray(fg_probs, dtype=float)
    n_pred, n_gt = pred_moments.shape[0], gt_moments.shape[0]
    cost = np.zeros((n_pred, n_gt))
    for i in range(n_pred):
        ps = span_from_cw(pred_moments[i])
        for j in range(n_gt):
            gs = span_from_cw(gt_moments[j])
            l1 = abs(pred_moments[i, 0] - gt_moments[j, 0]) + abs(pred_moments[i, 1] - gt_moments[j, 1])
            cost[i, j] = (weights.l1 * l1
                          + weights.giou * (1.0 - giou_1d(ps, gs))
                          + weights.cls * (-fg_probs[i]))
    return cost


def hungarian_match(pred_moments, fg_probs, gt_moments, weights):
    """Minimum-cost assignment of predictions to gt moments (detached values)."""
    gt_moments = np.asarray(gt_moments, dtype=float)
    if gt_moments.shape[0] == 0:
        return MatchResult([], [])
    cost = match_cost_matrix(pred_moments, fg_probs, gt_moments, weights)
    rows, cols = linear_sum_assignment(cost)
    order = np.argsort(cols)  # stable pairing order by gt index
    return MatchResult([int(r) for r in rows[order]], [int(c) for c in cols[order]])


def _gather_rows(t, indices):
    rows = [narrow(t, 0, i, 1) for i in indices]
    return rows[0] if len(rows) == 1 else concat(rows, axis=0)


def _spans(cw):
    """Differentiable (P, 2) center/width -> start, end columns, clipped."""
    c = narrow(cw, 1, 0, 1)
    w = maximum(narrow(cw, 1, 1, 1), WIDTH_FLOOR)
    half = mul(w, 0.5)
    return clip01(sub(c, half)), clip01(c + half)


def giou_spans(start_a, end_a, start_b, end_b):
    """Differentiable gIoU columns for matched span pairs (strictly positive unions)."""
    inter = relu(sub(minimum(end_a, end_b), maximum(start_a, start_b)))
    union = sub(sub(end_a, start_a) + sub(end_b, start_b), inter)
    enclosure = sub(maximum(end_a, end_b), minimum(start_a, start_b))
    return sub(div(inter, union), div(sub(enclosure, union), enclosure))


def moment_loss(class_logits, moments, gt_moments, match, weights):
    """L1, gIoU, and down-weighted-background CE terms for one query's moments.

    class_logits/moments are tensors from the heads; gt_moments is a numpy
    (M, 2) array of normalized (center, width); match pairs pred rows with gt
    rows. Returns a dict of scalar tensors keyed "l1", "giou", "cls".
    """
    n_q = class_logits.data.shape[0]
    dtype = moments.data.dtype
    if match.pred_indices:
        pred_rows = _gather_rows(moments, match.pred_indices)
        gt_rows = Tensor(np.asarray(gt_moments, dtype=dtype)[match.gt_indices])
        n_pairs = len(match.pred_indices)
        l1 = mul(tsum(absval(sub(pred_rows, gt_rows))), 1.0 / n_pairs)
        ps, pe = _spans(pred_rows)
        gs, ge = _spans(gt_rows)
        giou = mul(tsum(sub(1.0, giou_spans(ps, pe, gs, ge))), 1.0 / n_pairs)
    else:
        l1 = Tensor(np.asarray(0.0, dtype=dtype))
        giou = Tensor(np.asarray(0.0, dtype=dtype))
    # 2-way cross entropy; unmatched queries are background at reduced weight
    targets = np.ones(n_q, dtype=int)
    targets[list(match.pred_indices)] = 0
    class_weights = np.where(targets == 0, 1.0, weights.background_weight)
    # picks holds -weight at each query's target column; the normalizer sums the
    # 1-D weights (summing picks groups NumPy's pairwise sum differently)
    picks = np.zeros((n_q, 2), dtype=class_logits.data.dtype)
    picks[np.arange(n_q), targets] = -class_weights
    ce = tsum(mul(log_softmax_rows(class_logits), Tensor(picks)))
    cls = mul(ce, 1.0 / float(class_weights.sum()))
    return {"l1": l1, "giou": giou, "cls": cls}
