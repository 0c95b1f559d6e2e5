"""Set matching between predicted and gt moments, and the matched-pair losses.

The set loss follows DETR / Moment-DETR: a Hungarian assignment on detached
costs, then L1, gIoU and a down-weighted-background cross-entropy over the
matched pairs. Each of the three terms is one graph node with a NumPy
backward; the L1 and gIoU nodes gather the matched rows themselves, and
with no matched query they are the same nodes over zero pairs: 0 with
exactly zero gradient. The cost matrix takes the metrics' gIoU
(`metrics.span_giou`), and the gIoU term differentiates the same span
geometry (`metrics.span_parts`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .autodiff import _accumulate, _masked_exp, _node
from .metrics import span_giou, span_parts

WIDTH_FLOOR = 1e-4


def _spans(cw):
    """(center, width) rows of a (..., 2) array -> (start, end) arrays of its
    shape[:-1], clipped to [0, 1], with the width floored at WIDTH_FLOOR."""
    half = 0.5 * np.maximum(cw[..., 1], WIDTH_FLOOR)
    return _clip01(cw[..., 0] - half), _clip01(cw[..., 0] + half)


def _clip01(x):
    return np.minimum(np.maximum(x, 0.0), 1.0)


@dataclass
class MatchResult:
    pred_indices: list
    gt_indices: list


def match_cost_matrix(pred_moments, fg_probs, gt_moments, weights):
    """Pairwise assignment costs: l1 + (1 - gIoU) + (-fg prob), each weighted.

    Array ops over all (pred, gt) pairs: metrics.span_giou of the clipped,
    width-floored spans, so a pair with an empty union or enclosure has
    gIoU 0.
    """
    pred = np.asarray(pred_moments, dtype=float)[:, None, :]
    gt = np.asarray(gt_moments, dtype=float)[None, :, :]
    fg_probs = np.asarray(fg_probs, dtype=float)
    giou = span_giou(*_spans(pred), *_spans(gt))
    l1 = np.abs(pred[..., 0] - gt[..., 0]) + np.abs(pred[..., 1] - gt[..., 1])
    return weights.l1 * l1 + weights.giou * (1.0 - giou) + weights.cls * (-fg_probs[:, None])


def hungarian_match(pred_moments, fg_probs, gt_moments, weights):
    """Minimum-cost assignment of predictions to gt moments (detached values)."""
    gt_moments = np.asarray(gt_moments, dtype=float)
    if gt_moments.shape[0] == 0:
        return MatchResult([], [])
    cost = match_cost_matrix(pred_moments, fg_probs, gt_moments, weights)
    rows, cols = linear_sum_assignment(cost)
    order = np.argsort(cols)  # stable pairing order by gt index
    return MatchResult([int(r) for r in rows[order]], [int(c) for c in cols[order]])


def _scatter(moments, index, rows_grad):
    full = np.zeros_like(moments.data)
    np.add.at(full, index, rows_grad)
    _accumulate(moments, full)


def matched_l1(moments, index, gt_rows, pair_weights):
    """sum over matched pairs of pair_weight * |pred - gt| (center and width), as one node.

    moments[index] are the matched (P, 2) predictions; gt_rows the (P, 2) gt
    and pair_weights the (P, 1) weight of each pair.
    """
    diff = moments.data[index] - gt_rows
    out_data = np.asarray((np.abs(diff) * pair_weights).sum())

    def backward(g):
        _scatter(moments, index, g * pair_weights * np.sign(diff))

    return _node(out_data, (moments,), backward)


def matched_giou(moments, index, gt_rows, pair_weights):
    """sum over matched pairs of pair_weight * (1 - gIoU(pred span, gt span)), as one node.

    Spans are the clipped, width-floored ends of _spans; the gt unions
    must be non-empty. Subgradients at the kinks follow the composed ops:
    ties of min/max go to the prediction, clipping passes at the bounds,
    and the gap takes the gradient of enclosure - union.
    """
    cw = moments.data[index]
    dtype = cw.dtype
    c, w_raw = cw[:, 0], cw[:, 1]
    floor = np.asarray(WIDTH_FLOOR, dtype=dtype)
    half = np.maximum(w_raw, floor) * np.asarray(0.5, dtype=dtype)
    lo, hi = c - half, c + half
    sa, ea = _clip01(lo), _clip01(hi)
    sb, eb = _spans(np.asarray(gt_rows, dtype=dtype))
    inter, union, enclosure, gap = span_parts(sa, ea, sb, eb)
    giou = inter / union - gap / enclosure
    weights = pair_weights[:, 0]
    out_data = np.asarray(((1.0 - giou) * weights).sum())

    def backward(g):
        g_giou = -g * weights
        d_inter = g_giou / union
        d_union = g_giou * (1.0 / enclosure - inter / (union * union))
        d_enclosure = g_giou * (gap / (enclosure * enclosure) - 1.0 / enclosure)
        d_inter = (d_inter - d_union) * (np.minimum(ea, eb) - np.maximum(sa, sb) > 0.0)
        g_ea = d_union + d_inter * (ea <= eb) + d_enclosure * (ea >= eb)
        g_sa = -d_union - d_inter * (sa >= sb) - d_enclosure * (sa <= sb)
        g_lo = g_sa * ((lo >= 0.0) & (lo <= 1.0))
        g_hi = g_ea * ((hi >= 0.0) & (hi <= 1.0))
        g_w = (g_hi - g_lo) * 0.5 * (w_raw >= floor)
        _scatter(moments, index, np.stack([g_lo + g_hi, g_w], axis=-1))

    return _node(out_data, (moments,), backward)


def weighted_cross_entropy(class_logits, picks):
    """sum of picks * log_softmax(class_logits) over the last axis, as one node.

    picks holds each query's -weight at its target class and 0 elsewhere.
    """
    x = class_logits.data
    m, e, s = _masked_exp(x, True, None)
    out_data = np.asarray(((x - m - np.log(s)) * picks).sum())

    def backward(g):
        g_picks = g * picks
        _accumulate(class_logits, g_picks + (-g_picks.sum(axis=-1, keepdims=True) / s) * e)

    return _node(out_data, (class_logits,), backward)


def moment_loss(class_logits, moments, gt_moments, match, weights):
    """L1, gIoU, and down-weighted-background CE terms of the moment queries.

    For one item, class_logits/moments are (n_q, 2) tensors from the heads,
    gt_moments a numpy (M, 2) array of normalized (center, width) and match
    one MatchResult pairing pred rows with gt rows. For a batch they are
    (B, n_q, 2) tensors with lists of B gt arrays and B matches: the matched
    pairs of all items run through one L1/gIoU/CE, each term normalised per
    item and averaged over items. Returns scalar tensors "l1", "giou", "cls".
    Without a matched query, "l1" and "giou" are the same nodes over zero
    pairs: 0 with zero gradient.
    """
    batched = class_logits.data.ndim == 3
    gts, matches = (gt_moments, match) if batched else ([gt_moments], [match])
    n_items, n_q = len(matches), class_logits.data.shape[-2]
    dtype = moments.data.dtype
    counts = np.array([len(m.pred_indices) for m in matches], dtype=int)
    items = np.repeat(np.arange(n_items), counts)
    queries = np.array([q for m in matches for q in m.pred_indices], dtype=int)
    index = (items, queries) if batched else queries
    gt_rows = np.concatenate([np.asarray(g, dtype=dtype).reshape(-1, 2)[m.gt_indices]
                              for g, m in zip(gts, matches)])
    pair_weights = (1.0 / (n_items * counts[items])).astype(dtype)[:, None]
    l1 = matched_l1(moments, index, gt_rows, pair_weights)
    giou = matched_giou(moments, index, gt_rows, pair_weights)
    # 2-way cross entropy; unmatched queries are background at reduced weight
    targets = np.ones((n_items, n_q), dtype=int)
    targets[items, queries] = 0
    class_weights = np.where(targets == 0, 1.0, weights.background_weight)
    # picks holds -weight / (item weight total * items) at each query's target column
    norm = n_items * class_weights.sum(axis=1, keepdims=True)
    picks = np.zeros((n_items, n_q, 2), dtype=class_logits.data.dtype)
    picks[np.arange(n_items)[:, None], np.arange(n_q), targets] = -class_weights / norm
    cls = weighted_cross_entropy(class_logits, picks.reshape(class_logits.data.shape))
    return {"l1": l1, "giou": giou, "cls": cls}
