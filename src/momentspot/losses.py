"""Highlight/saliency losses, the coupled GRU scorer, and loss composition."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (Tensor, absval, concat, div, keep_mask, linear, logsumexp,
                       mask_rows, mul, narrow, relu, reshape, sigmoid, sqrt,
                       square, sub, tanh, tsum)


class CompositionError(ValueError):
    pass


def _scalar(t):
    return reshape(t, ())


def one_minus_cosine(a, b, flags=None):
    """1 - cosine(normalize(a), normalize(b)) for rank-1 tensors; range [0, 2].

    A zero-norm operand makes the cosine undefined: the loss is then the
    constant 1 (orthogonal convention), reported via flags["zero_norm"].
    """
    if a.data.shape != b.data.shape or a.data.ndim != 1:
        raise ValueError("one_minus_cosine expects two rank-1 tensors of equal length")
    na = float(np.linalg.norm(a.data))
    nb = float(np.linalg.norm(b.data))
    if na == 0.0 or nb == 0.0:
        if flags is not None:
            flags["zero_norm"] = True
        return Tensor(np.asarray(1.0, dtype=a.data.dtype))
    if flags is not None:
        flags["zero_norm"] = False
    ua = div(a, sqrt(tsum(square(a))))
    ub = div(b, sqrt(tsum(square(b))))
    return sub(1.0, tsum(mul(ua, ub)))


# -- highlight ranking losses -------------------------------------------------


def rank_margin_loss(saliency, high_idx, low_idx, margin):
    """Hinge max(0, margin + s[low] - s[high]) on a rank-1 saliency tensor."""
    hi = narrow(saliency, 0, high_idx, 1)
    lo = narrow(saliency, 0, low_idx, 1)
    return _scalar(relu(sub(margin + lo, hi)))


def sample_rank_pair(levels, rng, clip_mask=None):
    """Pick (high, low) clip indices from the top and bottom gt levels present.

    Returns None when every eligible clip shares one level (no valid pair).
    """
    levels = np.asarray(levels)
    eligible = np.flatnonzero(keep_mask(clip_mask, len(levels)))
    if eligible.size == 0:
        return None
    lv = levels[eligible]
    top, bot = lv.max(), lv.min()
    if top == bot:
        return None
    high = int(rng.choice(eligible[lv == top]))
    low = int(rng.choice(eligible[lv == bot]))
    return high, low


def contrastive_rank_loss(saliency, levels, temperature, clip_mask=None):
    """-log of the positive-mass softmax ratio, averaged over active level thresholds.

    For each threshold r in 1..4 having at least one positive clip:
    loss_r = -log( sum_{gt >= r} exp(s/t) / sum_all exp(s/t) ), masked clips
    excluded from both sums.
    """
    levels = np.asarray(levels)
    include = keep_mask(clip_mask, len(levels))
    if not include.any():
        return Tensor(np.asarray(0.0, dtype=saliency.data.dtype))
    scaled = mul(saliency, 1.0 / temperature)
    terms = []
    for r in range(1, 5):
        pos = include & (levels >= r)
        if not pos.any():
            continue
        terms.append(sub(logsumexp(scaled, include), logsumexp(scaled, pos)))
    if not terms:
        return Tensor(np.asarray(0.0, dtype=saliency.data.dtype))
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return _scalar(mul(total, 1.0 / len(terms)))


def hard_negative_loss(saliency, negative_mask, epoch):
    """(epoch+1) * sum of |s| over clips outside every gt window."""
    neg = np.asarray(negative_mask, dtype=bool)
    if not neg.any():
        return Tensor(np.asarray(0.0, dtype=saliency.data.dtype))
    return _scalar(mul(tsum(mask_rows(absval(saliency), neg)), float(epoch + 1)))


def hard_positive_loss(saliency, gt_saliency, positive_mask, epoch):
    """(epoch+1) * mean squared error against gt saliency over positive clips."""
    pos = np.asarray(positive_mask, dtype=bool)
    if not pos.any():
        return Tensor(np.asarray(0.0, dtype=saliency.data.dtype))
    gt = Tensor(np.asarray(gt_saliency, dtype=saliency.data.dtype))
    # scale the finished mean so the (epoch+1) ramp is bitwise exact
    mse = mul(tsum(mask_rows(square(sub(gt, saliency)), pos)), 1.0 / int(pos.sum()))
    return _scalar(mul(mse, float(epoch + 1)))


def highlight_distribution_loss(saliency, gt_saliency, positive_mask, negative_mask, epoch):
    """Hard-positive plus hard-negative term (the epoch-weighted pair)."""
    return hard_positive_loss(saliency, gt_saliency, positive_mask, epoch) + \
        hard_negative_loss(saliency, negative_mask, epoch)


# -- cross-task saliency losses ----------------------------------------------


def masked_cosine_loss(scores, gt_saliency, clip_mask=None, flags=None):
    """one_minus_cosine of rank-1 scores against gt values, both over unmasked clips."""
    gt = Tensor(np.asarray(gt_saliency, dtype=scores.data.dtype))
    return one_minus_cosine(mask_rows(scores, clip_mask), mask_rows(gt, clip_mask), flags=flags)


def task_specific_loss(saliency, gt_saliency, clip_mask=None, flags=None):
    """1 - cosine between predicted and gt saliency over unmasked clips."""
    return masked_cosine_loss(saliency, gt_saliency, clip_mask, flags)


@dataclass
class GruParams:
    """Gates act on the concat [h, x] (each of width d); readout maps d -> 1."""
    w_update: Tensor
    b_update: Tensor
    w_reset: Tensor
    b_reset: Tensor
    w_cand: Tensor
    b_cand: Tensor
    readout_w: Tensor
    readout_b: Tensor


def gru_saliency(features, params):
    """Left-to-right GRU over feature rows, zero initial state, scalar readout per step."""
    length, dim = features.data.shape
    h = Tensor(np.zeros((1, dim), dtype=features.data.dtype))
    outputs = []
    for i in range(length):
        x = narrow(features, 0, i, 1)
        hx = concat([h, x], axis=1)
        z = sigmoid(linear(hx, params.w_update, params.b_update))
        r = sigmoid(linear(hx, params.w_reset, params.b_reset))
        cand_in = concat([mul(r, h), x], axis=1)
        cand = tanh(linear(cand_in, params.w_cand, params.b_cand))
        h = mul(sub(1.0, z), h) + mul(z, cand)
        outputs.append(linear(h, params.readout_w, params.readout_b))
    return reshape(concat(outputs, axis=0), (length,))


def task_coupled_loss(features, gru, gt_saliency, clip_mask=None, flags=None):
    """1 - cosine between the GRU scan of moment-path features and gt saliency."""
    return masked_cosine_loss(gru_saliency(features, gru), gt_saliency, clip_mask, flags)


# -- composition ---------------------------------------------------------------


COMPONENT_KEYS = ("l1", "giou", "cls", "rank", "contrastive", "hard",
                  "task_specific", "task_coupled", "alignment")


def compose_total(components, weights):
    """Weighted total of all loss components; non-finite components are an error.

    total = saliency_w * (rank_w*rank + cont_w*contrastive + hard_w*hard
                          + ts_w*task_specific + tc_w*task_coupled)
            + (l1_w*l1 + giou_w*giou + cls_w*cls)
            + align_w*alignment
    """
    vals = {}
    for key in COMPONENT_KEYS:
        if key not in components:
            raise CompositionError(f"missing loss component '{key}'")
        c = components[key]
        if not isinstance(c, Tensor):
            c = Tensor(np.asarray(float(c)))
        if not np.all(np.isfinite(c.data)):
            raise CompositionError(f"loss component '{key}' is not finite")
        vals[key] = c
    highlight = (mul(vals["rank"], weights.rank) + mul(vals["contrastive"], weights.contrastive)
                 + mul(vals["hard"], weights.hard) + mul(vals["task_specific"], weights.task_specific)
                 + mul(vals["task_coupled"], weights.task_coupled))
    retrieval = (mul(vals["l1"], weights.l1) + mul(vals["giou"], weights.giou)
                 + mul(vals["cls"], weights.cls))
    total = mul(highlight, weights.saliency) + retrieval + mul(vals["alignment"], weights.alignment)
    return _scalar(total)
