"""Highlight/saliency losses, the coupled GRU scorer, and loss composition."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (ShapeError, Tensor, _accumulate, _node, _unbroadcast, absval,
                       div, keep_mask, logsumexp, mask_rows, mul, narrow, relu,
                       reshape, sqrt, square, stable_sigmoid, sub, tsum)


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
    """Left-to-right GRU over feature rows, zero initial state, scalar readout per step.

    One graph node. The input halves of the three gates (rows d: of each gate
    weight) are computed for all steps before the loop, so the recurrence
    multiplies only h by the recurrent halves (rows :d). Backward runs
    backpropagation through time in NumPy and forms each weight gradient with
    one matmul over all steps after the loop.
    """
    x = features.data
    if x.ndim != 2:
        raise ShapeError("gru_saliency expects rank-2 features")
    length, dim = x.shape
    gates = (params.w_update, params.w_reset, params.w_cand)
    if any(w.data.shape != (2 * dim, dim) for w in gates):
        raise ShapeError(f"GRU gate weights must be ({2 * dim}, {dim})")
    w_z, w_r, w_c = (w.data for w in gates)
    # update and reset gates share their matmuls: columns :d update, d: reset
    w_zr_h = np.concatenate([w_z[:dim], w_r[:dim]], axis=1)
    w_zr_x = np.concatenate([w_z[dim:], w_r[dim:]], axis=1)
    x_zr = x @ w_zr_x + np.concatenate([params.b_update.data, params.b_reset.data])
    x_c = x @ w_c[dim:] + params.b_cand.data
    w_c_h = w_c[:dim]
    hs = np.zeros((length + 1, dim), dtype=x.dtype)  # hs[i] is the state before step i
    zr_all = np.empty((length, 2 * dim), dtype=x.dtype)
    c_all = np.empty((length, dim), dtype=x.dtype)
    for i in range(length):
        h = hs[i]
        zr = stable_sigmoid(h @ w_zr_h + x_zr[i])
        z, r = zr[:dim], zr[dim:]
        c = np.tanh((r * h) @ w_c_h + x_c[i])
        hs[i + 1] = (1.0 - z) * h + z * c
        zr_all[i] = zr
        c_all[i] = c
    states = hs[1:]
    out_data = (states @ params.readout_w.data + params.readout_b.data).reshape(length)

    def backward(g):
        g = g.reshape(length, 1)
        _accumulate(params.readout_w, states.T @ g)
        _accumulate(params.readout_b, _unbroadcast(g, params.readout_b.data.shape))
        g_states = g @ params.readout_w.data.T
        d_zr = np.empty_like(zr_all)  # gradients of the gate pre-activations
        d_c = np.empty_like(c_all)
        dh = np.zeros(dim, dtype=x.dtype)
        for i in range(length - 1, -1, -1):
            h, zr, c = hs[i], zr_all[i], c_all[i]
            z, r = zr[:dim], zr[dim:]
            dh = dh + g_states[i]
            d_c[i] = dh * z * (1.0 - c * c)
            d_rh = d_c[i] @ w_c_h.T
            d_zr[i, :dim] = dh * (c - h)
            d_zr[i, dim:] = d_rh * h
            d_zr[i] *= zr * (1.0 - zr)
            dh = dh * (1.0 - z) + d_rh * r + d_zr[i] @ w_zr_h.T
        prev = hs[:-1]
        g_zr_h = prev.T @ d_zr
        g_zr_x = x.T @ d_zr
        g_c_h = (zr_all[:, dim:] * prev).T @ d_c
        _accumulate(params.w_update, np.concatenate([g_zr_h[:, :dim], g_zr_x[:, :dim]]))
        _accumulate(params.w_reset, np.concatenate([g_zr_h[:, dim:], g_zr_x[:, dim:]]))
        _accumulate(params.w_cand, np.concatenate([g_c_h, x.T @ d_c]))
        _accumulate(params.b_update, _unbroadcast(d_zr[:, :dim], params.b_update.data.shape))
        _accumulate(params.b_reset, _unbroadcast(d_zr[:, dim:], params.b_reset.data.shape))
        _accumulate(params.b_cand, _unbroadcast(d_c, params.b_cand.data.shape))
        if features.requires_grad:
            _accumulate(features, d_zr @ w_zr_x.T + d_c @ w_c[dim:].T)

    parents = (features, params.w_update, params.b_update, params.w_reset, params.b_reset,
               params.w_cand, params.b_cand, params.readout_w, params.readout_b)
    return _node(out_data, parents, backward)


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
