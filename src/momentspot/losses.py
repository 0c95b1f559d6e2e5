"""Highlight/saliency losses, the coupled GRU scorer, and loss composition.

Every loss takes per-clip tensors of one item, (L,) or (L, d), or of a
padded batch, (B, L) or (B, L, d), with masks and gt arrays of the same
leading shape. Each term is normalised per item and averaged over the B
items, so a batch's loss is the mean of its items' losses; an un-batched
call is the B = 1 case.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (ShapeError, Tensor, _accumulate, _node, _rows, _unbroadcast,
                       absval, add, div, keep_mask, logsumexp, mask_rows, mul,
                       relu, reshape, sqrt, square, stable_sigmoid, sub, tsum)


class CompositionError(ValueError):
    pass


def _zero(t):
    return Tensor(np.asarray(0.0, dtype=t.data.dtype))


def _items(scores):
    """Number of items behind per-clip scores: 1 for (L,), B for (B, L)."""
    return int(np.prod(scores.data.shape[:-1]))


def one_minus_cosine(a, b, flags=None):
    """1 - cosine(normalize(a), normalize(b)) over the last axis; range [0, 2].

    Rank-1 tensors give their loss; (B, L) tensors give the mean of the
    per-row losses. A zero-norm operand makes a row's cosine undefined: that
    row's loss is then the constant 1 (orthogonal convention) with zero
    gradient, and flags["zero_norm"] marks the row.
    """
    if a.data.shape != b.data.shape or a.data.ndim not in (1, 2):
        raise ValueError("one_minus_cosine expects two rank-1 or rank-2 tensors of equal shape")
    dead = (np.linalg.norm(a.data, axis=-1) == 0.0) | (np.linalg.norm(b.data, axis=-1) == 0.0)
    if flags is not None:
        flags["zero_norm"] = dead
    if dead.all():
        return Tensor(np.asarray(1.0, dtype=a.data.dtype))
    # a dead row divides by 1 instead of 0 and is weighted 0: its cosine is 0
    guard = dead.astype(a.data.dtype)[..., None]

    def unit(x):
        sumsq = tsum(square(x), axis=-1, keepdims=True)
        return div(x, sqrt(add(sumsq, guard) if dead.any() else sumsq))

    weights = (1.0 - guard) / _items(a)
    return sub(1.0, tsum(mul(mul(unit(a), unit(b)), weights)))


# -- highlight ranking losses -------------------------------------------------


def rank_margin_loss(saliency, high_idx, low_idx, margin):
    """Hinge max(0, margin + s[low] - s[high]) per item, averaged over items.

    saliency is (L,) with int indices, or (B, L) with index arrays of length
    B; a negative index marks an item without a pair, whose loss is 0.
    """
    hi = np.asarray(high_idx).reshape(-1)
    lo = np.asarray(low_idx).reshape(-1)
    if hi.shape != lo.shape or hi.size != _items(saliency):
        raise ShapeError(f"rank pair indices do not match saliency of shape {saliency.data.shape}")
    paired = np.flatnonzero((hi >= 0) & (lo >= 0))
    if paired.size == 0:
        return _zero(saliency)
    picks = np.zeros((hi.size, saliency.data.shape[-1]), dtype=saliency.data.dtype)
    picks[paired, lo[paired]] += 1.0
    picks[paired, hi[paired]] -= 1.0
    weights = np.zeros(hi.size, dtype=saliency.data.dtype)
    weights[paired] = 1.0 / hi.size
    gaps = tsum(mul(saliency, picks.reshape(saliency.data.shape)), axis=-1)  # s[low] - s[high]
    return tsum(mul(relu(add(gaps, margin)), weights.reshape(gaps.data.shape)))


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
    excluded from both sums. An item's loss is lse_all - mean_r(lse_r), 0
    without active thresholds; one logsumexp call reduces all five subsets
    (all clips, then level >= 1..4) of every item.
    """
    levels = np.asarray(levels)
    include = keep_mask(clip_mask, levels.shape)
    subsets = np.stack([include] + [include & (levels >= r) for r in range(1, 5)], axis=-2)
    active = subsets[..., 1:, :].any(axis=-1)  # (..., 4)
    if not active.any():
        return _zero(saliency)
    n_active = active.sum(axis=-1, keepdims=True)
    coef = np.concatenate([n_active > 0, active / -np.maximum(n_active, 1)], axis=-1)
    coef = (coef / _items(saliency)).astype(saliency.data.dtype)
    # subsets weighted 0 reduce every clip instead, so none is empty
    subsets = np.where(coef[..., None] != 0, subsets, True)
    shape = saliency.data.shape
    scaled = reshape(mul(saliency, 1.0 / temperature), shape[:-1] + (1, shape[-1]))
    return tsum(mul(logsumexp(scaled, subsets), coef))


def hard_negative_loss(saliency, negative_mask, epoch):
    """(epoch+1) * sum of |s| over clips outside every gt window, averaged over items."""
    neg = np.asarray(negative_mask, dtype=bool)
    if not neg.any():
        return _zero(saliency)
    return mul(tsum(mask_rows(absval(saliency), neg)), float(epoch + 1) / _items(saliency))


def hard_positive_loss(saliency, gt_saliency, positive_mask, epoch):
    """(epoch+1) * mean squared error against gt saliency over each item's positive clips.

    Items are averaged; an item without positive clips contributes 0.
    """
    pos = np.asarray(positive_mask, dtype=bool)
    if not pos.any():
        return _zero(saliency)
    gt = Tensor(np.asarray(gt_saliency, dtype=saliency.data.dtype))
    weights = (pos / np.maximum(pos.sum(axis=-1, keepdims=True), 1)).astype(saliency.data.dtype)
    # scale the finished mean so an item's (epoch+1) ramp is bitwise exact
    mse = tsum(mul(square(sub(gt, saliency)), weights))
    return mul(mse, float(epoch + 1) / _items(saliency))


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

    features is (L, d), or (B, L, d) for a padded batch: one scan of L steps
    over (B, d) states, so an item's padded steps come after its real ones
    and never reach them. One graph node. The input halves of the three
    gates (rows d: of each gate weight) are computed for all steps before the
    loop, so the recurrence multiplies only h by the recurrent halves (rows
    :d). Backward runs backpropagation through time in NumPy and forms each
    weight gradient with one matmul over all steps and items after the loop.
    """
    x = features.data
    if x.ndim not in (2, 3):
        raise ShapeError("gru_saliency expects (L, d) or (B, L, d) features")
    length, dim = x.shape[-2:]
    gates = (params.w_update, params.w_reset, params.w_cand)
    if any(w.data.shape != (2 * dim, dim) for w in gates):
        raise ShapeError(f"GRU gate weights must be ({2 * dim}, {dim})")
    w_z, w_r, w_c = (w.data for w in gates)
    xs = x.reshape(-1, length, dim).swapaxes(0, 1)  # step-major: (L, B, d)
    items = xs.shape[1]
    # update and reset gates share their matmuls: columns :d update, d: reset
    w_zr_h = np.concatenate([w_z[:dim], w_r[:dim]], axis=1)
    w_zr_x = np.concatenate([w_z[dim:], w_r[dim:]], axis=1)
    x_zr = xs @ w_zr_x + np.concatenate([params.b_update.data, params.b_reset.data])
    x_c = xs @ w_c[dim:] + params.b_cand.data
    w_c_h = w_c[:dim]
    hs = np.zeros((length + 1, items, dim), dtype=x.dtype)  # hs[i] is the state before step i
    zr_all = np.empty((length, items, 2 * dim), dtype=x.dtype)
    c_all = np.empty((length, items, dim), dtype=x.dtype)
    for i in range(length):
        h = hs[i]
        zr = stable_sigmoid(h @ w_zr_h + x_zr[i])
        z, r = zr[:, :dim], zr[:, dim:]
        c = np.tanh((r * h) @ w_c_h + x_c[i])
        hs[i + 1] = (1.0 - z) * h + z * c
        zr_all[i] = zr
        c_all[i] = c
    states = hs[1:]
    scores = (states @ params.readout_w.data + params.readout_b.data)[..., 0]  # (L, B)
    out_data = np.ascontiguousarray(scores.T).reshape(x.shape[:-1])

    def backward(g):
        g = g.reshape(items, length).T[..., None]  # (L, B, 1)
        _accumulate(params.readout_w, _rows(states).T @ _rows(g))
        _accumulate(params.readout_b, _unbroadcast(g, params.readout_b.data.shape))
        g_states = g @ params.readout_w.data.T
        d_zr = np.empty_like(zr_all)  # gradients of the gate pre-activations
        d_c = np.empty_like(c_all)
        dh = np.zeros((items, dim), dtype=x.dtype)
        for i in range(length - 1, -1, -1):
            h, zr, c = hs[i], zr_all[i], c_all[i]
            z, r = zr[:, :dim], zr[:, dim:]
            dh = dh + g_states[i]
            d_c[i] = dh * z * (1.0 - c * c)
            d_rh = d_c[i] @ w_c_h.T
            d_zr[i, :, :dim] = dh * (c - h)
            d_zr[i, :, dim:] = d_rh * h
            d_zr[i] *= zr * (1.0 - zr)
            dh = dh * (1.0 - z) + d_rh * r + d_zr[i] @ w_zr_h.T
        prev = _rows(hs[:-1])
        flat_zr, flat_c, flat_x = _rows(d_zr), _rows(d_c), _rows(xs)
        g_zr_h = prev.T @ flat_zr
        g_zr_x = flat_x.T @ flat_zr
        g_c_h = (_rows(zr_all)[:, dim:] * prev).T @ flat_c
        _accumulate(params.w_update, np.concatenate([g_zr_h[:, :dim], g_zr_x[:, :dim]]))
        _accumulate(params.w_reset, np.concatenate([g_zr_h[:, dim:], g_zr_x[:, dim:]]))
        _accumulate(params.w_cand, np.concatenate([g_c_h, flat_x.T @ flat_c]))
        _accumulate(params.b_update, _unbroadcast(flat_zr[:, :dim], params.b_update.data.shape))
        _accumulate(params.b_reset, _unbroadcast(flat_zr[:, dim:], params.b_reset.data.shape))
        _accumulate(params.b_cand, _unbroadcast(flat_c, params.b_cand.data.shape))
        if features.requires_grad:
            g_x = d_zr @ w_zr_x.T + d_c @ w_c[dim:].T  # (L, B, d)
            _accumulate(features, g_x.swapaxes(0, 1).reshape(x.shape))

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
    return reshape(total, ())
