"""Highlight/saliency losses, the coupled GRU scorer, and loss composition.

Every loss takes per-clip tensors of one item, (L,) or (L, d), or of a
padded batch, (B, L) or (B, L, d), with masks and gt arrays of the same
leading shape. Each term is normalised per item and averaged over the B
items, so a batch's loss is the mean of its items' losses; an un-batched
call is the B = 1 case.

Each loss term is one graph node whose backward is written out in NumPy,
like the GRU scan: the rank hinge, the contrastive ratio, the hard
positive/negative pair, the 1 - cosine and the weighted total. The cosine
has one entry point, one_minus_cosine(a, b, clip_mask=None): the
task-specific loss, the outer cosine of task-coupled and the alignment loss
all call it, with or without a mask. The composed versions they replace
live on in tests/composed.py as oracles.
An edge case is the same node: input that leaves a term nothing to score
(no rank pair, no active level, no positive or negative clip, no live cosine
row) runs its body over empty indices or zero weights, giving its constant
(0, or 1 for the cosine) with exactly zero gradient.
"""
from __future__ import annotations

import numpy as np

from .autodiff import (ShapeError, Tensor, _accumulate, _logsumexp, _node, _rows,
                       _unbroadcast, as_tensor, keep_mask, stable_sigmoid)


class CompositionError(ValueError):
    pass


def _items(scores):
    """Number of items behind per-clip scores: 1 for (L,), B for (B, L)."""
    return int(np.prod(scores.data.shape[:-1]))


def one_minus_cosine(a, b, clip_mask=None):
    """1 - cosine(normalize(a), normalize(b)) over the last axis, as one node; range [0, 2].

    b is a tensor or an array of gt values, cast to a's dtype. Entries that
    clip_mask drops are zeroed in both operands first. Rank-1 tensors give
    their loss; (B, L) tensors give the mean of the per-row losses. A
    zero-norm operand makes a row's cosine undefined: that row's loss is then
    the constant 1 (orthogonal convention) with zero gradient.
    """
    b = as_tensor(b, like=a)
    keep = keep_mask(clip_mask, a.data.shape)
    if a.data.shape != b.data.shape or a.data.ndim not in (1, 2):
        raise ValueError("one_minus_cosine expects two rank-1 or rank-2 tensors of equal shape")
    x, y = a.data * keep, b.data * keep  # a kept entry is multiplied by 1, exactly
    sumsq_x = (x * x).sum(axis=-1, keepdims=True)
    sumsq_y = (y * y).sum(axis=-1, keepdims=True)
    dead = (sumsq_x == 0.0) | (sumsq_y == 0.0)
    # a dead row divides by 1 instead of 0 and is weighted 0: its cosine is 0
    guard = dead.astype(x.dtype)
    norm_x, norm_y = np.sqrt(sumsq_x + guard), np.sqrt(sumsq_y + guard)
    unit_x, unit_y = x / norm_x, y / norm_y
    weights = (1.0 - guard) / _items(a)
    out_data = np.asarray(1.0 - (unit_x * unit_y * weights).sum(), dtype=x.dtype)

    def backward(g):
        cos = (unit_x * unit_y).sum(axis=-1, keepdims=True)
        scale = -g * weights
        for t, unit, other, norm in ((a, unit_x, unit_y, norm_x), (b, unit_y, unit_x, norm_y)):
            if t.requires_grad:
                grad = scale * (other - cos * unit) / norm
                _accumulate(t, grad * keep)

    return _node(out_data, (a, b), backward)


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
    scores = saliency.data.reshape(hi.size, -1)
    hi, lo = hi[paired], lo[paired]
    hinge = scores[paired, lo] - scores[paired, hi] + margin
    weight = np.asarray(1.0 / _items(saliency), dtype=scores.dtype)
    out_data = (np.maximum(hinge, 0.0) * weight).sum()

    def backward(g):
        coef = g * weight * (hinge > 0.0)
        grad = np.zeros_like(scores)
        grad[paired, lo] += coef
        grad[paired, hi] -= coef
        _accumulate(saliency, grad.reshape(saliency.data.shape))

    return _node(np.asarray(out_data), (saliency,), backward)


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
    highs, lows = eligible[lv == top], eligible[lv == bot]
    # the stream of rng.choice(highs) and rng.choice(lows), without choice's overhead
    return int(highs[rng.integers(len(highs))]), int(lows[rng.integers(len(lows))])


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
    n_active = active.sum(axis=-1, keepdims=True)
    coef = np.concatenate([n_active > 0, active / -np.maximum(n_active, 1)], axis=-1)
    coef = (coef / _items(saliency)).astype(saliency.data.dtype)
    # subsets weighted 0 reduce every clip instead, so none is empty
    subsets = np.where(coef[..., None] != 0, subsets, True)
    scale = np.asarray(1.0 / temperature, dtype=saliency.data.dtype)
    lse, softmax = _logsumexp((saliency.data * scale)[..., None, :], subsets)
    out_data = (lse * coef).sum()

    def backward(g):
        _accumulate(saliency, ((g * coef)[..., None] * softmax).sum(axis=-2) * scale)

    return _node(np.asarray(out_data), (saliency,), backward)


def highlight_distribution_loss(saliency, gt_saliency, positive_mask, negative_mask, epoch):
    """Hard-positive plus hard-negative term (the epoch-weighted pair), as one node.

    The positive part is the mean squared error against gt saliency over each
    item's positive clips (0 for an item without any), the negative part the
    sum of |s| over its negative clips. Both are scaled by (epoch+1) and
    averaged over items; the scale multiplies each finished sum, so the
    epoch ramp is bitwise exact.
    """
    pos = np.asarray(positive_mask, dtype=bool)
    neg = np.asarray(negative_mask, dtype=bool)
    s = saliency.data
    scale = np.asarray(float(epoch + 1) / _items(saliency), dtype=s.dtype)
    diff = np.asarray(gt_saliency, dtype=s.dtype) - s
    weights = (pos / np.maximum(pos.sum(axis=-1, keepdims=True), 1)).astype(s.dtype)
    keep = neg.astype(s.dtype)
    out_data = (diff * diff * weights).sum() * scale + (np.abs(s) * keep).sum() * scale

    def backward(g):
        grad = np.zeros_like(s)
        half = g * scale * weights * diff
        grad -= half + half
        grad += g * scale * keep * np.sign(s)
        _accumulate(saliency, grad)

    return _node(np.asarray(out_data), (saliency,), backward)


def hard_negative_loss(saliency, negative_mask, epoch):
    """(epoch+1) * sum of |s| over clips outside every gt window, averaged over items."""
    neg = np.asarray(negative_mask, dtype=bool)
    return highlight_distribution_loss(saliency, np.zeros(neg.shape), np.zeros_like(neg), neg, epoch)


def hard_positive_loss(saliency, gt_saliency, positive_mask, epoch):
    """(epoch+1) * mean squared error against gt saliency over each item's positive clips.

    Items are averaged; an item without positive clips contributes 0.
    """
    pos = np.asarray(positive_mask, dtype=bool)
    return highlight_distribution_loss(saliency, gt_saliency, pos, np.zeros_like(pos), epoch)


# -- cross-task saliency losses ----------------------------------------------


def task_specific_loss(saliency, gt_saliency, clip_mask=None):
    """1 - cosine between predicted and gt saliency over unmasked clips."""
    return one_minus_cosine(saliency, gt_saliency, clip_mask)


def gru_saliency(features, params):
    """Left-to-right GRU over feature rows, zero initial state, scalar readout per step.

    params holds the (w, b) pairs of the update, reset, cand and readout
    layers: the gates act on the concat [h, x] (each of width d), the readout
    maps d -> 1. features is (L, d), or (B, L, d) for a padded batch: one scan
    of L steps over (B, d) states, so an item's padded steps come after its
    real ones and never reach them. One graph node. The input halves of the three
    gates (rows d: of each gate weight) are computed for all steps before the
    loop, so the recurrence multiplies only h by the recurrent halves (rows
    :d). Backward runs backpropagation through time in NumPy and forms each
    weight gradient with one matmul over all steps and items after the loop.
    """
    x = features.data
    if x.ndim not in (2, 3):
        raise ShapeError("gru_saliency expects (L, d) or (B, L, d) features")
    length, dim = x.shape[-2:]
    (w_update, b_update), (w_reset, b_reset), (w_cand, b_cand), (readout_w, readout_b) = params
    gates = (w_update, w_reset, w_cand)
    if any(w.data.shape != (2 * dim, dim) for w in gates):
        raise ShapeError(f"GRU gate weights must be ({2 * dim}, {dim})")
    w_z, w_r, w_c = (w.data for w in gates)
    xs = x.reshape(-1, length, dim).swapaxes(0, 1)  # step-major: (L, B, d)
    items = xs.shape[1]
    # update and reset gates share their matmuls: columns :d update, d: reset
    w_zr_h = np.concatenate([w_z[:dim], w_r[:dim]], axis=1)
    w_zr_x = np.concatenate([w_z[dim:], w_r[dim:]], axis=1)
    x_zr = xs @ w_zr_x + np.concatenate([b_update.data, b_reset.data])
    x_c = xs @ w_c[dim:] + b_cand.data
    w_c_h = w_c[:dim]
    hs = np.zeros((length + 1, items, dim), dtype=x.dtype)  # hs[i] is the state before step i
    zr_all = np.empty((length, items, 2 * dim), dtype=x.dtype)
    z_all, r_all = zr_all[..., :dim], zr_all[..., dim:]
    c_all = np.empty((length, items, dim), dtype=x.dtype)
    for i in range(length):
        h, z, c = hs[i], z_all[i], c_all[i]
        stable_sigmoid(h @ w_zr_h + x_zr[i], zr_all[i])
        np.tanh((r_all[i] * h) @ w_c_h + x_c[i], out=c)
        np.add((1.0 - z) * h, z * c, out=hs[i + 1])
    states = hs[1:]
    scores = (states @ readout_w.data + readout_b.data)[..., 0]  # (L, B)
    out_data = np.ascontiguousarray(scores.T).reshape(x.shape[:-1])

    def backward(g):
        g = g.reshape(items, length).T[..., None]  # (L, B, 1)
        _accumulate(readout_w, _rows(states).T @ _rows(g))
        _accumulate(readout_b, _unbroadcast(g, readout_b.data.shape))
        g_states = g @ readout_w.data.T
        d_zr = np.empty_like(zr_all)  # gradients of the gate pre-activations
        d_z, d_r = d_zr[..., :dim], d_zr[..., dim:]
        d_c = np.empty_like(c_all)
        # the step-local factors of every step at once: tanh' and sigmoid' of
        # the outputs, the update's (c - h) and the carry (1 - z)
        d_tanh = 1.0 - c_all * c_all
        d_sigmoid = zr_all * (1.0 - zr_all)
        c_minus_h = c_all - hs[:-1]
        carry = 1.0 - z_all
        w_c_h_t, w_zr_h_t = w_c_h.T, w_zr_h.T
        dh = np.zeros((items, dim), dtype=x.dtype)
        for i in range(length - 1, -1, -1):
            dh += g_states[i]
            np.multiply(dh * z_all[i], d_tanh[i], out=d_c[i])
            d_rh = d_c[i] @ w_c_h_t
            np.multiply(dh, c_minus_h[i], out=d_z[i])
            np.multiply(d_rh, hs[i], out=d_r[i])
            d_zr[i] *= d_sigmoid[i]
            dh = dh * carry[i] + d_rh * r_all[i] + d_zr[i] @ w_zr_h_t
        prev = _rows(hs[:-1])
        flat_zr, flat_c, flat_x = _rows(d_zr), _rows(d_c), _rows(xs)
        g_zr_h = prev.T @ flat_zr
        g_zr_x = flat_x.T @ flat_zr
        g_c_h = (_rows(zr_all)[:, dim:] * prev).T @ flat_c
        _accumulate(w_update, np.concatenate([g_zr_h[:, :dim], g_zr_x[:, :dim]]))
        _accumulate(w_reset, np.concatenate([g_zr_h[:, dim:], g_zr_x[:, dim:]]))
        _accumulate(w_cand, np.concatenate([g_c_h, flat_x.T @ flat_c]))
        _accumulate(b_update, _unbroadcast(flat_zr[:, :dim], b_update.data.shape))
        _accumulate(b_reset, _unbroadcast(flat_zr[:, dim:], b_reset.data.shape))
        _accumulate(b_cand, _unbroadcast(flat_c, b_cand.data.shape))
        if features.requires_grad:
            g_x = d_zr @ w_zr_x.T + d_c @ w_c[dim:].T  # (L, B, d)
            _accumulate(features, g_x.swapaxes(0, 1).reshape(x.shape))

    parents = (features, w_update, b_update, w_reset, b_reset, w_cand, b_cand,
               readout_w, readout_b)
    return _node(out_data, parents, backward)


def task_coupled_loss(features, gru, gt_saliency, clip_mask=None):
    """1 - cosine between the GRU scan of moment-path features and gt saliency."""
    return one_minus_cosine(gru_saliency(features, gru), gt_saliency, clip_mask)


# -- composition ---------------------------------------------------------------


COMPONENT_KEYS = ("l1", "giou", "cls", "rank", "contrastive", "hard",
                  "task_specific", "task_coupled", "alignment")
# the terms compose_total scales by weights.saliency, in summation order
HIGHLIGHT_KEYS = ("rank", "contrastive", "hard", "task_specific", "task_coupled")


def largest_term(components, weights):
    """The key of the component with the largest weighted magnitude, weighted
    as compose_total weights it and taken in float64: the term behind a total
    that overflowed although every component was finite."""
    def weighted(key):
        scale = weights.saliency if key in HIGHLIGHT_KEYS else 1.0
        c = components[key]
        return abs(float(c.data if isinstance(c, Tensor) else c) * getattr(weights, key) * scale)

    return max(COMPONENT_KEYS, key=weighted)


def compose_total(components, weights):
    """Weighted total of all loss components, as one node; non-finite components are an error.

    total = saliency_w * (rank_w*rank + cont_w*contrastive + hard_w*hard
                          + ts_w*task_specific + tc_w*task_coupled)
            + (l1_w*l1 + giou_w*giou + cls_w*cls)
            + align_w*alignment

    A component may be a float, which enters as a constant. The backward
    hands each component g times its effective weight.
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

    def term(key):
        data = vals[key].data
        return data * np.asarray(getattr(weights, key), dtype=data.dtype)

    highlight = sum((term(key) for key in HIGHLIGHT_KEYS[1:]), term(HIGHLIGHT_KEYS[0]))
    retrieval = term("l1") + term("giou") + term("cls")
    total = highlight * np.asarray(weights.saliency, dtype=highlight.dtype) + retrieval \
        + term("alignment")

    def backward(g):
        outer = g * np.asarray(weights.saliency, dtype=g.dtype)
        for key, c in vals.items():
            g_key = outer if key in HIGHLIGHT_KEYS else g
            _accumulate(c, np.reshape(g_key * np.asarray(getattr(weights, key), dtype=c.data.dtype),
                                      c.data.shape))

    return _node(np.asarray(total).reshape(()), tuple(vals.values()), backward)
