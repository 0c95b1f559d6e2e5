"""Reference versions of the fused kernels, built from small autodiff ops.

`autodiff.linear`, `autodiff.conv1d`, `autodiff.dropout`,
`autodiff.layer_norm`, `autodiff.multi_head_attention`,
`losses.gru_saliency`, each loss term in `losses`, `matching` and
`refinement`, and `losses.compose_total` are each one graph node with a
hand-written backward. These compositions compute the same functions op by
op, so reverse mode derives their gradients; the equivalence tests compare
the two. The loss oracles are the composed bodies the fused nodes replaced;
`linear`, `conv1d` and `dropout` are the compositions their nodes replaced,
and equal them bit for bit. `gru_saliency_node` is the one-node GRU scan
before its step was written with `out=` and its backward's step-local
factors were formed for all steps at once; the scan equals it bit for bit.
`relu_node`, `dropout_node`, `conv1d_node`, `layer_norm_node` and
`multi_head_attention_node` are those nodes before their bodies were cut to
fewer NumPy calls and temporaries (the attention's softmax found dead rows
from its sums and masked with an array when every key was kept; dropout
held the scaled float mask, conv1d the unfolded windows); the nodes equal
them bit for bit.
`grad_norm` is the global gradient norm as `training.clip_gradients` summed
it before it walked the grad arena in chunks. `xavier_uniform` and
`encode_item` are the set-up paths that wrote whole float64 temporaries:
one `rng.uniform` draw per parameter, cast into the arena, and bundles
concatenated in float64, then cast to the model's dtype; `load_features`
reads a feature file into float64 on its own. `iou_1d` and `giou_1d` are
the span geometry on Python floats, one pair per call, and `metric_report`
scores with them the way `metrics.compute_report` did before it shared one
IoU matrix per query: each metric re-sorts a query's windows and recomputes
its IoUs, and the detection AP runs its greedy match at every IoU threshold,
with no short cut for the thresholds above a query's best IoU. Its HD mAP
and HIT@1 each rank a query's clips on their own, by the (-score, index) key
`metrics` sorted with before it shared one stable ranking between the two.
"""
import math
import struct
from pathlib import Path

import numpy as np

from momentspot.autodiff import (LAYER_NORM_EPS, ShapeError, Tensor, _accumulate, _gemm,
                                 _node, _rows, _unbroadcast, _unfold, absval, add, as_tensor, clip01,
                                 concat, div, keep_mask, log_softmax_rows,
                                 logsumexp, mask_rows, matmul, maximum, minimum,
                                 mul, narrow, relu, reshape, sigmoid,
                                 softmax_masked, sqrt, square, sub, tanh,
                                 tmean, transpose, tsum, unfold1d)
from momentspot.data import FeatureBundle, stable_hash, text_token_count
from momentspot.losses import COMPONENT_KEYS, CompositionError
from momentspot.matching import WIDTH_FLOOR
from momentspot.metrics import DEFAULT_IOU_THRESHOLDS, VERY_GOOD_LEVEL, MetricReport


def linear(x, weight, bias):
    return add(matmul(x, weight), bias)


def conv1d(x, weight, bias):
    kernel, c_in, c_out = weight.data.shape
    return add(matmul(unfold1d(x, kernel), reshape(weight, (kernel * c_in, c_out))), bias)


def dropout(t, p, rng, train):
    if not train or p <= 0.0:
        return t
    keep = (rng.random(t.data.shape) >= p).astype(t.data.dtype) / (1.0 - p)
    return mul(t, Tensor(keep))


def layer_norm(t, gamma, beta, eps=1e-5):
    mu = tmean(t, axis=1, keepdims=True)
    centered = sub(t, mu)
    var = tmean(square(centered), axis=1, keepdims=True)
    inv = div(as_tensor(1.0, like=t), sqrt(add(var, eps)))
    return add(mul(mul(centered, inv), gamma), beta)


def multi_head_attention(q, k, v, params, heads, key_mask=None):
    d = q.data.shape[1]
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    (wq, bq), (wk, bk), (wv, bv), (wo, bo) = params
    qp = linear(q, wq, bq)
    kp = linear(k, wk, bk)
    vp = linear(v, wv, bv)
    outs = []
    for h in range(heads):
        qh = narrow(qp, 1, h * dh, dh)
        kh = narrow(kp, 1, h * dh, dh)
        vh = narrow(vp, 1, h * dh, dh)
        scores = mul(matmul(qh, transpose(kh)), scale)
        outs.append(matmul(softmax_masked(scores, key_mask=key_mask), vh))
    out = linear(concat(outs, axis=1), wo, bo)
    # a query row is dead when no key is kept, so either every row is dead or none is
    if key_mask is not None and not np.any(key_mask):
        out = mask_rows(out, np.zeros(q.data.shape[0], dtype=bool))
    return out


def gru_saliency(features, params):
    length, dim = features.data.shape
    update, reset, cand, readout = params
    h = Tensor(np.zeros((1, dim), dtype=features.data.dtype))
    outputs = []
    for i in range(length):
        x = narrow(features, 0, i, 1)
        hx = concat([h, x], axis=1)
        z = sigmoid(linear(hx, *update))
        r = sigmoid(linear(hx, *reset))
        cand_in = concat([mul(r, h), x], axis=1)
        c = tanh(linear(cand_in, *cand))
        h = mul(sub(1.0, z), h) + mul(z, c)
        outputs.append(linear(h, *readout))
    return reshape(concat(outputs, axis=0), (length,))


def stable_sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(x.dtype, copy=False)


def gru_saliency_node(features, params):
    x = features.data
    length, dim = x.shape[-2:]
    (w_update, b_update), (w_reset, b_reset), (w_cand, b_cand), (readout_w, readout_b) = params
    w_z, w_r, w_c = (w.data for w in (w_update, w_reset, w_cand))
    xs = x.reshape(-1, length, dim).swapaxes(0, 1)
    items = xs.shape[1]
    w_zr_h = np.concatenate([w_z[:dim], w_r[:dim]], axis=1)
    w_zr_x = np.concatenate([w_z[dim:], w_r[dim:]], axis=1)
    x_zr = xs @ w_zr_x + np.concatenate([b_update.data, b_reset.data])
    x_c = xs @ w_c[dim:] + b_cand.data
    w_c_h = w_c[:dim]
    hs = np.zeros((length + 1, items, dim), dtype=x.dtype)
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
    scores = (states @ readout_w.data + readout_b.data)[..., 0]
    out_data = np.ascontiguousarray(scores.T).reshape(x.shape[:-1])

    def backward(g):
        g = g.reshape(items, length).T[..., None]
        _accumulate(readout_w, _rows(states).T @ _rows(g))
        _accumulate(readout_b, _unbroadcast(g, readout_b.data.shape))
        g_states = g @ readout_w.data.T
        d_zr = np.empty_like(zr_all)
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
        _accumulate(w_update, np.concatenate([g_zr_h[:, :dim], g_zr_x[:, :dim]]))
        _accumulate(w_reset, np.concatenate([g_zr_h[:, dim:], g_zr_x[:, dim:]]))
        _accumulate(w_cand, np.concatenate([g_c_h, flat_x.T @ flat_c]))
        _accumulate(b_update, _unbroadcast(flat_zr[:, :dim], b_update.data.shape))
        _accumulate(b_reset, _unbroadcast(flat_zr[:, dim:], b_reset.data.shape))
        _accumulate(b_cand, _unbroadcast(flat_c, b_cand.data.shape))
        if features.requires_grad:
            g_x = d_zr @ w_zr_x.T + d_c @ w_c[dim:].T
            _accumulate(features, g_x.swapaxes(0, 1).reshape(x.shape))

    parents = (features, w_update, b_update, w_reset, b_reset, w_cand, b_cand,
               readout_w, readout_b)
    return _node(out_data, parents, backward)


# -- node bodies before their NumPy calls and temporaries were cut -----------------


def relu_node(t):
    out_data = np.maximum(t.data, 0.0)
    mask = t.data > 0.0

    def backward(g):
        _accumulate(t, g * mask)

    return _node(out_data, (t,), backward)


def dropout_node(t, p, rng=None, train=False):
    if not train or p <= 0.0:
        return t
    keep = (rng.random(t.data.shape) >= p) * (np.ones((), t.data.dtype) / (1.0 - p))

    def backward(g):
        _accumulate(t, g * keep)

    return _node(t.data * keep, (t,), backward)


def conv1d_node(x, weight, bias):
    kernel, c_in, c_out = weight.data.shape
    unf, fold = _unfold(x.data, kernel)
    w = weight.data.reshape(kernel * c_in, c_out)
    out_data = _gemm(unf, w) + bias.data
    source = x if x.requires_grad else None

    def backward(g):
        _accumulate(bias, _unbroadcast(g, bias.data.shape))
        if source is not None:
            _accumulate(source, fold(_gemm(g, w.T)))
        if weight.requires_grad:
            _accumulate(weight, (_rows(unf).T @ _rows(g)).reshape(weight.data.shape))

    return _node(out_data, (x, weight, bias), backward)


def layer_norm_node(t, gamma, beta):
    x = t.data
    scale = 1.0 / x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) * scale
    inv = 1.0 / np.sqrt((centered * centered).sum(axis=-1, keepdims=True) * scale + LAYER_NORM_EPS)
    xhat = centered * inv
    out_data = xhat * gamma.data + beta.data

    def backward(g):
        _accumulate(beta, _unbroadcast(g, beta.data.shape))
        _accumulate(gamma, _unbroadcast(g * xhat, gamma.data.shape))
        if t.requires_grad:
            gx = g * gamma.data
            mean_gx = gx.sum(axis=-1, keepdims=True) * scale
            mean_gx_xhat = (gx * xhat).sum(axis=-1, keepdims=True) * scale
            _accumulate(t, inv * (gx - mean_gx - xhat * mean_gx_xhat))

    return _node(out_data, (t, gamma, beta), backward)


def masked_softmax_and_dead(x, keep):
    """(weights, dead): the softmax over the last axis within keep, and the rows with no kept column."""
    m = x.max(axis=-1, keepdims=True, where=keep, initial=-np.inf)
    e = np.exp(x - m, where=keep, out=np.zeros(x.shape, x.dtype))
    denom = e.sum(axis=-1, keepdims=True)
    return e / np.where(denom == 0.0, 1.0, denom), denom[..., 0] == 0.0


def multi_head_attention_node(q, k, v, params, heads, key_mask=None):
    qd, kd, vd = q.data, k.data, v.data
    d = qd.shape[-1]
    (wq, bq), (wk, bk), (wv, bv), (wo, bo) = params
    keep = keep_mask(key_mask, kd.shape[:-1])[..., None, None, :]
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)

    def split(x):
        return x.reshape(x.shape[:-1] + (heads, dh)).swapaxes(-2, -3)

    def merge(x):
        return x.swapaxes(-2, -3).reshape(qd.shape[:-2] + (-1, d))

    qh = split(_gemm(qd, wq.data) + bq.data)
    kh = split(_gemm(kd, wk.data) + bk.data)
    vh = split(_gemm(vd, wv.data) + bv.data)
    attn, dead = masked_softmax_and_dead((qh @ kh.swapaxes(-1, -2)) * scale, keep)
    dead = dead[..., 0, :]
    merged = merge(attn @ vh)
    out_data = _gemm(merged, wo.data) + bo.data
    live = None
    if dead.any():
        live = (~dead).astype(out_data.dtype)[..., None]
        out_data = out_data * live

    def project_back(x, w, b, g):
        _accumulate(w, _rows(x.data).T @ _rows(g))
        _accumulate(b, _unbroadcast(g, b.data.shape))
        if x.requires_grad:
            _accumulate(x, _gemm(g, w.data.T))

    def backward(g):
        if live is not None:
            g = g * live
        _accumulate(wo, _rows(merged).T @ _rows(g))
        _accumulate(bo, _unbroadcast(g, bo.data.shape))
        g_out = split(_gemm(g, wo.data.T))
        g_attn = g_out @ vh.swapaxes(-1, -2)
        g_scores = attn * (g_attn - (g_attn * attn).sum(axis=-1, keepdims=True)) * scale
        project_back(q, wq, bq, merge(g_scores @ kh))
        project_back(k, wk, bk, merge(g_scores.swapaxes(-1, -2) @ qh))
        project_back(v, wv, bv, merge(attn.swapaxes(-1, -2) @ g_out))

    return _node(out_data, (q, k, v, wq, bq, wk, bk, wv, bv, wo, bo), backward)


# -- loss terms -----------------------------------------------------------------


def gather(t, index):
    """Rows t.data[index] picked by integer arrays over t's leading axes.

    index is one array (rows of an (N, C) tensor) or a tuple of arrays
    ((item, row) pairs of a (B, N, C) batch); repeated rows accumulate.
    """
    out_data = t.data[index]

    def backward(g):
        full = np.zeros_like(t.data)
        np.add.at(full, index, g)
        _accumulate(t, full)

    return _node(out_data, (t,), backward)


def _zero(t):
    return Tensor(np.asarray(0.0, dtype=t.data.dtype))


def _items(scores):
    """Number of items behind per-clip scores: 1 for (L,), B for (B, L)."""
    return int(np.prod(scores.data.shape[:-1]))


def one_minus_cosine(a, b):
    """1 - cosine(normalize(a), normalize(b)) over the last axis; range [0, 2].

    Rank-1 tensors give their loss; (B, L) tensors give the mean of the
    per-row losses. A zero-norm operand makes a row's cosine undefined: that
    row's loss is then the constant 1 (orthogonal convention) with zero
    gradient.
    """
    if a.data.shape != b.data.shape or a.data.ndim not in (1, 2):
        raise ValueError("one_minus_cosine expects two rank-1 or rank-2 tensors of equal shape")
    dead = (np.linalg.norm(a.data, axis=-1) == 0.0) | (np.linalg.norm(b.data, axis=-1) == 0.0)
    if dead.all():
        return Tensor(np.asarray(1.0, dtype=a.data.dtype))
    # a dead row divides by 1 instead of 0 and is weighted 0: its cosine is 0
    guard = dead.astype(a.data.dtype)[..., None]

    def unit(x):
        sumsq = tsum(square(x), axis=-1, keepdims=True)
        return div(x, sqrt(add(sumsq, guard) if dead.any() else sumsq))

    weights = (1.0 - guard) / _items(a)
    return sub(1.0, tsum(mul(mul(unit(a), unit(b)), weights)))


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


def masked_cosine_loss(scores, gt_saliency, clip_mask=None):
    """one_minus_cosine of rank-1 scores against gt values, both over unmasked clips."""
    gt = Tensor(np.asarray(gt_saliency, dtype=scores.data.dtype))
    return one_minus_cosine(mask_rows(scores, clip_mask), mask_rows(gt, clip_mask))


task_specific_loss = masked_cosine_loss


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


def span_from_cw(cw):
    """(center, width) -> [start, end] clipped to [0, 1], width floored; one row at a time."""
    c, w = float(cw[0]), float(cw[1])
    w = max(w, WIDTH_FLOOR)
    s = min(max(c - 0.5 * w, 0.0), 1.0)
    e = min(max(c + 0.5 * w, 0.0), 1.0)
    return [s, e]


def iou_1d(a, b):
    """Intersection over union of two [start, end] spans; 0 for an empty union."""
    s1, e1 = float(a[0]), float(a[1])
    s2, e2 = float(b[0]), float(b[1])
    inter = max(0.0, min(e1, e2) - max(s1, s2))
    union = (e1 - s1) + (e2 - s2) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def giou_1d(a, b):
    """IoU minus the separation gap over the enclosure; 0 for an empty union or enclosure."""
    s1, e1 = float(a[0]), float(a[1])
    s2, e2 = float(b[0]), float(b[1])
    inter = max(0.0, min(e1, e2) - max(s1, s2))
    union = (e1 - s1) + (e2 - s2) - inter
    enclosure = max(e1, e2) - min(s1, s2)
    if union <= 0.0 or enclosure <= 0.0:
        return 0.0
    gap = max(0.0, max(s1, s2) - min(e1, e2))
    return inter / union - gap / enclosure


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
    """L1, gIoU, and down-weighted-background CE terms of the moment queries.

    For one item, class_logits/moments are (n_q, 2) tensors from the heads,
    gt_moments a numpy (M, 2) array of normalized (center, width) and match
    one MatchResult pairing pred rows with gt rows. For a batch they are
    (B, n_q, 2) tensors with lists of B gt arrays and B matches: the matched
    pairs of all items run through one L1/gIoU/CE, each term normalised per
    item and averaged over items. Returns scalar tensors "l1", "giou", "cls".
    """
    batched = class_logits.data.ndim == 3
    gts, matches = (gt_moments, match) if batched else ([gt_moments], [match])
    n_items, n_q = len(matches), class_logits.data.shape[-2]
    dtype = moments.data.dtype
    counts = np.array([len(m.pred_indices) for m in matches], dtype=int)
    items = np.repeat(np.arange(n_items), counts)
    queries = np.array([q for m in matches for q in m.pred_indices], dtype=int)
    if queries.size:
        pred_rows = gather(moments, (items, queries) if batched else queries)
        gt_rows = Tensor(np.concatenate([np.asarray(g, dtype=dtype).reshape(-1, 2)[m.gt_indices]
                                         for g, m in zip(gts, matches)]))
        pair_weights = (1.0 / (n_items * counts[items])).astype(dtype)[:, None]
        l1 = tsum(mul(absval(sub(pred_rows, gt_rows)), pair_weights))
        ps, pe = _spans(pred_rows)
        gs, ge = _spans(gt_rows)
        giou = tsum(mul(sub(1.0, giou_spans(ps, pe, gs, ge)), pair_weights))
    else:
        l1 = Tensor(np.asarray(0.0, dtype=dtype))
        giou = Tensor(np.asarray(0.0, dtype=dtype))
    # 2-way cross entropy; unmatched queries are background at reduced weight
    targets = np.ones((n_items, n_q), dtype=int)
    targets[items, queries] = 0
    class_weights = np.where(targets == 0, 1.0, weights.background_weight)
    # picks holds -weight / (item weight total * items) at each query's target column
    norm = n_items * class_weights.sum(axis=1, keepdims=True)
    picks = np.zeros((n_items, n_q, 2), dtype=class_logits.data.dtype)
    picks[np.arange(n_items)[:, None], np.arange(n_q), targets] = -class_weights / norm
    cls = tsum(mul(log_softmax_rows(class_logits), Tensor(picks.reshape(class_logits.data.shape))))
    return {"l1": l1, "giou": giou, "cls": cls}


def masked_mean_pool(t, mask=None):
    """Mean over the unmasked rows of (L, d), or of each item of (B, L, d), kept as (1, d) / (B, 1, d)."""
    keep = keep_mask(mask, t.data.shape[:-1])
    counts = keep.sum(axis=-1, keepdims=True)[..., None]  # (..., 1, 1)
    if not counts.all():
        raise ValueError("masked_mean_pool over an empty (fully masked) sequence")
    return mul(tsum(mask_rows(t, keep), axis=-2, keepdims=True), 1.0 / counts)


def clip_query_cosines(t_bar, v_r, text_mask=None):
    """Cosine between the pooled query and every refined clip: (L,), or (B, L) for a batch.

    Zero-norm rows (e.g. masked clips zeroed upstream) yield cosine 0 exactly,
    with zero gradient: their squared norm is taken as 1, so sqrt never sees 0.
    """
    pooled = masked_mean_pool(t_bar, text_mask)
    dots = reshape(matmul(v_r, transpose(pooled)), v_r.data.shape[:-1])
    sumsq = tsum(square(v_r), axis=-1)
    zero_rows = sumsq.data == 0.0
    row_norms = sqrt(add(sumsq, zero_rows.astype(sumsq.data.dtype)) if zero_rows.any() else sumsq)
    pooled_norm = sqrt(tsum(square(pooled), axis=-1))
    denom = maximum(mul(row_norms, pooled_norm), 1e-30)
    return div(dots, denom)


def alignment_loss(t_bar, v_r, gt_saliency, text_mask=None, clip_mask=None):
    """1 - cosine between (normalized) predicted and gt per-clip query alignment.

    gt_saliency holds the normalized (level/4) per-clip values. Masked clips
    are excluded from both vectors; a zero-norm side gives loss 1.
    A batch's loss is the mean of its items' losses.
    """
    pred = clip_query_cosines(t_bar, v_r, text_mask=text_mask)
    gt = np.asarray(gt_saliency, dtype=pred.data.dtype)
    if gt.shape != pred.data.shape:
        raise ValueError(f"gt saliency shape {gt.shape} does not match clip count {pred.data.shape}")
    return masked_cosine_loss(pred, gt, clip_mask)


def grad_norm(params):
    """The global L2 norm of a ParamStore's gradients: float64 sums of
    squares, one parameter at a time in registry order."""
    return math.sqrt(sum(float((p.tensor.grad.astype(np.float64) ** 2).sum())
                         for p in params.values()))


def xavier_uniform(rng, shape, fan_in, fan_out):
    """Float64 draws; the caller casts them into its own dtype."""
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def pseudo_encode(kind, ident, length, dim):
    h = stable_hash(kind, ident) % 1000
    grid = np.arange(length * dim, dtype=np.float64).reshape(length, dim)
    return np.sin(h + grid) * 0.5


def load_features(path):
    """A feature file's (L, d) float32 payload, widened to float64."""
    raw = Path(path).read_bytes()
    length, dim, _reserved = struct.unpack("<III", raw[4:16])
    return np.frombuffer(raw, dtype="<f4", offset=16).reshape(length, dim).astype(np.float64)


def encode_item(ann, video_parts, text_parts, max_text_len, feature_dir, dtype):
    """Each part in float64 from its "<prefix>.<kind>.vlft" file under
    feature_dir or else pseudo_encode, the parts concatenated, then cast."""
    def block(parts, rows, ident, prefix):
        arrays = []
        for kind, dim in parts:
            path = None if feature_dir is None else feature_dir / f"{prefix}.{kind}.vlft"
            arrays.append(load_features(path) if path is not None and path.exists()
                          else pseudo_encode(kind, ident, rows, dim))
        return np.concatenate(arrays, axis=1).astype(dtype)

    n_tok = text_token_count(ann.query, max_text_len)
    return FeatureBundle(video=block(video_parts, ann.num_clips, ann.vid, ann.vid),
                         text=block(text_parts, n_tok, ann.query, f"qid{ann.qid}"),
                         video_mask=np.ones(ann.num_clips, dtype=bool),
                         text_mask=np.ones(n_tok, dtype=bool))


def _ordered(windows):
    """[start, end, score] rows by confidence; the stable sort keeps ties in row order."""
    return sorted(windows, key=lambda w: -w[2])


def average_precision_detection(pred_windows, gt_windows, threshold):
    """All-point interpolated AP of one query: the greedy match recomputes
    every IoU, and the predictions are sorted again, for each threshold."""
    n_gt = len(gt_windows)
    if n_gt == 0:
        return None
    taken = [False] * n_gt
    tp = []
    for pred in _ordered(pred_windows):
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


def ranked_order(scores):
    """Clip indices by score descending, ties toward the lower index."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def ranking_average_precision(scores, positives):
    n_pos = sum(bool(p) for p in positives)
    if n_pos == 0:
        return None
    cum, total = 0, 0.0
    for rank, idx in enumerate(ranked_order(scores), start=1):
        if positives[idx]:
            cum += 1
            total += cum / rank
    return total / n_pos


def hd_map(saliency_per_query, levels_per_query):
    aps = [ranking_average_precision(scores, [lv >= VERY_GOOD_LEVEL for lv in levels])
           for scores, levels in zip(saliency_per_query, levels_per_query)]
    aps = [ap for ap in aps if ap is not None]
    return sum(aps) / len(aps) if aps else 0.0


def hit_at_1(saliency_per_query, levels_per_query):
    hits = sum(levels[ranked_order(scores)[0]] >= VERY_GOOD_LEVEL
               for scores, levels in zip(saliency_per_query, levels_per_query))
    return hits / len(levels_per_query)


def metric_report(predictions, annotations):
    """The MetricReport of (prediction, annotation) pairs, matched by qid,
    from the scalar span oracles and the highlight oracles above."""
    by_qid = {p.qid: p for p in predictions}
    preds = [by_qid[ann.qid].windows for ann in annotations]
    gts = [ann.relevant_windows for ann in annotations]
    tops = [_ordered(p)[0] if p and g else None for p, g in zip(preds, gts)]

    def recall(thr):
        return sum(top is not None and any(iou_1d(top, gt) >= thr for gt in g)
                   for top, g in zip(tops, gts)) / len(gts)

    per_thr = {}
    for thr in DEFAULT_IOU_THRESHOLDS:
        aps = [average_precision_detection(p, g, thr) for p, g in zip(preds, gts)]
        aps = [ap for ap in aps if ap is not None]
        per_thr[thr] = sum(aps) / len(aps) if aps else 0.0
    ious = [0.0 if top is None else max(iou_1d(top, gt) for gt in g) for top, g in zip(tops, gts)]
    saliency = [by_qid[ann.qid].saliency for ann in annotations]
    levels = [ann.saliency_levels for ann in annotations]
    return MetricReport(r1_050=recall(0.5), r1_070=recall(0.7), map_050=per_thr[0.5],
                        map_075=per_thr[0.75], map_avg=sum(per_thr.values()) / len(per_thr),
                        hd_map=hd_map(saliency, levels), hit_at_1=hit_at_1(saliency, levels),
                        miou=sum(ious) / len(ious))
