"""Convolutional feature projection, query-aware clip refinement, and the
alignment loss tying refined clips to the query."""
from __future__ import annotations

import numpy as np

from .autodiff import (Tensor, _accumulate, _node, concat, conv1d, identity,
                       keep_mask, mask_rows, matmul, relu, transpose)
from .config import ConfigError
from .losses import one_minus_cosine


def project(x, layers, drop=identity, mask=None):
    """Stacked same-padding conv1d + ReLU mapping raw features (L, d_in) -> (L, d).

    layers holds each conv's (weight, bias) pair: a (kernel, C_in, C_out)
    weight and a (C_out,) bias. A padded (B, L, d_in) batch maps to (B, L, d) with a (B, L) mask. drop,
    the input dropout function, runs before the first conv. Masked rows are
    zeroed in the input and in every conv output, so padded tokens cannot
    leak into their neighbors through the kernel support, and an item's
    padding acts as the zero boundary of its convolution.
    """
    t = x if isinstance(x, Tensor) else Tensor(np.asarray(x))
    d_in = layers[0][0].data.shape[1]
    if t.data.ndim not in (2, 3) or t.data.shape[-1] != d_in:
        raise ConfigError(f"projection input shape {t.data.shape} does not match d_in={d_in}")
    t = mask_rows(drop(t), mask)
    for weight, bias in layers:
        t = mask_rows(relu(conv1d(t, weight, bias)), mask)
    return t


def _pool_weights(mask, shape, dtype):
    """(..., 1, N) weights of the mean over the unmasked rows of each (N, d) sequence."""
    keep = keep_mask(mask, shape)
    counts = keep.sum(axis=-1, keepdims=True)
    if not counts.all():
        raise ValueError("masked_mean_pool over an empty (fully masked) sequence")
    return (keep / counts).astype(dtype)[..., None, :]


def masked_mean_pool(t, mask=None):
    """Mean over the unmasked rows of (L, d), or of each item of (B, L, d), kept as (1, d) / (B, 1, d).

    One matmul node: masked rows are weighted 0, so they need not be zeroed.
    """
    return matmul(Tensor(_pool_weights(mask, t.data.shape[:-1], t.data.dtype)), t)


def refine(v_bar, t_bar, conv, text_mask=None, clip_mask=None):
    """Fuse per-clip query correspondence and the pooled query into each clip.

    Concatenates [v_bar | v_bar @ t_bar^T (zero-padded to n_max) | v_bar @ pooled^T
    | pooled row-broadcast] and projects back to width d with a same-padding conv
    of input width 2d + n_max + 1, given as its (weight, bias) pair. A padded
    batch is refined per item.
    """
    weight, bias = conv
    n_max = weight.data.shape[1] - 2 * v_bar.data.shape[-1] - 1
    n_tok = t_bar.data.shape[-2]
    if n_tok > n_max:
        raise ConfigError(f"{n_tok} text tokens exceed n_max={n_max}")
    corr = matmul(v_bar, transpose(mask_rows(t_bar, text_mask)))  # (..., L, N)
    pad = Tensor(np.zeros(corr.data.shape[:-1] + (n_max - n_tok,), dtype=v_bar.data.dtype))
    pooled = masked_mean_pool(t_bar, text_mask)          # (..., 1, d)
    clip_query = matmul(v_bar, transpose(pooled))        # (..., L, 1)
    ones = Tensor(np.ones(v_bar.data.shape[:-1] + (1,), dtype=v_bar.data.dtype))
    pooled_rows = matmul(ones, pooled)                   # (..., L, d)
    stacked = concat([v_bar, corr, pad, clip_query, pooled_rows], axis=-1)
    out = conv1d(mask_rows(stacked, clip_mask), weight, bias)
    return mask_rows(out, clip_mask)


def clip_query_cosines(t_bar, v_r, text_mask=None):
    """Cosine between the pooled query and every refined clip: (L,), or (B, L) for a batch.

    One node: the masked mean of t_bar is pooled in NumPy inside it. A
    zero-norm clip row (e.g. a masked clip zeroed upstream) gets cosine 0
    exactly: its norm is taken as 1, so sqrt never sees 0. A zero pooled
    query gives cosines 0 and passes no gradient to t_bar.
    """
    t, v = t_bar.data, v_r.data
    weights = _pool_weights(text_mask, t.shape[:-1], t.dtype)
    pooled = weights @ t                                      # (..., 1, d)
    dots = (v @ pooled.swapaxes(-1, -2))[..., 0]              # (..., L)
    sumsq = (v * v).sum(axis=-1)
    row_norms = np.sqrt(sumsq + (sumsq == 0.0))
    pooled_norm = np.sqrt((pooled * pooled).sum(axis=-1))    # (..., 1)
    denom = row_norms * pooled_norm
    live = denom >= 1e-30
    denom = np.maximum(denom, np.asarray(1e-30, dtype=t.dtype))
    out_data = dots / denom

    def backward(g):
        g_dots = g / denom
        g_denom = -g * dots / (denom * denom) * live
        g_rows = g_denom * pooled_norm / row_norms
        _accumulate(v_r, g_dots[..., None] * pooled + g_rows[..., None] * v)
        if t_bar.requires_grad:
            g_pooled_norm = (g_denom * row_norms).sum(axis=-1, keepdims=True)
            g_pooled = g_dots[..., None, :] @ v \
                + (g_pooled_norm / np.where(pooled_norm > 0.0, pooled_norm, 1.0))[..., None] * pooled
            g_pooled *= (pooled_norm > 0.0)[..., None]
            _accumulate(t_bar, weights.swapaxes(-1, -2) @ g_pooled)

    return _node(out_data, (t_bar, v_r), backward)


def alignment_loss(t_bar, v_r, gt_saliency, text_mask=None, clip_mask=None):
    """1 - cosine between (normalized) predicted and gt per-clip query alignment.

    gt_saliency holds the normalized (level/4) per-clip values. Masked clips
    are excluded from both vectors; a zero-norm side gives loss 1.
    A batch's loss is the mean of its items' losses.
    """
    return one_minus_cosine(clip_query_cosines(t_bar, v_r, text_mask=text_mask), gt_saliency,
                            clip_mask)
