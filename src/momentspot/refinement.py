"""Convolutional feature projection, query-aware clip refinement, and the
alignment loss tying refined clips to the query."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (Tensor, add, concat, conv1d, div, dropout, keep_mask,
                       mask_rows, matmul, maximum, mul, relu, reshape, sqrt,
                       square, transpose, tsum)
from .config import ConfigError
from .losses import masked_cosine_loss


@dataclass
class ConvLayer:
    weight: Tensor  # (kernel, C_in, C_out)
    bias: Tensor    # (C_out,)


@dataclass
class ProjectionParams:
    layers: list  # of ConvLayer


def project(x, params, input_dropout=0.0, train=False, rng=None, mask=None):
    """Stacked same-padding conv1d + ReLU mapping raw features (L, d_in) -> (L, d).

    A padded (B, L, d_in) batch maps to (B, L, d) with a (B, L) mask. Input
    dropout runs before the first conv at train time only. Masked rows are
    zeroed in the input and in every conv output, so padded tokens cannot
    leak into their neighbors through the kernel support, and an item's
    padding acts as the zero boundary of its convolution.
    """
    t = x if isinstance(x, Tensor) else Tensor(np.asarray(x))
    d_in = params.layers[0].weight.data.shape[1]
    if t.data.ndim not in (2, 3) or t.data.shape[-1] != d_in:
        raise ConfigError(f"projection input shape {t.data.shape} does not match d_in={d_in}")
    t = mask_rows(dropout(t, input_dropout, rng=rng, train=train), mask)
    for layer in params.layers:
        t = mask_rows(relu(conv1d(t, layer.weight, layer.bias)), mask)
    return t


def masked_mean_pool(t, mask=None):
    """Mean over the unmasked rows of (L, d), or of each item of (B, L, d), kept as (1, d) / (B, 1, d)."""
    keep = keep_mask(mask, t.data.shape[:-1])
    counts = keep.sum(axis=-1, keepdims=True)[..., None]  # (..., 1, 1)
    if not counts.all():
        raise ValueError("masked_mean_pool over an empty (fully masked) sequence")
    return mul(tsum(mask_rows(t, keep), axis=-2, keepdims=True), 1.0 / counts)


def refine(v_bar, t_bar, conv, n_max, text_mask=None, clip_mask=None):
    """Fuse per-clip query correspondence and the pooled query into each clip.

    Concatenates [v_bar | v_bar @ t_bar^T (zero-padded to n_max) | v_bar @ pooled^T
    | pooled row-broadcast] and projects back to width d with a same-padding conv.
    A padded batch, (B, L, d) clips and (B, N, d) tokens, is refined per item.
    """
    n_tok = t_bar.data.shape[-2]
    if n_tok > n_max:
        raise ConfigError(f"{n_tok} text tokens exceed n_max={n_max}")
    corr = matmul(v_bar, transpose(mask_rows(t_bar, text_mask)))  # (..., L, N)
    if n_max > n_tok:
        pad = Tensor(np.zeros(corr.data.shape[:-1] + (n_max - n_tok,), dtype=v_bar.data.dtype))
        corr = concat([corr, pad], axis=-1)
    pooled = masked_mean_pool(t_bar, text_mask)          # (..., 1, d)
    clip_query = matmul(v_bar, transpose(pooled))        # (..., L, 1)
    ones = Tensor(np.ones(v_bar.data.shape[:-1] + (1,), dtype=v_bar.data.dtype))
    pooled_rows = matmul(ones, pooled)                   # (..., L, d)
    stacked = concat([v_bar, corr, clip_query, pooled_rows], axis=-1)
    out = conv1d(mask_rows(stacked, clip_mask), conv.weight, conv.bias)
    return mask_rows(out, clip_mask)


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


def alignment_loss(t_bar, v_r, gt_saliency, text_mask=None, clip_mask=None, flags=None):
    """1 - cosine between (normalized) predicted and gt per-clip query alignment.

    gt_saliency holds the normalized (level/4) per-clip values. Masked clips
    are excluded from both vectors; a zero-norm side gives loss 1, flagged.
    A batch's loss is the mean of its items' losses.
    """
    pred = clip_query_cosines(t_bar, v_r, text_mask=text_mask)
    gt = np.asarray(gt_saliency, dtype=pred.data.dtype)
    if gt.shape != pred.data.shape:
        raise ValueError(f"gt saliency shape {gt.shape} does not match clip count {pred.data.shape}")
    return masked_cosine_loss(pred, gt, clip_mask, flags)
