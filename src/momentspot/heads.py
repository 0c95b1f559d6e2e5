"""Transformer encoder over fused clips, moment-query decoder, and the
prediction heads (2-way classifier, sigmoid center/width regressor, scaled
dot-product saliency)."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (Tensor, add, identity, layer_norm, linear, matmul, mul,
                       multi_head_attention, relu, reshape, sigmoid)


@dataclass
class Sublayer:
    """A post-norm residual sublayer, as in DETR: layer_norm(x + drop(y)) for
    the output y of its body run on x.

    An encoder layer is an (attn, ffn) pair of them, a decoder layer a
    (self_attn, cross, ffn) triple, and a fusion stage one.
    """
    body: object  # MhaParams, or the FFN's (w1, b1, w2, b2)
    ln_gamma: Tensor
    ln_beta: Tensor


@dataclass
class DecoderParams:
    query_embed: Tensor  # (num_queries, d) learnable
    layers: list         # of (self_attn, cross, ffn) Sublayer triples


@dataclass
class HeadParams:
    class_w: Tensor      # (d, 2); class 0 = foreground, 1 = background
    class_b: Tensor
    moment_layers: list  # [(w, b)] * 3, widths d -> d -> d -> 2
    saliency_w: Tensor   # (d, 1)


@dataclass
class PredictionSet:
    class_logits: Tensor  # (num_queries, 2); (B, num_queries, 2) for a batch
    moments: Tensor       # (num_queries, 2) sigmoid (center, width) in (0, 1); batched likewise
    saliency: Tensor      # (L,); (B, L) for a batch


def _residual(x, y, sub, drop):
    return layer_norm(add(x, drop(y)), sub.ln_gamma, sub.ln_beta)


def _ffn(x, sub, drop):
    w1, b1, w2, b2 = sub.body
    return linear(drop(relu(linear(x, w1, b1))), w2, b2)


def encode(x, layers, heads, drop=identity, clip_mask=None):
    """Post-norm self-attention + FFN stack over the clip stream (L, d) or (B, L, d)."""
    for attn, ffn in layers:
        x = _residual(x, multi_head_attention(x, x, x, attn.body, heads, key_mask=clip_mask),
                      attn, drop)
        x = _residual(x, _ffn(x, ffn, drop), ffn, drop)
    return x


def decode(memory, params, heads, drop=identity, clip_mask=None):
    """Moment-query decoder: targets start at zero, query embeddings join q/k.

    Returns the decoded query states (num_queries, d), or (B, num_queries, d)
    for a (B, L, d) memory. As in DETR, the zero start makes every value of
    layer 0's self-attention its value bias, so that layer's q/k weights and
    v.weight get zero gradient by design.
    """
    tgt = Tensor(np.zeros(memory.data.shape[:-2] + params.query_embed.data.shape,
                          dtype=memory.data.dtype))
    for self_attn, cross, ffn in params.layers:
        q = add(tgt, params.query_embed)
        tgt = _residual(tgt, multi_head_attention(q, q, tgt, self_attn.body, heads),
                        self_attn, drop)
        tgt = _residual(tgt, multi_head_attention(add(tgt, params.query_embed), memory, memory,
                                                  cross.body, heads, key_mask=clip_mask),
                        cross, drop)
        tgt = _residual(tgt, _ffn(tgt, ffn, drop), ffn, drop)
    return tgt


def predict_moments(decoded, head):
    """Class logits and sigmoid (center, width) spans from decoded query states."""
    logits = linear(decoded, head.class_w, head.class_b)
    x = decoded
    last = len(head.moment_layers) - 1
    for i, (w, b) in enumerate(head.moment_layers):
        x = linear(x, w, b)
        if i != last:
            x = relu(x)
    return logits, sigmoid(x)


def predict_saliency(memory, saliency_w):
    """Per-clip scores (memory_i . w) / sqrt(d): (L,), or (B, L) for a batch."""
    d = memory.data.shape[-1]
    scores = matmul(memory, saliency_w)
    return reshape(mul(scores, 1.0 / math.sqrt(d)), memory.data.shape[:-1])
