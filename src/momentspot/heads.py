"""Transformer encoder over fused clips, moment-query decoder, and the
prediction heads (2-way classifier, sigmoid center/width regressor, scaled
dot-product saliency)."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (MhaParams, Tensor, add, dropout, layer_norm, linear,
                       matmul, mul, multi_head_attention, relu, reshape, sigmoid)


@dataclass
class EncoderLayerParams:
    attn: MhaParams
    ln1_gamma: Tensor
    ln1_beta: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor


@dataclass
class DecoderLayerParams:
    self_attn: MhaParams
    ln1_gamma: Tensor
    ln1_beta: Tensor
    cross_attn: MhaParams
    ln2_gamma: Tensor
    ln2_beta: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor
    ln3_gamma: Tensor
    ln3_beta: Tensor


@dataclass
class DecoderParams:
    query_embed: Tensor  # (num_queries, d) learnable
    layers: list         # of DecoderLayerParams


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


def _ffn(x, layer, drop_p, train, rng):
    hidden = dropout(relu(linear(x, layer.ffn_w1, layer.ffn_b1)), drop_p, rng=rng, train=train)
    return linear(hidden, layer.ffn_w2, layer.ffn_b2)


def encode(x, layers, heads, drop_p=0.0, clip_mask=None, train=False, rng=None, flags=None):
    """Post-norm self-attention + FFN stack over the clip stream (L, d) or (B, L, d)."""
    for layer in layers:
        attended = multi_head_attention(x, x, x, layer.attn, heads,
                                        key_mask=clip_mask, flags=flags)
        x = layer_norm(add(x, dropout(attended, drop_p, rng=rng, train=train)),
                       layer.ln1_gamma, layer.ln1_beta)
        x = layer_norm(add(x, dropout(_ffn(x, layer, drop_p, train, rng), drop_p, rng=rng, train=train)),
                       layer.ln2_gamma, layer.ln2_beta)
    return x


def decode(memory, params, heads, drop_p=0.0, clip_mask=None, train=False, rng=None, flags=None):
    """Moment-query decoder: targets start at zero, query embeddings join q/k.

    Returns the decoded query states (num_queries, d), or (B, num_queries, d)
    for a (B, L, d) memory.
    """
    tgt = Tensor(np.zeros(memory.data.shape[:-2] + params.query_embed.data.shape,
                          dtype=memory.data.dtype))
    for layer in params.layers:
        q = add(tgt, params.query_embed)
        attended = multi_head_attention(q, q, tgt, layer.self_attn, heads, flags=flags)
        tgt = layer_norm(add(tgt, dropout(attended, drop_p, rng=rng, train=train)),
                         layer.ln1_gamma, layer.ln1_beta)
        cross = multi_head_attention(add(tgt, params.query_embed), memory, memory,
                                     layer.cross_attn, heads, key_mask=clip_mask, flags=flags)
        tgt = layer_norm(add(tgt, dropout(cross, drop_p, rng=rng, train=train)),
                         layer.ln2_gamma, layer.ln2_beta)
        tgt = layer_norm(add(tgt, dropout(_ffn(tgt, layer, drop_p, train, rng), drop_p, rng=rng, train=train)),
                         layer.ln3_gamma, layer.ln3_beta)
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
