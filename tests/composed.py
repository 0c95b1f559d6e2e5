"""Reference versions of the fused kernels, built from small autodiff ops.

`autodiff.layer_norm`, `autodiff.multi_head_attention` and
`losses.gru_saliency` are each one graph node with a hand-written backward.
These compositions compute the same functions op by op, so reverse mode
derives their gradients; the equivalence tests compare the two.
"""
import math

import numpy as np

from momentspot.autodiff import (Tensor, add, as_tensor, concat, div, linear,
                                 mask_rows, matmul, mul, narrow, reshape,
                                 sigmoid, softmax_masked, sqrt, square, sub,
                                 tanh, tmean, transpose)


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
    qp = linear(q, params.wq, params.bq)
    kp = linear(k, params.wk, params.bk)
    vp = linear(v, params.wv, params.bv)
    outs = []
    for h in range(heads):
        qh = narrow(qp, 1, h * dh, dh)
        kh = narrow(kp, 1, h * dh, dh)
        vh = narrow(vp, 1, h * dh, dh)
        scores = mul(matmul(qh, transpose(kh)), scale)
        outs.append(matmul(softmax_masked(scores, key_mask=key_mask), vh))
    out = linear(concat(outs, axis=1), params.wo, params.bo)
    # a query row is dead when no key is kept, so either every row is dead or none is
    if key_mask is not None and not np.any(key_mask):
        out = mask_rows(out, np.zeros(q.data.shape[0], dtype=bool))
    return out


def gru_saliency(features, params):
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
