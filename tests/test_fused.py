"""The fused kernels against the composed references in composed.py.

Each case compares the forward value and the gradient of every parent under
a random linear readout. Tolerances are fixed per dtype: 1e-12 relative in
float64, 1e-5 relative in float32 (summation order differs between the two
versions, so float32 cannot match bitwise).
"""
import numpy as np
import pytest

import composed
from momentspot.autodiff import (MhaParams, Tensor, layer_norm, mul,
                                 multi_head_attention, tsum)
from momentspot.losses import (GruParams, gru_saliency, masked_cosine_loss,
                               task_coupled_loss)

TOLERANCE = {np.float64: 1e-12, np.float32: 1e-5}
DTYPES = [np.float64, np.float32]


def value_and_grads(f, arrays, dtype):
    tensors = [Tensor(np.asarray(a, dtype=dtype), requires_grad=True) for a in arrays]
    out = f(*tensors)
    readout = np.random.default_rng(99).normal(size=out.data.shape).astype(dtype)
    tsum(mul(out, Tensor(readout))).backward()
    return out.data, [t.grad for t in tensors]


def rel_diff(a, b):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-30))


def assert_matches_oracle(fused, oracle, arrays, dtype):
    tol = TOLERANCE[dtype]
    out, grads = value_and_grads(fused, arrays, dtype)
    ref_out, ref_grads = value_and_grads(oracle, arrays, dtype)
    assert out.dtype == dtype and out.shape == ref_out.shape
    assert rel_diff(out, ref_out) <= tol
    for i, (g, ref) in enumerate(zip(grads, ref_grads)):
        assert g is not None and g.dtype == dtype, f"parent {i} has no {dtype.__name__} gradient"
        if ref is None:  # every path from this parent was cut (all keys masked)
            assert np.all(g == 0.0), f"parent {i}"
        else:
            assert rel_diff(g, ref) <= tol, f"parent {i}: {rel_diff(g, ref):.2e}"


def mha_arrays(rng, d, n_q, n_k):
    shapes = [(d, d), (d,)] * 4
    return ([rng.normal(size=(n_q, d)), rng.normal(size=(n_k, d)), rng.normal(size=(n_k, d))]
            + [rng.normal(size=s) * 0.3 for s in shapes])


MASKS = {
    "unmasked": None,
    "masked": np.array([True, False, True, True, False]),
    "all_masked": np.zeros(5, dtype=bool),
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("mask", list(MASKS), ids=list(MASKS))
@pytest.mark.parametrize("seed", range(3))
class TestAttentionMatchesComposed:
    def test_cross_attention(self, dtype, mask, seed):
        key_mask = MASKS[mask]
        assert_matches_oracle(
            lambda q, k, v, *p: multi_head_attention(q, k, v, MhaParams(*p), 2, key_mask=key_mask),
            lambda q, k, v, *p: composed.multi_head_attention(q, k, v, MhaParams(*p), 2, key_mask=key_mask),
            mha_arrays(np.random.default_rng(seed), 8, 3, 5), dtype)

    def test_self_attention_on_one_tensor(self, dtype, mask, seed):
        key_mask = MASKS[mask]
        arrays = mha_arrays(np.random.default_rng(seed), 8, 5, 5)
        del arrays[:2]  # x alone plays q, k and v
        assert_matches_oracle(
            lambda x, *p: multi_head_attention(x, x, x, MhaParams(*p), 4, key_mask=key_mask),
            lambda x, *p: composed.multi_head_attention(x, x, x, MhaParams(*p), 4, key_mask=key_mask),
            arrays, dtype)

    def test_shared_query_and_key(self, dtype, mask, seed):
        # the decoder's self-attention shape: q and k are one tensor, v another
        key_mask = MASKS[mask]
        arrays = mha_arrays(np.random.default_rng(seed), 8, 5, 5)
        del arrays[1]
        assert_matches_oracle(
            lambda q, v, *p: multi_head_attention(q, q, v, MhaParams(*p), 2, key_mask=key_mask),
            lambda q, v, *p: composed.multi_head_attention(q, q, v, MhaParams(*p), 2, key_mask=key_mask),
            arrays, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("seed", range(3))
class TestLayerNormMatchesComposed:
    def test_dense_rows(self, dtype, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(size=(5, 8)) * 3 + 1, rng.normal(size=8), rng.normal(size=8)]
        assert_matches_oracle(layer_norm, composed.layer_norm, arrays, dtype)

    def test_masked_zero_rows(self, dtype, seed):
        # masked clips reach a layer norm as all-zero rows: variance 0, scale 1/sqrt(eps)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(6, 8))
        x[[1, 4]] = 0.0
        arrays = [x, rng.normal(size=8), rng.normal(size=8)]
        assert_matches_oracle(layer_norm, composed.layer_norm, arrays, dtype)


def gru_arrays(rng, length, dim):
    shapes = [(2 * dim, dim), (dim,)] * 3 + [(dim, 1), (1,)]
    return [rng.normal(size=(length, dim))] + [rng.normal(size=s) * 0.4 for s in shapes]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("length", [1, 3, 9])
@pytest.mark.parametrize("seed", range(3))
class TestGruMatchesComposed:
    def test_scan(self, dtype, length, seed):
        assert_matches_oracle(
            lambda f, *p: gru_saliency(f, GruParams(*p)),
            lambda f, *p: composed.gru_saliency(f, GruParams(*p)),
            gru_arrays(np.random.default_rng(seed), length, 4), dtype)

    def test_scan_over_masked_zero_rows(self, dtype, length, seed):
        arrays = gru_arrays(np.random.default_rng(seed), length, 4)
        arrays[0][(length + 1) // 2:] = 0.0
        assert_matches_oracle(
            lambda f, *p: gru_saliency(f, GruParams(*p)),
            lambda f, *p: composed.gru_saliency(f, GruParams(*p)),
            arrays, dtype)


# float64 only: 1 - cosine cancels when the scan nearly matches gt, which
# amplifies float32 rounding of either version far past the kernels' own
# difference (the float32 scans themselves are compared above)
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("length", [1, 3, 9])
@pytest.mark.parametrize("seed", range(3))
def test_task_coupled_loss_matches_composed(seed, length, masked):
    rng = np.random.default_rng(seed)
    gt = rng.uniform(0.1, 1.0, size=length)
    clip_mask = None
    if masked:
        clip_mask = np.ones(length, dtype=bool)
        clip_mask[(length + 1) // 2:] = False
    assert_matches_oracle(
        lambda f, *p: task_coupled_loss(f, GruParams(*p), gt, clip_mask=clip_mask),
        lambda f, *p: masked_cosine_loss(composed.gru_saliency(f, GruParams(*p)), gt, clip_mask),
        gru_arrays(rng, length, 4), np.float64)
