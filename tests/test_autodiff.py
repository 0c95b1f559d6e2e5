import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentspot import autodiff as ad
from momentspot.autodiff import (MhaParams, Tensor, absval, add, clip01, concat,
                                 conv1d, div, dropout, exp, grad_check,
                                 layer_norm, linear, log, log_softmax_rows,
                                 logsumexp, mask_rows, matmul, maximum, minimum,
                                 mul, multi_head_attention, narrow, relu, reshape,
                                 sigmoid, softmax_masked, sqrt, square, sub,
                                 tanh, transpose, tsum, unfold1d)

from conftest import away_from_zero

SEEDS = list(range(20))


def t(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


class TestGradCheckHarness:
    def test_sum_is_exact(self, rng):
        x = t(rng.normal(size=(3, 4)))
        assert grad_check(lambda a: tsum(a), [x]) < 1e-10

    def test_quadratic_matches_known_gradient(self):
        x = t([1.0, 2.0, 3.0])
        err = grad_check(lambda a: tsum(square(a)), [x], h=1e-5)
        assert err < 1e-8
        tsum(square(x)).backward()
        # fresh graph; analytic gradient of sum(x^2) is 2x
        x.zero_grad()
        out = tsum(square(x))
        out.backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0], rtol=1e-12)

    def test_non_finite_value_is_an_error(self):
        x = t([-1.0, 2.0])
        with np.errstate(invalid="ignore"), pytest.raises(ad.GradCheckError):
            grad_check(lambda a: tsum(log(a)), [x])


class TestElementwiseGrads:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_arithmetic_ops(self, seed):
        rng = np.random.default_rng(seed)
        a = t(rng.normal(size=(3, 4)))
        b = t(rng.normal(size=(3, 4)))
        c = t(away_from_zero(rng.normal(size=(3, 4))))
        row = t(rng.normal(size=(1, 4)))
        assert grad_check(lambda x, y: tsum(add(x, y)), [a, b]) < 1e-8
        assert grad_check(lambda x, y: tsum(mul(sub(x, y), add(x, y))), [a, b]) < 1e-7
        assert grad_check(lambda x, y: tsum(div(x, y)), [a, c]) < 1e-6
        assert grad_check(lambda x, r: tsum(square(add(x, r))), [a, row]) < 1e-7

    @pytest.mark.parametrize("seed", SEEDS)
    def test_unary_ops(self, seed):
        rng = np.random.default_rng(seed)
        x = t(away_from_zero(rng.normal(size=(4, 3))))
        pos = t(rng.uniform(0.5, 2.0, size=(4, 3)))
        assert grad_check(lambda a: tsum(relu(a)), [x]) < 1e-7
        assert grad_check(lambda a: tsum(absval(a)), [x]) < 1e-7
        assert grad_check(lambda a: tsum(exp(a)), [x]) < 1e-7
        assert grad_check(lambda a: tsum(log(a)), [pos]) < 1e-7
        assert grad_check(lambda a: tsum(sqrt(a)), [pos]) < 1e-7
        assert grad_check(lambda a: tsum(tanh(a)), [x]) < 1e-7
        assert grad_check(lambda a: tsum(sigmoid(a)), [x]) < 1e-7

    @pytest.mark.parametrize("seed", SEEDS)
    def test_min_max_clip(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 3))
        b = a + away_from_zero(rng.normal(size=(3, 3)))  # keep pairs separated
        ta, tb = t(a), t(b)
        assert grad_check(lambda x, y: tsum(maximum(x, y)), [ta, tb]) < 1e-7
        assert grad_check(lambda x, y: tsum(minimum(x, y)), [ta, tb]) < 1e-7
        inner = t(rng.uniform(0.1, 0.9, size=(4,)))
        assert grad_check(lambda x: tsum(square(clip01(x))), [inner]) < 1e-7


class TestStructuralGrads:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matmul_3x4_4x2(self, seed):
        rng = np.random.default_rng(seed)
        a = t(rng.normal(size=(3, 4)))
        b = t(rng.normal(size=(4, 2)))
        err = grad_check(lambda x, y: tsum(square(matmul(x, y))), [a, b], h=1e-5)
        assert err < 1e-6

    def test_matmul_shape_errors(self):
        with pytest.raises(ad.ShapeError):
            matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))
        with pytest.raises(ad.ShapeError):
            matmul(t(np.zeros(3)), t(np.zeros((3, 2))))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reshape_transpose_concat_narrow(self, seed):
        rng = np.random.default_rng(seed)
        a = t(rng.normal(size=(3, 4)))
        b = t(rng.normal(size=(2, 4)))

        def f(x, y):
            joined = concat([x, y], axis=0)          # (5, 4)
            part = narrow(joined, 0, 1, 3)           # (3, 4)
            return tsum(square(matmul(transpose(part), part)))

        assert grad_check(f, [a, b]) < 1e-6
        assert grad_check(lambda x: tsum(square(reshape(x, (12,)))), [a]) < 1e-7

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sums_and_means(self, seed):
        rng = np.random.default_rng(seed)
        a = t(rng.normal(size=(4, 5)))
        assert grad_check(lambda x: tsum(square(tsum(x, axis=0))), [a]) < 1e-7
        assert grad_check(lambda x: tsum(square(tsum(x, axis=1, keepdims=True))), [a]) < 1e-7
        assert grad_check(lambda x: tsum(square(x.mean(axis=1))), [a]) < 1e-7

    @pytest.mark.parametrize("seed", SEEDS)
    def test_unfold_and_conv(self, seed):
        rng = np.random.default_rng(seed)
        x = t(rng.normal(size=(6, 3)))
        w = t(rng.normal(size=(3, 3, 2)))
        b = t(rng.normal(size=(2,)))
        assert grad_check(lambda a: tsum(square(unfold1d(a, 3))), [x]) < 1e-7
        assert grad_check(lambda a, ww, bb: tsum(square(conv1d(a, ww, bb))), [x, w, b]) < 1e-6

    def test_conv1d_same_length_and_identity(self, rng):
        x = Tensor(rng.uniform(0.1, 1.0, size=(7, 4)))
        w = Tensor(np.eye(4)[None, :, :])  # kernel 1 identity
        out = conv1d(x, w, Tensor(np.zeros(4)))
        assert out.shape == x.shape
        np.testing.assert_allclose(out.data, x.data, atol=0)
        wide = conv1d(x, Tensor(rng.normal(size=(5, 4, 9))), Tensor(np.zeros(9)))
        assert wide.shape == (7, 9)


class TestMaskRows:
    @pytest.mark.parametrize("shape", [(6,), (6, 3)])
    @pytest.mark.parametrize("seed", range(5))
    def test_grad_and_equivalence_to_constant_multiply(self, shape, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape)
        mask = rng.random(shape[0]) < 0.6
        w = Tensor(rng.normal(size=shape))
        a, b = t(x), t(x)
        assert grad_check(lambda v: tsum(mul(mask_rows(v, mask), w)), [a]) < 1e-6
        keep = Tensor(mask.astype(float).reshape((-1,) + (1,) * (len(shape) - 1)))
        a.zero_grad()
        out = mask_rows(a, mask)
        ref = mul(b, keep)
        np.testing.assert_array_equal(out.data, ref.data)
        tsum(mul(out, w)).backward()
        tsum(mul(ref, w)).backward()
        np.testing.assert_array_equal(a.grad, b.grad)

    def test_none_keeps_every_row(self, rng):
        x = rng.normal(size=(4, 2))
        np.testing.assert_array_equal(mask_rows(Tensor(x)).data, x)

    def test_mask_length_must_match_rows(self, rng):
        with pytest.raises(ad.ShapeError):
            mask_rows(Tensor(rng.normal(size=(4, 2))), np.ones(3, dtype=bool))


class TestSoftmaxLogsumexp:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_softmax_grad(self, seed):
        rng = np.random.default_rng(seed)
        s = t(rng.normal(size=(3, 5)))
        w = Tensor(rng.normal(size=(3, 5)))
        mask = np.ones(5, dtype=bool)
        mask[rng.integers(0, 5)] = False

        def f(x):
            return tsum(mul(softmax_masked(x, key_mask=mask), w))

        assert grad_check(f, [s]) < 1e-6

    def test_rows_sum_to_one_and_masked_zero(self, rng):
        s = Tensor(rng.normal(size=(4, 6)))
        mask = np.array([True, False, True, True, False, True])
        out = softmax_masked(s, key_mask=mask)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)
        assert (out.data[:, ~mask] == 0.0).all()

    def test_fully_masked_rows_zero_and_flagged(self, rng):
        s = Tensor(rng.normal(size=(3, 4)) * 100)
        flags = {}
        out = softmax_masked(s, key_mask=np.zeros(4, dtype=bool), flags=flags)
        assert np.all(out.data == 0.0)
        assert np.isfinite(out.data).all()
        assert flags["all_masked_rows"].all()

    def test_masked_huge_scores_neither_overflow_nor_leak(self, rng):
        x = rng.normal(size=(3, 5))
        mask = np.array([True, False, True, True, False])
        x[:, ~mask] = 1e308
        with np.errstate(all="raise"):
            out = softmax_masked(Tensor(x), key_mask=mask)
        kept = np.exp(x[:, mask] - x[:, mask].max(axis=1, keepdims=True))
        np.testing.assert_allclose(out.data[:, mask], kept / kept.sum(axis=1, keepdims=True),
                                   atol=1e-15)
        assert (out.data[:, ~mask] == 0.0).all()

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_softmax_rows_always_stochastic(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        scores = Tensor(rng.normal(size=(rows, cols)) * rng.uniform(0.1, 50))
        mask = rng.random(cols) < 0.7
        out = softmax_masked(scores, key_mask=mask)
        sums = out.data.sum(axis=1)
        if mask.any():
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)
            assert (out.data >= 0).all()
        else:
            assert (sums == 0).all()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_logsumexp_grad_and_value(self, seed):
        rng = np.random.default_rng(seed)
        x = t(rng.normal(size=(7,)) * 3)
        inc = rng.random(7) < 0.6
        if not inc.any():
            inc[0] = True
        err = grad_check(lambda a: logsumexp(a, include=inc), [x])
        assert err < 1e-5
        expected = np.log(np.exp(x.data[inc]).sum())
        assert abs(logsumexp(x, include=inc).item() - expected) < 1e-10

    def test_logsumexp_empty_subset_is_error(self):
        with pytest.raises(ad.ShapeError):
            logsumexp(t(np.ones(3)), include=np.zeros(3, dtype=bool))

    def test_log_softmax_rows_matches_definition(self, rng):
        x = Tensor(rng.normal(size=(4, 3)) * 10)
        out = log_softmax_rows(x)
        ref = x.data - np.log(np.exp(x.data - x.data.max(1, keepdims=True)).sum(1, keepdims=True)) \
            - x.data.max(1, keepdims=True)
        np.testing.assert_allclose(out.data, ref, atol=1e-12)


class TestLayerNorm:
    def test_normalizes_rows(self, rng):
        x = Tensor(rng.normal(size=(5, 8)) * 4 + 2)
        out = layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_allclose(out.data.mean(axis=1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.data.var(axis=1), 1.0, atol=1e-3)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_grad(self, seed):
        rng = np.random.default_rng(seed)
        x = t(rng.normal(size=(3, 6)))
        g = t(rng.normal(size=(6,)))
        b = t(rng.normal(size=(6,)))
        w = Tensor(rng.normal(size=(3, 6)))

        def f(xx, gg, bb):
            return tsum(mul(layer_norm(xx, gg, bb), w))

        assert grad_check(f, [x, g, b]) < 1e-6


class TestDropout:
    def test_scaling_and_determinism(self):
        x = Tensor(np.ones((4, 5)))
        out1 = dropout(x, 0.5, rng=np.random.default_rng(9), train=True)
        out2 = dropout(x, 0.5, rng=np.random.default_rng(9), train=True)
        np.testing.assert_array_equal(out1.data, out2.data)
        kept = out1.data != 0.0
        assert np.all(out1.data[kept] == 2.0)

    def test_eval_mode_is_identity(self, rng):
        x = Tensor(rng.normal(size=(3, 3)))
        assert dropout(x, 0.5, train=False) is x
        assert dropout(x, 0.0, rng=rng, train=True) is x

    def test_needs_rng_in_train_mode(self):
        with pytest.raises(ValueError):
            dropout(Tensor(np.ones(3)), 0.5, train=True)

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_grad_through_fixed_mask(self, seed):
        rng = np.random.default_rng(seed)
        x = t(rng.normal(size=(4, 4)))

        def f(a):
            return tsum(square(dropout(a, 0.5, rng=np.random.default_rng(seed), train=True)))

        assert grad_check(f, [x]) < 1e-7


def random_mha_params(rng, d):
    def w():
        return t(rng.normal(size=(d, d)) * 0.3)

    def b():
        return t(rng.normal(size=(d,)) * 0.1)

    return MhaParams(wq=w(), bq=b(), wk=w(), bk=b(), wv=w(), bv=b(), wo=w(), bo=b())


def mha_param_list(params):
    """Every projection parameter except the key bias (see check_mha_grads)."""
    return [params.wq, params.bq, params.wk, params.wv, params.bv, params.wo, params.bo]


def check_mha_grads(f, inputs, params):
    assert grad_check(f, inputs + mha_param_list(params)) < 1e-6
    # a key bias shifts every score of a query row equally, which softmax
    # ignores: its true gradient is 0, so the floor turns the check into an
    # absolute one that still fails on any error above 1e-9
    assert grad_check(f, [params.bk], denom_floor=1e-3) < 1e-6
    assert np.abs(params.bk.grad).max() < 1e-12


class TestMultiHeadAttention:
    @pytest.mark.parametrize("seed", SEEDS[:10])
    def test_grad(self, seed):
        rng = np.random.default_rng(seed)
        d = 8
        params = random_mha_params(rng, d)
        q = t(rng.normal(size=(3, d)))
        k = t(rng.normal(size=(5, d)))
        v = t(rng.normal(size=(5, d)))
        mix = Tensor(rng.normal(size=(3, d)))
        mask = np.array([True, True, False, True, True])

        def f(*_):
            return tsum(mul(multi_head_attention(q, k, v, params, 2, key_mask=mask), mix))

        check_mha_grads(f, [q, k, v], params)

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_grad_self_attention_on_one_tensor(self, seed):
        rng = np.random.default_rng(seed)
        d = 8
        params = random_mha_params(rng, d)
        x = t(rng.normal(size=(4, d)))
        mix = Tensor(rng.normal(size=(4, d)))
        mask = np.array([True, False, True, True])

        def f(*_):
            return tsum(mul(multi_head_attention(x, x, x, params, 2, key_mask=mask), mix))

        check_mha_grads(f, [x], params)

    def test_queries_without_keys_get_zero_gradient(self, rng):
        d = 4
        params = random_mha_params(rng, d)
        q, k, v = t(rng.normal(size=(3, d))), t(rng.normal(size=(2, d))), t(rng.normal(size=(2, d)))
        inputs = [q, k, v] + mha_param_list(params) + [params.bk]
        mix = Tensor(rng.normal(size=(3, d)))

        def f(*_):
            out = multi_head_attention(q, k, v, params, 2, key_mask=np.zeros(2, dtype=bool))
            return tsum(mul(out, mix))

        assert grad_check(f, inputs) == 0.0
        f(*inputs).backward()
        for x in inputs:
            assert x.grad is not None and np.all(x.grad == 0.0)

    def test_single_key_gives_projected_value(self, rng):
        d = 6
        params = random_mha_params(rng, d)
        k = Tensor(rng.normal(size=(1, d)))
        expected = (k.data @ params.wv.data + params.bv.data) @ params.wo.data + params.bo.data
        for _ in range(3):
            q = Tensor(rng.normal(size=(4, d)) * 10)
            out = multi_head_attention(q, k, k, params, 2)
            np.testing.assert_allclose(out.data, np.repeat(expected, 4, axis=0), atol=1e-12)

    def test_zero_query_identity_projections_average_values(self, rng):
        d = 6
        params = random_mha_params(rng, d)
        params.wq = Tensor(np.eye(d))
        params.bq = Tensor(np.zeros(d))
        params.wk = Tensor(np.eye(d))
        params.bk = Tensor(np.zeros(d))
        q = Tensor(np.zeros((2, d)))
        k = Tensor(rng.normal(size=(5, d)))
        flags = {}
        out = multi_head_attention(q, k, k, params, 2, flags=flags)
        np.testing.assert_allclose(flags["attention_weights"][0], 0.2, atol=1e-12)
        vp = k.data @ params.wv.data + params.bv.data
        expected = vp.mean(axis=0) @ params.wo.data + params.bo.data
        np.testing.assert_allclose(out.data, np.repeat(expected[None], 2, axis=0), atol=1e-12)

    def test_weights_are_row_stochastic(self, rng):
        d = 8
        params = random_mha_params(rng, d)
        flags = {}
        mask = np.array([True, False, True, True])
        multi_head_attention(Tensor(rng.normal(size=(3, d))), Tensor(rng.normal(size=(4, d))),
                             Tensor(rng.normal(size=(4, d))), params, 2, key_mask=mask, flags=flags)
        w, = flags["attention_weights"]
        np.testing.assert_allclose(w.sum(axis=2), 1.0, atol=1e-9)
        assert (w[:, :, 1] == 0).all()

    def test_all_keys_masked_zero_rows_flagged(self, rng):
        d = 4
        params = random_mha_params(rng, d)
        flags = {}
        out = multi_head_attention(Tensor(rng.normal(size=(3, d))), Tensor(rng.normal(size=(2, d))),
                                   Tensor(rng.normal(size=(2, d))), params, 2,
                                   key_mask=np.zeros(2, dtype=bool), flags=flags)
        assert np.all(out.data == 0.0)
        assert flags["all_keys_masked"][0].all()

    def test_dim_not_divisible_by_heads(self, rng):
        params = random_mha_params(rng, 6)
        with pytest.raises(ad.ShapeError):
            multi_head_attention(Tensor(np.zeros((2, 6))), Tensor(np.zeros((2, 6))),
                                 Tensor(np.zeros((2, 6))), params, 4)

    @pytest.mark.parametrize("q_shape, k_shape, v_shape, mask", [
        ((2, 6, 1), (3, 6), (3, 6), None),   # rank-3 queries
        ((2, 6), (3, 4), (3, 4), None),      # key width differs from the query's
        ((2, 6), (3, 6), (4, 6), None),      # keys and values differ
        ((2, 6), (3, 6), (3, 6), [True]),    # mask length differs from the keys
    ])
    def test_bad_shapes_raise(self, rng, q_shape, k_shape, v_shape, mask):
        params = random_mha_params(rng, 6)
        with pytest.raises(ad.ShapeError):
            multi_head_attention(Tensor(np.zeros(q_shape)), Tensor(np.zeros(k_shape)),
                                 Tensor(np.zeros(v_shape)), params, 2, key_mask=mask)

    def test_projection_shape_mismatch_raises(self, rng):
        params = random_mha_params(rng, 6)
        params.wv = Tensor(np.zeros((6, 4)))
        with pytest.raises(ad.ShapeError):
            multi_head_attention(Tensor(np.zeros((2, 6))), Tensor(np.zeros((3, 6))),
                                 Tensor(np.zeros((3, 6))), params, 2)


class TestTensorBasics:
    def test_rank_limit(self):
        with pytest.raises(ad.ShapeError):
            Tensor(np.zeros((2, 2, 2, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Tensor([np.nan, 1.0])

    def test_backward_requires_scalar(self, rng):
        x = t(rng.normal(size=(3, 2)))
        with pytest.raises(ad.ShapeError):
            add(x, x).backward()

    def test_no_grad_blocks_graph(self, rng):
        x = t(rng.normal(size=(3,)))
        with ad.no_grad():
            y = tsum(square(x))
        assert not y.requires_grad
        assert y._parents == ()

    def test_gradient_accumulates_on_reuse(self):
        x = t([2.0])
        out = tsum(add(mul(x, 3.0), mul(x, 4.0)))
        out.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_detach_stops_gradients(self):
        x = t([3.0])
        y = tsum(mul(x.detach(), x))
        y.backward()
        np.testing.assert_allclose(x.grad, [3.0])
