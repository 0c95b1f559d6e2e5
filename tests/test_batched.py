"""Ops and losses on a padded (B, L, .) batch against the same calls per item.

Each batched call runs over items of different lengths, zero-padded to the
longest with (B, L) masks; its real rows, its loss (the mean of the items'
losses) and the gradients of every input must match the un-batched call on
each item alone to 1e-12 in float64. The products with a 2-D weight, which
run a (B, m, k) input as one (B*m, k) GEMM, are also checked in float32.
"""
import numpy as np
import pytest

from momentspot import autodiff as ad
from composed import gather
from conftest import pairs
from momentspot.autodiff import (Tensor, conv1d, grad_check,
                                 layer_norm, linear, logsumexp, mask_rows, mul,
                                 multi_head_attention, tsum)
from momentspot.config import LossWeights
from momentspot.losses import (contrastive_rank_loss, gru_saliency,
                               highlight_distribution_loss, one_minus_cosine,
                               rank_margin_loss, task_coupled_loss,
                               task_specific_loss)
from momentspot.matching import MatchResult, moment_loss
from momentspot.refinement import alignment_loss, project, refine

LENGTHS = (5, 2, 4)
TOL = 1e-12


def padded(rng, lengths, width):
    """Random items of the given lengths, zero-padded into one (B, L_max, width) array."""
    out = np.zeros((len(lengths), max(lengths), width))
    mask = np.zeros((len(lengths), max(lengths)), dtype=bool)
    for i, n in enumerate(lengths):
        out[i, :n] = rng.normal(size=(n, width))
        mask[i, :n] = True
    return out, mask


def param(rng, *shape, scale=0.4):
    return Tensor(rng.normal(size=shape) * scale, requires_grad=True)


def grads_of(out, leaves, readout):
    for leaf in leaves:
        leaf.zero_grad()
    target = out if readout is None else tsum(mul(out, Tensor(readout)))
    target.backward()
    return [np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad.copy() for leaf in leaves]


def assert_close(a, b):
    np.testing.assert_allclose(a, b, rtol=TOL, atol=TOL)


def check_rows(batched, per_item, arrays, mask, params):
    """batched(xs, mask) vs per_item(x_i, i) on the real rows, values and gradients.

    arrays are (B, L, .) inputs; gradients are compared for the real rows of
    each input and for every shared parameter (summed over items).
    """
    rng = np.random.default_rng(3)
    xs = [Tensor(a, requires_grad=True) for a in arrays]
    out = batched(xs, mask)
    readout = rng.normal(size=out.data.shape) * mask.reshape(mask.shape + (1,) * (out.data.ndim - 2))
    got = grads_of(out, xs + params, readout)
    want_params = [np.zeros_like(p.data) for p in params]
    for i, n in enumerate(mask.sum(axis=1)):
        items = [Tensor(a[i, :n], requires_grad=True) for a in arrays]
        one = per_item(items, i)
        assert_close(out.data[i, :n], one.data)
        grads = grads_of(one, items + params, readout[i, :n])
        for x_grad, g in zip(got[:len(xs)], grads[:len(items)]):
            assert_close(x_grad[i, :n], g)
        for k, g in enumerate(grads[len(items):]):
            want_params[k] += g
    for g, want in zip(got[len(xs):], want_params):
        assert_close(g, want)


class TestBatchedOps:
    def test_linear_weight_gradient_is_one_gemm(self, rng):
        x, mask = padded(rng, LENGTHS, 3)
        w, b = param(rng, 3, 4), param(rng, 4)
        check_rows(lambda xs, m: linear(xs[0], w, b), lambda xs, i: linear(xs[0], w, b),
                   [x], mask, [w, b])

    def test_per_item_matmul(self, rng):
        a = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 5, 2)), requires_grad=True)
        out = ad.matmul(a, b)
        for i in range(3):
            assert_close(out.data[i], a.data[i] @ b.data[i])
        assert grad_check(lambda x, y: tsum(ad.square(ad.matmul(x, ad.transpose(ad.transpose(y))))),
                          [a, b]) < 1e-7

    @pytest.mark.parametrize("a_shape, b_shape", [((2, 3, 4), (3, 4, 2)), ((3, 4), (2, 4, 2)),
                                                  ((2, 3, 4), (2, 5, 2))])
    def test_matmul_batch_shape_errors(self, a_shape, b_shape):
        with pytest.raises(ad.ShapeError):
            ad.matmul(Tensor(np.zeros(a_shape)), Tensor(np.zeros(b_shape)))

    def test_conv_windows_never_cross_items(self, rng):
        x, mask = padded(rng, LENGTHS, 3)
        w, b = param(rng, 3, 3, 4), param(rng, 4)
        check_rows(lambda xs, m: conv1d(mask_rows(xs[0], m), w, b),
                   lambda xs, i: conv1d(xs[0], w, b), [x], mask, [w, b])

    def test_mask_rows_with_batch_mask(self, rng):
        x, mask = padded(rng, LENGTHS, 2)
        x[~mask] = 7.0
        out = mask_rows(Tensor(x), mask)
        assert np.all(out.data[~mask] == 0.0)
        assert np.array_equal(out.data[mask], x[mask])
        with pytest.raises(ad.ShapeError):
            mask_rows(Tensor(x), mask[:, :-1])

    def test_layer_norm_rows(self, rng):
        x, mask = padded(rng, LENGTHS, 6)
        gamma, beta = param(rng, 6), param(rng, 6)
        check_rows(lambda xs, m: layer_norm(xs[0], gamma, beta),
                   lambda xs, i: layer_norm(xs[0], gamma, beta), [x], mask, [gamma, beta])

    def test_logsumexp_per_row_and_per_subset(self, rng):
        x = Tensor(rng.normal(size=(3, 6)) * 3, requires_grad=True)
        include = rng.random((3, 4, 6)) < 0.6
        include[..., 0] = True
        out = logsumexp(ad.reshape(x, (3, 1, 6)), include)
        assert out.shape == (3, 4)
        for i in range(3):
            for r in range(4):
                assert out.data[i, r] == pytest.approx(logsumexp(Tensor(x.data[i]), include[i, r]).item(),
                                                       abs=TOL)
        assert grad_check(lambda t: tsum(logsumexp(ad.reshape(t, (3, 1, 6)), include)), [x]) < 1e-6
        empty_row = np.ones((3, 6), dtype=bool)
        empty_row[1] = False
        with pytest.raises(ad.ShapeError):
            logsumexp(x, empty_row)

    def test_masked_exp_of_a_broadcast_view_is_contiguous(self, rng):
        # rows longer than 8 entries: numpy's pairwise row sum groups them by layout
        x = np.broadcast_to(rng.normal(size=(3, 1, 40)) * 3, (3, 4, 40))
        keep = rng.random((3, 4, 40)) < 0.6
        m, e, row_sum = ad._masked_exp(x, keep, None)
        assert e.shape == x.shape and e.flags.c_contiguous
        assert np.array_equal(e, np.where(keep, np.exp(x - m), 0.0))
        for got, dense in zip((m, e, row_sum), ad._masked_exp(np.ascontiguousarray(x), keep, None)):
            assert got.tobytes() == dense.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("key_mask", [None, [True, False, True, True, False], [False] * 5],
                             ids=["unmasked", "partial", "all_masked"])
    def test_attention_item_is_bitwise_the_one_item_batch(self, dtype, key_mask):
        rng = np.random.default_rng(5)
        d, heads = 8, 2
        inputs = [rng.normal(size=(3, d)), rng.normal(size=(5, d)), rng.normal(size=(5, d))]
        weights = [rng.normal(size=s) * 0.4 for s in [(d, d), (d,)] * 4]
        seed = rng.normal(size=(3, d)).astype(dtype)

        def run(lead):  # value and the 11 parent gradients, with the inputs under a leading axis
            leaves = [Tensor(a.reshape(lead + a.shape).astype(dtype), requires_grad=True)
                      for a in inputs] + [Tensor(w.astype(dtype), requires_grad=True) for w in weights]
            mask = None if key_mask is None else np.reshape(key_mask, lead + (5,))
            out = multi_head_attention(*leaves[:3], pairs(leaves[3:]), heads, key_mask=mask)
            out.backward(seed.reshape(lead + seed.shape))
            return [out.data] + [leaf.grad for leaf in leaves]

        for item, batch in zip(run(()), run((1,))):
            assert item.dtype == dtype and item.tobytes() == batch.tobytes()  # C order, all bits

    @pytest.mark.parametrize("self_attention", [False, True])
    def test_attention_with_batch_key_mask(self, rng, self_attention):
        d, heads = 4, 2
        leaves = [param(rng, *s) for s in [(d, d), (d,)] * 4]
        params = pairs(leaves)
        q, q_mask = padded(rng, LENGTHS, d)
        k, k_mask = padded(rng, (3, 1, 2), d)
        if self_attention:
            check_rows(lambda xs, m: multi_head_attention(xs[0], xs[0], xs[0], params, heads,
                                                          key_mask=m),
                       lambda xs, i: multi_head_attention(xs[0], xs[0], xs[0], params, heads),
                       [q], q_mask, leaves)
        else:
            kt = Tensor(k, requires_grad=True)
            out = multi_head_attention(Tensor(q), kt, kt, params, heads, key_mask=k_mask)
            for i, (n_q, n_k) in enumerate(zip(q_mask.sum(1), k_mask.sum(1))):
                one = multi_head_attention(Tensor(q[i, :n_q]), Tensor(k[i, :n_k]),
                                           Tensor(k[i, :n_k]), params, heads)
                assert_close(out.data[i, :n_q], one.data)
            first_item_keyless = k_mask.copy()
            first_item_keyless[0] = False
            keyless = multi_head_attention(Tensor(q), kt, kt, params, heads,
                                           key_mask=first_item_keyless)
            assert (keyless.data[0] == 0.0).all()
            assert np.array_equal(keyless.data[1:], out.data[1:])

    def test_gru_scan_padding_comes_last(self, rng):
        d = 3
        leaves = [param(rng, *s) for s in [(2 * d, d), (d,)] * 3 + [(d, 1), (1,)]]
        gru = pairs(leaves)
        x, mask = padded(rng, LENGTHS, d)
        check_rows(lambda xs, m: gru_saliency(xs[0], gru), lambda xs, i: gru_saliency(xs[0], gru),
                   [x], mask, leaves)

    def test_gather_rows_of_items(self, rng):
        t = Tensor(rng.normal(size=(2, 3, 2)), requires_grad=True)
        items, rows = np.array([0, 1, 1, 0]), np.array([2, 0, 0, 1])
        out = gather(t, (items, rows))
        assert_close(out.data, t.data[items, rows])
        assert grad_check(lambda x: tsum(ad.square(gather(x, (items, rows)))), [t]) < 1e-7
        flat = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        assert grad_check(lambda x: tsum(ad.square(gather(x, [3, 3, 1]))), [flat]) < 1e-7


F32_TOL = 1e-5
D = 16


def param32(rng, *shape):
    return Tensor((rng.normal(size=shape) * 0.4).astype(np.float32), requires_grad=True)


def assert_close32(got, want):
    """Float32 agreement to F32_TOL, relative to the largest entry of want."""
    assert got.dtype == want.dtype == np.float32
    np.testing.assert_allclose(got, want, rtol=F32_TOL, atol=F32_TOL * np.abs(want).max())


def check_items32(batched, per_item, arrays, params):
    """batched(xs) on float32 (B, ., .) inputs vs per_item(x_i) on each item, for
    the values, the gradients of each input and those of every shared parameter."""
    rng = np.random.default_rng(5)
    xs = [Tensor(a.astype(np.float32), requires_grad=True) for a in arrays]
    out = batched(xs)
    readout = rng.normal(size=out.data.shape).astype(np.float32)
    got = grads_of(out, xs + params, readout)
    want_params = [np.zeros_like(p.data) for p in params]
    for i in range(len(out.data)):
        items = [Tensor(x.data[i], requires_grad=True) for x in xs]
        one = per_item(items)
        assert_close32(out.data[i], one.data)
        grads = grads_of(one, items + params, readout[i])
        for x_grad, g in zip(got[:len(xs)], grads[:len(items)]):
            assert_close32(x_grad[i], g)
        for k, g in enumerate(grads[len(items):]):
            want_params[k] += g
    for g, want in zip(got[len(xs):], want_params):
        assert_close32(g, want)


class TestOneGemmPerWeight:
    """x @ w with a 2-D weight runs a (B, m, k) x as one GEMM; per item it is m rows
    of the same weight, so float32 values and gradients match per-item calls."""

    @pytest.mark.parametrize("n", [1, 2, D])  # saliency_w; class head and last moment layer; d
    def test_weight_widths(self, rng, n):
        w, b = param32(rng, D, n), param32(rng, n)
        check_items32(lambda xs: linear(xs[0], w, b), lambda xs: linear(xs[0], w, b),
                      [rng.normal(size=(3, 5, D))], [w, b])

    @pytest.mark.parametrize("view", ["narrow", "transpose", "transposed-output"])
    def test_non_contiguous_operands(self, rng, view):
        w = param32(rng, D, 2)
        if view == "narrow":  # columns 1..D of each (5, D + 2) item
            x = rng.normal(size=(3, 5, D + 2))
            f = lambda t: ad.matmul(ad.narrow(t, t.data.ndim - 1, 1, D), w)
        elif view == "transpose":  # rows of each (D, 5) item
            x = rng.normal(size=(3, D, 5))
            f = lambda t: ad.matmul(ad.transpose(t), w)
        else:  # the output gradient arrives as a transposed view
            x = rng.normal(size=(3, 5, D))
            f = lambda t: ad.transpose(ad.matmul(t, w))
        check_items32(lambda xs: f(xs[0]), lambda xs: f(xs[0]), [x], [w])

    def test_attention_projections(self, rng):
        flat = [param32(rng, *s) for s in [(D, D), (D,)] * 4]
        params = pairs(flat)
        # bk shifts each query's scores by a constant, so its gradient is zero up to
        # rounding noise, which has no scale to compare against
        leaves = flat[:3] + flat[4:]
        check_items32(lambda xs: multi_head_attention(xs[0], xs[1], xs[1], params, 2),
                      lambda xs: multi_head_attention(xs[0], xs[1], xs[1], params, 2),
                      [rng.normal(size=(3, 5, D)), rng.normal(size=(3, 4, D))], leaves)

    @pytest.mark.parametrize("n", [1, 2, D])
    def test_rank2_input_is_the_plain_product(self, rng, n):
        x = rng.normal(size=(5, D)).astype(np.float32)
        w = rng.normal(size=(D, n)).astype(np.float32)
        x_cols = x.T.copy().T  # the same values, column-major
        assert np.array_equal(ad._gemm(x, w), x @ w)
        assert np.array_equal(ad._gemm(x_cols, w), x_cols @ w)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w)
        out = ad.matmul(xt, wt)
        assert np.array_equal(out.data, x @ w)
        g = rng.normal(size=out.data.shape).astype(np.float32)
        out.backward(g)
        assert np.array_equal(xt.grad, g @ w.T)


class TestBatchedLosses:
    """Each loss on a (B, L) batch is the mean of the items' losses."""

    def setup_method(self):
        rng = np.random.default_rng(21)
        self.sal, self.mask = padded(rng, LENGTHS, 1)
        self.sal = self.sal[..., 0]
        self.levels = np.zeros(self.mask.shape, dtype=int)
        self.levels[self.mask] = rng.integers(0, 5, size=self.mask.sum())
        self.levels[1, :2] = [0, 0]  # an item without positives or a rank pair
        self.rows = [slice(0, n) for n in self.mask.sum(axis=1)]

    def check(self, batched, per_item):
        s = Tensor(self.sal, requires_grad=True)
        loss = batched(s)
        loss.backward()
        want, want_grad = 0.0, np.zeros_like(self.sal)
        for i, rows in enumerate(self.rows):
            one_s = Tensor(self.sal[i, rows], requires_grad=True)
            one = per_item(one_s, i, rows)
            if one.requires_grad:
                one.backward()
                want_grad[i, rows] = one_s.grad / len(self.rows)
            want += one.item() / len(self.rows)
        assert loss.item() == pytest.approx(want, rel=TOL, abs=TOL)
        assert_close(s.grad, want_grad)

    def test_rank_margin(self):
        high, low = np.array([0, -1, 3]), np.array([2, -1, 1])
        self.check(lambda s: rank_margin_loss(s, high, low, 0.7),
                   lambda s, i, r: (rank_margin_loss(s, high[i], low[i], 0.7) if high[i] >= 0
                                    else Tensor(0.0)))

    def test_contrastive(self):
        self.check(lambda s: contrastive_rank_loss(s, self.levels, 0.5, clip_mask=self.mask),
                   lambda s, i, r: contrastive_rank_loss(s, self.levels[i, r], 0.5))

    def test_hard_terms(self):
        pos = (self.levels > 1) & self.mask
        neg = ~pos & self.mask
        gt = self.levels / 4.0
        self.check(lambda s: highlight_distribution_loss(s, gt, pos, neg, 3),
                   lambda s, i, r: highlight_distribution_loss(s, gt[i, r], pos[i, r], neg[i, r], 3))

    def test_cosine_with_a_zero_norm_item(self):
        gt = self.levels / 4.0
        self.check(lambda s: task_specific_loss(s, gt, clip_mask=self.mask),
                   lambda s, i, r: task_specific_loss(s, gt[i, r]))
        with pytest.raises(ValueError):
            one_minus_cosine(Tensor(np.ones((2, 2, 2))), Tensor(np.ones((2, 2, 2))))

    def test_task_coupled_and_alignment(self, rng):
        d = 3
        gru = pairs([param(rng, *s) for s in [(2 * d, d), (d,)] * 3 + [(d, 1), (1,)]])
        feats, _ = padded(rng, LENGTHS, d)
        tokens, t_mask = padded(rng, (2, 3, 1), d)
        gt = self.levels / 4.0 + 0.1 * self.mask
        f = Tensor(feats, requires_grad=True)
        t = Tensor(tokens, requires_grad=True)
        coupled = task_coupled_loss(f, gru, gt, clip_mask=self.mask)
        align = alignment_loss(t, mask_rows(f, self.mask), gt, text_mask=t_mask, clip_mask=self.mask)
        (coupled + align).backward()
        want = 0.0
        want_f, want_t = np.zeros_like(feats), np.zeros_like(tokens)
        for i, (n, n_tok) in enumerate(zip(self.mask.sum(1), t_mask.sum(1))):
            one_f = Tensor(feats[i, :n], requires_grad=True)
            one_t = Tensor(tokens[i, :n_tok], requires_grad=True)
            one = task_coupled_loss(one_f, gru, gt[i, :n]) + alignment_loss(one_t, one_f, gt[i, :n])
            one.backward()
            want += one.item() / 3
            want_f[i, :n], want_t[i, :n_tok] = one_f.grad / 3, one_t.grad / 3
        assert (coupled + align).item() == pytest.approx(want, rel=TOL)
        assert_close(f.grad, want_f)
        assert_close(t.grad, want_t)

    def test_projection_and_refinement(self, rng):
        d = 4
        proj = [(param(rng, 3, 5, d), param(rng, d)), (param(rng, 3, d, d), param(rng, d))]
        conv = (param(rng, 3, 2 * d + 4 + 1, d), param(rng, d))
        video, v_mask = padded(rng, LENGTHS, 5)
        text, t_mask = padded(rng, (2, 4, 3), 5)
        out = refine(project(Tensor(video), proj, mask=v_mask), project(Tensor(text), proj, mask=t_mask),
                     conv, text_mask=t_mask, clip_mask=v_mask)
        for i, (n, n_tok) in enumerate(zip(v_mask.sum(1), t_mask.sum(1))):
            one = refine(project(Tensor(video[i, :n]), proj), project(Tensor(text[i, :n_tok]), proj),
                         conv)
            assert_close(out.data[i, :n], one.data)
        assert np.all(out.data[~v_mask] == 0.0)

    def test_moment_loss_pairs_of_all_items(self, rng):
        n_q, w = 3, LossWeights()
        logits = Tensor(rng.normal(size=(2, n_q, 2)), requires_grad=True)
        moments = Tensor(rng.uniform(0.2, 0.8, size=(2, n_q, 2)), requires_grad=True)
        gts = [rng.uniform(0.25, 0.75, size=(2, 2)), rng.uniform(0.25, 0.75, size=(1, 2))]
        matches = [MatchResult([2, 0], [0, 1]), MatchResult([1], [0])]
        out = moment_loss(logits, moments, gts, matches, w)
        sum(out.values(), Tensor(0.0)).backward()
        for key in out:
            want = sum(moment_loss(Tensor(logits.data[i]), Tensor(moments.data[i]), gts[i],
                                   matches[i], w)[key].item() for i in range(2)) / 2
            assert out[key].item() == pytest.approx(want, rel=TOL), key
        for i in range(2):
            lg = Tensor(logits.data[i], requires_grad=True)
            mo = Tensor(moments.data[i], requires_grad=True)
            sum(moment_loss(lg, mo, gts[i], matches[i], w).values(), Tensor(0.0)).backward()
            assert_close(logits.grad[i], lg.grad / 2)
            assert_close(moments.grad[i], mo.grad / 2)
