from functools import partial

import numpy as np
import pytest

from momentspot.autodiff import Tensor, dropout, grad_check, tsum
from momentspot.config import ConfigError
from momentspot.refinement import (alignment_loss, clip_query_cosines,
                                   masked_mean_pool, project, refine)

from conftest import away_from_zero


def identity_projection(d):
    w = np.zeros((3, d, d))
    w[1] = np.eye(d)  # center tap copies the input row
    return [(Tensor(w), Tensor(np.zeros(d)))]


def random_projection(rng, d_in, d_out, layers=2, kernel=3):
    convs = []
    cin = d_in
    for _ in range(layers):
        convs.append((Tensor(rng.normal(size=(kernel, cin, d_out)) * 0.3, requires_grad=True),
                      Tensor(rng.normal(size=(d_out,)) * 0.1, requires_grad=True)))
        cin = d_out
    return convs


class TestProjection:
    def test_identity_kernel_with_relu_on_positive_input(self, rng):
        x = Tensor(rng.uniform(0.1, 1.0, size=(6, 4)))
        out = project(x, identity_projection(4))
        np.testing.assert_allclose(out.data, x.data, atol=1e-15)

    def test_relu_applied_after_every_conv(self, rng):
        x = Tensor(rng.uniform(-1.0, -0.1, size=(5, 4)))  # all negative
        out = project(x, identity_projection(4))
        assert np.all(out.data == 0.0)

    def test_output_width(self, rng):
        params = random_projection(rng, 10, 6)
        out = project(Tensor(rng.normal(size=(8, 10))), params)
        assert out.shape == (8, 6)

    def test_wrong_input_width_rejected(self, rng):
        params = random_projection(rng, 10, 6)
        with pytest.raises(ConfigError):
            project(Tensor(rng.normal(size=(8, 9))), params)

    def test_input_dropout_train_only(self, rng):
        params = identity_projection(4)
        x = Tensor(np.ones((4, 4)))
        eval_out = project(x, params, partial(dropout, p=0.5, train=False))
        np.testing.assert_array_equal(eval_out.data, x.data)
        train_out = project(x, params, partial(dropout, p=0.5, rng=np.random.default_rng(0),
                                               train=True))
        kept = train_out.data != 0.0
        assert np.all(train_out.data[kept] == 2.0)

    def test_masked_rows_cannot_leak_into_neighbors(self, rng):
        mask = np.array([True, True, False, True, True, True])
        params = random_projection(rng, 5, 5)
        x = rng.normal(size=(6, 5))
        base = project(Tensor(x), params, mask=mask)
        poked = x.copy()
        poked[2] = 1000.0  # only the masked row changes
        alt = project(Tensor(poked), params, mask=mask)
        np.testing.assert_allclose(alt.data, base.data, atol=1e-12)
        assert np.all(base.data[2] == 0.0)

    def test_grad(self, rng):
        params = random_projection(rng, 4, 4, layers=1)
        x = Tensor(away_from_zero(rng.normal(size=(5, 4))), requires_grad=True)

        def f(xx, w, b):
            return tsum(project(xx, params))

        assert grad_check(f, [x, *params[0]]) < 1e-6


class TestMaskedMeanPool:
    def test_plain_mean(self, rng):
        x = rng.normal(size=(5, 3))
        out = masked_mean_pool(Tensor(x))
        np.testing.assert_allclose(out.data, x.mean(axis=0, keepdims=True), atol=1e-15)

    def test_masked_mean(self, rng):
        x = rng.normal(size=(4, 3))
        mask = np.array([True, False, True, False])
        out = masked_mean_pool(Tensor(x), mask)
        np.testing.assert_allclose(out.data, x[mask].mean(axis=0, keepdims=True), atol=1e-15)

    def test_empty_mask_is_an_error(self, rng):
        with pytest.raises(ValueError):
            masked_mean_pool(Tensor(rng.normal(size=(3, 2))), np.zeros(3, dtype=bool))


class TestRefine:
    def make_conv(self, rng, d, n_max, grad=False):
        cin = d + n_max + 1 + d
        return (Tensor(rng.normal(size=(3, cin, d)) * 0.2, requires_grad=grad),
                Tensor(np.zeros(d), requires_grad=grad))

    def test_output_shape(self, rng):
        d, n_max = 6, 4
        conv = self.make_conv(rng, d, n_max)
        out = refine(Tensor(rng.normal(size=(7, d))), Tensor(rng.normal(size=(3, d))), conv)
        assert out.shape == (7, d)

    def test_correspondence_block_oracle(self, rng):
        # kernel-1 identity on the correspondence columns exposes v_bar @ t_bar^T
        d, n_max, n_tok, length = 4, 5, 3, 6
        cin = d + n_max + 1 + d
        w = np.zeros((1, cin, n_max))
        w[0, d:d + n_max, :] = np.eye(n_max)
        conv = (Tensor(w), Tensor(np.zeros(n_max)))
        v = rng.normal(size=(length, d))
        t = rng.normal(size=(n_tok, d))
        out = refine(Tensor(v), Tensor(t), conv)
        np.testing.assert_allclose(out.data[:, :n_tok], v @ t.T, atol=1e-12)
        np.testing.assert_allclose(out.data[:, n_tok:], 0.0, atol=1e-12)  # zero padding

    def test_pooled_blocks_oracle(self, rng):
        d, n_max, length = 3, 4, 4
        cin = d + n_max + 1 + d
        w = np.zeros((1, cin, 1 + d))
        w[0, d + n_max, 0] = 1.0                     # clip-query column
        w[0, d + n_max + 1:, 1:] = np.eye(d)         # pooled-row block
        conv = (Tensor(w), Tensor(np.zeros(1 + d)))
        v = rng.normal(size=(length, d))
        t = rng.normal(size=(3, d))
        mask = np.array([True, True, False])
        out = refine(Tensor(v), Tensor(t), conv, text_mask=mask)
        pooled = t[mask].mean(axis=0)
        np.testing.assert_allclose(out.data[:, 0], v @ pooled, atol=1e-12)
        np.testing.assert_allclose(out.data[:, 1:], np.tile(pooled, (length, 1)), atol=1e-12)

    def test_too_many_tokens_rejected(self, rng):
        conv = self.make_conv(rng, 4, 2)  # n_max comes from the conv's input width
        with pytest.raises(ConfigError, match="3 text tokens exceed n_max=2"):
            refine(Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(3, 4))), conv)

    def test_fully_masked_query_rejected(self, rng):
        conv = self.make_conv(rng, 4, 4)
        with pytest.raises(ValueError):
            refine(Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(2, 4))), conv,
                   text_mask=np.zeros(2, dtype=bool))

    def test_masked_text_token_has_zero_influence(self, rng):
        d, n_max = 4, 4
        conv = self.make_conv(rng, d, n_max)
        v = rng.normal(size=(6, d))
        t = rng.normal(size=(3, d))
        mask = np.array([True, False, True])
        base = refine(Tensor(v), Tensor(t), conv, text_mask=mask)
        poked = t.copy()
        poked[1] = -500.0
        alt = refine(Tensor(v), Tensor(poked), conv, text_mask=mask)
        np.testing.assert_allclose(alt.data, base.data, atol=1e-12)

    def test_masked_clip_rows_zeroed_and_isolated(self, rng):
        d, n_max = 4, 3
        conv = self.make_conv(rng, d, n_max)
        v = rng.normal(size=(6, d))
        t = rng.normal(size=(2, d))
        clip_mask = np.array([True, True, True, True, False, False])
        base = refine(Tensor(v), Tensor(t), conv, clip_mask=clip_mask)
        assert np.all(base.data[4:] == 0.0)
        poked = v.copy()
        poked[5] = 1e4
        alt = refine(Tensor(poked), Tensor(t), conv, clip_mask=clip_mask)
        np.testing.assert_allclose(alt.data, base.data, atol=1e-12)

    def test_grad(self, rng):
        d, n_max = 3, 3
        conv = self.make_conv(rng, d, n_max, grad=True)
        v = Tensor(rng.normal(size=(5, d)), requires_grad=True)
        t = Tensor(rng.normal(size=(2, d)), requires_grad=True)

        def f(vv, tt, w, b):
            return tsum(refine(vv, tt, conv))

        assert grad_check(f, [v, t, *conv]) < 1e-6


class TestAlignment:
    def test_cosines_formula(self, rng):
        t = rng.normal(size=(3, 4))
        v = rng.normal(size=(5, 4))
        got = clip_query_cosines(Tensor(t), Tensor(v)).data
        pooled = t.mean(axis=0)
        want = (v @ pooled) / (np.linalg.norm(v, axis=1) * np.linalg.norm(pooled))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_zero_rows_give_zero_cosine(self, rng):
        t = rng.normal(size=(2, 4))
        v = rng.normal(size=(4, 4))
        v[2] = 0.0
        got = clip_query_cosines(Tensor(t), Tensor(v)).data
        assert got[2] == 0.0

    def test_perfectly_aligned_is_zero(self, rng):
        t = np.abs(rng.normal(size=(2, 4))) + 0.1
        pooled = t.mean(axis=0)
        v = np.stack([pooled * 2.0, pooled * 0.5, pooled * 3.0])
        gt = clip_query_cosines(Tensor(t), Tensor(v)).data.copy()
        loss = alignment_loss(Tensor(t), Tensor(v), gt)
        assert loss.item() == pytest.approx(0.0, abs=1e-10)

    def test_anti_aligned_is_two(self, rng):
        t = rng.normal(size=(2, 4))
        v = rng.normal(size=(3, 4))
        cos = clip_query_cosines(Tensor(t), Tensor(v)).data
        loss = alignment_loss(Tensor(t), Tensor(v), -cos)
        assert loss.item() == pytest.approx(2.0, abs=1e-10)

    def test_orthogonal_is_one(self):
        t = np.array([[1.0, 0.0, 0.0, 0.0]])
        v = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        # predicted cosines are [1, 0]; gt [0, 1] is orthogonal to that
        loss = alignment_loss(Tensor(t), Tensor(v), np.array([0.0, 1.0]))
        assert loss.item() == pytest.approx(1.0, abs=1e-12)

    def test_zero_gt_flags(self, rng):
        loss = alignment_loss(Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(4, 3))),
                              np.zeros(4))
        assert loss.item() == 1.0

    def test_clip_mask_excludes_clips(self, rng):
        t = rng.normal(size=(2, 3))
        v = rng.normal(size=(4, 3))
        gt = rng.uniform(0, 1, size=4)
        mask = np.array([True, True, True, False])
        masked = alignment_loss(Tensor(t), Tensor(v), gt, clip_mask=mask)
        gt_zeroed = gt * mask
        v_zeroed = v.copy()
        v_zeroed[3] = 0.0
        ref = alignment_loss(Tensor(t), Tensor(v_zeroed), gt_zeroed)
        assert masked.item() == pytest.approx(ref.item(), abs=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            alignment_loss(Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(4, 3))),
                           np.zeros(5))

    def test_grad(self, rng):
        t = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        v = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        gt = rng.uniform(0.1, 1.0, size=4)
        assert grad_check(lambda a, b: alignment_loss(a, b, gt), [t, v]) < 1e-5
