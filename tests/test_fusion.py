from functools import partial

import numpy as np
import pytest

from momentspot.autodiff import Tensor, dropout, grad_check, tsum
from momentspot.config import ConfigError
from momentspot.fusion import FusionParams, fuse
from momentspot.heads import Sublayer


def seeded_dropout(p, seed):
    """A train-mode dropout function at rate p drawing from a fresh seeded generator."""
    return partial(dropout, p=p, rng=np.random.default_rng(seed), train=True)


def make_mha(rng, d, grad=False):
    def w(shape):
        return Tensor(rng.normal(size=shape) * 0.3, requires_grad=grad)

    return tuple((w((d, d)), w((d,))) for _ in range(4))  # q, k, v, out


def make_stage(rng, d, grad=False):
    return Sublayer(make_mha(rng, d, grad=grad), Tensor(np.ones(d), requires_grad=grad),
                    Tensor(np.zeros(d), requires_grad=grad))


def make_params(rng, d, max_clips=10, n_max=6, mode="bidirectional", n_blocks=1,
                zero_pos=False, grad=False):
    stages = 3 if mode == "bidirectional" else 1
    blocks = [[make_stage(rng, d, grad=grad) for _ in range(stages)] for _ in range(n_blocks)]
    if zero_pos:
        pos_v = Tensor(np.zeros((max_clips, d)))
        pos_t = Tensor(np.zeros((n_max, d)))
    else:
        pos_v = Tensor(rng.normal(size=(max_clips, d)) * 0.5, requires_grad=grad)
        pos_t = Tensor(rng.normal(size=(n_max, d)) * 0.5, requires_grad=grad)
    return FusionParams(pos_video=pos_v, pos_text=pos_t, blocks=blocks)


class TestShapesAndErrors:
    @pytest.mark.parametrize("mode", ["bidirectional", "text_to_video"])
    def test_output_shape(self, rng, mode):
        d = 6
        params = make_params(rng, d, mode=mode)
        out = fuse(Tensor(rng.normal(size=(7, d))), Tensor(rng.normal(size=(4, d))),
                   params, heads=2)
        assert out.shape == (7, d)

    def test_too_many_clips(self, rng):
        params = make_params(rng, 4, max_clips=5)
        with pytest.raises(ConfigError):
            fuse(Tensor(rng.normal(size=(6, 4))), Tensor(rng.normal(size=(2, 4))), params, heads=2)

    def test_too_many_tokens(self, rng):
        params = make_params(rng, 4, n_max=3)
        with pytest.raises(ConfigError):
            fuse(Tensor(rng.normal(size=(4, 4))), Tensor(rng.normal(size=(4, 4))), params, heads=2)

    def test_wrong_block_arity(self, rng):
        params = make_params(rng, 4)
        params.blocks[0] = params.blocks[0][:2]  # neither bidirectional nor text_to_video
        with pytest.raises(ConfigError, match="2 stages"):
            fuse(Tensor(rng.normal(size=(4, 4))), Tensor(rng.normal(size=(2, 4))),
                 params, heads=2)

    def test_final_stage_output_is_nonnegative(self, rng):
        for mode in ("bidirectional", "text_to_video"):
            params = make_params(rng, 6, mode=mode)
            out = fuse(Tensor(rng.normal(size=(5, 6))), Tensor(rng.normal(size=(3, 6))),
                       params, heads=2)
            assert (out.data >= 0.0).all()


class TestTextInfluence:
    @pytest.mark.parametrize("mode", ["bidirectional", "text_to_video"])
    def test_zero_output_projection_blocks_text(self, rng, mode):
        d = 6
        params = make_params(rng, d, mode=mode)
        for block in params.blocks:
            for stage in block:
                *qkv, (_, bo) = stage.body
                stage.body = (*qkv, (Tensor(np.zeros((d, d))), bo))
        v = Tensor(rng.normal(size=(5, d)))
        base = fuse(v, Tensor(rng.normal(size=(3, d))), params, heads=2)
        alt = fuse(v, Tensor(rng.normal(size=(3, d)) * 37.0), params, heads=2)
        np.testing.assert_allclose(alt.data, base.data, atol=1e-9)

    def test_text_does_influence_normally(self, rng):
        d = 6
        params = make_params(rng, d)
        v = Tensor(rng.normal(size=(5, d)))
        base = fuse(v, Tensor(rng.normal(size=(3, d))), params, heads=2)
        alt = fuse(v, Tensor(rng.normal(size=(3, d))), params, heads=2)
        assert not np.allclose(alt.data, base.data, atol=1e-6)

    @pytest.mark.parametrize("mode", ["bidirectional", "text_to_video"])
    def test_masked_text_token_has_zero_influence(self, rng, mode):
        d = 6
        params = make_params(rng, d, mode=mode)
        v = Tensor(rng.normal(size=(5, d)))
        t = rng.normal(size=(4, d))
        mask = np.array([True, True, False, True])
        base = fuse(v, Tensor(t), params, heads=2, text_mask=mask)
        poked = t.copy()
        poked[2] = 250.0
        alt = fuse(v, Tensor(poked), params, heads=2, text_mask=mask)
        np.testing.assert_allclose(alt.data, base.data, atol=1e-9)

    def test_masked_clip_does_not_leak_into_other_rows(self, rng):
        d = 6
        params = make_params(rng, d)
        v = rng.normal(size=(5, d))
        clip_mask = np.array([True, True, True, False, True])
        t = Tensor(rng.normal(size=(3, d)))
        base = fuse(Tensor(v), t, params, heads=2, clip_mask=clip_mask)
        poked = v.copy()
        poked[3] = -99.0
        alt = fuse(Tensor(poked), t, params, heads=2, clip_mask=clip_mask)
        keep = clip_mask
        np.testing.assert_allclose(alt.data[keep], base.data[keep], atol=1e-9)


class TestPositionalEncoding:
    @pytest.mark.parametrize("mode", ["bidirectional", "text_to_video"])
    def test_token_permutation_invariance_without_positions(self, rng, mode):
        d = 6
        params = make_params(rng, d, mode=mode, zero_pos=True)
        v = Tensor(rng.normal(size=(5, d)))
        t = rng.normal(size=(4, d))
        perm = np.array([2, 0, 3, 1])
        base = fuse(v, Tensor(t), params, heads=2)
        shuffled = fuse(v, Tensor(t[perm].copy()), params, heads=2)
        np.testing.assert_allclose(shuffled.data, base.data, atol=1e-9)

    @pytest.mark.parametrize("mode", ["bidirectional", "text_to_video"])
    def test_positions_break_permutation_invariance(self, rng, mode):
        d = 6
        params = make_params(rng, d, mode=mode, zero_pos=False)
        v = Tensor(rng.normal(size=(5, d)))
        t = rng.normal(size=(4, d))
        perm = np.array([2, 0, 3, 1])
        base = fuse(v, Tensor(t), params, heads=2)
        shuffled = fuse(v, Tensor(t[perm].copy()), params, heads=2)
        assert not np.allclose(shuffled.data, base.data, atol=1e-6)

    def test_only_leading_position_rows_used(self, rng):
        d = 4
        params = make_params(rng, d, max_clips=8, n_max=6)
        v = Tensor(rng.normal(size=(3, d)))
        t = Tensor(rng.normal(size=(2, d)))
        base = fuse(v, t, params, heads=2)
        params.pos_video.data[5:] = 1e6  # rows beyond L must never be touched
        params.pos_text.data[4:] = 1e6
        alt = fuse(v, t, params, heads=2)
        np.testing.assert_allclose(alt.data, base.data, atol=0)


class TestFusionGrad:
    @pytest.mark.parametrize("mode", ["bidirectional", "text_to_video"])
    def test_grad(self, rng, mode):
        d = 4
        params = make_params(rng, d, max_clips=6, n_max=4, mode=mode, grad=True)
        v = Tensor(rng.normal(size=(4, d)), requires_grad=True)
        t = Tensor(rng.normal(size=(3, d)), requires_grad=True)
        mix = Tensor(rng.normal(size=(4, d)))
        stage = params.blocks[0][0]
        (wq, _), _, (wv, _), (wo, _) = stage.body
        checked = [v, t, params.pos_video, params.pos_text, wq, wv, wo, stage.ln_gamma]

        def f(*_):
            from momentspot.autodiff import mul
            return tsum(mul(fuse(v, t, params, heads=2), mix))

        assert grad_check(f, checked) < 1e-5

    def test_dropout_train_path_is_seeded(self, rng):
        d = 4
        params = make_params(rng, d, mode="text_to_video")
        v = Tensor(rng.normal(size=(4, d)))
        t = Tensor(rng.normal(size=(3, d)))
        a = fuse(v, t, params, heads=2, drop=seeded_dropout(0.3, 5))
        b = fuse(v, t, params, heads=2, drop=seeded_dropout(0.3, 5))
        np.testing.assert_array_equal(a.data, b.data)
        c = fuse(v, t, params, heads=2, drop=seeded_dropout(0.3, 6))
        assert not np.array_equal(a.data, c.data)
