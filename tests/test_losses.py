import math

import numpy as np
import pytest

from momentspot.autodiff import ShapeError, Tensor, grad_check, mul, tsum
from momentspot.config import LossWeights
from momentspot.losses import (COMPONENT_KEYS, CompositionError, compose_total,
                               contrastive_rank_loss, gru_saliency, hard_negative_loss,
                               hard_positive_loss, highlight_distribution_loss,
                               largest_term, one_minus_cosine, rank_margin_loss,
                               sample_rank_pair, task_coupled_loss,
                               task_specific_loss)

from conftest import away_from_zero


def t(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


class TestCosineLoss:
    def test_identical_vectors_give_zero(self):
        v = t([1.0, 2.0, 3.0])
        assert one_minus_cosine(v, t([2.0, 4.0, 6.0])).item() == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_vectors_give_one(self):
        assert one_minus_cosine(t([1.0, 0.0]), t([0.0, 5.0])).item() == pytest.approx(1.0)

    def test_opposite_vectors_give_two(self):
        assert one_minus_cosine(t([1.0, -2.0]), t([-3.0, 6.0])).item() == pytest.approx(2.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(2,), (3, 2)], ids=["item", "batch"])
    def test_zero_norm_is_constant_one_with_zero_gradient(self, shape, dtype):
        a = Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)
        b = Tensor(np.arange(1.0, 1.0 + np.prod(shape), dtype=dtype).reshape(shape), requires_grad=True)
        out = one_minus_cosine(a, b)
        assert out.item() == 1.0 and out._parents == (a, b)
        out.backward()
        assert not a.grad.any() and not b.grad.any()
        # moving b keeps every row dead; a itself sits on the cosine's kink at 0
        assert grad_check(lambda y: one_minus_cosine(a, y), [b]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            one_minus_cosine(t([1.0, 2.0]), t([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("seed", range(10))
    def test_grad(self, seed):
        rng = np.random.default_rng(seed)
        a = t(away_from_zero(rng.normal(size=6)))
        b = t(away_from_zero(rng.normal(size=6)))
        assert grad_check(lambda x, y: one_minus_cosine(x, y), [a, b]) < 1e-6


class TestRankMargin:
    def test_satisfied_pair_is_zero(self):
        s = t([0.1, 0.9, 0.5])
        assert rank_margin_loss(s, 1, 0, margin=0.2).item() == 0.0

    def test_violated_pair(self):
        s = t([0.5, 0.4])
        # margin 0.2 + low 0.5 - high 0.4 = 0.3
        assert rank_margin_loss(s, 1, 0, margin=0.2).item() == pytest.approx(0.3)

    def test_index_count_must_match_the_items(self):
        with pytest.raises(ShapeError, match="rank pair indices do not match saliency"):
            rank_margin_loss(t([[0.5, 0.4], [0.1, 0.2]]), [1], [0], margin=0.2)

    def test_grad_flows_to_both_clips(self):
        s = t([0.5, 0.4])
        rank_margin_loss(s, 1, 0, margin=0.2).backward()
        np.testing.assert_allclose(s.grad, [1.0, -1.0])

    @pytest.mark.parametrize("seed", range(10))
    def test_grad_check(self, seed):
        rng = np.random.default_rng(seed)
        s = t(rng.normal(size=8))
        hi, lo = 2, 5
        if abs(0.2 + s.data[lo] - s.data[hi]) < 0.05:
            s.data[lo] += 0.2  # stay off the hinge kink
        assert grad_check(lambda x: rank_margin_loss(x, hi, lo, 0.2), [s]) < 1e-6


class TestSampleRankPair:
    def test_picks_extreme_levels(self):
        rng = np.random.default_rng(0)
        levels = [0, 2, 4, 4, 1]
        for _ in range(20):
            high, low = sample_rank_pair(levels, rng)
            assert levels[high] == 4
            assert levels[low] == 0

    def test_uniform_levels_give_none(self):
        rng = np.random.default_rng(0)
        assert sample_rank_pair([2, 2, 2], rng) is None

    def test_mask_restricts_choices(self):
        rng = np.random.default_rng(0)
        levels = [4, 0, 3, 1]
        mask = [False, False, True, True]
        for _ in range(20):
            high, low = sample_rank_pair(levels, rng, clip_mask=mask)
            assert (high, low) == (2, 3)

    def test_fully_masked_gives_none(self):
        rng = np.random.default_rng(0)
        assert sample_rank_pair([0, 4], rng, clip_mask=[False, False]) is None

    def test_integer_draw_is_the_stream_of_choice(self):
        for n in range(1, 101):
            pool = np.arange(3, 3 + 2 * n, 2)
            by_choice, by_index = np.random.default_rng(n), np.random.default_rng(n)
            for _ in range(20):
                assert by_choice.choice(pool) == pool[by_index.integers(len(pool))]
            assert by_choice.bit_generator.state == by_index.bit_generator.state

    def test_pairs_are_the_choice_draws(self):
        data, drawn, reference = (np.random.default_rng(s) for s in (4, 5, 5))
        for _ in range(200):
            levels = data.integers(0, 5, size=int(data.integers(2, 40)))
            pair = sample_rank_pair(levels, drawn)
            if pair is not None:
                assert pair == (
                    int(reference.choice(np.flatnonzero(levels == levels.max()))),
                    int(reference.choice(np.flatnonzero(levels == levels.min()))))


class TestContrastive:
    def test_frozen_example(self):
        # three clips, scores [1, 0, 0], levels [4, 0, 0], temperature 1:
        # every threshold r has the single positive clip 0, so each term is
        # log(e + 2) - 1 = log(1 + 2/e)
        s = t([1.0, 0.0, 0.0])
        loss = contrastive_rank_loss(s, [4, 0, 0], temperature=1.0)
        assert loss.item() == pytest.approx(math.log(1.0 + 2.0 / math.e), abs=1e-12)
        assert loss.item() == pytest.approx(0.5514447, abs=1e-6)

    def test_temperature_scales_scores(self):
        s = t([0.5, 0.0, 0.0])
        hot = contrastive_rank_loss(s, [4, 0, 0], temperature=0.5)
        ref = contrastive_rank_loss(t([1.0, 0.0, 0.0]), [4, 0, 0], temperature=1.0)
        assert hot.item() == pytest.approx(ref.item(), abs=1e-12)

    def test_averages_over_active_thresholds(self):
        s = t([2.0, 1.0, 0.0])
        levels = [4, 2, 0]
        loss = contrastive_rank_loss(s, levels, temperature=1.0)
        e = np.exp(s.data)
        per_r = []
        for r in range(1, 5):
            pos = np.asarray(levels) >= r
            if pos.any():
                per_r.append(np.log(e.sum()) - np.log(e[pos].sum()))
        assert loss.item() == pytest.approx(np.mean(per_r), abs=1e-12)
        assert len(per_r) == 4  # the level-4 clip keeps every threshold active

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(2,), (3, 2)], ids=["item", "batch"])
    def test_no_positives_gives_zero(self, shape, dtype):
        s = Tensor(np.arange(1.0, 1.0 + np.prod(shape), dtype=dtype).reshape(shape), requires_grad=True)
        levels = np.zeros(shape, dtype=int)
        loss = contrastive_rank_loss(s, levels, temperature=0.5)
        assert loss.item() == 0.0 and loss._parents == (s,)
        loss.backward()
        assert not s.grad.any()
        assert grad_check(lambda x: contrastive_rank_loss(x, levels, 0.5), [s]) == 0.0

    def test_mask_excludes_clips_from_both_sums(self):
        s = t([1.0, 0.0, 5.0])
        masked = contrastive_rank_loss(s, [4, 0, 4], 1.0, clip_mask=[True, True, False])
        ref = contrastive_rank_loss(t([1.0, 0.0]), [4, 0], 1.0)
        assert masked.item() == pytest.approx(ref.item(), abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_grad(self, seed):
        rng = np.random.default_rng(seed)
        s = t(rng.normal(size=6))
        levels = [int(x) for x in rng.integers(0, 5, size=6)]
        if max(levels) == 0:
            levels[0] = 4
        mask = rng.random(6) < 0.8
        mask[0] = True
        assert grad_check(lambda x: contrastive_rank_loss(x, levels, 0.5, clip_mask=mask), [s]) < 1e-6


class TestHardExamples:
    def test_negative_sum(self):
        s = t([0.5, -0.25, 0.75, 1.0])
        neg = [True, True, False, False]
        assert hard_negative_loss(s, neg, epoch=0).item() == pytest.approx(0.75)

    def test_positive_mse(self):
        s = t([0.5, 0.0, 1.0])
        gt = [1.0, 0.0, 1.0]
        pos = [True, False, True]
        assert hard_positive_loss(s, gt, pos, epoch=0).item() == pytest.approx(0.25 / 2)

    def test_epoch_scaling_is_linear(self):
        rng = np.random.default_rng(3)
        s = t(rng.normal(size=8))
        gt = rng.uniform(0, 1, size=8)
        pos = rng.random(8) < 0.5
        neg = ~pos
        if not pos.any():
            pos[0], neg[0] = True, False
        for j in (0, 1, 4, 9):
            scale = (j + 1)
            base_n = hard_negative_loss(s, neg, epoch=0).item()
            base_p = hard_positive_loss(s, gt, pos, epoch=0).item()
            assert hard_negative_loss(s, neg, epoch=j).item() == pytest.approx(scale * base_n, rel=1e-12)
            assert hard_positive_loss(s, gt, pos, epoch=j).item() == pytest.approx(scale * base_p, rel=1e-12)
            both = highlight_distribution_loss(s, gt, pos, neg, epoch=j).item()
            assert both == pytest.approx(scale * (base_n + base_p), rel=1e-12)

    def test_empty_masks_give_zero(self):
        s = t([1.0, 2.0])
        assert hard_negative_loss(s, [False, False], 3).item() == 0.0
        assert hard_positive_loss(s, [1.0, 1.0], [False, False], 3).item() == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_grads(self, seed):
        rng = np.random.default_rng(seed)
        s = t(away_from_zero(rng.normal(size=6)))
        gt = rng.uniform(0, 1, size=6)
        pos = np.array([True, False, True, False, True, False])
        assert grad_check(lambda x: hard_negative_loss(x, ~pos, 2), [s]) < 1e-7
        assert grad_check(lambda x: hard_positive_loss(x, gt, pos, 2), [s]) < 1e-7


class TestTaskLosses:
    def test_task_specific_perfect_match(self):
        s = t([0.0, 0.5, 1.0, 0.5])
        assert task_specific_loss(s, [0.0, 0.5, 1.0, 0.5]).item() == pytest.approx(0.0, abs=1e-12)

    def test_task_specific_masks_both_sides(self):
        s = t([1.0, 99.0])
        loss = task_specific_loss(s, [1.0, 0.0], clip_mask=[True, False])
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_zero_gt_flags(self):
        loss = task_specific_loss(t([1.0, 2.0]), [0.0, 0.0])
        assert loss.item() == 1.0


def make_gru(rng, dim):
    def w(shape):
        return Tensor(rng.normal(size=shape) * 0.4, requires_grad=True)

    gates = tuple((w((2 * dim, dim)), w((dim,))) for _ in range(3))  # update, reset, cand
    return (*gates, (w((dim, 1)), w((1,))))


class TestGru:
    def test_rank_1_features_rejected(self, rng):
        with pytest.raises(ShapeError, match=r"expects \(L, d\) or \(B, L, d\) features"):
            gru_saliency(Tensor(rng.normal(size=4)), make_gru(rng, 4))

    def test_a_gate_weight_of_the_wrong_shape_rejected(self, rng):
        gru = make_gru(rng, 4)
        gru = ((Tensor(rng.normal(size=(4, 4))), gru[0][1]), *gru[1:])
        with pytest.raises(ShapeError, match=r"GRU gate weights must be \(8, 4\)"):
            gru_saliency(Tensor(rng.normal(size=(6, 4))), gru)

    def test_output_shape(self, rng):
        gru = make_gru(rng, 4)
        feats = Tensor(rng.normal(size=(6, 4)))
        assert gru_saliency(feats, gru).shape == (6,)

    def test_first_step_matches_manual_recurrence(self, rng):
        dim = 3
        gru = make_gru(rng, dim)
        x = rng.normal(size=(1, dim))
        feats = Tensor(x)
        out = gru_saliency(feats, gru)
        (w_z, b_z), (w_r, b_r), (w_c, b_c), (w_o, b_o) = gru
        hx = np.concatenate([np.zeros((1, dim)), x], axis=1)
        z = 1 / (1 + np.exp(-(hx @ w_z.data + b_z.data)))
        r = 1 / (1 + np.exp(-(hx @ w_r.data + b_r.data)))
        cand = np.tanh(np.concatenate([r * np.zeros((1, dim)), x], 1) @ w_c.data + b_c.data)
        h = (1 - z) * 0 + z * cand
        expected = (h @ w_o.data + b_o.data)[0, 0]
        assert out.item() == pytest.approx(expected, abs=1e-12)

    def test_order_sensitivity(self, rng):
        gru = make_gru(rng, 4)
        feats = rng.normal(size=(5, 4))
        fwd = gru_saliency(Tensor(feats), gru).data
        rev = gru_saliency(Tensor(feats[::-1].copy()), gru).data
        assert not np.allclose(fwd, rev[::-1])

    @pytest.mark.parametrize("seed", range(5))
    def test_grad(self, seed):
        rng = np.random.default_rng(seed)
        dim = 3
        gru = make_gru(rng, dim)
        feats = Tensor(rng.normal(size=(4, dim)), requires_grad=True)
        gt = rng.uniform(0.1, 1.0, size=4)
        params = [feats] + [t for pair in gru for t in pair]

        def f(*_):
            return task_coupled_loss(feats, gru, gt)

        assert grad_check(f, params) < 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_grad_single_step(self, seed):
        # one clip: the loss would be a constant cosine of two scalars, so
        # check the scan itself under a random readout
        rng = np.random.default_rng(seed)
        gru = make_gru(rng, 3)
        feats = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        mix = Tensor(rng.normal(size=1))
        params = [feats] + [t for pair in gru for t in pair]

        def f(*_):
            return tsum(mul(gru_saliency(feats, gru), mix))

        assert grad_check(f, params) < 1e-6

    def test_task_coupled_uses_gru_scores(self, rng):
        gru = make_gru(rng, 4)
        feats = Tensor(rng.normal(size=(5, 4)))
        scores = gru_saliency(feats, gru).data
        loss = task_coupled_loss(feats, gru, scores.copy())
        assert loss.item() == pytest.approx(0.0, abs=1e-10)


def unit_components():
    return {k: Tensor(np.asarray(1.0)) for k in COMPONENT_KEYS}


class TestComposeTotal:
    def test_unit_component_worked_example(self):
        # all components 1 with stock weights:
        # highlight block: 1+1+10+1+1 = 14, retrieval block: 10+1+4 = 15,
        # alignment adds 0.01 -> 29.01
        total = compose_total(unit_components(), LossWeights())
        assert total.item() == pytest.approx(29.01, abs=1e-12)

    def test_matches_recomputation(self, rng):
        w = LossWeights()
        for _ in range(50):
            comps = {k: Tensor(rng.uniform(0, 3)) for k in COMPONENT_KEYS}
            total = compose_total(comps, w).item()
            v = {k: comps[k].item() for k in comps}
            expected = (w.saliency * (w.rank * v["rank"] + w.contrastive * v["contrastive"]
                                      + w.hard * v["hard"] + w.task_specific * v["task_specific"]
                                      + w.task_coupled * v["task_coupled"])
                        + w.l1 * v["l1"] + w.giou * v["giou"] + w.cls * v["cls"]
                        + w.alignment * v["alignment"])
            assert total == pytest.approx(expected, abs=1e-12)

    def test_missing_component_is_named(self):
        comps = unit_components()
        del comps["giou"]
        with pytest.raises(CompositionError) as err:
            compose_total(comps, LossWeights())
        assert "giou" in str(err.value)

    def test_non_finite_component_is_named(self):
        comps = unit_components()
        comps["hard"] = Tensor.__new__(Tensor)  # bypass constructor finite check
        comps["hard"].data = np.asarray(np.inf)
        comps["hard"].requires_grad = False
        comps["hard"].grad = None
        comps["hard"]._parents = ()
        comps["hard"]._backward_fn = None
        with pytest.raises(CompositionError) as err:
            compose_total(comps, LossWeights())
        assert "hard" in str(err.value)

    def test_largest_term_weighs_as_the_total_does(self):
        comps = unit_components()
        comps["hard"] = Tensor(np.asarray(2.0))  # weight 10: 20, above l1's 10 * 1
        comps["alignment"] = 500.0  # weight 0.01: 5
        assert largest_term(comps, LossWeights()) == "hard"
        # the saliency weight scales the highlight terms only
        assert largest_term(comps, LossWeights(saliency=0.1)) == "l1"
        comps["task_coupled"] = Tensor(np.asarray(3e38, dtype=np.float32))
        assert largest_term(comps, LossWeights(saliency=0.1)) == "task_coupled"

    def test_accepts_plain_floats(self):
        comps = {k: 1.0 for k in COMPONENT_KEYS}
        assert compose_total(comps, LossWeights()).item() == pytest.approx(29.01)

    def test_gradient_reaches_components(self):
        comps = {k: Tensor(np.asarray(1.0), requires_grad=True) for k in COMPONENT_KEYS}
        compose_total(comps, LossWeights()).backward()
        w = LossWeights()
        assert comps["l1"].grad == pytest.approx(w.l1)
        assert comps["hard"].grad == pytest.approx(w.saliency * w.hard)
        assert comps["alignment"].grad == pytest.approx(w.alignment)
