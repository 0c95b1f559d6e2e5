import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from composed import giou_1d, giou_spans, span_from_cw
from momentspot.autodiff import Tensor, grad_check
from momentspot.config import LossWeights
from momentspot.matching import (WIDTH_FLOOR, MatchResult, hungarian_match,
                                 match_cost_matrix, moment_loss)


def brute_force_min_cost(cost):
    """Exhaustive minimum assignment cost over all prediction permutations."""
    n_pred, n_gt = cost.shape
    best = np.inf
    for perm in itertools.permutations(range(n_pred), n_gt):
        best = min(best, sum(cost[p, g] for g, p in enumerate(perm)))
    return best


class TestSpanFromCw:
    def test_plain(self):
        assert span_from_cw([0.5, 0.4]) == [pytest.approx(0.3), pytest.approx(0.7)]

    def test_clipped_to_unit_interval(self):
        s, e = span_from_cw([0.05, 0.5])
        assert s == 0.0 and e == pytest.approx(0.3)
        s, e = span_from_cw([1.2, 0.2])
        assert s == 1.0 and e == 1.0

    def test_width_floor(self):
        s, e = span_from_cw([0.5, 0.0])
        assert e - s == pytest.approx(WIDTH_FLOOR)


class TestCostMatrix:
    def test_formula(self, rng):
        w = LossWeights()
        preds = rng.uniform(0.1, 0.9, size=(3, 2))
        gts = rng.uniform(0.1, 0.9, size=(2, 2))
        fg = rng.uniform(0, 1, size=3)
        cost = match_cost_matrix(preds, fg, gts, w)
        assert cost.shape == (3, 2)
        i, j = 1, 0
        l1 = abs(preds[i, 0] - gts[j, 0]) + abs(preds[i, 1] - gts[j, 1])
        g = giou_1d(span_from_cw(preds[i]), span_from_cw(gts[j]))
        assert cost[i, j] == pytest.approx(w.l1 * l1 + w.giou * (1 - g) + w.cls * (-fg[i]))

    def test_identical_moment_and_confident_pred_is_cheapest(self):
        w = LossWeights()
        preds = np.array([[0.5, 0.2], [0.2, 0.1]])
        gts = np.array([[0.5, 0.2]])
        cost = match_cost_matrix(preds, np.array([0.99, 0.01]), gts, w)
        assert cost[0, 0] < cost[1, 0]


def loop_cost_matrix(pred_moments, fg_probs, gt_moments, weights):
    """The pair-by-pair cost matrix: span_from_cw and giou_1d per (pred, gt) pair."""
    cost = np.zeros((len(pred_moments), len(gt_moments)))
    for i, p in enumerate(pred_moments):
        for j, g in enumerate(gt_moments):
            l1 = abs(p[0] - g[0]) + abs(p[1] - g[1])
            cost[i, j] = (weights.l1 * l1
                          + weights.giou * (1.0 - giou_1d(span_from_cw(p), span_from_cw(g)))
                          + weights.cls * (-fg_probs[i]))
    return cost


# (center, width) rows whose spans touch, nest, coincide, clip at 0 or 1,
# collapse to a point at 1, or have widths under WIDTH_FLOOR
BOUNDARY_MOMENTS = np.array([
    [0.2, 0.2], [0.4, 0.2], [0.3, 0.4], [0.3, 0.1], [0.2, 0.2], [0.05, 0.3], [0.95, 0.3],
    [1.2, 0.2], [-0.1, 0.1], [0.5, 0.0], [0.5, 5e-5], [0.5, WIDTH_FLOOR], [0.5 + 5e-5, 1e-5],
])


class TestVectorizedCostMatrix:
    def assert_bitwise(self, preds, fg, gts):
        w = LossWeights()
        got = match_cost_matrix(preds, fg, gts, w)
        want = loop_cost_matrix(preds, fg, gts, w)
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        got_match = hungarian_match(preds, fg, gts, w)
        rows, cols = linear_sum_assignment(want)
        order = np.argsort(cols)
        assert got_match.pred_indices == rows[order].tolist()
        assert got_match.gt_indices == cols[order].tolist()

    def test_random_spans(self, rng):
        for _ in range(200):
            n_gt = int(rng.integers(1, 5))
            n_pred = int(rng.integers(n_gt, 9))
            preds = np.column_stack([rng.uniform(-0.1, 1.1, size=n_pred), rng.uniform(0, 0.7, size=n_pred)])
            gts = np.column_stack([rng.uniform(0.1, 0.9, size=n_gt), rng.uniform(0.05, 0.6, size=n_gt)])
            self.assert_bitwise(preds, rng.uniform(0, 1, size=n_pred), gts)

    def test_boundary_spans(self, rng):
        fg = rng.uniform(0, 1, size=len(BOUNDARY_MOMENTS))
        self.assert_bitwise(BOUNDARY_MOMENTS, fg, BOUNDARY_MOMENTS)
        self.assert_bitwise(BOUNDARY_MOMENTS, fg, BOUNDARY_MOMENTS[:4])


class TestHungarian:
    def test_empty_gt(self):
        got = hungarian_match(np.zeros((3, 2)), np.zeros(3), np.zeros((0, 2)), LossWeights())
        assert got.pred_indices == [] and got.gt_indices == []

    def test_obvious_assignment(self):
        w = LossWeights()
        preds = np.array([[0.2, 0.1], [0.7, 0.2], [0.4, 0.3]])
        gts = np.array([[0.7, 0.2], [0.2, 0.1]])
        match = hungarian_match(preds, np.full(3, 0.5), gts, w)
        assert match.gt_indices == [0, 1]  # ordered by gt index
        assert match.pred_indices == [1, 0]

    def test_matches_brute_force_on_random_instances(self, rng):
        w = LossWeights()
        for _ in range(200):
            n_gt = int(rng.integers(1, 5))
            n_pred = int(rng.integers(n_gt, 7))
            preds = rng.uniform(0, 1, size=(n_pred, 2))
            gts = rng.uniform(0, 1, size=(n_gt, 2))
            fg = rng.uniform(0, 1, size=n_pred)
            cost = match_cost_matrix(preds, fg, gts, w)
            match = hungarian_match(preds, fg, gts, w)
            assert len(match.pred_indices) == n_gt
            assert sorted(match.gt_indices) == list(range(n_gt))
            got_cost = sum(cost[p, g] for p, g in zip(match.pred_indices, match.gt_indices))
            assert got_cost == pytest.approx(brute_force_min_cost(cost), abs=1e-12)

    def test_each_prediction_used_once(self, rng):
        w = LossWeights()
        preds = rng.uniform(0, 1, size=(4, 2))
        gts = np.tile(preds[0], (3, 1))  # three gts all closest to pred 0
        match = hungarian_match(preds, np.full(4, 0.5), gts, w)
        assert len(set(match.pred_indices)) == 3


class TestGiouSpans:
    def test_matches_scalar_reference(self, rng):
        starts_a = rng.uniform(0, 0.5, size=(5, 1))
        ends_a = starts_a + rng.uniform(0.05, 0.5, size=(5, 1))
        starts_b = rng.uniform(0, 0.5, size=(5, 1))
        ends_b = starts_b + rng.uniform(0.05, 0.5, size=(5, 1))
        out = giou_spans(Tensor(starts_a), Tensor(ends_a), Tensor(starts_b), Tensor(ends_b))
        for i in range(5):
            want = giou_1d([starts_a[i, 0], ends_a[i, 0]], [starts_b[i, 0], ends_b[i, 0]])
            assert out.data[i, 0] == pytest.approx(want, abs=1e-12)


class TestMomentLoss:
    def stable_logits(self, n_q):
        return Tensor(np.zeros((n_q, 2)), requires_grad=True)

    def test_l1_worked_example(self):
        # pred (0.5, 0.2) vs gt (0.5, 0.4): |dc| + |dw| = 0.2 over one pair
        moments = Tensor(np.array([[0.5, 0.2], [0.1, 0.1]]), requires_grad=True)
        match = MatchResult(pred_indices=[0], gt_indices=[0])
        out = moment_loss(self.stable_logits(2), moments, np.array([[0.5, 0.4]]),
                          match, LossWeights())
        assert out["l1"].item() == pytest.approx(0.2, abs=1e-12)

    def test_giou_perfect_match_is_zero(self):
        moments = Tensor(np.array([[0.5, 0.4]]), requires_grad=True)
        match = MatchResult([0], [0])
        out = moment_loss(self.stable_logits(1), moments, np.array([[0.5, 0.4]]),
                          match, LossWeights())
        assert out["giou"].item() == pytest.approx(0.0, abs=1e-12)

    def test_l1_averages_over_pairs(self):
        moments = Tensor(np.array([[0.5, 0.2], [0.3, 0.1]]), requires_grad=True)
        gts = np.array([[0.5, 0.4], [0.3, 0.3]])
        match = MatchResult([0, 1], [0, 1])
        out = moment_loss(self.stable_logits(2), moments, gts, match, LossWeights())
        assert out["l1"].item() == pytest.approx((0.2 + 0.2) / 2, abs=1e-12)

    def test_cls_uniform_logits(self):
        # logits all zero: -log p = log 2 everywhere; weights 1 for 2 matched,
        # 0.1 for 2 background queries
        moments = Tensor(np.array([[0.5, 0.2]] * 4), requires_grad=True)
        match = MatchResult([0, 2], [0, 1])
        out = moment_loss(self.stable_logits(4), moments,
                          np.array([[0.5, 0.2], [0.4, 0.2]]), match, LossWeights())
        assert out["cls"].item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_cls_weight_normalization(self):
        # one matched (weight 1), one background (weight 0.1): denominator 1.1
        logits = Tensor(np.array([[2.0, 0.0], [0.5, -0.5]]), requires_grad=True)
        moments = Tensor(np.array([[0.5, 0.2], [0.5, 0.2]]), requires_grad=True)
        match = MatchResult([0], [0])
        out = moment_loss(logits, moments, np.array([[0.5, 0.2]]), match, LossWeights())
        p = np.exp(logits.data) / np.exp(logits.data).sum(axis=1, keepdims=True)
        want = (1.0 * -np.log(p[0, 0]) + 0.1 * -np.log(p[1, 1])) / 1.1
        assert out["cls"].item() == pytest.approx(want, abs=1e-12)

    def test_no_match_keeps_cls_only(self):
        logits = Tensor(np.array([[0.3, -0.3]]), requires_grad=True)
        moments = Tensor(np.array([[0.5, 0.2]]), requires_grad=True)
        out = moment_loss(logits, moments, np.zeros((0, 2)), MatchResult([], []), LossWeights())
        assert out["l1"].item() == 0.0
        assert out["giou"].item() == 0.0
        p = np.exp(logits.data) / np.exp(logits.data).sum(axis=1, keepdims=True)
        assert out["cls"].item() == pytest.approx(-np.log(p[0, 1]), abs=1e-12)

    def test_grads(self, rng):
        n_q = 3
        logits = Tensor(rng.normal(size=(n_q, 2)), requires_grad=True)
        moments = Tensor(rng.uniform(0.2, 0.8, size=(n_q, 2)), requires_grad=True)
        gts = rng.uniform(0.25, 0.75, size=(2, 2))
        match = MatchResult([2, 0], [0, 1])
        w = LossWeights()

        def f(lg, mo):
            out = moment_loss(lg, mo, gts, match, w)
            return out["l1"] + out["giou"] + out["cls"]

        assert grad_check(f, [logits, moments]) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_cls_graph_size_independent_of_query_count(self, dtype):
        def graph_nodes(t):
            seen, stack = set(), [t]
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    stack.extend(node._parents)
            return len(seen)

        sizes = []
        for n_q in (4, 10):
            logits = Tensor(np.zeros((n_q, 2), dtype=dtype), requires_grad=True)
            moments = Tensor(np.full((n_q, 2), 0.5, dtype=dtype), requires_grad=True)
            out = moment_loss(logits, moments, np.array([[0.5, 0.2]]), MatchResult([1], [0]),
                              LossWeights())
            assert out["cls"].data.dtype == dtype
            sizes.append(graph_nodes(out["cls"]))
        assert sizes[0] == sizes[1]
