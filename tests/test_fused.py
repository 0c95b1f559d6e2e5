"""The fused kernels against the composed references in composed.py.

Each case compares the forward value and the gradient of every parent under
a random linear readout. Tolerances are fixed per dtype: 1e-12 relative in
float64, 1e-5 relative in float32 (summation order differs between the two
versions, so float32 cannot match bitwise). Each fused loss node also
passes a grad_check of its own. The linear, conv1d and dropout nodes, and
the GRU scan against its earlier node, run the same arithmetic as their
references, so they are compared bit for bit, as are the relu, dropout,
conv1d, layer-norm and attention nodes against their earlier bodies.
"""
import numpy as np
import pytest

import composed
from conftest import away_from_zero, pairs
from momentspot import losses
from momentspot.autodiff import (Tensor, add, conv1d, dropout, grad_check,
                                 layer_norm, linear, mask_rows, mul,
                                 multi_head_attention, relu, stable_sigmoid,
                                 tsum)
from momentspot.config import LossWeights
from momentspot.losses import (COMPONENT_KEYS, compose_total,
                               contrastive_rank_loss, gru_saliency,
                               highlight_distribution_loss, one_minus_cosine,
                               rank_margin_loss, task_coupled_loss,
                               task_specific_loss)
from momentspot.matching import (MatchResult, matched_giou, matched_l1,
                                 moment_loss, weighted_cross_entropy)
from momentspot.refinement import (alignment_loss, clip_query_cosines,
                                   masked_mean_pool)

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
            lambda q, k, v, *p: multi_head_attention(q, k, v, pairs(p), 2, key_mask=key_mask),
            lambda q, k, v, *p: composed.multi_head_attention(q, k, v, pairs(p), 2, key_mask=key_mask),
            mha_arrays(np.random.default_rng(seed), 8, 3, 5), dtype)

    def test_self_attention_on_one_tensor(self, dtype, mask, seed):
        key_mask = MASKS[mask]
        arrays = mha_arrays(np.random.default_rng(seed), 8, 5, 5)
        del arrays[:2]  # x alone plays q, k and v
        assert_matches_oracle(
            lambda x, *p: multi_head_attention(x, x, x, pairs(p), 4, key_mask=key_mask),
            lambda x, *p: composed.multi_head_attention(x, x, x, pairs(p), 4, key_mask=key_mask),
            arrays, dtype)

    def test_shared_query_and_key(self, dtype, mask, seed):
        # the decoder's self-attention shape: q and k are one tensor, v another
        key_mask = MASKS[mask]
        arrays = mha_arrays(np.random.default_rng(seed), 8, 5, 5)
        del arrays[1]
        assert_matches_oracle(
            lambda q, v, *p: multi_head_attention(q, q, v, pairs(p), 2, key_mask=key_mask),
            lambda q, v, *p: composed.multi_head_attention(q, q, v, pairs(p), 2, key_mask=key_mask),
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
            lambda f, *p: gru_saliency(f, pairs(p)),
            lambda f, *p: composed.gru_saliency(f, pairs(p)),
            gru_arrays(np.random.default_rng(seed), length, 4), dtype)

    def test_scan_over_masked_zero_rows(self, dtype, length, seed):
        arrays = gru_arrays(np.random.default_rng(seed), length, 4)
        arrays[0][(length + 1) // 2:] = 0.0
        assert_matches_oracle(
            lambda f, *p: gru_saliency(f, pairs(p)),
            lambda f, *p: composed.gru_saliency(f, pairs(p)),
            arrays, dtype)


# -- nodes that equal their compositions bit for bit ---------------------------

# a padded batch of three items over 7 rows: items 1 and 2 end in masked rows
ROW_MASK = np.arange(7) < np.array([7, 4, 2])[:, None]


def assert_bitwise(node, oracle, arrays, dtype):
    """node and oracle give the same bytes for the value and for every input's gradient."""
    out, grads = value_and_grads(node, arrays, dtype)
    ref_out, ref_grads = value_and_grads(oracle, arrays, dtype)
    assert out.dtype == dtype and out.shape == ref_out.shape
    assert out.tobytes() == ref_out.tobytes()
    for i, (g, ref) in enumerate(zip(grads, ref_grads)):
        assert g.dtype == dtype and g.shape == ref.shape and g.tobytes() == ref.tobytes(), \
            f"input {i}"


def rows(rng, batched, width):
    """(7, width) rows, or a (3, 7, width) batch, and its row mask (None for the item)."""
    return (rng.normal(size=(3, 7, width)), ROW_MASK) if batched else (rng.normal(size=(7, width)), None)


def seeded(p, seed, train):
    """A dropout function at rate p drawing from a fresh generator, the node's or the oracle's."""
    def drop(fn):
        rng = np.random.default_rng(seed)
        return lambda t: fn(t, p, rng=rng, train=train)
    return drop(dropout), drop(composed.dropout)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batched", [False, True], ids=["item", "batch"])
class TestNodesEqualTheirCompositions:
    def test_linear(self, dtype, batched):
        rng = np.random.default_rng(0)
        x, mask = rows(rng, batched, 4)
        assert_bitwise(lambda a, w, b: linear(mask_rows(a, mask), w, b),
                       lambda a, w, b: composed.linear(mask_rows(a, mask), w, b),
                       [x, rng.normal(size=(4, 5)), rng.normal(size=5)], dtype)

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_conv1d(self, dtype, batched, kernel):
        rng = np.random.default_rng(kernel)
        x, mask = rows(rng, batched, 4)
        assert_bitwise(lambda a, w, b: conv1d(mask_rows(a, mask), w, b),
                       lambda a, w, b: composed.conv1d(mask_rows(a, mask), w, b),
                       [x, rng.normal(size=(kernel, 4, 5)), rng.normal(size=5)], dtype)

    @pytest.mark.parametrize("train", [False, True], ids=["off", "on"])
    def test_dropout(self, dtype, batched, train):
        x, mask = rows(np.random.default_rng(1), batched, 4)
        drop, oracle = seeded(0.3, 7, train)
        assert_bitwise(lambda a: drop(mask_rows(a, mask)), lambda a: oracle(mask_rows(a, mask)),
                       [x], dtype)

    @pytest.mark.parametrize("train", [False, True], ids=["off", "on"])
    def test_residual_ffn(self, dtype, batched, train):
        # x feeds the first layer and the residual: its two gradients meet
        rng = np.random.default_rng(2)
        x, mask = rows(rng, batched, 4)
        params = [rng.normal(size=(4, 6)), rng.normal(size=6), rng.normal(size=(6, 4)),
                  rng.normal(size=4)]

        def ffn(lin, drop):
            def f(a, w1, b1, w2, b2):
                a = mask_rows(a, mask)
                return add(a, drop(lin(drop(relu(lin(a, w1, b1))), w2, b2)))
            return f

        drop, oracle = seeded(0.25, 3, train)
        assert_bitwise(ffn(linear, drop), ffn(composed.linear, oracle), [x] + params, dtype)

    @pytest.mark.parametrize("train", [False, True], ids=["off", "on"])
    def test_projection(self, dtype, batched, train):
        # refinement.project's chain: input dropout, then masked conv + ReLU layers
        rng = np.random.default_rng(3)
        x, mask = rows(rng, batched, 4)
        params = [rng.normal(size=(3, 4, 5)), rng.normal(size=5), rng.normal(size=(3, 5, 5)),
                  rng.normal(size=5)]

        def project(conv, drop):
            def f(a, w1, b1, w2, b2):
                t = mask_rows(drop(a), mask)
                for w, b in ((w1, b1), (w2, b2)):
                    t = mask_rows(relu(conv(t, w, b)), mask)
                return t
            return f

        drop, oracle = seeded(0.5, 4, train)
        assert_bitwise(project(conv1d, drop), project(composed.conv1d, oracle), [x] + params, dtype)

    def test_gru_scan(self, dtype, batched):
        rng = np.random.default_rng(4)
        for length in (1, 3, 9):
            arrays = gru_arrays(rng, length, 4)
            if batched:  # three items; the last two end in zero (masked) rows
                arrays[0] = rng.normal(size=(3, length, 4)) * (np.arange(length) < np.array(
                    [length, 2, 1])[:, None])[..., None]
            assert_bitwise(lambda f, *p: gru_saliency(f, pairs(p)),
                           lambda f, *p: composed.gru_saliency_node(f, pairs(p)), arrays, dtype)


def keys(*items):
    """A key mask from one "10110"-style string per item: 1 keeps the key."""
    mask = np.array([[c == "1" for c in item] for item in items])
    return mask[0] if len(items) == 1 else mask


# key masks over 5 keys of one item, and of a padded batch of three items;
# "all_masked" masks every key of the item, or of the batch's last item
KEY_MASKS = {
    "item": {"unmasked": None, "all_kept": keys("11111"), "some_masked": keys("10110"),
             "all_masked": keys("00000")},
    "batch": {"unmasked": None, "all_kept": keys("11111", "11111", "11111"),
              "some_masked": keys("11111", "10110", "11000"),
              "all_masked": keys("11111", "10110", "00000")},
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batched", [False, True], ids=["item", "batch"])
class TestNodesEqualTheirEarlierBodies:
    @pytest.mark.parametrize("mask", list(KEY_MASKS["item"]))
    def test_attention(self, dtype, batched, mask):
        key_mask = KEY_MASKS["batch" if batched else "item"][mask]
        lead = (3,) if batched else ()
        rng = np.random.default_rng(10)
        params = [rng.normal(size=s) * 0.3 for s in [(8, 8), (8,)] * 4]
        # cross-attention of 3 queries over 5 keys, then self-attention over the 5 keys
        arrays = [rng.normal(size=lead + (3, 8)), rng.normal(size=lead + (5, 8)),
                  rng.normal(size=lead + (5, 8))]
        assert_bitwise(
            lambda q, k, v, *p: multi_head_attention(q, k, v, pairs(p), 2, key_mask=key_mask),
            lambda q, k, v, *p: composed.multi_head_attention_node(q, k, v, pairs(p), 2, key_mask=key_mask),
            arrays + params, dtype)
        assert_bitwise(
            lambda x, *p: multi_head_attention(x, x, x, pairs(p), 4, key_mask=key_mask),
            lambda x, *p: composed.multi_head_attention_node(x, x, x, pairs(p), 4, key_mask=key_mask),
            arrays[1:2] + params, dtype)

    def test_layer_norm(self, dtype, batched):
        # masked rows reach a layer norm as all-zero rows
        rng = np.random.default_rng(11)
        x, mask = rows(rng, batched, 8)
        assert_bitwise(lambda a, g, b: layer_norm(mask_rows(a, mask), g, b),
                       lambda a, g, b: composed.layer_norm_node(mask_rows(a, mask), g, b),
                       [x * 3 + 1, rng.normal(size=8), rng.normal(size=8)], dtype)

    def test_relu(self, dtype, batched):
        x, mask = rows(np.random.default_rng(12), batched, 4)
        x.reshape(-1)[:3] = [0.0, -0.0, 1e-300]  # the kink, and a float32 underflow to 0
        assert_bitwise(lambda a: relu(mask_rows(a, mask)), lambda a: composed.relu_node(mask_rows(a, mask)),
                       [x], dtype)

    def test_dropout(self, dtype, batched):
        x, mask = rows(np.random.default_rng(13), batched, 4)
        drop = [lambda t, fn=fn: fn(t, 0.3, rng=np.random.default_rng(7), train=True)
                for fn in (dropout, composed.dropout_node)]
        assert_bitwise(lambda a: drop[0](mask_rows(a, mask)), lambda a: drop[1](mask_rows(a, mask)),
                       [x], dtype)

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_conv1d(self, dtype, batched, kernel):
        rng = np.random.default_rng(kernel)
        x, mask = rows(rng, batched, 4)
        params = [rng.normal(size=(kernel, 4, 5)), rng.normal(size=5)]
        assert_bitwise(lambda a, w, b: conv1d(mask_rows(a, mask), w, b),
                       lambda a, w, b: composed.conv1d_node(mask_rows(a, mask), w, b),
                       [x] + params, dtype)
        # an input that takes no gradient, as the video and text features are
        constant = Tensor(x.astype(dtype))
        assert_bitwise(lambda w, b: conv1d(constant, w, b),
                       lambda w, b: composed.conv1d_node(constant, w, b), params, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_stable_sigmoid_equals_its_earlier_body(dtype):
    x = np.concatenate([np.random.default_rng(5).normal(size=200) * 30,
                        [0.0, -0.0, 1e-30, -1e-30, 800.0, -800.0, 1e38, -1e38]]).astype(dtype)
    want = composed.stable_sigmoid(x)
    assert stable_sigmoid(x, None).tobytes() == want.tobytes()
    out = np.empty_like(x)
    assert stable_sigmoid(x, out) is out and out.tobytes() == want.tobytes()


@pytest.mark.parametrize("batched", [False, True], ids=["item", "batch"])
def test_linear_conv1d_and_dropout_nodes_pass_grad_check(batched):
    rng = np.random.default_rng(6)
    x, mask = rows(rng, batched, 4)
    x = Tensor(x, requires_grad=True)
    w, k, b = (Tensor(rng.normal(size=shape), requires_grad=True)
               for shape in ((4, 5), (3, 4, 5), (5,)))
    readout = Tensor(rng.normal(size=x.data.shape[:-1] + (5,)))
    for node, params in ((linear, [w, b]), (conv1d, [k, b])):
        out = node(x, *params)
        assert out._parents == (x, *params)
        assert grad_check(lambda a, p, q: tsum(mul(mask_rows(node(a, p, q), mask), readout)),
                          [x] + params) < 1e-7
    dropped = dropout(x, 0.4, rng=np.random.default_rng(8), train=True)
    assert dropped._parents == (x,)
    assert grad_check(lambda a: tsum(mul(dropout(a, 0.4, rng=np.random.default_rng(8), train=True),
                                         Tensor(readout.data[..., :4]))), [x]) < 1e-7


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
        lambda f, *p: task_coupled_loss(f, pairs(p), gt, clip_mask=clip_mask),
        lambda f, *p: one_minus_cosine(composed.gru_saliency(f, pairs(p)), gt, clip_mask),
        gru_arrays(rng, length, 4), np.float64)


# -- the loss tail: one node per term ------------------------------------------

# a padded batch of four items over 8 clips; column 7 is padding in every item
LENGTHS = (7, 5, 3, 6)
CLIP_MASK = np.arange(8) < np.array(LENGTHS)[:, None]
LEVELS = np.zeros((4, 8), dtype=int)
LEVELS[0, :7] = [0, 1, 2, 4, 3, 0, 0]
LEVELS[2, :3] = [1, 4, 2]         # item 1's gt saliency is all zero; item 2 has no negatives
LEVELS[3, :6] = [0, 0, 2, 3, 0, 1]
GT = LEVELS / 4.0
HIGH, LOW = np.array([3, -1, 1, -1]), np.array([0, -1, 0, -1])  # items 1 and 3 have no rank pair
TEXT_LENGTHS = (4, 2, 3, 1)
TEXT_MASK = np.arange(4) < np.array(TEXT_LENGTHS)[:, None]
# the un-batched call: item 0 alone, unpadded
ONE = dict(mask=CLIP_MASK[0, :7], levels=LEVELS[0, :7], high=3, low=0)


def saliency(seed, shape=(4, 8)):
    """Scores away from the kinks at 0; the rank hinges are active."""
    s = away_from_zero(np.random.default_rng(seed).normal(size=shape))
    s[..., 3] = s[..., 0] - 0.1  # s[low] - s[high] + margin = 0.1 + 0.2 > 0
    s[..., 1] = s[..., 0] - 0.25  # item 2: high 1, low 0
    return s


def saliency_cases(batched):
    if batched:
        return dict(mask=CLIP_MASK, levels=LEVELS, high=HIGH, low=LOW)
    return ONE


def saliency_terms(ns):
    """The saliency loss calls, taken from the fused module or from the composed oracles."""
    def positive(c):
        return (c["levels"] > 0) & c["mask"]

    def negative(c):
        return (c["levels"] == 0) & c["mask"]

    return {
        "rank": lambda s, c: ns.rank_margin_loss(s, c["high"], c["low"], 0.2),
        "contrastive": lambda s, c: ns.contrastive_rank_loss(s, c["levels"], 0.5, clip_mask=c["mask"]),
        "hard": lambda s, c: ns.highlight_distribution_loss(s, c["levels"] / 4.0, positive(c),
                                                            negative(c), 3),
        "hard_positive": lambda s, c: ns.hard_positive_loss(s, c["levels"] / 4.0, positive(c), 2),
        "hard_negative": lambda s, c: ns.hard_negative_loss(s, negative(c), 2),
        "task_specific": lambda s, c: ns.task_specific_loss(s, c["levels"] / 4.0, c["mask"]),
    }


SALIENCY_TERMS = {key: (fused, saliency_terms(composed)[key])
                  for key, fused in saliency_terms(losses).items()}


@pytest.mark.parametrize("batched", [True, False], ids=["batch", "item"])
@pytest.mark.parametrize("term", list(SALIENCY_TERMS))
class TestSaliencyTermsMatchComposed:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_value_and_gradient(self, term, batched, dtype, seed):
        fused, oracle = SALIENCY_TERMS[term]
        case = saliency_cases(batched)
        s = saliency(seed, CLIP_MASK.shape if batched else (7,))
        assert_matches_oracle(lambda x: fused(x, case), lambda x: oracle(x, case), [s], dtype)

    def test_one_node_passes_grad_check(self, term, batched):
        fused, _ = SALIENCY_TERMS[term]
        case = saliency_cases(batched)
        s = Tensor(saliency(5, CLIP_MASK.shape if batched else (7,)), requires_grad=True)
        out = fused(s, case)
        assert out._parents == (s,)
        assert grad_check(lambda x: fused(x, case), [s]) < 1e-6


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("seed", range(3))
def test_cosine_of_two_differentiable_sides_matches_composed(dtype, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
    b[1] = 0.0  # a dead row: cosine 0, zero gradient
    assert_matches_oracle(one_minus_cosine, composed.one_minus_cosine, [a, b], dtype)


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_cosine_node_grad_check(masked):
    rng = np.random.default_rng(4)
    a = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    keep = CLIP_MASK if masked else np.ones(CLIP_MASK.shape, dtype=bool)
    assert one_minus_cosine(a, b, keep)._parents == (a, b)
    assert grad_check(lambda x, y: one_minus_cosine(x, y, keep), [a, b]) < 1e-6


def query_arrays(seed, batched):
    rng = np.random.default_rng(seed)
    tokens = rng.normal(size=(4, 4, 5))
    clips = rng.normal(size=(4, 8, 5))
    clips[~CLIP_MASK] = 0.0  # refined clips are zero at masked rows
    if batched:
        return [tokens, clips], TEXT_MASK, CLIP_MASK, GT
    return [tokens[0], clips[0, :7]], TEXT_MASK[0], CLIP_MASK[0, :7], GT[0, :7]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batched", [True, False], ids=["batch", "item"])
@pytest.mark.parametrize("seed", range(3))
class TestQueryAlignmentMatchesComposed:
    def test_masked_mean_pool(self, dtype, batched, seed):
        (tokens, _), text_mask, _, _ = query_arrays(seed, batched)
        assert_matches_oracle(lambda t: masked_mean_pool(t, text_mask),
                              lambda t: composed.masked_mean_pool(t, text_mask), [tokens], dtype)

    def test_clip_query_cosines(self, dtype, batched, seed):
        arrays, text_mask, _, _ = query_arrays(seed, batched)
        assert_matches_oracle(lambda t, v: clip_query_cosines(t, v, text_mask),
                              lambda t, v: composed.clip_query_cosines(t, v, text_mask),
                              arrays, dtype)

    def test_alignment_loss(self, dtype, batched, seed):
        arrays, text_mask, clip_mask, gt = query_arrays(seed, batched)
        assert_matches_oracle(
            lambda t, v: alignment_loss(t, v, gt, text_mask=text_mask, clip_mask=clip_mask),
            lambda t, v: composed.alignment_loss(t, v, gt, text_mask=text_mask, clip_mask=clip_mask),
            arrays, dtype)


@pytest.mark.parametrize("batched", [True, False], ids=["batch", "item"])
def test_clip_query_cosines_grad_check(batched):
    arrays, text_mask, _, _ = query_arrays(6, batched)
    rng = np.random.default_rng(6)
    # no zero clip row: a zero row is a kink of the cosine, where central differences break
    t, v = (Tensor(a + (a == 0.0) * rng.normal(size=a.shape), requires_grad=True) for a in arrays)
    assert clip_query_cosines(t, v, text_mask)._parents == (t, v)
    readout = np.random.default_rng(1).normal(size=v.data.shape[:-1])
    assert grad_check(lambda a, b: tsum(mul(clip_query_cosines(a, b, text_mask), Tensor(readout))),
                      [t, v]) < 1e-6


def test_zero_pooled_query_passes_no_gradient():
    t = Tensor(np.zeros((2, 3)), requires_grad=True)
    v = Tensor(np.random.default_rng(0).normal(size=(4, 3)), requires_grad=True)
    out = clip_query_cosines(t, v)
    assert np.all(out.data == 0.0)
    tsum(out).backward()
    assert np.all(t.grad == 0.0) and np.all(v.grad == 0.0)


# (n_q, 2) center/width rows: clipped at 0 and at 1, and one width under WIDTH_FLOOR
MOMENTS = np.array([[0.3, 0.2], [0.05, 0.3], [0.62, 5e-5], [0.9, 0.4], [0.5, 0.35]])
GT_MOMENTS = [np.array([[0.35, 0.3], [0.8, 0.3]]), np.array([[0.1, 0.15]]),
              np.zeros((0, 2)), np.array([[0.6, 0.1], [0.2, 0.2], [0.5, 0.5]])]
MATCHES = [MatchResult([0, 3], [0, 1]), MatchResult([1], [0]), MatchResult([], []),
           MatchResult([4, 0, 2], [0, 1, 2])]  # item 2 has no matched query


def moment_arrays(seed, batched):
    rng = np.random.default_rng(seed)
    n = 4 if batched else 1
    moments = MOMENTS + rng.uniform(-0.02, 0.02, size=(n,) + MOMENTS.shape)
    logits = rng.normal(size=(n, 5, 2))
    if batched:
        return [logits, moments], GT_MOMENTS, MATCHES
    return [logits[0], moments[0]], GT_MOMENTS[0], MATCHES[0]


@pytest.mark.parametrize("key", ["l1", "giou", "cls"])
@pytest.mark.parametrize("batched", [True, False], ids=["batch", "item"])
class TestMomentTermsMatchComposed:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_value_and_gradient(self, key, batched, dtype, seed):
        (logits, moments), gts, matches = moment_arrays(seed, batched)
        w = LossWeights()
        if key == "cls":  # the class term reads only the logits, l1 and giou only the moments
            def call(fn):
                return lambda lg: fn(lg, Tensor(moments.astype(dtype)), gts, matches, w)[key]
            arrays = [logits]
        else:
            def call(fn):
                return lambda mo: fn(Tensor(logits.astype(dtype)), mo, gts, matches, w)[key]
            arrays = [moments]
        assert_matches_oracle(call(moment_loss), call(composed.moment_loss), arrays, dtype)

    def test_one_node(self, key, batched):
        arrays, gts, matches = moment_arrays(0, batched)
        logits, moments = (Tensor(a, requires_grad=True) for a in arrays)
        out = moment_loss(logits, moments, gts, matches, LossWeights())[key]
        assert out._parents == ((logits,) if key == "cls" else (moments,))


@pytest.mark.parametrize("batched", [True, False], ids=["batch", "item"])
def test_matched_pair_nodes_grad_check(batched):
    (logits, moments), _, _ = moment_arrays(2, batched)
    index = np.array([0, 3, 4])
    if batched:
        index = (np.array([0, 0, 3]), index)
    gt_rows = np.array([[0.35, 0.3], [0.8, 0.3], [0.6, 0.1]])
    pair_weights = np.array([[0.25], [0.25], [0.5]])
    m = Tensor(moments, requires_grad=True)
    assert grad_check(lambda x: matched_l1(x, index, gt_rows, pair_weights), [m]) < 1e-6
    assert grad_check(lambda x: matched_giou(x, index, gt_rows, pair_weights), [m]) < 1e-6
    picks = -np.random.default_rng(3).uniform(0.1, 1.0, size=logits.shape)
    lg = Tensor(logits, requires_grad=True)
    assert grad_check(lambda x: weighted_cross_entropy(x, picks), [lg]) < 1e-6


def test_giou_at_the_clip_and_floor_kinks_matches_composed():
    # a span end exactly at 0 or 1 and a width exactly at the floor: the
    # subgradient conventions of the composed ops (ties pass, ties go to the prediction)
    moments = np.array([[0.1, 0.2], [0.9, 0.2], [0.5, 1e-4], [0.4, 0.3]])
    gt = np.array([[0.1, 0.2], [0.7, 0.3], [0.5, 0.2], [0.4, 0.3]])
    match = MatchResult([0, 1, 2, 3], [0, 1, 2, 3])
    w = LossWeights()
    logits = Tensor(np.zeros((4, 2)))
    assert_matches_oracle(lambda mo: moment_loss(logits, mo, gt, match, w)["giou"],
                          lambda mo: composed.moment_loss(logits, mo, gt, match, w)["giou"],
                          [moments], np.float64)


@pytest.mark.parametrize("dtype", DTYPES)
def test_compose_total_matches_composed(dtype):
    values = np.random.default_rng(8).uniform(0.1, 3.0, size=len(COMPONENT_KEYS))
    w = LossWeights()

    def total(fn):
        return lambda *ts: fn(dict(zip(COMPONENT_KEYS, ts)), w)

    assert_matches_oracle(total(compose_total), total(composed.compose_total),
                          [np.asarray(v) for v in values], dtype)


def test_compose_total_grad_check_and_float_components():
    ts = [Tensor(np.asarray(v), requires_grad=True)
          for v in np.random.default_rng(2).uniform(0.1, 3.0, size=len(COMPONENT_KEYS))]
    w = LossWeights()
    out = compose_total(dict(zip(COMPONENT_KEYS, ts)), w)
    assert out._parents == tuple(ts)
    assert grad_check(lambda *xs: compose_total(dict(zip(COMPONENT_KEYS, xs)), w), ts) < 1e-6
    mixed = dict(zip(COMPONENT_KEYS, ts))
    mixed["giou"] = 0.5
    got = compose_total(mixed, w)
    assert got._parents == tuple(t for key, t in zip(COMPONENT_KEYS, ts) if key != "giou")
    assert got.item() == pytest.approx(composed.compose_total(mixed, w).item(), rel=1e-15)


# each term on input that leaves it nothing to score, with the constant it then takes
DEGENERATE = {
    "rank": (lambda s, c: rank_margin_loss(s, np.full_like(c["high"], -1),
                                           np.full_like(c["low"], -1), 0.2), 0.0),
    "contrastive": (lambda s, c: contrastive_rank_loss(s, np.zeros_like(c["levels"]), 0.5,
                                                       clip_mask=c["mask"]), 0.0),
    "hard": (lambda s, c: highlight_distribution_loss(s, c["levels"] / 4.0, np.zeros_like(c["mask"]),
                                                      np.zeros_like(c["mask"]), 1), 0.0),
    "task_specific": (lambda s, c: task_specific_loss(s, np.zeros(c["mask"].shape),
                                                      clip_mask=c["mask"]), 1.0),
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batched", [True, False], ids=["batch", "item"])
@pytest.mark.parametrize("term", list(DEGENERATE))
def test_degenerate_input_runs_the_same_node(term, batched, dtype):
    call, constant = DEGENERATE[term]
    case = saliency_cases(batched)
    s = Tensor(saliency(0, CLIP_MASK.shape if batched else (7,)).astype(dtype), requires_grad=True)
    out = call(s, case)
    assert out.data.dtype == dtype and repr(out.item()) == repr(constant)  # the sign of a zero too
    assert out._parents == (s,)
    out.backward()
    assert s.grad.dtype == dtype and not s.grad.any()
    assert grad_check(lambda x: call(x, case), [s]) == 0.0


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batched", [True, False], ids=["batch", "item"])
@pytest.mark.parametrize("key", ["l1", "giou"])
def test_moment_terms_without_matches_run_the_same_node(key, batched, dtype):
    (logits, moments), _, _ = moment_arrays(0, batched)
    gts, matches = np.zeros((0, 2)), MatchResult([], [])
    if batched:
        gts, matches = [gts] * 4, [matches] * 4
    lg = Tensor(logits.astype(dtype), requires_grad=True)
    m = Tensor(moments.astype(dtype), requires_grad=True)

    def term(x):
        return moment_loss(lg, x, gts, matches, LossWeights())[key]

    out = term(m)
    assert out.data.dtype == dtype and repr(out.item()) == "0.0"
    assert out._parents == (m,)
    out.backward()
    assert m.grad.dtype == dtype and not m.grad.any()
    assert grad_check(term, [m]) == 0.0
    assert moment_loss(lg, m, gts, matches, LossWeights())["cls"]._parents == (lg,)
