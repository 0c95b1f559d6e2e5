import numpy as np

from momentspot.autodiff import Tensor, grad_check, mul, square, tsum
from momentspot.heads import (DecoderParams, HeadParams, Sublayer, decode, encode,
                              predict_moments, predict_saliency)
from test_fusion import make_stage


def make_ffn(rng, d, ffn=8, grad=False):
    def w(shape):
        return Tensor(rng.normal(size=shape) * 0.3, requires_grad=grad)

    body = ((w((d, ffn)), w((ffn,))), (w((ffn, d)), w((d,))))
    return Sublayer(body, Tensor(np.ones(d), requires_grad=grad),
                    Tensor(np.zeros(d), requires_grad=grad))


def make_encoder_layer(rng, d, ffn=8, grad=False):
    return make_stage(rng, d, grad=grad), make_ffn(rng, d, ffn=ffn, grad=grad)


def make_decoder(rng, d, n_q, n_layers=2, ffn=8, grad=False):
    layers = [(make_stage(rng, d, grad=grad), make_stage(rng, d, grad=grad),
               make_ffn(rng, d, ffn=ffn, grad=grad)) for _ in range(n_layers)]
    query_embed = Tensor(rng.normal(size=(n_q, d)) * 0.3, requires_grad=grad)
    return DecoderParams(query_embed=query_embed, layers=layers)


def make_heads(rng, d, grad=False):
    def w(shape):
        return Tensor(rng.normal(size=shape) * 0.3, requires_grad=grad)

    return HeadParams(
        cls=(w((d, 2)), w((2,))),
        moment_layers=[(w((d, d)), w((d,))), (w((d, d)), w((d,))), (w((d, 2)), w((2,)))],
        saliency_w=w((d, 1)),
    )


class TestEncoder:
    def test_shape_preserved(self, rng):
        d = 6
        layers = [make_encoder_layer(rng, d) for _ in range(3)]
        out = encode(Tensor(rng.normal(size=(5, d))), layers, heads=2)
        assert out.shape == (5, d)

    def test_deterministic_in_eval(self, rng):
        d = 6
        layers = [make_encoder_layer(rng, d) for _ in range(2)]
        x = Tensor(rng.normal(size=(4, d)))
        a = encode(x, layers, heads=2)
        b = encode(x, layers, heads=2)
        np.testing.assert_array_equal(a.data, b.data)

    def test_masked_clip_cannot_influence_others(self, rng):
        d = 6
        layers = [make_encoder_layer(rng, d) for _ in range(2)]
        x = rng.normal(size=(5, d))
        mask = np.array([True, True, False, True, True])
        base = encode(Tensor(x), layers, heads=2, clip_mask=mask)
        poked = x.copy()
        poked[2] = 77.0
        alt = encode(Tensor(poked), layers, heads=2, clip_mask=mask)
        np.testing.assert_allclose(alt.data[mask], base.data[mask], atol=1e-9)

    def test_grad(self, rng):
        d = 4
        layer = attn, ffn = make_encoder_layer(rng, d, grad=True)
        x = Tensor(rng.normal(size=(3, d)), requires_grad=True)
        mix = Tensor(rng.normal(size=(3, d)))
        checked = [x, attn.body[0][0], attn.body[2][0], ffn.body[0][0], ffn.body[1][0],
                   attn.ln_gamma, ffn.ln_beta]

        def f(*_):
            return tsum(mul(encode(x, [layer], heads=2), mix))

        assert grad_check(f, checked) < 1e-5


class TestDecoder:
    def test_output_shape(self, rng):
        d, n_q = 6, 4
        dec = make_decoder(rng, d, n_q)
        out = decode(Tensor(rng.normal(size=(5, d))), dec, heads=2)
        assert out.shape == (n_q, d)

    def test_deterministic(self, rng):
        d, n_q = 6, 3
        dec = make_decoder(rng, d, n_q)
        memory = Tensor(rng.normal(size=(5, d)))
        a = decode(memory, dec, heads=2)
        b = decode(memory, dec, heads=2)
        np.testing.assert_array_equal(a.data, b.data)

    def test_queries_differ_through_embeddings(self, rng):
        # zero targets mean query embeddings are the only source of per-query variation
        d, n_q = 6, 4
        dec = make_decoder(rng, d, n_q)
        out = decode(Tensor(rng.normal(size=(5, d))), dec, heads=2)
        assert not np.allclose(out.data[0], out.data[1], atol=1e-6)

    def test_equal_embeddings_give_equal_queries(self, rng):
        d, n_q = 6, 3
        dec = make_decoder(rng, d, n_q)
        dec.query_embed = Tensor(np.tile(rng.normal(size=(1, d)), (n_q, 1)))
        out = decode(Tensor(rng.normal(size=(5, d))), dec, heads=2)
        np.testing.assert_allclose(out.data[1:], np.tile(out.data[:1], (n_q - 1, 1)), atol=1e-12)

    def test_masked_memory_clip_has_zero_influence(self, rng):
        d, n_q = 6, 3
        dec = make_decoder(rng, d, n_q)
        memory = rng.normal(size=(5, d))
        mask = np.array([True, False, True, True, True])
        base = decode(Tensor(memory), dec, heads=2, clip_mask=mask)
        poked = memory.copy()
        poked[1] = -3e3
        alt = decode(Tensor(poked), dec, heads=2, clip_mask=mask)
        np.testing.assert_allclose(alt.data, base.data, atol=1e-9)

    def test_grad(self, rng):
        d, n_q = 4, 3
        dec = make_decoder(rng, d, n_q, n_layers=1, grad=True)
        memory = Tensor(rng.normal(size=(4, d)), requires_grad=True)
        mix = Tensor(rng.normal(size=(n_q, d)))
        self_attn, cross, ffn = dec.layers[0]
        checked = [memory, dec.query_embed, self_attn.body[2][0], cross.body[0][0],
                   cross.body[2][0], ffn.body[0][0]]

        def f(*_):
            return tsum(mul(decode(memory, dec, heads=2), mix))

        assert grad_check(f, checked) < 1e-5


class TestPredictionHeads:
    def test_moment_shapes_and_range(self, rng):
        d, n_q = 6, 5
        head = make_heads(rng, d)
        decoded = Tensor(rng.normal(size=(n_q, d)) * 3)
        logits, moments = predict_moments(decoded, head)
        assert logits.shape == (n_q, 2)
        assert moments.shape == (n_q, 2)
        assert (moments.data > 0).all() and (moments.data < 1).all()

    def test_moment_mlp_structure(self, rng):
        # relu between hidden layers, none after the last (sigmoid instead)
        d = 4
        head = make_heads(rng, d)
        x = rng.normal(size=(3, d))
        h = x @ head.moment_layers[0][0].data + head.moment_layers[0][1].data
        h = np.maximum(h, 0)
        h = h @ head.moment_layers[1][0].data + head.moment_layers[1][1].data
        h = np.maximum(h, 0)
        h = h @ head.moment_layers[2][0].data + head.moment_layers[2][1].data
        expected = 1 / (1 + np.exp(-h))
        _, moments = predict_moments(Tensor(x), head)
        np.testing.assert_allclose(moments.data, expected, atol=1e-12)

    def test_class_logits_are_affine(self, rng):
        d = 4
        head = make_heads(rng, d)
        x = rng.normal(size=(3, d))
        logits, _ = predict_moments(Tensor(x), head)
        w, b = head.cls
        np.testing.assert_allclose(logits.data, x @ w.data + b.data, atol=1e-12)

    def test_saliency_scaled_dot_product(self, rng):
        d = 9
        w = Tensor(rng.normal(size=(d, 1)))
        memory = rng.normal(size=(6, d))
        out = predict_saliency(Tensor(memory), w)
        assert out.shape == (6,)
        np.testing.assert_allclose(out.data, (memory @ w.data)[:, 0] / 3.0, atol=1e-12)

    def test_heads_grad(self, rng):
        d, n_q = 4, 3
        head = make_heads(rng, d, grad=True)
        decoded = Tensor(rng.normal(size=(n_q, d)), requires_grad=True)
        sal_w = head.saliency_w
        memory = Tensor(rng.normal(size=(5, d)), requires_grad=True)

        def f(*_):
            logits, moments = predict_moments(decoded, head)
            return tsum(square(logits)) + tsum(square(moments)) + \
                tsum(predict_saliency(memory, sal_w))

        checked = [decoded, memory, head.cls[0], head.moment_layers[0][0],
                   head.moment_layers[2][0], sal_w]
        assert grad_check(f, checked) < 1e-5
