import dataclasses
import gc
import itertools
import json
import math
import struct
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from momentspot import autodiff
from momentspot import model as model_module
from momentspot import training
from momentspot.autodiff import Tensor, add, grad_check, tsum, xavier_uniform
from momentspot.cli import main
from momentspot.config import ConfigError, LossWeights, ModelConfig
from momentspot.data import save_dataset, save_features
from momentspot.fixtures import build_overfit_fixture
from momentspot.losses import CompositionError
from momentspot.metrics import MetricReport
from momentspot.model import Model, ParamStore, Parameter, batch_loss, bundle_for
from momentspot.training import (AdamW, clip_gradients, evaluate_model,
                                 model_from_checkpoint, save_checkpoint,
                                 split_dataset, train, train_step)
import composed
from test_data import make_annotation

from conftest import tiny_config


def make_params(rng, shapes):
    """A ParamStore of parameters p0, p1, ... with the given shapes, drawn from rng."""
    store = ParamStore(None, arena=rng.normal(size=sum(math.prod(s) for s in shapes)))
    for i, shape in enumerate(shapes):
        store.new(f"p{i}", shape, "zeros")  # with no rng the arena keeps its draws
    return store


def payload(path):
    """The bytes of checkpoint `path` after its header."""
    raw = Path(path).read_bytes()
    (meta_len,) = struct.unpack("<I", raw[8:12])
    return raw[12 + meta_len:]


def save_with_fresh_adamw(path, model, **kwargs):
    """save_checkpoint with a new AdamW over the model: zero moments, step 0."""
    return save_checkpoint(path, model, AdamW(model.named_parameters(), lr=1e-3), **kwargs)


def read_meta(path):
    """The JSON header of checkpoint `path`."""
    raw = path.read_bytes()
    (meta_len,) = struct.unpack("<I", raw[8:12])
    return json.loads(raw[12:12 + meta_len])


def read_log(result):
    """The entries of a run's train_log.jsonl, one per line."""
    return [json.loads(line) for line in Path(result.log_path).read_text().splitlines()]


def replace_header(path, meta_bytes):
    """Put meta_bytes in place of checkpoint `path`'s JSON header, keeping its payload."""
    raw = path.read_bytes()
    (meta_len,) = struct.unpack("<I", raw[8:12])
    path.write_bytes(raw[:8] + struct.pack("<I", len(meta_bytes)) + meta_bytes
                     + raw[12 + meta_len:])


def rewrite_meta(path, edit):
    """Apply edit(meta) to the JSON header of checkpoint `path`, keeping its payload."""
    meta = read_meta(path)
    edit(meta)
    replace_header(path, json.dumps(meta).encode("utf-8"))


def edited(edit):
    """A header maker for replace_header: the JSON of meta after edit(meta)."""
    def header(meta):
        edit(meta)
        return json.dumps(meta).encode("utf-8")
    return header


ENTRY_MESSAGE = "each params entry needs a string name and a shape of non-negative ints"
MALFORMED_HEADERS = [
    pytest.param(edited(lambda meta: meta.pop("config")),
                 "checkpoint metadata lacks config", id="config"),
    pytest.param(edited(lambda meta: meta.pop("params")),
                 "checkpoint metadata lacks params", id="params"),
    pytest.param(lambda meta: b"7", "checkpoint metadata is not a JSON object",
                 id="not-an-object"),
    pytest.param(lambda meta: b'{"config": ', "checkpoint metadata is not UTF-8 JSON",
                 id="not-json"),
    pytest.param(lambda meta: b'"\xff"', "checkpoint metadata is not UTF-8 JSON",
                 id="not-utf8"),
    pytest.param(edited(lambda meta: meta.update(params=7)), ENTRY_MESSAGE,
                 id="params-not-a-list"),
    pytest.param(edited(lambda meta: meta["params"].__setitem__(0, ["w", [2]])), ENTRY_MESSAGE,
                 id="entry-not-an-object"),
    pytest.param(edited(lambda meta: meta["params"][0].pop("shape")), ENTRY_MESSAGE,
                 id="entry-without-shape"),
    pytest.param(edited(lambda meta: meta["params"][0].update(name=3)), ENTRY_MESSAGE,
                 id="entry-name-not-a-string"),
    pytest.param(edited(lambda meta: meta["params"][-1].update(shape=[-1, 2])), ENTRY_MESSAGE,
                 id="negative-dim"),
    pytest.param(edited(lambda meta: meta["params"][-1].update(shape=[2.0])), ENTRY_MESSAGE,
                 id="float-dim"),
]


class ShortWriter:
    """A file opened for writing that raises OSError after `budget` bytes went out."""

    def __init__(self, fh, budget):
        self.fh, self.left = fh, budget

    def write(self, data):
        data = memoryview(data).cast("B")
        if len(data) > self.left:
            self.fh.write(data[:self.left])
            self.left = 0
            raise OSError(28, "No space left on device")
        self.left -= len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def short_writes(monkeypatch, budget):
    """Make training's open() hand out ShortWriters for files opened to write."""
    def fake_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return ShortWriter(fh, budget) if "w" in mode else fh

    monkeypatch.setattr(training, "open", fake_open, raising=False)


def toy_dataset():
    return [
        make_annotation(),
        make_annotation(qid=4, vid="vid_b", query="a cat jumps high",
                        relevant_windows=[[0.0, 6.0]],
                        saliency_levels=[3, 4, 2, 0, 0, 0, 0, 0, 0, 0],
                        relevant_clip_ids=[0, 1, 2]),
        make_annotation(qid=5, vid="vid_c", query="waves crash on rocks",
                        relevant_windows=[[12.0, 18.0]],
                        saliency_levels=[0, 0, 0, 0, 0, 0, 2, 4, 3, 0],
                        relevant_clip_ids=[6, 7, 8]),
    ]


class TestAdamW:
    def test_single_step_matches_oracle(self, rng):
        params = make_params(rng, [(3, 2), (4,)])
        grads = {n: rng.normal(size=p.tensor.data.shape) for n, p in params.items()}
        before = {n: p.tensor.data.copy() for n, p in params.items()}
        for n, p in params.items():
            p.tensor.grad[...] = grads[n]
        lr, wd, b1, b2, eps = 0.01, 0.1, 0.9, 0.999, 1e-8
        opt = AdamW(params, lr=lr, weight_decay=wd)
        opt.step()
        for n in params:
            g = grads[n]
            m = (1 - b1) * g
            v = (1 - b2) * g * g
            m_hat = m / (1 - b1)
            v_hat = v / (1 - b2)
            want = before[n] - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * wd * before[n]
            np.testing.assert_allclose(params[n].tensor.data, want, atol=1e-15)

    def test_two_steps_matches_oracle(self, rng):
        params = make_params(rng, [(5,)])
        lr, wd, b1, b2, eps = 0.05, 0.01, 0.9, 0.999, 1e-8
        opt = AdamW(params, lr=lr, weight_decay=wd)
        p = params["p0"].tensor
        ref = p.data.copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        for step in (1, 2):
            g = np.full_like(ref, 0.5 * step)
            p.grad[...] = g
            opt.step()
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** step)
            v_hat = v / (1 - b2 ** step)
            ref = ref - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * wd * ref
            np.testing.assert_allclose(p.data, ref, atol=1e-15)

    def test_weight_decay_decoupled_from_gradient(self, rng):
        # zero gradient still shrinks the parameter by exactly lr*wd*p
        params = make_params(rng, [(4,)])
        before = params["p0"].tensor.data.copy()
        opt = AdamW(params, lr=0.1, weight_decay=0.5)
        params["p0"].tensor.grad[...] = 0.0
        opt.step()
        np.testing.assert_allclose(params["p0"].tensor.data, before * (1 - 0.1 * 0.5), atol=1e-15)

    def test_missing_grad_treated_as_zero(self, rng):
        params = make_params(rng, [(3,)])
        before = params["p0"].tensor.data.copy()
        opt = AdamW(params, lr=0.1, weight_decay=0.0)
        opt.step()
        np.testing.assert_allclose(params["p0"].tensor.data, before, atol=1e-15)

    def test_rejects_a_plain_dict_of_parameters(self, rng):
        t = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with pytest.raises(TypeError, match="ParamStore"):
            AdamW({"p0": Parameter(name="p0", tensor=t)}, lr=0.01)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_chunked_step_is_bitwise_the_whole_array_update(self, rng, monkeypatch, dtype):
        monkeypatch.setattr(training, "CHUNK", 100)  # chunks start and end inside parameters
        params = Model(tiny_config(dtype=dtype, encoder_layers=1, decoder_layers=1),
                       seed=0).named_parameters()
        lr, wd, (b1, b2), eps = 1e-2, 0.1, (0.9, 0.999), 1e-8
        opt = AdamW(params, lr=lr, weight_decay=wd)
        assert len(opt._chunks) > len(params) / 2
        w = {n: p.tensor.data.copy() for n, p in params.items()}
        m = {n: np.zeros_like(a) for n, a in w.items()}
        v = {n: np.zeros_like(a) for n, a in w.items()}
        for step in (1, 2, 3):
            for i, p in enumerate(params.values()):
                # a parameter backward never reached keeps its zero-filled view
                p.tensor.grad[...] = 0.0 if i % 7 == 3 else rng.normal(size=p.tensor.data.shape)
            grads = params.grad_arena.copy()
            opt.step()
            assert params.grad_arena.tobytes() == grads.tobytes()  # step() leaves them readable
            bc1, root_bc2 = 1.0 - b1 ** step, math.sqrt(1.0 - b2 ** step)
            for n, p in params.items():
                g = p.tensor.grad
                m[n] = b1 * m[n] + (1.0 - b1) * g
                v[n] = b2 * v[n] + (1.0 - b2) * g * g
                # the bias corrections folded into eps and the step size
                w[n] = (w[n] * (1.0 - lr * wd)
                        - (m[n] / (np.sqrt(v[n]) + eps * root_bc2)) * (lr * root_bc2 / bc1))
                assert p.tensor.data.dtype == w[n].dtype
                assert p.tensor.data.tobytes() == w[n].tobytes(), n
            for got, want in ((opt.m_arena, m), (opt.v_arena, v)):
                assert got.dtype == params.arena.dtype
                assert got.tobytes() == b"".join(want[n].tobytes() for n in params)


class TestWeightArena:
    @staticmethod
    def assert_views_of_the_arena(model):
        """Every parameter's .data and .grad are its views of the weight and grad
        arenas, back to back in registry order."""
        store = model.named_parameters()
        starts = np.cumsum([0] + [p.tensor.data.size for p in store.values()])
        for arena, attr in ((store.arena, "data"), (store.grad_arena, "grad")):
            assert starts[-1] == arena.size and arena.dtype == store.arena.dtype
            for start, (name, p) in zip(starts, store.items()):
                a = getattr(p.tensor, attr)
                view = arena[start:start + a.size]
                assert a.base is arena and a.ctypes.data == view.ctypes.data, (attr, name)
                assert a.shape == p.tensor.data.shape and a.flags.c_contiguous, (attr, name)
            arrays = [getattr(p.tensor, attr) for p in store.values()]
            assert np.concatenate([a.ravel() for a in arrays]).tobytes() == arena.tobytes()

    def test_gradients_stay_views_of_the_grad_arena(self):
        cfg = tiny_config(dtype="float32", encoder_layers=1, decoder_layers=1)
        model = Model(cfg, seed=0)
        store = model.named_parameters()
        self.assert_views_of_the_arena(model)
        assert not store.grad_arena.any()
        opt = AdamW(store, lr=1e-2, weight_decay=cfg.weight_decay)
        batch = [(bundle_for(a, cfg), a) for a in toy_dataset()]
        total, _ = batch_loss(model, batch, 0, rng=np.random.default_rng(0), train=True)
        model.zero_grad()
        total.backward()
        clip_gradients(store, 1e-3)
        clipped = store.grad_arena.copy()
        opt.step()
        self.assert_views_of_the_arena(model)
        assert store.grad_arena.tobytes() == clipped.tobytes()
        assert clipped.any()
        model.zero_grad()
        self.assert_views_of_the_arena(model)
        assert not store.grad_arena.any()

    def test_a_leaf_used_twice_owns_the_sum_of_both_gradients(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        y = add(x, x)
        total = tsum(y)  # its backward hands y a read-only broadcast of the seed
        total.backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(y.grad, [1.0, 1.0, 1.0])
        assert total.grad == 1.0
        buffer = x.grad
        assert buffer.flags.writeable and not np.shares_memory(buffer, y.grad)
        tsum(add(x, x)).backward()  # a second backward adds into the same buffer
        assert x.grad is buffer
        np.testing.assert_array_equal(x.grad, [4.0, 4.0, 4.0])
        x.zero_grad()
        assert x.grad is buffer and not buffer.any()

    def test_parameters_stay_views_of_the_arena(self, tmp_path):
        cfg = tiny_config(encoder_layers=1, decoder_layers=1)
        model = Model(cfg, seed=0)
        opt = AdamW(model.named_parameters(), lr=1e-2, weight_decay=cfg.weight_decay)
        batch = [(bundle_for(a, cfg), a) for a in toy_dataset()]
        step_rng = np.random.default_rng(0)
        for epoch in range(3):
            total, _ = batch_loss(model, batch, epoch, rng=step_rng, train=True)
            model.zero_grad()
            total.backward()
            clip_gradients(model.named_parameters(), 1.0)
            opt.step()
        self.assert_views_of_the_arena(model)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, optimizer=opt)
        assert payload(path) == model.store.arena.tobytes()

        restored, _ = model_from_checkpoint(path)
        self.assert_views_of_the_arena(restored)
        assert restored.store.arena.tobytes() == model.store.arena.tobytes()
        # the warm-start load: train(init_from=...) passes its own config, here float32
        warm, _ = model_from_checkpoint(path, tiny_config(dtype="float32", encoder_layers=1,
                                                          decoder_layers=1))
        self.assert_views_of_the_arena(warm)
        assert warm.store.arena.tobytes() == model.store.arena.astype(np.float32).tobytes()

        weight = model.named_parameters()["heads.saliency.weight"].tensor
        before = model.store.arena.copy()
        grad_check(lambda _w: batch_loss(model, batch, 0)[0], [weight], max_coords_per_input=3)
        self.assert_views_of_the_arena(model)
        assert model.store.arena.tobytes() == before.tobytes()

    def test_model_from_checkpoint_reads_only_the_params_block(self, tmp_path, monkeypatch):
        cfg = tiny_config(dtype="float32", encoder_layers=1, decoder_layers=1)
        model = Model(cfg, seed=3)
        opt = AdamW(model.named_parameters(), lr=cfg.lr)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, optimizer=opt)
        readers = []

        def counting_open(*args, **kwargs):
            readers.append(CountingReader(open(*args, **kwargs)))
            return readers[-1]

        def no_init(*args, **kwargs):
            raise AssertionError("a checkpoint load drew a random init")

        monkeypatch.setattr(training, "open", counting_open, raising=False)
        monkeypatch.setattr(model_module, "xavier_uniform", no_init)
        restored, _ = model_from_checkpoint(path)
        assert [r.count for r in readers] == [path.stat().st_size]  # the header, then params
        assert restored.store.arena.dtype == np.float32
        assert restored.store.arena.tobytes() == model.store.arena.tobytes()

    def test_config_dtype_disagreeing_with_the_payload_length_is_refused(self, tmp_path):
        model = Model(tiny_config(dtype="float32", encoder_layers=1, decoder_layers=1), seed=3)
        path = tmp_path / "m.ckpt"
        save_with_fresh_adamw(path, model)
        rewrite_meta(path, lambda meta: meta["config"].update(dtype="float64"))  # payload stays f32
        nbytes = model.store.arena.nbytes
        with pytest.raises(ValueError, match=f"{path}: payload is {nbytes} bytes, "
                                             f"expected {2 * nbytes}"):
            model_from_checkpoint(path)

    def test_short_read_of_the_params_block_is_an_error(self, tmp_path, monkeypatch):
        model = Model(tiny_config(encoder_layers=1, decoder_layers=1), seed=3)
        path = tmp_path / "m.ckpt"
        save_with_fresh_adamw(path, model)

        class ShortReader(CountingReader):
            def readinto(self, buf):
                return super().readinto(buf[:len(buf) // 2])

        monkeypatch.setattr(training, "open", lambda *a, **k: ShortReader(open(*a, **k)),
                            raising=False)
        with pytest.raises(ValueError, match="params block is shorter"):
            model_from_checkpoint(path)


class CountingReader:
    """A file opened for reading that counts the bytes read out of it."""

    def __init__(self, fh):
        self.fh, self.count = fh, 0

    def read(self, *args):
        data = self.fh.read(*args)
        self.count += len(data)
        return data

    def readinto(self, buf):
        n = self.fh.readinto(buf)
        self.count += n
        return n

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestClipGradients:
    def test_large_norm_scaled_to_max(self, rng):
        params = make_params(rng, [(4,), (2, 3)])
        for p in params.values():
            p.tensor.grad[...] = rng.normal(size=p.tensor.data.shape) * 10
        norm_before = math.sqrt(sum(float((p.tensor.grad ** 2).sum()) for p in params.values()))
        returned = clip_gradients(params, 0.1)
        assert returned == pytest.approx(norm_before)
        norm_after = math.sqrt(sum(float((p.tensor.grad ** 2).sum()) for p in params.values()))
        assert norm_after == pytest.approx(0.1, rel=1e-12)

    def test_small_norm_untouched(self, rng):
        params = make_params(rng, [(4,)])
        params["p0"].tensor.grad[...] = 1e-4
        g_before = params["p0"].tensor.grad.copy()
        clip_gradients(params, 0.1)
        np.testing.assert_array_equal(params["p0"].tensor.grad, g_before)

    def test_nonpositive_max_disables(self, rng):
        params = make_params(rng, [(4,)])
        params["p0"].tensor.grad[...] = 100.0
        g_before = params["p0"].tensor.grad.copy()
        norm = clip_gradients(params, 0.0)
        np.testing.assert_array_equal(params["p0"].tensor.grad, g_before)
        assert norm == pytest.approx(200.0)

    def test_none_grads_skipped(self, rng):
        params = make_params(rng, [(4,), (3,)])
        params["p0"].tensor.grad[...] = 5.0  # p1's view stays zero
        assert clip_gradients(params, 0.0) == pytest.approx(10.0)


class TestGradNorm:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_chunked_norm_matches_the_per_parameter_sum(self, rng, monkeypatch, dtype):
        monkeypatch.setattr(training, "CHUNK", 100)  # chunks start and end inside parameters
        params = Model(tiny_config(dtype=dtype, encoder_layers=1, decoder_layers=1),
                       seed=0).named_parameters()
        assert params.grad_arena.size > 10 * training.CHUNK
        for i, p in enumerate(params.values()):
            p.tensor.grad[...] = 0.0 if i % 7 == 3 else rng.normal(size=p.tensor.data.shape)
        want = composed.grad_norm(params)
        grads = params.grad_arena.copy()
        assert clip_gradients(params, 0.0) == pytest.approx(want, rel=1e-12)
        assert params.grad_arena.tobytes() == grads.tobytes()
        assert clip_gradients(params, want / 2) == pytest.approx(want, rel=1e-12)
        assert composed.grad_norm(params) == pytest.approx(want / 2, rel=1e-6)

    def test_all_zero_arena_is_norm_zero_and_left_alone(self):
        params = Model(tiny_config(encoder_layers=1, decoder_layers=1), seed=0).named_parameters()
        assert clip_gradients(params, 1.0) == 0.0
        assert not params.grad_arena.any()

    def test_full_preset_norm_stays_within_one_chunk_buffer(self):
        params = Model(ModelConfig(), seed=None).named_parameters()
        largest = max(p.tensor.data.size for p in params.values())
        params.grad_arena[...] = 0.5
        tracemalloc.start()
        try:
            norm = clip_gradients(params, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a float64 copy of the largest gradient alone would be 22 MB
        assert largest * 8 > 20e6 and peak < 1e6
        assert norm == pytest.approx(0.5 * math.sqrt(params.grad_arena.size), rel=1e-12)
        assert composed.grad_norm(params) == pytest.approx(0.1, rel=1e-6)


class TestXavier:
    def test_bound_and_spread(self):
        rng = np.random.default_rng(0)
        fan_in, fan_out = 48, 16
        arr = np.empty((fan_in, fan_out))
        assert xavier_uniform(rng, arr, fan_in, fan_out) is arr
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(arr).max() <= bound
        assert np.abs(arr).max() > 0.9 * bound  # actually fills the range
        assert abs(arr.mean()) < 0.1 * bound

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_model_arena_equals_whole_uniform_draws_across_chunk_edges(self, dtype, monkeypatch):
        """The seeded arena drawn in DRAW_CHUNK pieces, cast on write, is
        bitwise the arena of one rng.uniform draw per parameter, cast after."""
        cfg = tiny_config(dtype=dtype)
        monkeypatch.setattr(autodiff, "DRAW_CHUNK", 100)
        model = Model(cfg, seed=5)
        sizes = [p.tensor.data.size for p in model.named_parameters().values()]
        assert any(n > 100 and n % 100 for n in sizes)  # chunk edges fall mid-parameter

        def whole_draw(rng, out, fan_in, fan_out):
            out[...] = composed.xavier_uniform(rng, out.shape, fan_in, fan_out)

        monkeypatch.setattr(model_module, "xavier_uniform", whole_draw)
        want = Model(cfg, seed=5).store.arena
        assert model.store.arena.dtype == want.dtype == np.dtype(dtype)
        assert model.store.arena.tobytes() == want.tobytes()


class TestCheckpoint:
    def test_round_trip_bitwise_float64(self, tmp_path, rng):
        cfg = tiny_config(encoder_layers=1, decoder_layers=1)
        model = Model(cfg, seed=7)
        opt = AdamW(model.named_parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
        for p in model.named_parameters().values():
            p.tensor.grad[...] = rng.normal(size=p.tensor.data.shape)
        opt.step()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, optimizer=opt, epoch=3, best_metric=0.5)
        restored, meta = model_from_checkpoint(path)
        assert meta["epochs_done"] == 3
        assert meta["best_metric"] == 0.5
        assert "payload_dtype" not in meta
        assert meta["optimizer_step"] == 1
        params = restored.named_parameters()
        for name, p in model.named_parameters().items():
            np.testing.assert_array_equal(params[name].tensor.data, p.tensor.data)
        assert payload(path) == model.store.arena.tobytes()

    def test_round_trip_bitwise_float32(self, tmp_path):
        cfg = tiny_config(dtype="float32", encoder_layers=1, decoder_layers=1)
        model = Model(cfg, seed=1)
        path = tmp_path / "model32.ckpt"
        save_with_fresh_adamw(path, model)
        restored, meta = model_from_checkpoint(path)
        assert "payload_dtype" not in meta
        assert meta["optimizer_step"] == 0
        params = restored.named_parameters()
        for name, p in model.named_parameters().items():
            assert params[name].tensor.data.dtype == np.dtype("<f4")
            np.testing.assert_array_equal(params[name].tensor.data, p.tensor.data)

    def test_save_is_byte_deterministic(self, tmp_path):
        cfg = tiny_config(encoder_layers=1, decoder_layers=1)
        model = Model(cfg, seed=2)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_with_fresh_adamw(a, model, epoch=1)
        save_with_fresh_adamw(b, model, epoch=1)
        assert a.read_bytes() == b.read_bytes()

    def test_model_from_checkpoint_reproduces_outputs(self, tmp_path):
        cfg = tiny_config(encoder_layers=1, decoder_layers=1)
        model = Model(cfg, seed=9)
        ann = make_annotation()
        bundle = bundle_for(ann, cfg)
        want = model.forward(bundle).saliency.data
        path = tmp_path / "m.ckpt"
        save_with_fresh_adamw(path, model)
        restored, meta = model_from_checkpoint(path)
        assert restored.cfg == cfg
        got = restored.forward(bundle).saliency.data
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype, stepped, payload_dtype, tag", [
        ("float64", True, "<f8", "f64"),
        ("float32", False, "<f4", "f32"),
    ])
    def test_byte_layout(self, tmp_path, rng, dtype, stepped, payload_dtype, tag):
        cfg = tiny_config(dtype=dtype, encoder_layers=1, decoder_layers=1)
        model = Model(cfg, seed=5)
        params = model.named_parameters()
        opt = AdamW(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
        if stepped:
            for p in params.values():
                p.tensor.grad[...] = rng.normal(size=p.tensor.data.shape)
            opt.step()
        path = tmp_path / "layout.ckpt"
        save_checkpoint(path, model, optimizer=opt, epoch=2, best_metric=0.25)
        head = {
            "config": cfg.to_dict(),
            "epochs_done": 2,
            "params": [{"name": n, "shape": list(p.tensor.data.shape)} for n, p in params.items()],
            "optimizer_step": 1 if stepped else 0,
            "best_metric": 0.25,
        }
        params_block = b"".join(np.asarray(p.tensor.data, dtype=payload_dtype).tobytes()
                                for p in params.values())

        def layout(head):
            meta = json.dumps(head).encode("utf-8")
            return b"MSPT" + struct.pack("<II", 2, len(meta)) + meta + params_block

        assert path.read_bytes() == layout(head)
        # the layout before the header lost its payload dtype tag still loads, bit for bit
        path.write_bytes(layout({**head, "payload_dtype": tag}))
        restored, meta = model_from_checkpoint(path)
        assert meta["payload_dtype"] == tag
        assert restored.store.arena.tobytes() == params.arena.tobytes()

    def test_header_parts_are_built_once_per_model(self, tmp_path, monkeypatch):
        # only the epoch, the step and the best metric change between a model's saves
        cfg = tiny_config(encoder_layers=1, decoder_layers=1)
        model = Model(cfg, seed=3)
        params = model.named_parameters()
        opt = AdamW(params, lr=cfg.lr)
        config = cfg.to_dict()
        entries = [{"name": n, "shape": list(p.tensor.data.shape)} for n, p in params.items()]
        built = []
        to_dict = ModelConfig.to_dict
        monkeypatch.setattr(ModelConfig, "to_dict", lambda self: built.append(self) or to_dict(self))
        path = tmp_path / "h.ckpt"
        for epoch, best, step in ((0, None, 0), (1, 0.125, 4), (2, np.float64(1 / 3), 9),
                                  (3, math.nan, 9)):
            opt.step_count = step
            save_checkpoint(path, model, optimizer=opt, epoch=epoch, best_metric=best)
            head = json.dumps({"config": config, "epochs_done": epoch, "params": entries,
                               "optimizer_step": step, "best_metric": best}).encode("utf-8")
            assert path.read_bytes() == b"MSPT" + struct.pack("<II", 2, len(head)) + head \
                + params.arena.tobytes()
        assert built == [cfg]
        save_checkpoint(tmp_path / "other.ckpt", Model(cfg, seed=4), optimizer=opt)
        assert len(built) == 2

    def test_interrupted_writes_keep_previous_files(self, tmp_path, monkeypatch):
        cfg = tiny_config(encoder_layers=1, decoder_layers=1)
        last, best = tmp_path / "last.ckpt", tmp_path / "best.ckpt"
        save_with_fresh_adamw(last, Model(cfg, seed=0))
        best.write_bytes(last.read_bytes())
        old = last.read_bytes()
        header = 12 + struct.unpack("<I", old[8:12])[0]
        budget = header + (len(old) - header) // 2  # stop halfway through the payload

        def assert_intact(path, want):
            assert path.read_bytes() == want
            model_from_checkpoint(path)
            assert sorted(p.name for p in tmp_path.iterdir()) == ["best.ckpt", "last.ckpt"]

        with monkeypatch.context() as patch:
            short_writes(patch, budget)
            with pytest.raises(OSError):
                save_with_fresh_adamw(last, Model(cfg, seed=1))
        assert_intact(last, old)
        save_with_fresh_adamw(last, Model(cfg, seed=1))
        new = last.read_bytes()
        assert new != old
        with monkeypatch.context() as patch:
            short_writes(patch, budget)
            with pytest.raises(OSError):
                training._copy_checkpoint(last, best)
        assert_intact(best, old)
        assert_intact(last, new)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValueError, match="bad magic"):
            model_from_checkpoint(path)

    def test_bad_version(self, tmp_path):
        cfg = tiny_config(encoder_layers=1, decoder_layers=1)
        path = tmp_path / "v.ckpt"
        save_with_fresh_adamw(path, Model(cfg, seed=0))
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="unsupported checkpoint version 99"):
            model_from_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        cfg = tiny_config(encoder_layers=1, decoder_layers=1)
        path = tmp_path / "t.ckpt"
        save_with_fresh_adamw(path, Model(cfg, seed=0))
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(ValueError, match="payload is"):
            model_from_checkpoint(path)

    @pytest.mark.parametrize("header, message", MALFORMED_HEADERS)
    def test_header_missing_a_key(self, tmp_path, header, message):
        path = tmp_path / "k.ckpt"
        save_with_fresh_adamw(path, Model(tiny_config(encoder_layers=1, decoder_layers=1), seed=0))
        replace_header(path, header(read_meta(path)))
        with pytest.raises(ValueError, match=f"{path}: {message}"):
            model_from_checkpoint(path)

    @pytest.mark.parametrize("edit, field", [
        pytest.param(lambda cfg: 7, "config must be an object", id="not-an-object"),
        pytest.param(lambda cfg: {**cfg, "hidden_dim": "wide"}, "hidden_dim", id="dim-string"),
        pytest.param(lambda cfg: {**cfg, "weights": {**cfg["weights"], "temperature": 0}},
                     "temperature", id="zero-temperature"),
        pytest.param(lambda cfg: {**cfg, "lr": math.nan}, "lr", id="nan-lr"),
    ])
    def test_header_config_of_the_wrong_type_is_a_config_error(self, tmp_path, edit, field):
        cfg = tiny_config(encoder_layers=1, decoder_layers=1)
        path = tmp_path / "m.ckpt"
        save_with_fresh_adamw(path, Model(cfg))
        rewrite_meta(path, lambda meta: meta.update(config=edit(meta["config"])))
        with pytest.raises(ConfigError, match=field):
            model_from_checkpoint(path)
        with pytest.raises(ConfigError, match=field):  # a warm start checks it too
            model_from_checkpoint(path, cfg)

    def test_has_optimizer_is_neither_written_nor_required(self, tmp_path):
        model = Model(tiny_config(encoder_layers=1, decoder_layers=1), seed=0)
        path = tmp_path / "h.ckpt"
        save_with_fresh_adamw(path, model)
        assert "has_optimizer" not in read_meta(path)
        # files from before the key was dropped carry it, always true
        rewrite_meta(path, lambda meta: meta.update(has_optimizer=True))
        restored, _ = model_from_checkpoint(path)
        assert restored.store.arena.tobytes() == model.store.arena.tobytes()

    def test_version_1_file_is_refused(self, tmp_path):
        # as earlier runs wrote it: params|m|v under a header with epoch and rng_state
        cfg = tiny_config(dtype="float32", encoder_layers=1, decoder_layers=1)
        params = Model(cfg, seed=6).named_parameters()
        meta = json.dumps({
            "config": cfg.to_dict(),
            "epoch": 4,
            "payload_dtype": "f32",
            "params": [{"name": n, "shape": list(p.tensor.data.shape)} for n, p in params.items()],
            "optimizer_step": 10,
            "rng_state": np.random.default_rng(4).bit_generator.state,
            "best_metric": None,
        }).encode("utf-8")
        path = tmp_path / "v1.ckpt"
        path.write_bytes(b"MSPT" + struct.pack("<II", 1, len(meta)) + meta
                         + np.zeros(3 * params.arena.size, np.float32).tobytes())
        with pytest.raises(ValueError, match=f"{path}: unsupported checkpoint version 1"):
            model_from_checkpoint(path)

    def test_version_2_with_three_blocks_is_rejected(self, tmp_path):
        model = Model(tiny_config(encoder_layers=1, decoder_layers=1), seed=0)
        path = tmp_path / "three.ckpt"
        save_with_fresh_adamw(path, model)
        arena = model.store.arena
        path.write_bytes(path.read_bytes() + np.zeros(2 * arena.size, arena.dtype).tobytes())
        with pytest.raises(ValueError, match=f"{path}: payload is {3 * arena.nbytes} bytes, "
                                             f"expected {arena.nbytes}"):
            model_from_checkpoint(path)

    def test_save_needs_an_optimizer(self, tmp_path):
        path = tmp_path / "o.ckpt"
        with pytest.raises(TypeError):
            save_checkpoint(path, Model(tiny_config(encoder_layers=1, decoder_layers=1), seed=0))
        assert not path.exists()

    def test_payload_dtype_tag_is_not_read(self, tmp_path):
        # the config's dtype sizes and decodes the params block, whatever an older tag says
        model = Model(tiny_config(encoder_layers=1, decoder_layers=1), seed=0)  # float64
        path = tmp_path / "d.ckpt"
        save_with_fresh_adamw(path, model)
        for tag in ("f32", "f64", "f16"):
            rewrite_meta(path, lambda meta: meta.update(payload_dtype=tag))
            restored, _ = model_from_checkpoint(path)
            assert restored.store.arena.dtype == np.float64
            assert restored.store.arena.tobytes() == model.store.arena.tobytes()


class TestSplit:
    def test_fraction_zero_keeps_everything(self):
        anns = toy_dataset()
        tr, va = split_dataset(anns, 0.0, seed=0)
        assert len(tr) == 3 and va == []

    def test_split_sizes_and_determinism(self):
        anns = [make_annotation(qid=i) for i in range(10)]
        tr1, va1 = split_dataset(anns, 0.3, seed=5)
        tr2, va2 = split_dataset(anns, 0.3, seed=5)
        assert len(va1) == 3 and len(tr1) == 7
        assert [a.qid for a in tr1] == [a.qid for a in tr2]
        assert [a.qid for a in va1] == [a.qid for a in va2]
        assert {a.qid for a in tr1} | {a.qid for a in va1} == set(range(10))

    def test_different_seed_changes_split(self):
        anns = [make_annotation(qid=i) for i in range(10)]
        _, va1 = split_dataset(anns, 0.3, seed=1)
        _, va2 = split_dataset(anns, 0.3, seed=2)
        assert {a.qid for a in va1} != {a.qid for a in va2}

    def test_singleton_never_split(self):
        tr, va = split_dataset([make_annotation()], 0.5, seed=0)
        assert len(tr) == 1 and va == []


class TestTrainLoop:
    def small_cfg(self, **overrides):
        base = dict(epochs=2, encoder_layers=1, decoder_layers=1, batch_size=2)
        base.update(overrides)
        return tiny_config(**base)

    def test_smoke_train_writes_artifacts(self, tmp_path):
        cfg = self.small_cfg()
        result = train(cfg, toy_dataset(), tmp_path / "run", seed=0)
        assert not result.diverged
        assert result.epochs_run == 2
        assert len(result.loss_trace) == 2
        assert all(np.isfinite(x) for x in result.loss_trace)
        assert (tmp_path / "run" / "last.ckpt").exists()
        assert (tmp_path / "run" / "best.ckpt").exists()
        lines = read_log(result)
        train_lines = [l for l in lines if l["split"] == "train"]
        assert [l["epoch"] for l in train_lines] == [0, 1]
        assert all("total" in l and "contrastive" in l for l in train_lines)
        assert math.isnan(result.best_metric)  # no validation pass ran

    def test_training_reduces_loss(self, tmp_path):
        # the raw trace is not epoch-comparable (the hard term grows with the
        # epoch index), so score both models on the identical epoch-0 objective
        from momentspot.model import batch_loss
        cfg = self.small_cfg(epochs=12, lr=2e-3)
        anns = toy_dataset()
        batch = [(bundle_for(a, cfg), a) for a in anns]
        fresh = Model(cfg, seed=0)
        before, _ = batch_loss(fresh, batch, epoch=0, train=False)
        result = train(cfg, anns, tmp_path / "run", seed=0)
        trained, _ = model_from_checkpoint(result.last_checkpoint)
        after, _ = batch_loss(trained, batch, epoch=0, train=False)
        assert after.item() < before.item()

    def test_validation_tracks_best(self, tmp_path):
        cfg = self.small_cfg(epochs=3, val_fraction=0.34, eval_every=1)
        result = train(cfg, toy_dataset(), tmp_path / "run", seed=0)
        assert np.isfinite(result.best_metric)
        lines = read_log(result)
        val_lines = [l for l in lines if l["split"] == "val"]
        assert len(val_lines) == 3
        assert all("map_avg" in l for l in val_lines)
        _, meta = model_from_checkpoint(tmp_path / "run" / "best.ckpt")
        assert meta["best_metric"] == pytest.approx(result.best_metric)

    def test_validation_writes_last_once_per_epoch_and_copies_it_to_best(self, tmp_path,
                                                                         monkeypatch):
        snapshots = []

        def recording_save(path, *args, **kwargs):
            save_checkpoint(path, *args, **kwargs)
            snapshots.append((Path(path).name, Path(path).read_bytes()))

        monkeypatch.setattr(training, "save_checkpoint", recording_save)
        cfg = self.small_cfg(epochs=3, val_fraction=0.34, eval_every=1)
        result = train(cfg, toy_dataset(), tmp_path / "run", seed=0)
        assert [name for name, _ in snapshots] == ["last.ckpt"] * (cfg.epochs + 1)
        metas = [json.loads(raw[12:12 + struct.unpack("<I", raw[8:12])[0]]) for _, raw in snapshots]
        assert [meta["epochs_done"] for meta in metas] == [0, 1, 2, 3]  # finished epochs
        lines = read_log(result)
        val_maps = [l["map_avg"] for l in lines if l["split"] == "val"]
        best_epoch = val_maps.index(result.best_metric)  # the first epoch to reach the best
        best = Path(result.best_checkpoint).read_bytes()
        assert best == snapshots[best_epoch + 1][1]  # snapshot 0 is the initial save
        _, meta = model_from_checkpoint(result.best_checkpoint)
        assert meta["epochs_done"] == best_epoch + 1
        _, meta = model_from_checkpoint(result.last_checkpoint)
        assert meta["best_metric"] == result.best_metric

    def test_best_moves_to_the_first_epoch_reaching_the_top_score(self, tmp_path, monkeypatch):
        scores = iter([0.1, 0.4, 0.4])

        def scripted_eval(model, annotations, feature_dir=None, bundles=None):
            return MetricReport(*[0.0] * 4, next(scores), *[0.0] * 3), []

        snapshots = []

        def recording_save(path, *args, **kwargs):
            save_checkpoint(path, *args, **kwargs)
            snapshots.append(Path(path).read_bytes())

        monkeypatch.setattr(training, "evaluate_model", scripted_eval)
        monkeypatch.setattr(training, "save_checkpoint", recording_save)
        cfg = self.small_cfg(epochs=3, val_fraction=0.34, eval_every=1)
        result = train(cfg, toy_dataset(), tmp_path / "run", seed=0)
        assert len(snapshots) == 4  # the initial save, then one per epoch
        assert Path(result.best_checkpoint).read_bytes() == snapshots[2]  # after epoch 1
        _, meta = model_from_checkpoint(result.best_checkpoint)
        assert meta["epochs_done"] == 2 and meta["best_metric"] == 0.4
        assert result.best_metric == 0.4
        _, meta = model_from_checkpoint(result.last_checkpoint)
        assert meta["epochs_done"] == 3 and meta["best_metric"] == 0.4

    def test_eval_every_zero_validates_after_the_last_epoch(self, tmp_path):
        anns = toy_dataset()
        cfg = self.small_cfg(epochs=2, eval_every=0)
        result = train(cfg, anns[:2], tmp_path / "run", seed=0, val_annotations=anns[2:])
        lines = read_log(result)
        assert [l["epoch"] for l in lines if l["split"] == "val"] == [1]
        assert np.isfinite(result.best_metric)

    def test_explicit_validation_set(self, tmp_path):
        anns = toy_dataset()
        cfg = self.small_cfg(epochs=1, eval_every=1)
        result = train(cfg, anns[:2], tmp_path / "run", seed=0, val_annotations=anns[2:])
        assert np.isfinite(result.best_metric)

    def test_rerun_is_deterministic(self, tmp_path):
        cfg = self.small_cfg(epochs=3)
        r1 = train(cfg, toy_dataset(), tmp_path / "a", seed=3)
        r2 = train(cfg, toy_dataset(), tmp_path / "b", seed=3)
        assert r1.loss_trace == r2.loss_trace
        m1, _ = model_from_checkpoint(r1.last_checkpoint)
        m2, _ = model_from_checkpoint(r2.last_checkpoint)
        assert m1.store.arena.tobytes() == m2.store.arena.tobytes()

    def test_rerun_with_dropout_is_byte_identical(self, tmp_path):
        cfg = self.small_cfg(epochs=3, dtype="float32", dropout=0.2, input_dropout=0.3,
                             grad_clip=0.5, val_fraction=0.34, eval_every=1)
        r1 = train(cfg, toy_dataset(), tmp_path / "a", seed=2)
        r2 = train(cfg, toy_dataset(), tmp_path / "b", seed=2)
        assert r1.loss_trace == r2.loss_trace
        assert np.isfinite(r1.best_metric)  # validation ran
        for name in ("last.ckpt", "best.ckpt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        # the dropout masks took part: without them the same run gives another trace
        plain = train(dataclasses.replace(cfg, dropout=0.0, input_dropout=0.0), toy_dataset(),
                      tmp_path / "c", seed=2)
        assert plain.loss_trace != r1.loss_trace

    def test_seed_changes_run(self, tmp_path):
        cfg = self.small_cfg(epochs=2)
        r1 = train(cfg, toy_dataset(), tmp_path / "a", seed=1)
        r2 = train(cfg, toy_dataset(), tmp_path / "b", seed=2)
        assert r1.loss_trace != r2.loss_trace

    def test_warm_start_from_checkpoint(self, tmp_path):
        cfg = self.small_cfg(epochs=1)
        first = train(cfg, toy_dataset(), tmp_path / "a", seed=0)
        resumed = train(cfg, toy_dataset(), tmp_path / "b", seed=0,
                        init_from=first.last_checkpoint)
        # warm start continues from trained weights, so epoch 0 loss drops
        assert resumed.loss_trace[0] < first.loss_trace[0]

    def test_warm_start_reads_only_the_params_block_cast_to_the_config(self, tmp_path,
                                                                        monkeypatch):
        source = Model(self.small_cfg(), seed=4)  # float64
        path = tmp_path / "source.ckpt"
        save_checkpoint(path, source, optimizer=AdamW(source.named_parameters(), lr=1e-3))
        readers = []

        def counting_open(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            if mode != "rb":
                return fh
            readers.append(CountingReader(fh))
            return readers[-1]

        def no_init(*args, **kwargs):
            raise AssertionError("a warm start drew a random init")

        monkeypatch.setattr(training, "open", counting_open, raising=False)
        monkeypatch.setattr(model_module, "xavier_uniform", no_init)
        cfg = self.small_cfg(dtype="float32", epochs=0)
        result = train(cfg, toy_dataset(), tmp_path / "run", seed=0, init_from=path)
        assert readers[0].name == str(path)
        assert readers[0].count == path.stat().st_size  # the header, then params
        restored, _ = model_from_checkpoint(result.last_checkpoint)
        params = restored.state_arrays()
        for name, arr in source.state_arrays().items():
            assert params[name].dtype == np.float32
            assert params[name].tobytes() == arr.astype(np.float32).tobytes()

    def test_warm_start_from_another_layout_is_rejected(self, tmp_path):
        path = tmp_path / "source.ckpt"
        save_with_fresh_adamw(path, Model(self.small_cfg(), seed=4))
        with pytest.raises(ConfigError, match="parameter layout"):
            train(self.small_cfg(hidden_dim=8), toy_dataset(), tmp_path / "run", seed=0,
                  init_from=path)

    def test_divergence_aborts_and_keeps_checkpoint(self, tmp_path):
        cfg = self.small_cfg(epochs=25, lr=1e9, grad_clip=0.0)
        with np.errstate(all="ignore"):  # overflow is the point of this run
            result = train(cfg, toy_dataset(), tmp_path / "run", seed=0)
        assert result.diverged
        assert result.epochs_run < 25
        assert (tmp_path / "run" / "last.ckpt").exists()
        restored, _ = model_from_checkpoint(tmp_path / "run" / "last.ckpt")
        assert np.isfinite(restored.store.arena).all()
        lines = read_log(result)
        assert lines[-1].get("diverged") is True
        assert isinstance(lines[-1]["batch"], int) and lines[-1]["batch"] >= 0
        assert isinstance(lines[-1]["cause"], str) and lines[-1]["cause"]

    def test_diverged_run_without_validation_leaves_finite_best(self, tmp_path):
        # the largest finite lr overflows the first update (epoch 0, batch 0); an
        # infinite one would also, but a checkpoint header holding it does not load
        with np.errstate(all="ignore"):
            result = train(self.small_cfg(lr=float(np.finfo(np.float64).max)), toy_dataset(),
                           tmp_path / "run", seed=0)
        assert result.diverged and result.epochs_run == 0
        log = read_log(result)
        assert log[-1]["batch"] == 0 and log[-1]["cause"].startswith("non-finite parameter")
        best = Path(result.best_checkpoint).read_bytes()
        assert best == Path(result.last_checkpoint).read_bytes()
        restored, _ = model_from_checkpoint(result.best_checkpoint)
        assert np.isfinite(restored.store.arena).all()

    def test_overflowing_total_names_its_largest_term(self, tmp_path, monkeypatch):
        # every component is finite; task_coupled's weighted float32 value overflows the sum
        monkeypatch.setattr(model_module, "task_coupled_loss",
                            lambda *args, **kwargs: Tensor(np.asarray(1e38, dtype=np.float32)))
        cfg = self.small_cfg(dtype="float32", weights=LossWeights(task_coupled=4.0))
        with np.errstate(over="ignore"):
            result = train(cfg, toy_dataset(), tmp_path / "run", seed=0)
        assert result.diverged and result.epochs_run == 0
        assert read_log(result)[-1] == {"epoch": 0, "split": "train", "diverged": True,
                                        "batch": 0, "cause": "non-finite total: task_coupled"}

    @pytest.mark.parametrize("planted, cause", [
        # NaN class logits: batch_loss stops before the matcher sees them
        ("heads.class.weight", "moment head produced non-finite predictions"),
        # NaN GRU scores, finite moments: compose_total names the component
        ("gru.readout.weight", "loss component 'task_coupled' is not finite"),
    ], ids=["predictions", "component"])
    def test_a_composition_error_stops_the_run_and_names_its_cause(self, tmp_path, planted, cause):
        source = Model(self.small_cfg(), seed=3)
        source.named_parameters()[planted].tensor.data[...] = np.nan
        save_with_fresh_adamw(tmp_path / "nan.ckpt", source)
        with np.errstate(invalid="ignore"):
            result = train(self.small_cfg(), toy_dataset(), tmp_path / "run", seed=0,
                           init_from=tmp_path / "nan.ckpt")
        assert result.diverged and result.epochs_run == 0 and result.loss_trace == []
        assert read_log(result) == [{"epoch": 0, "split": "train", "diverged": True,
                                     "batch": 0, "cause": cause}]
        restored, meta = model_from_checkpoint(result.last_checkpoint)
        assert meta["epochs_done"] == 0
        assert restored.store.arena.tobytes() == source.store.arena.tobytes()

    @pytest.mark.parametrize("planted, named", [
        ({-1: np.nan, 5: np.inf}, 5),  # the cause names the first in registry order
        ({5: 1e200}, None),  # finite, but its square overflows the norm
    ], ids=["nan-and-inf", "overflow"])
    def test_non_finite_gradient_stops_the_run_before_the_update(self, tmp_path, monkeypatch,
                                                                 planted, named):
        optimizers, updates = [], []

        class RecordingAdamW(AdamW):
            def __init__(self, params, **kwargs):
                super().__init__(params, **kwargs)
                self.params = params
                optimizers.append(self)

            def state(self):
                return b"".join(a.tobytes() for a in (self.params.arena, self.m_arena, self.v_arena))

            def step(self):
                super().step()
                updates.append(self.state())

        backward = Tensor.backward
        names = list(Model(self.small_cfg(), seed=None).named_parameters())

        def planting_backward(tensor):
            backward(tensor)
            if len(updates) == 1:  # the second step's gradients
                for index, value in planted.items():
                    optimizers[0].params[names[index]].tensor.grad.flat[-1] = value

        monkeypatch.setattr(training, "AdamW", RecordingAdamW)
        monkeypatch.setattr(Tensor, "backward", planting_backward)
        with np.errstate(over="ignore"):  # the planted 1e200 overflows the norm
            result = train(self.small_cfg(grad_clip=0.5), toy_dataset(), tmp_path / "run",
                           seed=0)
        cause = "non-finite gradient " + ("norm" if named is None else names[named])
        assert result.diverged and result.epochs_run == 0
        assert read_log(result)[-1] == {"epoch": 0, "split": "train", "diverged": True,
                                        "batch": 1, "cause": cause}
        # one update ran; the second step left its weights and moments as they were
        assert updates == [optimizers[0].state()]
        restored, _ = model_from_checkpoint(result.last_checkpoint)
        assert np.isfinite(restored.store.arena).all()

    def test_each_checkpoint_is_written_once(self, tmp_path, monkeypatch):
        written = []

        def counting_save(path, *args, **kwargs):
            written.append(Path(path).name)
            return save_checkpoint(path, *args, **kwargs)

        monkeypatch.setattr(training, "save_checkpoint", counting_save)
        result = train(self.small_cfg(epochs=3), toy_dataset(), tmp_path / "run", seed=0)
        assert not result.diverged
        assert written == ["last.ckpt"] * 4  # the initial save, then one per epoch
        assert Path(result.best_checkpoint).read_bytes() == \
            Path(result.last_checkpoint).read_bytes()

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_checkpoints_hold_the_header_and_one_params_block(self, tmp_path, dtype):
        cfg = self.small_cfg(dtype=dtype, val_fraction=0.34, eval_every=1)
        result = train(cfg, toy_dataset(), tmp_path / "run", seed=0)
        arena = Model(cfg, seed=None).store.arena
        for path in (Path(result.last_checkpoint), Path(result.best_checkpoint)):
            (meta_len,) = struct.unpack("<I", path.read_bytes()[8:12])
            assert path.stat().st_size == 12 + meta_len + arena.nbytes
            assert "rng_state" not in read_meta(path)

    def test_rerun_without_validation_replaces_stale_best(self, tmp_path):
        run = tmp_path / "run"
        first = train(self.small_cfg(val_fraction=0.34, eval_every=1), toy_dataset(), run, seed=0)
        assert np.isfinite(first.best_metric)
        result = train(self.small_cfg(), toy_dataset(), run, seed=1)
        assert math.isnan(result.best_metric)
        assert Path(result.best_checkpoint).read_bytes() == \
            Path(result.last_checkpoint).read_bytes()

    def test_log_records_each_steps_gradient_norm(self, tmp_path, monkeypatch):
        returned = []

        def recording_clip(params, max_norm):
            returned.append(clip_gradients(params, max_norm))
            return returned[-1]

        monkeypatch.setattr(training, "clip_gradients", recording_clip)
        cfg = self.small_cfg(epochs=2, batch_size=2, grad_clip=0.5)
        result = train(cfg, toy_dataset(), tmp_path / "run", seed=0)
        lines = read_log(result)
        norms = [l["grad_norms"] for l in lines if l["split"] == "train"]
        batches = math.ceil(len(toy_dataset()) / cfg.batch_size)
        assert [len(n) for n in norms] == [batches] * cfg.epochs
        assert all(math.isfinite(x) for n in norms for x in n)
        assert [x for n in norms for x in n] == returned

    def test_log_times_every_step_without_touching_the_run(self, tmp_path, monkeypatch):
        # criterion 8's setup, once on the real clock and once on a fake one
        feature_dir = tmp_path / "features"
        anns = build_overfit_fixture(feature_dir=feature_dir)[:4]
        cfg = ModelConfig.desk(epochs=8)
        real = train(cfg, anns, tmp_path / "real", seed=3, feature_dir=feature_dir)
        ticks = itertools.count(0.0, 0.25)
        monkeypatch.setattr(training, "perf_counter", lambda: next(ticks))
        fake = train(cfg, anns, tmp_path / "fake", seed=3, feature_dir=feature_dir)
        assert fake.loss_trace == real.loss_trace
        for name in ("last.ckpt", "best.ckpt"):
            assert (tmp_path / "fake" / name).read_bytes() == \
                (tmp_path / "real" / name).read_bytes()
        steps = math.ceil(len(anns) / cfg.batch_size)
        for result in (real, fake):
            entries = read_log(result)
            assert len(entries) == cfg.epochs
            for entry in entries:
                for key in ("grad_norms", "forward_ms", "backward_ms", "optimizer_ms"):
                    assert len(entry[key]) == steps
                    assert all(x >= 0.0 for x in entry[key])
                assert entry["items_per_s"] > 0.0
        # each phase spans one 0.25 s tick; an epoch spans 4 ticks per step and one more
        for entry in entries:
            assert entry["forward_ms"] == entry["backward_ms"] == entry["optimizer_ms"] == \
                [250.0] * steps
            assert entry["items_per_s"] == pytest.approx(len(anns) / (0.25 * (4 * steps + 1)))

    def test_val_entries_give_the_validation_items_per_s(self, tmp_path, monkeypatch):
        anns = toy_dataset()
        cfg = self.small_cfg(epochs=2, eval_every=1)
        for clock in ("real", "fake"):
            if clock == "fake":  # evaluate_model spans one 0.25 s tick
                ticks = itertools.count(0.0, 0.25)
                monkeypatch.setattr(training, "perf_counter", lambda: next(ticks))
            result = train(cfg, anns[:2], tmp_path / clock, seed=0, val_annotations=anns[2:])
            val = [entry for entry in read_log(result) if entry["split"] == "val"]
            assert len(val) == cfg.epochs
            for entry in val:
                assert math.isfinite(entry["items_per_s"]) and entry["items_per_s"] > 0.0
                if clock == "fake":
                    assert entry["items_per_s"] == len(anns[2:]) / 0.25

    def test_each_steps_graph_is_dropped_before_the_next_forward(self, tmp_path, monkeypatch):
        # weak references to the values of each step's total and loss terms, the
        # roots of its graph (a Tensor takes no weak reference, its array does)
        roots = []

        def assert_graphs_dead():
            gc.collect()
            assert all(ref() is None for ref in roots)

        def tracked_batch_loss(*args, **kwargs):
            assert_graphs_dead()
            total, parts = batch_loss(*args, **kwargs)
            roots.extend(weakref.ref(t.data) for t in (total, *parts.values()))
            return total, parts

        def tracked_evaluate_model(*args, **kwargs):
            assert_graphs_dead()
            return evaluate_model(*args, **kwargs)

        monkeypatch.setattr(training, "batch_loss", tracked_batch_loss)
        monkeypatch.setattr(training, "evaluate_model", tracked_evaluate_model)
        data = toy_dataset()
        result = train(self.small_cfg(eval_every=1), data[:2], tmp_path / "run", seed=0,
                       val_annotations=data[2:])
        assert len(roots) == 2 * 10 and not result.diverged  # one batch in each of two epochs
        assert [e["split"] for e in read_log(result)] == ["train", "val"] * 2

    def test_oversized_video_rejected_before_any_write(self, tmp_path):
        long_item = make_annotation(qid=9, vid="vid_long", duration=40.0,
                                    saliency_levels=[0, 2, 4] + [0] * 17)
        cfg = self.small_cfg()  # max_clips=16 < 20 clips
        with pytest.raises(ConfigError, match="qid 9"):
            train(cfg, toy_dataset() + [long_item], tmp_path / "run", seed=0)
        assert not (tmp_path / "run" / "last.ckpt").exists()
        assert not (tmp_path / "run" / "train_log.jsonl").exists()
        with pytest.raises(ConfigError, match="qid 9"):
            evaluate_model(Model(cfg, seed=0), [long_item])

    def test_non_finite_features_rejected_before_any_write(self, tmp_path):
        item = toy_dataset()[1]
        feats = np.ones((item.num_clips, 10))
        feats[2, 3] = np.inf
        save_features(tmp_path / f"{item.vid}.clip_v.vlft", feats)
        with pytest.raises(ValueError, match=f"qid {item.qid}"):
            train(self.small_cfg(), toy_dataset(), tmp_path / "run", seed=0,
                  feature_dir=tmp_path)
        assert not (tmp_path / "run" / "last.ckpt").exists()
        with pytest.raises(ValueError, match=f"qid {item.qid}"):
            evaluate_model(Model(self.small_cfg(), seed=0), [item], feature_dir=tmp_path)

    def test_empty_training_split_rejected_before_any_write(self, tmp_path):
        # val_fraction=0.75 of 2 items rounds to 2 validation items
        with pytest.raises(ValueError, match="training split is empty"):
            train(self.small_cfg(val_fraction=0.75), toy_dataset()[:2], tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("split", ["training", "validation"])
    def test_duplicate_qid_rejected_before_any_write(self, tmp_path, split):
        anns = toy_dataset()
        twin = make_annotation(qid=anns[0].qid, vid="vid_twin")
        train_set, val_set = (anns + [twin], anns[1:]) if split == "training" else \
            (anns[1:], [anns[0], twin])
        cfg = self.small_cfg(eval_every=1)
        with pytest.raises(ValueError, match=f"duplicate qid {twin.qid} in the {split} set"):
            train(cfg, train_set, tmp_path / "run", seed=0, val_annotations=val_set)
        assert not (tmp_path / "run").exists()

    def test_non_finite_lr_is_rejected_before_any_write(self, tmp_path):
        # a Python-built config skips from_dict; train runs the first save's check
        run = tmp_path / "run"
        with pytest.raises(ConfigError, match="config field lr must be finite, got inf"):
            train(self.small_cfg(lr=math.inf), toy_dataset(), run, seed=0)
        assert not run.exists()

    def test_numpy_float_lr_saves_and_reloads(self, tmp_path):
        # np.float64 is a float to json, so the header holds a plain float
        cfg = self.small_cfg(lr=np.float64(1e-3))
        result = train(cfg, toy_dataset(), tmp_path / "run", seed=0)
        model, meta = model_from_checkpoint(result.best_checkpoint)
        assert type(model.cfg.lr) is float and model.cfg.lr == 1e-3
        assert meta["config"]["lr"] == 1e-3

    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            train(self.small_cfg(), [], tmp_path / "run")

    @staticmethod
    def first_step(cfg):
        """train()'s model, AdamW, first batch and rng for toy_dataset() at seed 0."""
        model = Model(cfg, seed=0)
        optimizer = AdamW(model.named_parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
        rng = np.random.default_rng([0, 2])
        data = toy_dataset()
        batch = [(bundle_for(data[i], cfg), data[i])
                 for i in rng.permutation(len(data))[:cfg.batch_size]]
        return model, optimizer, batch, rng

    @pytest.mark.parametrize("force", ["total", "gradient", "parameter"])
    def test_a_diverged_train_step_raises_the_cause_train_logs(self, tmp_path, monkeypatch,
                                                               force):
        cfg = self.small_cfg()
        names = list(Model(cfg, seed=None).named_parameters())
        if force == "total":
            # every component is finite; task_coupled's weighted float32 value overflows the sum
            monkeypatch.setattr(model_module, "task_coupled_loss",
                                lambda *args, **kwargs: Tensor(np.asarray(1e38, dtype=np.float32)))
            cfg = self.small_cfg(dtype="float32", weights=LossWeights(task_coupled=4.0))
            cause = "non-finite total: task_coupled"
        elif force == "gradient":
            def planting_clip(params, max_norm):
                params[names[5]].tensor.grad.flat[-1] = np.inf
                return clip_gradients(params, max_norm)

            monkeypatch.setattr(training, "clip_gradients", planting_clip)
            cause = f"non-finite gradient {names[5]}"
        else:  # the largest finite lr overflows the first update
            cfg = self.small_cfg(lr=float(np.finfo(np.float64).max))
        model, optimizer, batch, rng = self.first_step(cfg)
        with np.errstate(all="ignore"):
            logged = read_log(train(cfg, toy_dataset(), tmp_path / "run", seed=0))
            with pytest.raises(CompositionError) as exc:
                train_step(model, optimizer, batch, 0, rng)
        if force == "parameter":  # the first in registry order
            cause = "non-finite parameter " + next(
                name for name, p in model.named_parameters().items()
                if not np.isfinite(p.tensor.data).all())
        assert str(exc.value) == cause
        assert logged == [{"epoch": 0, "split": "train", "diverged": True, "batch": 0,
                           "cause": cause}]

    @pytest.mark.parametrize("planted, named", [
        (np.nan, 5),
        (1e200, None),  # finite, but its square overflows the norm
    ], ids=["nan", "overflow"])
    def test_a_non_finite_gradient_leaves_weights_and_moments_as_they_were(
            self, monkeypatch, planted, named):
        model, optimizer, batch, rng = self.first_step(self.small_cfg(grad_clip=0.5))
        train_step(model, optimizer, batch, 0, rng)  # one update, so the moments are not zero
        names = list(model.named_parameters())

        def state():
            return [a.tobytes() for a in (model.store.arena, optimizer.m_arena, optimizer.v_arena)]

        def planting_clip(params, max_norm):
            params[names[5]].tensor.grad.flat[-1] = planted
            return clip_gradients(params, max_norm)

        before = state()
        monkeypatch.setattr(training, "clip_gradients", planting_clip)
        cause = "non-finite gradient " + ("norm" if named is None else names[named])
        with np.errstate(over="ignore"), pytest.raises(CompositionError) as exc:
            train_step(model, optimizer, batch, 1, rng)
        assert str(exc.value) == cause
        assert state() == before and optimizer.step_count == 1

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_train_step_is_the_hand_rolled_step(self, tmp_path, dtype):
        def hand_rolled(model, optimizer, batch, epoch, rng):
            total, parts = batch_loss(model, batch, epoch, rng=rng, train=True)
            model.zero_grad()
            total.backward()
            norm = clip_gradients(model.named_parameters(), model.cfg.grad_clip)
            optimizer.step()
            return total.item(), {key: part.item() for key, part in parts.items()}, norm

        # the desk preset with every dropout and the clip on, on one fixture batch
        cfg = ModelConfig.desk(dtype=dtype, dropout=0.1, input_dropout=0.2, grad_clip=0.5)
        features = tmp_path / "features"
        batch = [(bundle_for(ann, cfg, features), ann)
                 for ann in build_overfit_fixture(feature_dir=features)[:cfg.batch_size]]
        runs = []
        for step in (train_step, hand_rolled):
            model = Model(cfg, seed=5)
            optimizer = AdamW(model.named_parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
            rng = np.random.default_rng(7)
            out = [step(model, optimizer, batch, epoch, rng) for epoch in range(2)]
            runs.append((out, [a.tobytes() for a in (model.store.arena, optimizer.m_arena,
                                                     optimizer.v_arena)]))
        (stepped, arenas), (rolled, rolled_arenas) = runs
        assert [out[:3] for out in stepped] == rolled and arenas == rolled_arenas
        assert all(norm > cfg.grad_clip for _, _, norm, _ in stepped)  # the clip scaled both
        for _, parts, _, laps in stepped:
            assert all(type(v) is float for v in parts.values())
            assert len(laps) == 3 and all(ms >= 0.0 for ms in laps)


class TestEvaluation:
    def test_evaluate_model_report(self):
        cfg = tiny_config(encoder_layers=1, decoder_layers=1)
        model = Model(cfg, seed=0)
        report, predictions = evaluate_model(model, toy_dataset())
        assert len(predictions) == 3
        for value in report.to_dict().values():
            assert np.isfinite(value)

    def test_evaluate_model_rejects_a_duplicate_qid_before_any_forward(self, monkeypatch):
        cfg = tiny_config(encoder_layers=1, decoder_layers=1)
        model = Model(cfg, seed=0)
        forwards = []
        monkeypatch.setattr(Model, "forward", lambda *args, **kwargs: forwards.append(args))
        anns = toy_dataset()
        with pytest.raises(ValueError, match=f"duplicate qid {anns[1].qid} in the evaluation set"):
            evaluate_model(model, anns + [anns[1]])
        assert forwards == []

    @pytest.mark.parametrize("extra", [-1, 1], ids=["fewer-bundles", "more-bundles"])
    def test_evaluate_model_rejects_a_bundle_count_mismatch_before_any_forward(
            self, monkeypatch, extra):
        cfg = tiny_config(encoder_layers=1, decoder_layers=1)
        model = Model(cfg, seed=0)
        anns = toy_dataset()
        bundles = [bundle_for(a, cfg) for a in (anns + anns)[:len(anns) + extra]]
        forwards = []
        monkeypatch.setattr(Model, "forward", lambda *args, **kwargs: forwards.append(args))
        with pytest.raises(ValueError, match=r"zip\(\) argument 2 is (longer|shorter)"):
            evaluate_model(model, anns, bundles=bundles)
        assert forwards == []

    def test_evaluate_model_empty_rejected(self):
        cfg = tiny_config(encoder_layers=1, decoder_layers=1)
        with pytest.raises(ValueError):
            evaluate_model(Model(cfg, seed=0), [])

    def test_evaluate_checkpoint_writes_outputs(self, tmp_path, capsys):
        cfg = tiny_config(epochs=1, encoder_layers=1, decoder_layers=1)
        result = train(cfg, toy_dataset(), tmp_path / "run", seed=0)
        data = tmp_path / "toy.jsonl"
        save_dataset(toy_dataset(), data)
        out = tmp_path / "eval"
        capsys.readouterr()
        assert main(["eval", "--data", str(data), "--out", str(out),
                     "--init-from", str(result.last_checkpoint)]) == 0
        report, predictions = evaluate_model(model_from_checkpoint(result.last_checkpoint)[0],
                                             toy_dataset())
        assert (out / "predictions.jsonl").exists()
        saved_report = json.loads((out / "report.json").read_text())
        assert saved_report == pytest.approx(report.to_dict())
        assert json.loads(capsys.readouterr().out.strip().splitlines()[-1]) == saved_report
        assert len(predictions) == 3
        assert len((out / "predictions.jsonl").read_text().splitlines()) == 3
