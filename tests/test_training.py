import json
import math
from pathlib import Path

import numpy as np
import pytest

from momentspot import training
from momentspot.autodiff import Tensor, xavier_uniform
from momentspot.config import ConfigError
from momentspot.data import save_features
from momentspot.model import Model, Parameter, bundle_for
from momentspot.training import (AdamW, clip_gradients,
                                 evaluate_checkpoint, evaluate_model,
                                 load_checkpoint, model_from_checkpoint,
                                 save_checkpoint, split_dataset, train)
from test_data import make_annotation

from conftest import tiny_config


def make_params(rng, shapes):
    out = {}
    for i, shape in enumerate(shapes):
        t = Tensor(rng.normal(size=shape), requires_grad=True)
        out[f"p{i}"] = Parameter(name=f"p{i}", tensor=t)
    return out


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
            p.tensor.grad = grads[n].copy()
        lr, wd, b1, b2, eps = 0.01, 0.1, 0.9, 0.999, 1e-8
        opt = AdamW(params, lr=lr, weight_decay=wd, betas=(b1, b2), eps=eps)
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
        opt = AdamW(params, lr=lr, weight_decay=wd, betas=(b1, b2), eps=eps)
        p = params["p0"].tensor
        ref = p.data.copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        for step in (1, 2):
            g = np.full_like(ref, 0.5 * step)
            p.grad = g.copy()
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
        params["p0"].tensor.grad = np.zeros(4)
        opt.step()
        np.testing.assert_allclose(params["p0"].tensor.data, before * (1 - 0.1 * 0.5), atol=1e-15)

    def test_missing_grad_treated_as_zero(self, rng):
        params = make_params(rng, [(3,)])
        before = params["p0"].tensor.data.copy()
        opt = AdamW(params, lr=0.1, weight_decay=0.0)
        opt.step()
        np.testing.assert_allclose(params["p0"].tensor.data, before, atol=1e-15)

    def test_state_round_trip(self, rng):
        params = make_params(rng, [(3, 3)])
        opt = AdamW(params, lr=0.01)
        params["p0"].tensor.grad = rng.normal(size=(3, 3))
        opt.step()
        state = opt.state()
        fresh = AdamW(params, lr=0.01)
        fresh.load({"step": state["step"],
                    "m": {k: v.copy() for k, v in state["m"].items()},
                    "v": {k: v.copy() for k, v in state["v"].items()}})
        assert fresh.step_count == 1
        np.testing.assert_array_equal(fresh.m["p0"], opt.m["p0"])
        np.testing.assert_array_equal(fresh.v["p0"], opt.v["p0"])


class TestClipGradients:
    def test_large_norm_scaled_to_max(self, rng):
        params = make_params(rng, [(4,), (2, 3)])
        for p in params.values():
            p.tensor.grad = rng.normal(size=p.tensor.data.shape) * 10
        norm_before = math.sqrt(sum(float((p.tensor.grad ** 2).sum()) for p in params.values()))
        returned = clip_gradients(params, 0.1)
        assert returned == pytest.approx(norm_before)
        norm_after = math.sqrt(sum(float((p.tensor.grad ** 2).sum()) for p in params.values()))
        assert norm_after == pytest.approx(0.1, rel=1e-12)

    def test_small_norm_untouched(self, rng):
        params = make_params(rng, [(4,)])
        params["p0"].tensor.grad = np.full(4, 1e-4)
        g_before = params["p0"].tensor.grad.copy()
        clip_gradients(params, 0.1)
        np.testing.assert_array_equal(params["p0"].tensor.grad, g_before)

    def test_nonpositive_max_disables(self, rng):
        params = make_params(rng, [(4,)])
        params["p0"].tensor.grad = np.full(4, 100.0)
        g_before = params["p0"].tensor.grad.copy()
        norm = clip_gradients(params, 0.0)
        np.testing.assert_array_equal(params["p0"].tensor.grad, g_before)
        assert norm == pytest.approx(200.0)

    def test_none_grads_skipped(self, rng):
        params = make_params(rng, [(4,), (3,)])
        params["p0"].tensor.grad = np.full(4, 5.0)
        assert clip_gradients(params, 0.0) == pytest.approx(10.0)


class TestXavier:
    def test_bound_and_spread(self):
        rng = np.random.default_rng(0)
        fan_in, fan_out = 48, 16
        arr = xavier_uniform(rng, (fan_in, fan_out), fan_in, fan_out)
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(arr).max() <= bound
        assert np.abs(arr).max() > 0.9 * bound  # actually fills the range
        assert abs(arr.mean()) < 0.1 * bound


class TestCheckpoint:
    def test_round_trip_bitwise_float64(self, tmp_path, rng):
        cfg = tiny_config(encoder_layers=1, decoder_layers=1)
        model = Model(cfg, seed=7)
        opt = AdamW(model.named_parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
        for p in model.named_parameters().values():
            p.tensor.grad = rng.normal(size=p.tensor.data.shape)
        opt.step()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, optimizer=opt, epoch=3, best_metric=0.5)
        meta, params, opt_state = load_checkpoint(path)
        assert meta["epoch"] == 3
        assert meta["best_metric"] == 0.5
        assert meta["payload_dtype"] == "f64"
        assert opt_state["step"] == 1
        for name, p in model.named_parameters().items():
            np.testing.assert_array_equal(params[name], p.tensor.data)
            np.testing.assert_array_equal(opt_state["m"][name], opt.m[name])
            np.testing.assert_array_equal(opt_state["v"][name], opt.v[name])

    def test_round_trip_bitwise_float32(self, tmp_path):
        cfg = tiny_config(dtype="float32", encoder_layers=1, decoder_layers=1)
        model = Model(cfg, seed=1)
        path = tmp_path / "model32.ckpt"
        save_checkpoint(path, model)
        meta, params, opt_state = load_checkpoint(path)
        assert meta["payload_dtype"] == "f32"
        assert opt_state is None
        for name, p in model.named_parameters().items():
            assert params[name].dtype == np.dtype("<f4")
            np.testing.assert_array_equal(params[name], p.tensor.data)

    def test_save_is_byte_deterministic(self, tmp_path):
        cfg = tiny_config(encoder_layers=1, decoder_layers=1)
        model = Model(cfg, seed=2)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, model, epoch=1)
        save_checkpoint(b, model, epoch=1)
        assert a.read_bytes() == b.read_bytes()

    def test_model_from_checkpoint_reproduces_outputs(self, tmp_path):
        cfg = tiny_config(encoder_layers=1, decoder_layers=1)
        model = Model(cfg, seed=9)
        ann = make_annotation()
        bundle = bundle_for(ann, cfg)
        want = model.forward(bundle).predictions.saliency.data
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        restored, meta = model_from_checkpoint(path)
        assert restored.cfg == cfg
        got = restored.forward(bundle).predictions.saliency.data
        np.testing.assert_array_equal(got, want)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        cfg = tiny_config(encoder_layers=1, decoder_layers=1)
        path = tmp_path / "v.ckpt"
        save_checkpoint(path, Model(cfg, seed=0))
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        cfg = tiny_config(encoder_layers=1, decoder_layers=1)
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, Model(cfg, seed=0))
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(ValueError):
            load_checkpoint(path)


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
        lines = [json.loads(l) for l in open(result.log_path)]
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
        lines = [json.loads(l) for l in open(result.log_path)]
        val_lines = [l for l in lines if l["split"] == "val"]
        assert len(val_lines) == 3
        assert all("map_avg" in l for l in val_lines)
        meta, _, _ = load_checkpoint(tmp_path / "run" / "best.ckpt")
        assert meta["best_metric"] == pytest.approx(result.best_metric)

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
        _, p1, _ = load_checkpoint(r1.last_checkpoint)
        _, p2, _ = load_checkpoint(r2.last_checkpoint)
        for name in p1:
            np.testing.assert_array_equal(p1[name], p2[name])

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

    def test_divergence_aborts_and_keeps_checkpoint(self, tmp_path):
        cfg = self.small_cfg(epochs=25, lr=1e9, grad_clip=0.0)
        with np.errstate(all="ignore"):  # overflow is the point of this run
            result = train(cfg, toy_dataset(), tmp_path / "run", seed=0)
        assert result.diverged
        assert result.epochs_run < 25
        assert (tmp_path / "run" / "last.ckpt").exists()
        meta, params, _ = load_checkpoint(tmp_path / "run" / "last.ckpt")
        assert all(np.isfinite(arr).all() for arr in params.values())
        lines = [json.loads(l) for l in open(result.log_path)]
        assert lines[-1].get("diverged") is True
        assert isinstance(lines[-1]["batch"], int) and lines[-1]["batch"] >= 0
        assert isinstance(lines[-1]["cause"], str) and lines[-1]["cause"]

    def test_diverged_run_without_validation_leaves_finite_best(self, tmp_path):
        # an infinite lr overflows the first update (epoch 0, batch 0)
        with np.errstate(all="ignore"):
            result = train(self.small_cfg(lr=float("inf")), toy_dataset(), tmp_path / "run",
                           seed=0)
        assert result.diverged and result.epochs_run == 0
        best = Path(result.best_checkpoint).read_bytes()
        assert best == Path(result.last_checkpoint).read_bytes()
        _, params, opt_state = load_checkpoint(result.best_checkpoint)
        arrays = [*params.values(), *opt_state["m"].values(), *opt_state["v"].values()]
        assert all(np.isfinite(arr).all() for arr in arrays)

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
        lines = [json.loads(l) for l in open(result.log_path)]
        norms = [l["grad_norms"] for l in lines if l["split"] == "train"]
        batches = math.ceil(len(toy_dataset()) / cfg.batch_size)
        assert [len(n) for n in norms] == [batches] * cfg.epochs
        assert all(math.isfinite(x) for n in norms for x in n)
        assert [x for n in norms for x in n] == returned

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

    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            train(self.small_cfg(), [], tmp_path / "run")


class TestEvaluation:
    def test_evaluate_model_report(self):
        cfg = tiny_config(encoder_layers=1, decoder_layers=1)
        model = Model(cfg, seed=0)
        report, predictions = evaluate_model(model, toy_dataset())
        assert len(predictions) == 3
        for value in report.to_dict().values():
            assert np.isfinite(value)

    def test_evaluate_model_empty_rejected(self):
        cfg = tiny_config(encoder_layers=1, decoder_layers=1)
        with pytest.raises(ValueError):
            evaluate_model(Model(cfg, seed=0), [])

    def test_evaluate_checkpoint_writes_outputs(self, tmp_path):
        cfg = tiny_config(epochs=1, encoder_layers=1, decoder_layers=1)
        result = train(cfg, toy_dataset(), tmp_path / "run", seed=0)
        out = tmp_path / "eval"
        report, predictions = evaluate_checkpoint(result.last_checkpoint, toy_dataset(),
                                                  out_dir=out)
        assert (out / "predictions.jsonl").exists()
        saved_report = json.loads((out / "report.json").read_text())
        assert saved_report == pytest.approx(report.to_dict())
        assert len(predictions) == 3
