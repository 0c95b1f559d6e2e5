import numpy as np
import pytest

from composed import span_from_cw
from momentspot.autodiff import Tensor
from momentspot.config import ModelConfig
from momentspot.fixtures import build_overfit_fixture
from momentspot.losses import COMPONENT_KEYS, compose_total
from momentspot.model import (Model, batch_loss, bundle_for, normalized_windows,
                              predict_item, _fg_probs)
from test_data import make_annotation

from conftest import tiny_config


def expected_tensor_shapes(cfg):
    """Independent closed-form inventory of every parameter the model should own, in registry order."""
    d, ffn = cfg.hidden_dim, cfg.ffn_dim
    shapes = {}

    def conv(prefix, cin):
        shapes[f"{prefix}.weight"] = (cfg.proj_kernel, cin, d)
        shapes[f"{prefix}.bias"] = (d,)

    def linear(prefix, din, dout):
        shapes[f"{prefix}.weight"] = (din, dout)
        shapes[f"{prefix}.bias"] = (dout,)

    def ln(prefix):
        shapes[f"{prefix}.gamma"] = (d,)
        shapes[f"{prefix}.beta"] = (d,)

    def attn(prefix):
        for part in ("q", "k", "v", "out"):
            linear(f"{prefix}.{part}", d, d)

    widths = [cfg.video_dim] + [d] * (cfg.proj_layers - 1)
    for i, cin in enumerate(widths):
        conv(f"proj.video.{i}", cin)
    widths = [cfg.text_dim] + [d] * (cfg.proj_layers - 1)
    for i, cin in enumerate(widths):
        conv(f"proj.text.{i}", cin)
    shapes["refine.conv.weight"] = (cfg.refine_kernel, 2 * d + cfg.max_text_len + 1, d)
    shapes["refine.conv.bias"] = (d,)
    shapes["fusion.pos_video"] = (cfg.max_clips, d)
    shapes["fusion.pos_text"] = (cfg.max_text_len, d)
    n_stages = 3 if cfg.fusion_mode == "bidirectional" else 1
    for b in range(cfg.fusion_layers):
        for s in range(n_stages):
            attn(f"fusion.block{b}.stage{s}.attn")
            ln(f"fusion.block{b}.stage{s}.ln")
    for i in range(cfg.encoder_layers):
        attn(f"encoder.{i}.attn")
        ln(f"encoder.{i}.ln1")
        linear(f"encoder.{i}.ffn1", d, ffn)
        linear(f"encoder.{i}.ffn2", ffn, d)
        ln(f"encoder.{i}.ln2")
    shapes["decoder.query_embed"] = (cfg.num_queries, d)
    for i in range(cfg.decoder_layers):
        attn(f"decoder.{i}.self")
        ln(f"decoder.{i}.ln1")
        attn(f"decoder.{i}.cross")
        ln(f"decoder.{i}.ln2")
        linear(f"decoder.{i}.ffn1", d, ffn)
        linear(f"decoder.{i}.ffn2", ffn, d)
        ln(f"decoder.{i}.ln3")
    linear("heads.class", d, 2)
    for i, (din, dout) in enumerate([(d, d), (d, d), (d, 2)]):
        linear(f"heads.moment.{i}", din, dout)
    shapes["heads.saliency.weight"] = (d, 1)
    for gate in ("update", "reset", "cand"):
        linear(f"gru.{gate}", 2 * d, d)
    linear("gru.readout", d, 1)
    return shapes


class TestParameterRegistry:
    def test_desk_inventory_matches_closed_form(self):
        cfg = ModelConfig.desk()
        model = Model(cfg, seed=0)
        want = expected_tensor_shapes(cfg)
        got = {name: p.tensor.data.shape for name, p in model.named_parameters().items()}
        assert list(got.items()) == list(want.items())  # registry order fixes init and layout
        total = sum(np.prod(s, dtype=int) for s in want.values())
        assert total == 129189
        assert len(want) == 186

    def test_t2v_mode_drops_two_fusion_stages(self):
        cfg = tiny_config(fusion_mode="text_to_video")
        model = Model(cfg, seed=0)
        want = expected_tensor_shapes(cfg)
        got = {name: p.tensor.data.shape for name, p in model.named_parameters().items()}
        assert list(got.items()) == list(want.items())  # registry order fixes init and layout
        assert not any("stage1" in n or "stage2" in n for n in got)

    def test_same_seed_reproduces_init(self):
        cfg = tiny_config()
        a = Model(cfg, seed=11).state_arrays()
        b = Model(cfg, seed=11).state_arrays()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_different_seed_changes_init(self):
        cfg = tiny_config()
        a = Model(cfg, seed=1).state_arrays()
        b = Model(cfg, seed=2).state_arrays()
        assert any(not np.array_equal(a[n], b[n]) for n in a)

    def test_dtype_follows_config(self):
        assert Model(tiny_config(), seed=0).dtype == np.float64
        m32 = Model(tiny_config(dtype="float32"), seed=0)
        assert all(p.tensor.data.dtype == np.float32
                   for p in m32.named_parameters().values())

    def test_zero_grad(self):
        cfg = tiny_config(encoder_layers=1, decoder_layers=1)
        model = Model(cfg, seed=0)
        ann = make_annotation()
        bundle = bundle_for(ann, cfg)
        total, _ = batch_loss(model, [(bundle, ann)], epoch=0)
        total.backward()
        assert any(p.tensor.grad is not None and np.any(p.tensor.grad != 0)
                   for p in model.named_parameters().values())
        model.zero_grad()
        assert all(p.tensor.grad is None or not np.any(p.tensor.grad)
                   for p in model.named_parameters().values())


class TestForward:
    def setup_method(self):
        self.cfg = tiny_config(encoder_layers=2, decoder_layers=2)
        self.model = Model(self.cfg, seed=3)
        self.ann = make_annotation()
        self.bundle = bundle_for(self.ann, self.cfg)

    def test_shapes(self):
        fw = self.model.forward(self.bundle)
        L, n_q, d = self.ann.num_clips, self.cfg.num_queries, self.cfg.hidden_dim
        assert fw.refined.shape == (L, d)
        assert fw.memory.shape == (L, d)
        assert fw.predictions.saliency.shape == (L,)
        assert fw.predictions.class_logits.shape == (n_q, 2)
        assert fw.predictions.moments.shape == (n_q, 2)
        assert (fw.predictions.moments.data > 0).all()
        assert (fw.predictions.moments.data < 1).all()

    def test_eval_forward_is_deterministic(self):
        a = self.model.forward(self.bundle)
        b = self.model.forward(self.bundle)
        np.testing.assert_array_equal(a.predictions.saliency.data, b.predictions.saliency.data)
        np.testing.assert_array_equal(a.predictions.moments.data, b.predictions.moments.data)

    def test_refinement_disabled_passes_projection_through(self):
        cfg = tiny_config(use_refinement=False, encoder_layers=1, decoder_layers=1)
        model = Model(cfg, seed=3)
        bundle = bundle_for(self.ann, cfg)
        fw = model.forward(bundle)
        from momentspot.refinement import project
        v_bar = project(Tensor(bundle.video), model.params.video_proj)
        np.testing.assert_array_equal(fw.refined.data, v_bar.data)
        # registry still owns refine params so checkpoints stay shape-stable
        assert any(n.startswith("refine.") for n in model.named_parameters())

    def test_padded_rows_do_not_change_real_outputs(self):
        # same item, once bare and once padded with masked garbage rows
        fw = self.model.forward(self.bundle)
        padded = bundle_for(self.ann, self.cfg)
        pad_rows = np.full((3, padded.video.shape[1]), 50.0)
        padded.video = np.vstack([padded.video, pad_rows])
        padded.video_mask = np.concatenate([padded.video_mask, np.zeros(3, dtype=bool)])
        fw_padded = self.model.forward(padded)
        L = self.ann.num_clips
        np.testing.assert_allclose(fw_padded.predictions.saliency.data[:L],
                                   fw.predictions.saliency.data, atol=1e-9)
        np.testing.assert_allclose(fw_padded.predictions.moments.data,
                                   fw.predictions.moments.data, atol=1e-9)

    def test_train_mode_dropout_changes_outputs(self):
        cfg = tiny_config(dropout=0.2, input_dropout=0.3, encoder_layers=1, decoder_layers=1)
        model = Model(cfg, seed=3)
        bundle = bundle_for(self.ann, cfg)
        eval_out = model.forward(bundle).predictions.saliency.data
        train_out = model.forward(bundle, train=True, rng=np.random.default_rng(0))
        assert not np.allclose(train_out.predictions.saliency.data, eval_out)

    @pytest.mark.parametrize("fusion_mode,stages", [("bidirectional", 3), ("text_to_video", 1)])
    def test_train_mode_dropout_draw_order(self, fusion_mode, stages):
        # pins every rng draw of a train-mode forward, by shape and in order,
        # so a rerun's dropout masks (and so its loss trace) cannot drift
        cfg = tiny_config(dropout=0.2, input_dropout=0.3, fusion_mode=fusion_mode,
                          fusion_layers=2, encoder_layers=2, decoder_layers=2)
        model = Model(cfg, seed=3)
        bundle = bundle_for(self.ann, cfg)
        rng = DrawRecorder(np.random.default_rng(0))
        model.forward(bundle, train=True, rng=rng)
        (L, d_v), (N, d_t) = bundle.video.shape, bundle.text.shape
        d, ffn, q = cfg.hidden_dim, cfg.ffn_dim, cfg.num_queries
        # bidirectional blocks: text into video, video into text, then back into video
        stage_shapes = [(L, d), (N, d), (L, d)][:stages]
        expected = ([(L, d_v), (N, d_t)] + stage_shapes * cfg.fusion_layers
                    + [(L, d), (L, ffn), (L, d)] * cfg.encoder_layers
                    + [(q, d), (q, d), (q, ffn), (q, d)] * cfg.decoder_layers)
        assert rng.shapes == expected


class DrawRecorder:
    """A Generator stand-in that records the shape of every random() draw."""

    def __init__(self, rng):
        self.rng, self.shapes = rng, []

    def random(self, shape):
        self.shapes.append(tuple(shape))
        return self.rng.random(shape)


class TestNormalizationHelpers:
    def test_normalized_windows(self):
        ann = make_annotation()  # window [4, 10] in a 20 s video
        out = normalized_windows(ann)
        np.testing.assert_allclose(out, [[0.35, 0.3]], atol=1e-12)

    def test_fg_probs_stable_for_huge_logits(self):
        logits = np.array([[1000.0, 0.0], [0.0, 1000.0], [3.0, 3.0]])
        p = _fg_probs(logits)
        np.testing.assert_allclose(p, [1.0, 0.0, 0.5], atol=1e-12)
        assert np.isfinite(p).all()


class TestLossAssembly:
    def setup_method(self):
        self.cfg = tiny_config(encoder_layers=1, decoder_layers=1)
        self.model = Model(self.cfg, seed=4)
        self.ann = make_annotation()
        self.bundle = bundle_for(self.ann, self.cfg)

    def test_all_components_present_and_finite(self):
        _, components = batch_loss(self.model, [(self.bundle, self.ann)], epoch=0,
                                   rng=np.random.default_rng(0), train=False)
        assert set(components) == set(COMPONENT_KEYS)
        for key, val in components.items():
            assert val.data.shape == ()
            assert np.isfinite(val.data), key

    def test_rank_needs_rng(self):
        _, components = batch_loss(self.model, [(self.bundle, self.ann)], epoch=0, rng=None,
                                   train=False)
        assert components["rank"].item() == 0.0

    def test_hard_component_grows_with_epoch(self):
        _, early = batch_loss(self.model, [(self.bundle, self.ann)], epoch=0, train=False)
        _, late = batch_loss(self.model, [(self.bundle, self.ann)], epoch=4, train=False)
        assert late["hard"].item() == pytest.approx(5 * early["hard"].item(), rel=1e-9)

    def test_batch_loss_averages_components(self):
        ann2 = make_annotation(qid=9, query="someone rides a bike", vid="vid_b")
        bundle2 = bundle_for(ann2, self.cfg)
        batch = [(self.bundle, self.ann), (bundle2, ann2)]
        total, averaged = batch_loss(self.model, batch, epoch=1, train=False)
        _, a = batch_loss(self.model, [(self.bundle, self.ann)], epoch=1, train=False)
        _, b = batch_loss(self.model, [(bundle2, ann2)], epoch=1, train=False)
        for key in COMPONENT_KEYS:
            want = 0.5 * (a[key].item() + b[key].item())
            assert averaged[key].item() == pytest.approx(want, rel=1e-12, abs=1e-15)
        recomposed = compose_total({k: averaged[k].item() for k in averaged},
                                   self.cfg.weights)
        assert total.item() == pytest.approx(recomposed.item(), rel=1e-12)

    def test_masked_query_padding_leaves_losses_and_gradients_unchanged(self):
        # the bare query, then the same query padded with masked garbage tokens
        padded = bundle_for(self.ann, self.cfg)
        n_pad = self.cfg.max_text_len - padded.text.shape[0]
        padded.text = np.vstack([padded.text, np.full((n_pad, padded.text.shape[1]), 50.0)])
        padded.text_mask = np.concatenate([padded.text_mask, np.zeros(n_pad, dtype=bool)])
        runs = []
        for bundle in (self.bundle, padded):
            self.model.zero_grad()
            _, components = batch_loss(self.model, [(bundle, self.ann)], epoch=1,
                                       rng=np.random.default_rng(0), train=True)
            compose_total(components, self.cfg.weights).backward()
            grads = {name: np.zeros_like(p.tensor.data) if p.tensor.grad is None
                     else p.tensor.grad.copy()
                     for name, p in self.model.named_parameters().items()}
            runs.append(({k: v.item() for k, v in components.items()}, grads))
        (bare_losses, bare_grads), (pad_losses, pad_grads) = runs
        assert n_pad > 0
        for key in COMPONENT_KEYS:
            assert pad_losses[key] == pytest.approx(bare_losses[key], abs=1e-12), key
        for name in bare_grads:
            np.testing.assert_allclose(pad_grads[name], bare_grads[name], rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_total_backward_reaches_every_trainable_tensor(self):
        total, _ = batch_loss(self.model, [(self.bundle, self.ann)], epoch=0,
                              rng=np.random.default_rng(1))
        # unbind the arena views: only a backward that reaches a leaf gives it a .grad
        for p in self.model.named_parameters().values():
            p.tensor.grad = None
        total.backward()
        missing = [name for name, p in self.model.named_parameters().items()
                   if p.tensor.grad is None]
        assert missing == []


def mixed_length_batch(cfg):
    """Items of different clip and token counts; the first fills max_clips."""
    anns = [
        make_annotation(qid=1, vid="vid_long", duration=2.0 * cfg.max_clips,
                        query="a person opens the kitchen door slowly",
                        relevant_windows=[[6.0, 14.0], [20.0, 24.0]],
                        saliency_levels=[0, 0, 0, 1, 2, 3, 4, 2, 0, 0, 3, 4, 0, 0, 0, 0],
                        relevant_clip_ids=[3, 4, 5, 6, 10, 11]),
        make_annotation(qid=2, vid="vid_short", duration=10.0, query="dog runs",
                        relevant_windows=[[2.0, 6.0]], saliency_levels=[0, 2, 4, 0, 0],
                        relevant_clip_ids=[1, 2]),
        make_annotation(),
        make_annotation(qid=4, vid="vid_d", duration=14.0, query="someone rides a red bike",
                        relevant_windows=[[0.0, 4.0]], saliency_levels=[4, 3, 0, 0, 1, 0, 0],
                        relevant_clip_ids=[0, 1]),
    ]
    return [(bundle_for(a.validate(), cfg), a) for a in anns]


def op_nodes(t):
    """Op nodes behind t (tensors with parents), walked through _parents."""
    seen, stack, count = set(), [t], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._parents:
            count += 1
            stack.extend(node._parents)
    return count


class TestBatchedGraph:
    def setup_method(self):
        self.cfg = tiny_config()
        self.model = Model(self.cfg, seed=7)
        self.batch = mixed_length_batch(self.cfg)

    def grads(self):
        return {name: np.zeros_like(p.tensor.data) if p.tensor.grad is None
                else p.tensor.grad.copy() for name, p in self.model.named_parameters().items()}

    def test_batch_equals_mean_of_one_item_batches(self):
        batch = self.batch[:3]
        assert len({b.video.shape[0] for b, _ in batch}) == 3
        assert len({b.text.shape[0] for b, _ in batch}) == 3
        assert batch[0][0].video.shape[0] == self.cfg.max_clips
        self.model.zero_grad()
        total, averaged = batch_loss(self.model, batch, epoch=2,
                                     rng=np.random.default_rng(5), train=True)
        total.backward()
        got_grads = self.grads()
        rng = np.random.default_rng(5)  # the same stream, drawn item by item in batch order
        want_total, want = 0.0, dict.fromkeys(COMPONENT_KEYS, 0.0)
        want_grads = {name: 0.0 for name in got_grads}
        for item in batch:
            self.model.zero_grad()
            one_total, one = batch_loss(self.model, [item], epoch=2, rng=rng, train=True)
            one_total.backward()
            want_total += one_total.item() / len(batch)
            for key in COMPONENT_KEYS:
                want[key] += one[key].item() / len(batch)
            for name, grad in self.grads().items():
                want_grads[name] = want_grads[name] + grad / len(batch)
        assert want["rank"] > 0
        assert total.item() == pytest.approx(want_total, rel=1e-10, abs=1e-10)
        for key in COMPONENT_KEYS:
            assert averaged[key].item() == pytest.approx(want[key], rel=1e-10, abs=1e-10), key
        for name, grad in got_grads.items():
            np.testing.assert_allclose(grad, want_grads[name], rtol=1e-10, atol=1e-10,
                                       err_msg=name)

    def test_graph_size_does_not_grow_with_batch(self):
        one, _ = batch_loss(self.model, self.batch[:1], 0, rng=np.random.default_rng(0))
        four, _ = batch_loss(self.model, self.batch, 0, rng=np.random.default_rng(0))
        assert op_nodes(four) <= 1.1 * op_nodes(one)


class TestLossGraph:
    """The loss tail is one node per term: re-composing any term changes the count."""

    # 144 forward nodes, then 12: the nine terms, the GRU scan, the
    # clip-query cosines and compose_total (the composed tail made it 268)
    DESK_BATCH_NODES = 156

    def test_desk_batch_graph_size(self, tmp_path):
        cfg = ModelConfig.desk(batch_size=4)
        anns = build_overfit_fixture(feature_dir=tmp_path)[:4]
        batch = [(bundle_for(a, cfg, feature_dir=tmp_path), a) for a in anns]
        total, parts = batch_loss(Model(cfg, seed=0), batch, epoch=0, rng=np.random.default_rng(0))
        assert op_nodes(total) == self.DESK_BATCH_NODES
        assert total._parents == tuple(parts[key] for key in COMPONENT_KEYS)
        # each term is one node over a forward output (saliency, moments,
        # logits), over the GRU scan of the memory, or over the clip-query cosines
        saliency, = parts["rank"]._parents
        for key in ("contrastive", "hard", "task_specific"):
            assert parts[key]._parents == (saliency,), key
        moments, = parts["l1"]._parents
        assert parts["giou"]._parents == (moments,)
        logits, = parts["cls"]._parents
        assert logits is not moments and logits is not saliency
        scan, = parts["task_coupled"]._parents
        assert op_nodes(parts["task_coupled"]) == op_nodes(scan) + 1
        cosines, = parts["alignment"]._parents
        assert op_nodes(parts["alignment"]) == op_nodes(cosines) + 1
        assert len(cosines._parents) == 2  # the query tokens and the refined clips


class TestPrediction:
    def test_predict_item_structure(self):
        cfg = tiny_config(encoder_layers=1, decoder_layers=1)
        model = Model(cfg, seed=2)
        ann = make_annotation()
        pred = predict_item(model, bundle_for(ann, cfg), ann)
        assert pred.qid == ann.qid
        assert len(pred.windows) == cfg.num_queries
        assert len(pred.saliency) == ann.num_clips
        for s, e, score in pred.windows:
            assert 0.0 <= s <= e <= ann.duration
            assert 0.0 <= score <= 1.0

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_windows_equal_the_per_query_conversion(self, dtype):
        cfg = tiny_config(dtype=dtype, encoder_layers=1, decoder_layers=1, num_queries=12)
        ann = make_annotation(duration=19.7)
        bundle = bundle_for(ann, cfg)
        for seed in range(3):
            model = Model(cfg, seed=seed)
            preds = model.forward(bundle).predictions
            fg = _fg_probs(preds.class_logits.data)
            want = [[s * ann.duration, e * ann.duration, float(fg[q])]
                    for q, (s, e) in enumerate(map(span_from_cw, preds.moments.data))]
            got = predict_item(model, bundle, ann).windows
            assert got == want
            assert all(type(x) is float for row in got for x in row)

    def test_predict_item_builds_no_graph(self, monkeypatch):
        cfg = tiny_config(encoder_layers=1, decoder_layers=1)
        model = Model(cfg, seed=2)
        ann = make_annotation()
        outputs = []
        forward = Model.forward

        def capturing(self, *args, **kwargs):
            outputs.append(forward(self, *args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(Model, "forward", capturing)
        predict_item(model, bundle_for(ann, cfg), ann)
        assert len(outputs) == 1
        assert not outputs[0].predictions.saliency.requires_grad
