"""Full model assembly: parameter registry, initialization, forward pass,
and the batch loss computation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import MhaParams, Tensor, no_grad, xavier_uniform
from .config import ConfigError, ModelConfig
from .data import FeatureBundle, encode_item
from .fusion import FusionParams, FusionStage, fuse
from .heads import (DecoderLayerParams, DecoderParams, EncoderLayerParams,
                    HeadParams, PredictionSet, decode, encode, predict_moments,
                    predict_saliency)
from .losses import (CompositionError, GruParams, compose_total,
                     contrastive_rank_loss, highlight_distribution_loss,
                     rank_margin_loss, sample_rank_pair, task_coupled_loss,
                     task_specific_loss)
from .matching import hungarian_match, moment_loss, span_from_cw
from .metrics import QueryPrediction
from .refinement import ConvLayer, ProjectionParams, alignment_loss, project, refine


@dataclass
class Parameter:
    name: str
    tensor: Tensor


class ParamStore:
    """Flat name -> Parameter registry with seeded, order-deterministic init."""

    def __init__(self, rng, dtype):
        self.rng = rng
        self.dtype = dtype
        self.params = {}

    def new(self, name, shape, init, fan=None):
        if name in self.params:
            raise ConfigError(f"duplicate parameter name '{name}'")
        if init == "xavier_uniform":
            fan_in, fan_out = fan
            data = xavier_uniform(self.rng, shape, fan_in, fan_out, dtype=self.dtype)
        elif init == "zeros":
            data = np.zeros(shape, dtype=self.dtype)
        elif init == "ones":
            data = np.ones(shape, dtype=self.dtype)
        else:
            raise ConfigError(f"unknown init scheme '{init}'")
        t = Tensor(data, requires_grad=True)
        self.params[name] = Parameter(name=name, tensor=t)
        return t

    def linear(self, name, d_in, d_out, bias=True):
        w = self.new(f"{name}.weight", (d_in, d_out), "xavier_uniform", fan=(d_in, d_out))
        b = self.new(f"{name}.bias", (d_out,), "zeros") if bias else None
        return w, b

    def conv(self, name, kernel, c_in, c_out):
        w = self.new(f"{name}.weight", (kernel, c_in, c_out), "xavier_uniform",
                     fan=(c_in * kernel, c_out * kernel))
        b = self.new(f"{name}.bias", (c_out,), "zeros")
        return ConvLayer(weight=w, bias=b)

    def layer_norm(self, name, d):
        return (self.new(f"{name}.gamma", (d,), "ones"),
                self.new(f"{name}.beta", (d,), "zeros"))

    def attention(self, name, d):
        wq, bq = self.linear(f"{name}.q", d, d)
        wk, bk = self.linear(f"{name}.k", d, d)
        wv, bv = self.linear(f"{name}.v", d, d)
        wo, bo = self.linear(f"{name}.out", d, d)
        return MhaParams(wq=wq, bq=bq, wk=wk, bk=bk, wv=wv, bv=bv, wo=wo, bo=bo)


@dataclass
class ModelParams:
    video_proj: ProjectionParams
    text_proj: ProjectionParams
    refine_conv: object
    fusion: FusionParams
    encoder: list
    decoder: DecoderParams
    heads: HeadParams
    gru: GruParams


@dataclass
class ForwardResult:
    text_tokens: Tensor
    refined: Tensor
    fused: Tensor
    memory: Tensor
    predictions: PredictionSet
    flags: dict


def _projection(store, prefix, d_in, cfg):
    layers = []
    width_in = d_in
    for i in range(cfg.proj_layers):
        layers.append(store.conv(f"{prefix}.{i}", cfg.proj_kernel, width_in, cfg.hidden_dim))
        width_in = cfg.hidden_dim
    return ProjectionParams(layers=layers)


def _encoder_layer(store, prefix, cfg):
    attn = store.attention(f"{prefix}.attn", cfg.hidden_dim)
    ln1 = store.layer_norm(f"{prefix}.ln1", cfg.hidden_dim)
    w1, b1 = store.linear(f"{prefix}.ffn1", cfg.hidden_dim, cfg.ffn_dim)
    w2, b2 = store.linear(f"{prefix}.ffn2", cfg.ffn_dim, cfg.hidden_dim)
    ln2 = store.layer_norm(f"{prefix}.ln2", cfg.hidden_dim)
    return EncoderLayerParams(attn=attn, ln1_gamma=ln1[0], ln1_beta=ln1[1],
                              ffn_w1=w1, ffn_b1=b1, ffn_w2=w2, ffn_b2=b2,
                              ln2_gamma=ln2[0], ln2_beta=ln2[1])


def _decoder_layer(store, prefix, cfg):
    self_attn = store.attention(f"{prefix}.self", cfg.hidden_dim)
    ln1 = store.layer_norm(f"{prefix}.ln1", cfg.hidden_dim)
    cross = store.attention(f"{prefix}.cross", cfg.hidden_dim)
    ln2 = store.layer_norm(f"{prefix}.ln2", cfg.hidden_dim)
    w1, b1 = store.linear(f"{prefix}.ffn1", cfg.hidden_dim, cfg.ffn_dim)
    w2, b2 = store.linear(f"{prefix}.ffn2", cfg.ffn_dim, cfg.hidden_dim)
    ln3 = store.layer_norm(f"{prefix}.ln3", cfg.hidden_dim)
    return DecoderLayerParams(self_attn=self_attn, ln1_gamma=ln1[0], ln1_beta=ln1[1],
                              cross_attn=cross, ln2_gamma=ln2[0], ln2_beta=ln2[1],
                              ffn_w1=w1, ffn_b1=b1, ffn_w2=w2, ffn_b2=b2,
                              ln3_gamma=ln3[0], ln3_beta=ln3[1])


def build_params(cfg, seed):
    """Instantiate every named parameter in a fixed order from one seeded RNG."""
    dtype = np.float64 if cfg.dtype == "float64" else np.float32
    store = ParamStore(np.random.default_rng(seed), dtype)
    d = cfg.hidden_dim
    video_proj = _projection(store, "proj.video", cfg.video_dim, cfg)
    text_proj = _projection(store, "proj.text", cfg.text_dim, cfg)
    refine_conv = store.conv("refine.conv", cfg.refine_kernel,
                             2 * d + cfg.max_text_len + 1, d)
    pos_video = store.new("fusion.pos_video", (cfg.max_clips, d), "xavier_uniform",
                          fan=(cfg.max_clips, d))
    pos_text = store.new("fusion.pos_text", (cfg.max_text_len, d), "xavier_uniform",
                         fan=(cfg.max_text_len, d))
    stages_per_block = 3 if cfg.fusion_mode == "bidirectional" else 1
    blocks = []
    for b in range(cfg.fusion_layers):
        stages = []
        for s in range(stages_per_block):
            attn = store.attention(f"fusion.block{b}.stage{s}.attn", d)
            gamma, beta = store.layer_norm(f"fusion.block{b}.stage{s}.ln", d)
            stages.append(FusionStage(attn=attn, ln_gamma=gamma, ln_beta=beta))
        blocks.append(stages)
    fusion = FusionParams(pos_video=pos_video, pos_text=pos_text, blocks=blocks)
    encoder = [_encoder_layer(store, f"encoder.{i}", cfg) for i in range(cfg.encoder_layers)]
    query_embed = store.new("decoder.query_embed", (cfg.num_queries, d), "xavier_uniform",
                            fan=(cfg.num_queries, d))
    dec_layers = [_decoder_layer(store, f"decoder.{i}", cfg) for i in range(cfg.decoder_layers)]
    decoder = DecoderParams(query_embed=query_embed, layers=dec_layers)
    class_w, class_b = store.linear("heads.class", d, 2)
    moment_layers = []
    for i, (w_in, w_out) in enumerate([(d, d), (d, d), (d, 2)]):
        moment_layers.append(store.linear(f"heads.moment.{i}", w_in, w_out))
    saliency_w = store.new("heads.saliency.weight", (d, 1), "xavier_uniform", fan=(d, 1))
    heads = HeadParams(class_w=class_w, class_b=class_b,
                       moment_layers=moment_layers, saliency_w=saliency_w)
    gru_gates = {}
    for gate in ("update", "reset", "cand"):
        w, b = store.linear(f"gru.{gate}", 2 * d, d)
        gru_gates[gate] = (w, b)
    readout_w, readout_b = store.linear("gru.readout", d, 1)
    gru = GruParams(w_update=gru_gates["update"][0], b_update=gru_gates["update"][1],
                    w_reset=gru_gates["reset"][0], b_reset=gru_gates["reset"][1],
                    w_cand=gru_gates["cand"][0], b_cand=gru_gates["cand"][1],
                    readout_w=readout_w, readout_b=readout_b)
    structured = ModelParams(video_proj=video_proj, text_proj=text_proj,
                             refine_conv=refine_conv, fusion=fusion, encoder=encoder,
                             decoder=decoder, heads=heads, gru=gru)
    return store, structured


class Model:
    def __init__(self, cfg: ModelConfig, seed=0):
        self.cfg = cfg
        self.store, self.params = build_params(cfg, seed)

    @property
    def dtype(self):
        return np.float64 if self.cfg.dtype == "float64" else np.float32

    def named_parameters(self):
        return self.store.params

    def zero_grad(self):
        for p in self.store.params.values():
            p.tensor.zero_grad()

    def state_arrays(self):
        return {name: p.tensor.data for name, p in self.store.params.items()}

    def load_state(self, arrays):
        mine = self.store.params
        if set(arrays) != set(mine):
            missing = set(mine) - set(arrays)
            extra = set(arrays) - set(mine)
            raise ConfigError(f"state mismatch (missing {sorted(missing)}, unexpected {sorted(extra)})")
        for name, arr in arrays.items():
            t = mine[name].tensor
            if arr.shape != t.data.shape:
                raise ConfigError(f"parameter '{name}' shape {arr.shape} != {t.data.shape}")
            t.data = np.array(arr, dtype=self.dtype, copy=True)

    # -- forward -----------------------------------------------------------

    def forward(self, bundle: FeatureBundle, train=False, rng=None, flags=None):
        """One graph over an item's bundle, or over a padded batch from pad_batch.

        Every stage keeps the bundle's leading shape: an item gives (L, d)
        clip states, (num_queries, 2) moments and (L,) saliency; a batch gives
        the same with a leading B axis.
        """
        cfg, p = self.cfg, self.params
        flags = flags if flags is not None else {}
        vmask, tmask = bundle.video_mask, bundle.text_mask
        video = Tensor(bundle.video.astype(self.dtype))
        text = Tensor(bundle.text.astype(self.dtype))
        v_bar = project(video, p.video_proj, cfg.input_dropout, train=train, rng=rng, mask=vmask)
        t_bar = project(text, p.text_proj, cfg.input_dropout, train=train, rng=rng, mask=tmask)
        if cfg.use_refinement:
            v_r = refine(v_bar, t_bar, p.refine_conv, cfg.max_text_len,
                         text_mask=tmask, clip_mask=vmask)
        else:
            v_r = v_bar
        fused = fuse(v_r, t_bar, p.fusion, cfg.heads, mode=cfg.fusion_mode,
                     drop_p=cfg.dropout, clip_mask=vmask, text_mask=tmask,
                     train=train, rng=rng, flags=flags)
        memory = encode(fused, p.encoder, cfg.heads, drop_p=cfg.dropout,
                        clip_mask=vmask, train=train, rng=rng, flags=flags)
        saliency = predict_saliency(memory, p.heads.saliency_w)
        decoded = decode(memory, p.decoder, cfg.heads, drop_p=cfg.dropout,
                         clip_mask=vmask, train=train, rng=rng, flags=flags)
        logits, moments = predict_moments(decoded, p.heads)
        preds = PredictionSet(class_logits=logits, moments=moments, saliency=saliency)
        return ForwardResult(text_tokens=t_bar, refined=v_r, fused=fused,
                             memory=memory, predictions=preds, flags=flags)


def normalized_windows(ann):
    """Annotation windows -> (M, 2) normalized (center, width)."""
    out = []
    for s, e in ann.relevant_windows:
        out.append([0.5 * (s + e) / ann.duration, (e - s) / ann.duration])
    return np.asarray(out, dtype=float)


def _fg_probs(logits_data):
    z = logits_data - logits_data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e[..., 0] / e.sum(axis=-1)


def _padded(rows, length, dtype):
    """Stack per-item arrays of up to `length` rows, zero-filling each item's tail."""
    out = np.zeros((len(rows), length) + np.shape(rows[0])[1:], dtype=dtype)
    for i, row in enumerate(rows):
        out[i, :len(row)] = row
    return out


def pad_batch(bundles):
    """One padded bundle for a batch: (B, L_max, d_v) video and (B, N_max, d_t)
    text with (B, L_max) / (B, N_max) masks; padding is zero and masked."""
    length = max(b.video.shape[0] for b in bundles)
    n_tok = max(b.text.shape[0] for b in bundles)
    return FeatureBundle(
        video=_padded([b.video for b in bundles], length, np.result_type(*(b.video for b in bundles))),
        text=_padded([b.text for b in bundles], n_tok, np.result_type(*(b.text for b in bundles))),
        video_mask=_padded([b.video_mask for b in bundles], length, bool),
        text_mask=_padded([b.text_mask for b in bundles], n_tok, bool))


def batch_loss(model, batch, epoch, rng=None, train=True):
    """Loss components of a batch of (bundle, annotation) pairs, composed into the total.

    The batch runs as one padded, masked graph. Each component is normalised
    per item and averaged over the items, so it equals the mean of the
    items' one-item batch losses. Rank pairs are drawn per item in batch
    order, after the forward pass.
    """
    cfg = model.cfg
    bundles, anns = zip(*batch)
    padded = pad_batch(bundles)
    fw = model.forward(padded, train=train, rng=rng)
    preds = fw.predictions
    vmask = padded.video_mask
    levels = _padded([a.saliency_levels for a in anns], vmask.shape[1], int)
    norm_levels = levels / 4.0
    pos_mask = np.zeros(vmask.shape, dtype=bool)
    for i, ann in enumerate(anns):
        pos_mask[i, ann.relevant_clip_ids] = True
    neg_mask = ~pos_mask & vmask
    pos_mask &= vmask
    pairs = [sample_rank_pair(lv, rng, clip_mask=m) if rng is not None else None
             for lv, m in zip(levels, vmask)]
    high, low = np.array([pair if pair is not None else (-1, -1) for pair in pairs]).T
    components = {
        "rank": rank_margin_loss(preds.saliency, high, low, cfg.weights.margin),
        "contrastive": contrastive_rank_loss(preds.saliency, levels, cfg.weights.temperature,
                                             clip_mask=vmask),
        "hard": highlight_distribution_loss(preds.saliency, norm_levels, pos_mask, neg_mask, epoch),
        "task_specific": task_specific_loss(preds.saliency, norm_levels, clip_mask=vmask),
        "task_coupled": task_coupled_loss(fw.memory, model.params.gru, norm_levels,
                                          clip_mask=vmask),
        "alignment": alignment_loss(fw.text_tokens, fw.refined, norm_levels,
                                    text_mask=padded.text_mask, clip_mask=vmask),
    }
    if not (np.isfinite(preds.moments.data).all() and np.isfinite(preds.class_logits.data).all()):
        # keep divergence on the CompositionError path instead of crashing the matcher
        raise CompositionError("moment head produced non-finite predictions")
    gt_moments = [normalized_windows(ann) for ann in anns]
    fg = _fg_probs(preds.class_logits.data)
    matches = [hungarian_match(preds.moments.data[i], fg[i], gt, cfg.weights)
               for i, gt in enumerate(gt_moments)]
    components.update(moment_loss(preds.class_logits, preds.moments, gt_moments,
                                  matches, cfg.weights))
    total = compose_total(components, cfg.weights)
    return total, components


def predict_item(model, bundle, ann):
    """Eval-mode forward converted into second-scaled windows and clip scores."""
    with no_grad():
        preds = model.forward(bundle, train=False).predictions
    fg = _fg_probs(preds.class_logits.data)
    windows = []
    for q in range(model.cfg.num_queries):
        s, e = span_from_cw(preds.moments.data[q])
        windows.append([s * ann.duration, e * ann.duration, float(fg[q])])
    return QueryPrediction(qid=ann.qid, windows=windows,
                           saliency=[float(x) for x in preds.saliency.data])


def bundle_for(ann, cfg, feature_dir=None):
    return encode_item(ann, cfg.video_parts, cfg.text_parts, cfg.max_text_len,
                       feature_dir=feature_dir)
