"""Full model assembly: parameter registry, initialization, forward pass,
and the batch loss computation."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .autodiff import Tensor, _masked_exp, _node, dropout, no_grad, xavier_uniform
from .config import ConfigError, ModelConfig
from .data import FeatureBundle, encode_item
from .fusion import FusionParams, fuse
from .heads import (DecoderParams, HeadParams, Sublayer, decode, encode, predict_moments,
                    predict_saliency)
from .losses import (CompositionError, compose_total, contrastive_rank_loss,
                     highlight_distribution_loss, rank_margin_loss,
                     sample_rank_pair, task_coupled_loss, task_specific_loss)
from .matching import _spans, hungarian_match, moment_loss
from .metrics import QueryPrediction
from .refinement import alignment_loss, project, refine


@dataclass
class Parameter:
    name: str
    tensor: Tensor


class ParamStore(dict):
    """Flat name -> Parameter registry over one contiguous weight arena and
    one gradient arena laid out like it.

    Every parameter's .data and .grad are reshaped views, at the same place,
    of `arena` and `grad_arena`, back to back in registry order; nothing may
    rebind a parameter's .data or .grad, or it silently stops aliasing its
    arena. With `arena` None the store only sizes the layout. With `rng`
    None the seeded init is skipped and the arena keeps the caller's values.
    """

    def __init__(self, rng, arena=None):
        super().__init__()
        self.rng = rng
        self.arena = arena
        # np.zeros, not zeros_like, which writes every byte up front
        self.grad_arena = None if arena is None else np.zeros(arena.shape, arena.dtype)
        self.size = 0

    def new(self, name, shape, init, fan=None):
        start, self.size = self.size, self.size + math.prod(shape)
        if self.arena is None:
            return None
        if name in self:
            raise ConfigError(f"duplicate parameter name '{name}'")
        if init not in ("xavier_uniform", "zeros", "ones"):
            raise ConfigError(f"unknown init scheme '{init}'")
        data = self.arena[start:self.size].reshape(shape)
        if self.rng is not None and init == "xavier_uniform":
            xavier_uniform(self.rng, data, *fan)
        elif self.rng is not None and init == "ones":
            data[...] = 1.0  # the arena starts at zero
        # xavier draws, zeros and ones are finite by construction: _node skips
        # Tensor's finiteness scan, a fifth of building a model
        t = _node(data, (), None)
        t.requires_grad = True
        t.grad = self.grad_arena[start:self.size].reshape(shape)
        self[name] = Parameter(name=name, tensor=t)
        return t

    def linear(self, name, d_in, d_out):
        w = self.new(f"{name}.weight", (d_in, d_out), "xavier_uniform", fan=(d_in, d_out))
        b = self.new(f"{name}.bias", (d_out,), "zeros")
        return w, b

    def conv(self, name, kernel, c_in, c_out):
        w = self.new(f"{name}.weight", (kernel, c_in, c_out), "xavier_uniform",
                     fan=(c_in * kernel, c_out * kernel))
        b = self.new(f"{name}.bias", (c_out,), "zeros")
        return w, b

    def layer_norm(self, name, d):
        return (self.new(f"{name}.gamma", (d,), "ones"),
                self.new(f"{name}.beta", (d,), "zeros"))

    def attention(self, name, ln, d):
        """A Sublayer of attention weights `name` and layer norm `ln`."""
        body = tuple(self.linear(f"{name}.{part}", d, d) for part in ("q", "k", "v", "out"))
        return Sublayer(body, *self.layer_norm(ln, d))

    def ffn(self, prefix, ln, d, d_ff):
        """A Sublayer of the FFN <prefix>.ffn1, .ffn2 (d -> d_ff -> d) and layer norm `ln`."""
        body = (self.linear(f"{prefix}.ffn1", d, d_ff), self.linear(f"{prefix}.ffn2", d_ff, d))
        return Sublayer(body, *self.layer_norm(ln, d))


@dataclass
class ModelParams:
    video_proj: list  # of conv (weight, bias) pairs
    text_proj: list   # of conv (weight, bias) pairs
    refine_conv: tuple  # (weight, bias)
    fusion: FusionParams
    encoder: list
    decoder: DecoderParams
    heads: HeadParams
    gru: tuple  # the (w, b) pairs of the update, reset, cand and readout layers


@dataclass
class ForwardResult:
    text_tokens: Tensor
    refined: Tensor
    memory: Tensor
    class_logits: Tensor  # (num_queries, 2); (B, num_queries, 2) for a batch
    moments: Tensor       # (num_queries, 2) sigmoid (center, width) in (0, 1); batched likewise
    saliency: Tensor      # (L,); (B, L) for a batch


def _projection(store, prefix, d_in, cfg):
    widths = [d_in] + [cfg.hidden_dim] * (cfg.proj_layers - 1)
    return [store.conv(f"{prefix}.{i}", cfg.proj_kernel, width, cfg.hidden_dim)
            for i, width in enumerate(widths)]


def build_params(cfg, seed):
    """Instantiate every named parameter in a fixed order from one seeded RNG.

    A first pass over the builders sizes the arena, the second hands out the
    views into it. With seed None the arena stays zero for the caller to fill.
    """
    dtype = np.float64 if cfg.dtype == "float64" else np.float32
    sizing = ParamStore(None)
    _build(sizing, cfg)
    rng = None if seed is None else np.random.default_rng(seed)
    store = ParamStore(rng, arena=np.zeros(sizing.size, dtype=dtype))
    return store, _build(store, cfg)


def _build(store, cfg):
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
    names = [[f"fusion.block{b}.stage{s}" for s in range(stages_per_block)]
             for b in range(cfg.fusion_layers)]
    blocks = [[store.attention(f"{s}.attn", f"{s}.ln", d) for s in block] for block in names]
    fusion = FusionParams(pos_video=pos_video, pos_text=pos_text, blocks=blocks)
    encoder = [(store.attention(f"encoder.{i}.attn", f"encoder.{i}.ln1", d),
                store.ffn(f"encoder.{i}", f"encoder.{i}.ln2", d, cfg.ffn_dim))
               for i in range(cfg.encoder_layers)]
    query_embed = store.new("decoder.query_embed", (cfg.num_queries, d), "xavier_uniform",
                            fan=(cfg.num_queries, d))
    dec_layers = [(store.attention(f"decoder.{i}.self", f"decoder.{i}.ln1", d),
                   store.attention(f"decoder.{i}.cross", f"decoder.{i}.ln2", d),
                   store.ffn(f"decoder.{i}", f"decoder.{i}.ln3", d, cfg.ffn_dim))
                  for i in range(cfg.decoder_layers)]
    decoder = DecoderParams(query_embed=query_embed, layers=dec_layers)
    cls = store.linear("heads.class", d, 2)
    moment_layers = []
    for i, (w_in, w_out) in enumerate([(d, d), (d, d), (d, 2)]):
        moment_layers.append(store.linear(f"heads.moment.{i}", w_in, w_out))
    saliency_w = store.new("heads.saliency.weight", (d, 1), "xavier_uniform", fan=(d, 1))
    heads = HeadParams(cls=cls, moment_layers=moment_layers, saliency_w=saliency_w)
    gru = (store.linear("gru.update", 2 * d, d), store.linear("gru.reset", 2 * d, d),
           store.linear("gru.cand", 2 * d, d), store.linear("gru.readout", d, 1))
    return ModelParams(video_proj=video_proj, text_proj=text_proj,
                       refine_conv=refine_conv, fusion=fusion, encoder=encoder,
                       decoder=decoder, heads=heads, gru=gru)


class Model:
    """The parameters (weight and gradient arenas, see ParamStore) and the forward pass.

    seed=None skips the random init: the weights start at zero for a
    checkpoint load to fill.
    """

    def __init__(self, cfg: ModelConfig, seed=0):
        self.cfg = cfg
        self.store, self.params = build_params(cfg, seed)

    @property
    def dtype(self):
        return self.store.arena.dtype

    def named_parameters(self):
        """The ParamStore: name -> Parameter, plus the weight and gradient arenas."""
        return self.store

    def zero_grad(self):
        self.store.grad_arena.fill(0.0)

    def state_arrays(self):
        return {name: p.tensor.data for name, p in self.store.items()}

    # -- forward -----------------------------------------------------------

    def forward(self, bundle: FeatureBundle, train=False, rng=None):
        """One graph over an item's bundle, or over a padded batch from pad_batch.

        Every stage keeps the bundle's leading shape: an item gives (L, d)
        clip states, (num_queries, 2) moments and (L,) saliency; a batch gives
        the same with a leading B axis. With train set, the stages' dropout
        functions (cfg.input_dropout, then cfg.dropout) draw from rng in order.
        """
        cfg, p = self.cfg, self.params
        vmask, tmask = bundle.video_mask, bundle.text_mask
        input_drop = partial(dropout, p=cfg.input_dropout, rng=rng, train=train)
        drop = partial(dropout, p=cfg.dropout, rng=rng, train=train)
        video = Tensor(bundle.video.astype(self.dtype, copy=False))
        text = Tensor(bundle.text.astype(self.dtype, copy=False))
        v_bar = project(video, p.video_proj, input_drop, mask=vmask)
        t_bar = project(text, p.text_proj, input_drop, mask=tmask)
        if cfg.use_refinement:
            v_r = refine(v_bar, t_bar, p.refine_conv, text_mask=tmask, clip_mask=vmask)
        else:
            v_r = v_bar
        fused = fuse(v_r, t_bar, p.fusion, cfg.heads, drop, clip_mask=vmask, text_mask=tmask)
        memory = encode(fused, p.encoder, cfg.heads, drop, clip_mask=vmask)
        saliency = predict_saliency(memory, p.heads.saliency_w)
        decoded = decode(memory, p.decoder, cfg.heads, drop, clip_mask=vmask)
        logits, moments = predict_moments(decoded, p.heads)
        return ForwardResult(text_tokens=t_bar, refined=v_r, memory=memory, class_logits=logits,
                             moments=moments, saliency=saliency)


def normalized_windows(ann):
    """Annotation windows -> (M, 2) normalized (center, width)."""
    out = []
    for s, e in ann.relevant_windows:
        out.append([0.5 * (s + e) / ann.duration, (e - s) / ann.duration])
    return np.asarray(out, dtype=float)


def _fg_probs(logits_data):
    _, e, row_sum = _masked_exp(logits_data, True, None)
    return e[..., 0] / row_sum[..., 0]


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
        "rank": rank_margin_loss(fw.saliency, high, low, cfg.weights.margin),
        "contrastive": contrastive_rank_loss(fw.saliency, levels, cfg.weights.temperature,
                                             clip_mask=vmask),
        "hard": highlight_distribution_loss(fw.saliency, norm_levels, pos_mask, neg_mask, epoch),
        "task_specific": task_specific_loss(fw.saliency, norm_levels, clip_mask=vmask),
        "task_coupled": task_coupled_loss(fw.memory, model.params.gru, norm_levels,
                                          clip_mask=vmask),
        "alignment": alignment_loss(fw.text_tokens, fw.refined, norm_levels,
                                    text_mask=padded.text_mask, clip_mask=vmask),
    }
    if not (np.isfinite(fw.moments.data).all() and np.isfinite(fw.class_logits.data).all()):
        # keep divergence on the CompositionError path instead of crashing the matcher
        raise CompositionError("moment head produced non-finite predictions")
    gt_moments = [normalized_windows(ann) for ann in anns]
    fg = _fg_probs(fw.class_logits.data)
    matches = [hungarian_match(fw.moments.data[i], fg[i], gt, cfg.weights)
               for i, gt in enumerate(gt_moments)]
    components.update(moment_loss(fw.class_logits, fw.moments, gt_moments,
                                  matches, cfg.weights))
    total = compose_total(components, cfg.weights)
    return total, components


def _query_prediction(ann, moments, logits, saliency):
    """One item's eval outputs as a QueryPrediction: each query's
    (center, width) row, clipped to [0, 1], as a window in seconds with its
    foreground probability, and one score per clip."""
    starts, ends = _spans(moments.astype(float))
    windows = [[s * ann.duration, e * ann.duration, p]
               for s, e, p in zip(starts.tolist(), ends.tolist(), _fg_probs(logits).tolist())]
    return QueryPrediction(qid=ann.qid, windows=windows, saliency=[float(x) for x in saliency])


def predict_item(model, bundle, ann):
    """Eval-mode forward converted into second-scaled windows and clip scores."""
    with no_grad():
        fw = model.forward(bundle, train=False)
    return _query_prediction(ann, fw.moments.data, fw.class_logits.data, fw.saliency.data)


def predict_batch(model, pairs):
    """predict_item of each (bundle, annotation) pair, from one eval-mode
    forward over their pad_batch.

    Each item's prediction comes from its own row: its num_queries windows,
    scaled by its own duration, and the saliency of its own clips. Padding
    is masked, so in float64 the outputs equal predict_item's to rounding;
    float32 products may round differently at B > 1.
    """
    with no_grad():
        fw = model.forward(pad_batch([b for b, _ in pairs]), train=False)
    return [_query_prediction(ann, fw.moments.data[i], fw.class_logits.data[i],
                              fw.saliency.data[i, :len(bundle.video)])
            for i, (bundle, ann) in enumerate(pairs)]


def bundle_for(ann, cfg, feature_dir=None):
    """The item's feature bundle, written once in cfg.dtype, which Model.forward
    runs without a copy; a video longer than cfg.max_clips is a ConfigError."""
    if ann.num_clips > cfg.max_clips:
        raise ConfigError(f"qid {ann.qid}: {ann.num_clips} clips exceed max_clips={cfg.max_clips}")
    return encode_item(ann, cfg.video_parts, cfg.text_parts, cfg.max_text_len,
                       feature_dir=feature_dir, dtype=cfg.dtype)
