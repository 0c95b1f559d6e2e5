"""Cross-modal attention fusion between refined clips and text tokens.

A block's stage count is its mode: bidirectional runs three attention stages
(text into video, video into text, then the text-aware tokens back into the
video path), text_to_video only the first. Learnable positional encodings are
added to queries and to keys/values of the conditioning modality. Each stage
ends in dropout -> residual (query side) -> layer norm, and the final stage of
a block additionally applies ReLU after its layer norm.
"""
from __future__ import annotations

from dataclasses import dataclass

from .autodiff import add, identity, layer_norm, multi_head_attention, narrow, relu
from .config import ConfigError


@dataclass
class FusionParams:
    pos_video: object  # (max_clips, d) learnable
    pos_text: object   # (max_text_len, d) learnable
    blocks: list       # per fusion layer: [heads.Sublayer, ...] (3 bidirectional / 1 t2v)


def _stage(query_side, key_side, q_pos, kv_pos, stage, heads, key_mask, drop, final):
    q = add(query_side, q_pos)
    kv = add(key_side, kv_pos)
    attended = multi_head_attention(q, kv, kv, stage.body, heads, key_mask=key_mask)
    # heads._residual's line, repeated: perfbench/tracing.py wraps layer_norm in
    # this module's namespace, which needs the import, and the unused-import
    # lint keeps an import only while this module reads it
    out = layer_norm(add(query_side, drop(attended)), stage.ln_gamma, stage.ln_beta)
    return relu(out) if final else out


def fuse(v_r, t_bar, params, heads, drop=identity, clip_mask=None, text_mask=None):
    """Fuse text evidence into the clip stream; output keeps shape (L, d), or (B, L, d) for a batch."""
    length = v_r.data.shape[-2]
    n_tok = t_bar.data.shape[-2]
    if length > params.pos_video.data.shape[0]:
        raise ConfigError(f"{length} clips exceed max_clips={params.pos_video.data.shape[0]}")
    if n_tok > params.pos_text.data.shape[0]:
        raise ConfigError(f"{n_tok} tokens exceed max_text_len={params.pos_text.data.shape[0]}")
    pos_v = narrow(params.pos_video, 0, 0, length)
    pos_t = narrow(params.pos_text, 0, 0, n_tok)
    video, text = v_r, t_bar
    for block in params.blocks:
        if len(block) == 3:  # bidirectional
            video_text = _stage(video, text, pos_v, pos_t, block[0], heads, text_mask, drop, False)
            text_video = _stage(text, video, pos_t, pos_v, block[1], heads, clip_mask, drop, False)
            video = _stage(video_text, text_video, pos_v, pos_t, block[2], heads,
                           text_mask, drop, True)
            text = text_video
        elif len(block) == 1:  # text_to_video
            video = _stage(video, text, pos_v, pos_t, block[0], heads, text_mask, drop, True)
        else:
            raise ConfigError(f"a fusion block has {len(block)} stages, not 3 or 1")
    return video
