"""Cross-modal attention fusion between refined clips and text tokens.

The bidirectional mode runs three attention stages per block (text into video,
video into text, then the text-aware tokens back into the video path); the
text_to_video mode keeps only the first stage. Learnable positional encodings
are added to queries and to keys/values of the conditioning modality. Each
stage ends in dropout -> residual (query side) -> layer norm, and the final
stage of a block additionally applies ReLU after its layer norm.
"""
from __future__ import annotations

from dataclasses import dataclass

from .autodiff import (MhaParams, add, dropout, layer_norm, multi_head_attention,
                       narrow, relu)
from .config import ConfigError


@dataclass
class FusionStage:
    attn: MhaParams
    ln_gamma: object
    ln_beta: object


@dataclass
class FusionParams:
    pos_video: object  # (max_clips, d) learnable
    pos_text: object   # (max_text_len, d) learnable
    blocks: list       # per fusion layer: [stage, ...] (3 bidirectional / 1 t2v)


def _stage(query_side, key_side, q_pos, kv_pos, stage, heads, key_mask,
           drop_p, train, rng, final, flags):
    q = add(query_side, q_pos)
    kv = add(key_side, kv_pos)
    attended = multi_head_attention(q, kv, kv, stage.attn, heads,
                                    key_mask=key_mask, flags=flags)
    out = layer_norm(add(query_side, dropout(attended, drop_p, rng=rng, train=train)),
                     stage.ln_gamma, stage.ln_beta)
    return relu(out) if final else out


def fuse(v_r, t_bar, params, heads, mode="bidirectional", drop_p=0.0,
         clip_mask=None, text_mask=None, train=False, rng=None, flags=None):
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
        if mode == "bidirectional":
            if len(block) != 3:
                raise ConfigError("bidirectional fusion blocks need 3 stages")
            video_text = _stage(video, text, pos_v, pos_t, block[0], heads,
                                text_mask, drop_p, train, rng, False, flags)
            text_video = _stage(text, video, pos_t, pos_v, block[1], heads,
                                clip_mask, drop_p, train, rng, False, flags)
            video = _stage(video_text, text_video, pos_v, pos_t, block[2], heads,
                           text_mask, drop_p, train, rng, True, flags)
            text = text_video
        elif mode == "text_to_video":
            if len(block) != 1:
                raise ConfigError("text_to_video fusion blocks need 1 stage")
            video = _stage(video, text, pos_v, pos_t, block[0], heads,
                           text_mask, drop_p, train, rng, True, flags)
        else:
            raise ConfigError(f"unknown fusion mode '{mode}'")
    return video
