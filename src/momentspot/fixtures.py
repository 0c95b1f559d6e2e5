"""Deterministic toy datasets for the synthetic experiments and tests.

Each overfit item plants a graded text-aligned component into the video
features inside its gt window: a clip at saliency level k gains
(k/4 - 0.25) * PLANT_GAIN times the item's pooled unit text vector in the
shared leading dims, so out-of-window clips point slightly away from the
query and in-window clips toward it in proportion to the profile. Ranking
clips by query affinity is then a learnable rule that transfers to
held-out items instead of per-item noise to memorize.

Window widths vary across items (14 to 30 seconds) so a degenerate
predictor that emits one average window cannot score well at moderate
IoU thresholds; localizing requires reading the planted extent.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .config import ModelConfig
from .data import (Annotation, clips_overlapping_windows, pseudo_encode,
                   save_features, text_token_count)

# length cycle and per-length saliency pyramids; ramps are stretched on the
# wider windows to keep the tie ceiling of Spearman comfortably above 0.9
WINDOW_LENGTHS = (9, 11, 13, 15, 7)
WINDOW_PROFILES = {
    7: (1, 2, 3, 4, 3, 2, 1),
    9: (1, 2, 3, 4, 4, 4, 3, 2, 1),
    11: (1, 1, 2, 2, 3, 3, 4, 4, 3, 2, 1),
    13: (1, 1, 2, 2, 3, 3, 4, 4, 4, 3, 3, 2, 1),
    15: (1, 1, 2, 2, 3, 3, 4, 4, 4, 3, 3, 2, 2, 1, 1),
}
PLANT_GAIN = 2.0
N_ITEMS = 8
N_CLIPS = 16


def _window_span(i, n_clips):
    """Deterministic (start, length) spread across items."""
    length = WINDOW_LENGTHS[i % len(WINDOW_LENGTHS)]
    start = (3 * i + 1) % (n_clips - length + 1)
    return start, length


def planted_video_features(vid, query, levels, video_dim, text_dim,
                           max_text_len):
    """Pseudo video features with the query-aligned saliency plant applied."""
    n_clips = len(levels)
    video = pseudo_encode("clip_v", vid, n_clips, video_dim)
    n_tok = text_token_count(query, max_text_len)
    text = pseudo_encode("clip_t", query, n_tok, text_dim)
    pooled = text.mean(axis=0)
    unit = pooled / np.linalg.norm(pooled)
    shared = min(video_dim, text_dim)
    graded = np.asarray(levels, dtype=np.float64) / 4.0
    video[:, :shared] += PLANT_GAIN * (graded - 0.25)[:, None] * unit[:shared]
    return video


def build_overfit_fixture(feature_dir=None):
    """N_ITEMS single-window annotations over N_CLIPS-clip toy videos, shaped
    for ModelConfig.desk(): its clip length, video part, text width and
    token limit.

    feature_dir, when given, receives the planted video features as vlft
    files keyed by vid (text features stay on the pseudo encoder). Without
    it the annotations still describe the same windows but training sees
    plain pseudo video features.
    """
    cfg = ModelConfig.desk()
    (video_kind, video_dim), = cfg.video_parts
    clip_len = cfg.clip_len
    annotations = []
    duration = N_CLIPS * clip_len
    if feature_dir is not None:
        Path(feature_dir).mkdir(parents=True, exist_ok=True)
    for i in range(N_ITEMS):
        vid = f"toy{i:02d}"
        query = f"find the highlighted moment number {i}"
        start, length = _window_span(i, N_CLIPS)
        window = [start * clip_len, (start + length) * clip_len]
        levels = [0] * N_CLIPS
        for j, lv in enumerate(WINDOW_PROFILES[length]):
            levels[start + j] = lv
        ann = Annotation(
            qid=i,
            query=query,
            vid=vid,
            duration=duration,
            relevant_windows=[window],
            saliency_levels=levels,
            relevant_clip_ids=clips_overlapping_windows([window], duration, clip_len),
            clip_len=clip_len,
        )
        annotations.append(ann.validate())
        if feature_dir is not None:
            video = planted_video_features(vid, query, levels, video_dim,
                                           cfg.text_dim, cfg.max_text_len)
            save_features(Path(feature_dir) / f"{vid}.{video_kind}.vlft", video)
    return annotations
