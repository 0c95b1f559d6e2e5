"""Seeded workload generators.

Every workload is a closed loop: one caller, batch size 4, each call waiting
for the previous one. The seed chooses the items (window positions, saliency
profiles, query words, vids and hence features) but never the clip counts or
the query token count, so every seed asks for the same amount of work and
run-to-run spread reflects the machine rather than the inputs.

Why each workload exists:

- desk-short: the desk preset on 16-clip planted items, like the acceptance
  fixture. Graphs of about a thousand nodes over tiny matrices, so time goes
  to per-node Python bookkeeping in autodiff and to attention and layer norm
  in fusion and heads.
- desk-long: the desk preset with max_clips=75 on planted items of 40 to 75
  clips, each batch mixing all four lengths. The per-clip GRU scan of the
  task-coupled loss dominates, and the mixed lengths expose padding waste
  once a padded batch path exists.
- full-long: the full-scale preset (d=256, 8 heads, f32, dropout on) on
  75-clip items with pseudo-encoded 3584-dim video and 1280-dim text
  features. BLAS matmuls, AdamW over 11.4M parameters and 137 MB checkpoints
  dominate; per-node overhead is a small share.
"""
from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from momentspot.config import ModelConfig
from momentspot.data import Annotation, clips_overlapping_windows, save_features
from momentspot.fixtures import WINDOW_LENGTHS, WINDOW_PROFILES, planted_video_features

BATCH_SIZE = 4
QUERY_WORDS = 12  # a fixed word count, so no preset's token count varies with the seed
VOCAB = ("person", "dog", "walks", "opens", "door", "kitchen", "beach", "car",
         "talks", "camera", "holds", "phone", "street", "cooks", "food", "runs",
         "laughs", "table", "window", "rides", "bike", "sings", "song", "water")


@dataclass(frozen=True)
class Workload:
    name: str
    cfg: ModelConfig
    train_lengths: tuple  # clip counts; consecutive groups of BATCH_SIZE form the loop's batches
    held_lengths: tuple   # validation items of the train() run; also evaluated
    planted: bool         # planted video feature files (desk) or pseudo-encoded features (full)
    run_epochs: int       # epochs of the timed train() call
    run_train_items: int  # leading train items the timed train() call uses

    def fingerprint(self):
        """Short digest of everything that sets the amount of work."""
        spec = {k: v for k, v in dataclasses.asdict(self).items() if k != "cfg"}
        text = self.cfg.to_json() + repr(sorted(spec.items()))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


WORKLOADS = {
    "desk-short": Workload(
        name="desk-short", cfg=ModelConfig.desk(batch_size=BATCH_SIZE),
        train_lengths=(16,) * 8, held_lengths=(16,) * 4, planted=True,
        run_epochs=2, run_train_items=8),
    "desk-long": Workload(
        name="desk-long", cfg=ModelConfig.desk(max_clips=75, batch_size=BATCH_SIZE),
        train_lengths=(40, 52, 64, 75, 75, 64, 52, 40), held_lengths=(46, 58, 70, 75),
        planted=True, run_epochs=1, run_train_items=8),
    "full-long": Workload(
        name="full-long", cfg=ModelConfig(batch_size=BATCH_SIZE),
        train_lengths=(75,) * 8, held_lengths=(75,) * 2, planted=False,
        run_epochs=1, run_train_items=4),
}


@dataclass
class Inputs:
    seed: int
    train_items: list
    held_items: list
    feature_dir: str | None

    @property
    def all_items(self):
        return self.train_items + self.held_items


def _item(rng, qid, n_clips, clip_len):
    width = int(rng.choice([w for w in WINDOW_LENGTHS if w <= n_clips]))
    start = int(rng.integers(0, n_clips - width + 1))
    levels = [0] * n_clips
    levels[start:start + width] = WINDOW_PROFILES[width]
    duration = n_clips * clip_len
    window = [start * clip_len, (start + width) * clip_len]
    query = " ".join(rng.choice(VOCAB, size=QUERY_WORDS))
    tag = int(rng.integers(1 << 30))
    ann = Annotation(qid=qid, query=query, vid=f"v{tag:09d}q{qid}", duration=duration,
                     relevant_windows=[window], saliency_levels=levels,
                     relevant_clip_ids=clips_overlapping_windows([window], duration, clip_len),
                     clip_len=clip_len)
    return ann.validate()


def make_inputs(workload, seed, feature_dir):
    """Annotations (and, for planted workloads, feature files) from the seed alone."""
    cfg = workload.cfg
    rng = np.random.default_rng([seed, 7919])
    lengths = workload.train_lengths + workload.held_lengths
    items = [_item(rng, qid, n, cfg.clip_len) for qid, n in enumerate(lengths)]
    if workload.planted:
        (video_kind, video_dim), = cfg.video_parts
        Path(feature_dir).mkdir(parents=True, exist_ok=True)
        for ann in items:
            video = planted_video_features(ann.vid, ann.query, ann.saliency_levels,
                                           video_dim, cfg.text_dim, cfg.max_text_len)
            save_features(Path(feature_dir) / f"{ann.vid}.{video_kind}.vlft", video)
    n_train = len(workload.train_lengths)
    return Inputs(seed=seed, train_items=items[:n_train], held_items=items[n_train:],
                  feature_dir=str(feature_dir) if workload.planted else None)
