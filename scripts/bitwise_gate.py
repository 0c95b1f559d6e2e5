"""Print SHA-256 digests of runs that a behaviour-preserving change must keep bit for bit.

    python3 scripts/bitwise_gate.py          # print the digests
    python3 scripts/bitwise_gate.py --write  # regenerate tests/bitwise_digests.json

tests/test_bitwise_gate.py runs this script in a subprocess and compares
its output, key by key, with the committed tests/bitwise_digests.json:
equal digests mean the change left the arithmetic, the init and dropout
draws and the checkpoint layout alone. A change that means to move bits
regenerates the file with --write and reports how far the runs moved: next
to the digests the script prints losses as `repr` floats, so a new
summation order, say, can say by how much, not only that it did. The
output's "env" line names the Python, NumPy and BLAS builds and the
machine it ran on; digests are compared only under the env that made them.
The script imports momentspot from the `src/` of the tree it lives in and
pins BLAS to one thread, so the digests do not depend on the host's core
count.

Digests:

- desk/<dtype>/<fusion mode>: train() on the planted overfit fixture with
  dropout 0.1, input dropout 0.2, grad_clip=0.5, val_fraction=0.25 and
  validation every epoch; the loss trace, last.ckpt, best.ckpt and the
  predictions.jsonl of best.ckpt evaluated on every fixture item; the params
  block of each checkpoint (the bytes after its header), which a change to
  the header alone leaves equal; train_log.jsonl without its wall-time
  fields (WALL_TIME_KEYS); plus final_loss, the trace's last epoch-mean
  loss.
- full/float32: the params arena after two train-mode steps (forward,
  backward, clip, AdamW) of the full-scale preset, dropout on, on one batch of
  the full-long benchmark workload's items; plus step_losses, the total loss
  of each step.
- masked-keys/<dtype>: two train-mode steps (forward, backward, clip,
  AdamW) of the desk preset with max_clips=75, dropout 0.1 and input
  dropout 0.2, on one batch of desk-long workload items with 40 to 75 clips
  and 2 to 8 query words, so every attention call masks some keys; the
  params arena after them, each step's loss, and the repr of predict_batch
  on that padded batch.
- init: the seeded weight arena of a freshly built desk float64, desk float32
  and full-scale float32 model.
- bundles: the video and text bytes of bundle_for on every full-long
  workload item (pseudo-encoded, float32), and on every planted fixture item
  read from its feature files in the desk preset, once per dtype.
- metrics: the repr of compute_report on seeded random prediction sets with
  confidence ties, zero-width and touching spans, queries without windows
  and queries without gt; the bytes of match_cost_matrix on random (center,
  width) rows, some clipped at 0 or 1 or narrower than the width floor; and
  the value and moment gradient of matched_giou in float64 and float32.
- losses/degenerate: the repr of every loss term's value, and of their
  weighted total, on one item and on a padded batch in float64 and float32
  whose input leaves each term nothing to score: no rank pair, no level
  above 0, no positive or negative clip, all-zero gt saliency, no matched
  query.
"""
import dataclasses
import hashlib
import json
import os
import platform
import struct
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np

from momentspot.autodiff import Tensor
from momentspot.config import LossWeights, ModelConfig
from momentspot.data import Annotation
from momentspot.fixtures import build_overfit_fixture
from momentspot.losses import (compose_total, contrastive_rank_loss, highlight_distribution_loss,
                               rank_margin_loss, task_coupled_loss, task_specific_loss)
from momentspot.matching import MatchResult, match_cost_matrix, matched_giou, moment_loss
from momentspot.metrics import QueryPrediction, compute_report
from momentspot.model import Model, batch_loss, bundle_for, predict_batch
from momentspot.refinement import alignment_loss
from momentspot.training import AdamW, clip_gradients, evaluate_checkpoint, train
from perfbench.workloads import BATCH_SIZE, WORKLOADS, make_inputs

DIGESTS = ROOT / "tests" / "bitwise_digests.json"
EPOCHS = 5  # of each desk run
MASKED_QUERY_WORDS = (2, 8, 5, 3)  # one per item of the masked-keys batch; desk keeps 8 tokens
SEED = 2
STEPS = 2  # of the full-preset run
# the train_log.jsonl fields that differ between two runs of the same arithmetic
WALL_TIME_KEYS = ("forward_ms", "backward_ms", "optimizer_ms", "items_per_s")


def sha(data):
    return hashlib.sha256(data).hexdigest()


def params_block(path):
    """The bytes of checkpoint path after its magic, version, header length and header."""
    raw = Path(path).read_bytes()
    (meta_len,) = struct.unpack("<I", raw[8:12])
    return raw[12 + meta_len:]


def log_without_wall_times(path):
    """train_log.jsonl at path with WALL_TIME_KEYS dropped from each entry, re-serialised."""
    entries = [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]
    return "".join(json.dumps({k: v for k, v in entry.items() if k not in WALL_TIME_KEYS}) + "\n"
                   for entry in entries).encode()


def desk_run(tmp, dtype, fusion_mode):
    """Digests of one desk train() run with every dropout and clip path on."""
    features = tmp / "features"
    annotations = build_overfit_fixture(feature_dir=features)
    cfg = ModelConfig.desk(dtype=dtype, fusion_mode=fusion_mode, epochs=EPOCHS, dropout=0.1,
                           input_dropout=0.2, grad_clip=0.5, val_fraction=0.25, eval_every=1)
    run = tmp / f"{dtype}-{fusion_mode}"
    result = train(cfg, annotations, run, seed=SEED, feature_dir=features)
    evaluate_checkpoint(result.best_checkpoint, annotations, out_dir=run / "eval",
                        feature_dir=features)
    return {
        "loss_trace": sha(np.asarray(result.loss_trace, dtype=np.float64).tobytes()),
        "last.ckpt": sha(Path(result.last_checkpoint).read_bytes()),
        "best.ckpt": sha(Path(result.best_checkpoint).read_bytes()),
        "last.ckpt params": sha(params_block(result.last_checkpoint)),
        "best.ckpt params": sha(params_block(result.best_checkpoint)),
        "predictions": sha((run / "eval" / "predictions.jsonl").read_bytes()),
        "train_log": sha(log_without_wall_times(result.log_path)),
        "final_loss": repr(result.loss_trace[-1]),
    }


def full_steps():
    """Digest of the full-preset params arena after STEPS train-mode steps on one batch,
    and each step's loss."""
    workload = WORKLOADS["full-long"]
    cfg = workload.cfg
    items = make_inputs(workload, SEED, None).train_items[:BATCH_SIZE]
    batch = [(bundle_for(ann, cfg), ann) for ann in items]
    model = Model(cfg, seed=SEED)
    optimizer = AdamW(model.named_parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng([SEED, 2])
    losses = []
    for step in range(STEPS):
        total, _ = batch_loss(model, batch, step, rng=rng, train=True)
        losses.append(repr(total.item()))
        model.zero_grad()
        total.backward()
        clip_gradients(model.named_parameters(), cfg.grad_clip)
        optimizer.step()
    return {"arena": sha(model.store.arena.tobytes()), "step_losses": losses}


def masked_key_steps(tmp, dtype):
    """Digest of the desk params arena after STEPS train-mode steps on one padded batch
    whose clip counts and query lengths differ per item, each step's loss, and the
    predict_batch output on that batch after them."""
    workload = WORKLOADS["desk-long"]
    cfg = dataclasses.replace(workload.cfg, dtype=dtype, dropout=0.1, input_dropout=0.2,
                              grad_clip=0.5)
    inputs = make_inputs(workload, SEED, tmp / f"masked-keys-{dtype}")
    items = [dataclasses.replace(ann, query=" ".join(ann.query.split()[:words]))
             for ann, words in zip(inputs.train_items[:BATCH_SIZE], MASKED_QUERY_WORDS)]
    batch = [(bundle_for(ann, cfg, inputs.feature_dir), ann) for ann in items]
    model = Model(cfg, seed=SEED)
    optimizer = AdamW(model.named_parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng([SEED, 5])
    losses = []
    for step in range(STEPS):
        total, _ = batch_loss(model, batch, step, rng=rng, train=True)
        losses.append(repr(total.item()))
        model.zero_grad()
        total.backward()
        clip_gradients(model.named_parameters(), cfg.grad_clip)
        optimizer.step()
    return {"arena": sha(model.store.arena.tobytes()), "step_losses": losses,
            "predict_batch": sha(repr(predict_batch(model, batch)).encode())}


def init_arenas():
    """Digest of each seeded weight arena, straight after Model(cfg, SEED)."""
    cfgs = {"desk/float64": ModelConfig.desk(dtype="float64"),
            "desk/float32": ModelConfig.desk(dtype="float32"),
            "full/float32": WORKLOADS["full-long"].cfg}
    return {name: sha(Model(cfg, seed=SEED).store.arena.tobytes()) for name, cfg in cfgs.items()}


def bundles(tmp):
    """Digest of the video and text bytes of every bundle, one per item set and dtype."""
    def digest(pairs):
        h = hashlib.sha256()
        for ann, cfg, feature_dir in pairs:
            bundle = bundle_for(ann, cfg, feature_dir)
            h.update(bundle.video.tobytes())
            h.update(bundle.text.tobytes())
        return h.hexdigest()

    workload = WORKLOADS["full-long"]
    out = {"full-long/float32": digest((ann, workload.cfg, None)
                                       for ann in make_inputs(workload, SEED, None).all_items)}
    features = tmp / "bundle-features"
    annotations = build_overfit_fixture(feature_dir=features)
    for dtype in ("float64", "float32"):
        cfg = ModelConfig.desk(dtype=dtype)
        out[f"fixture/{dtype}"] = digest((ann, cfg, features) for ann in annotations)
    return out


def _span(rng):
    """A [start, end] pair on a coarse grid (ties, touching and zero-width
    spans) or drawn uniformly."""
    if rng.random() < 0.5:
        start, width = rng.choice([0.0, 2.0, 4.0, 10.0]), rng.choice([0.0, 2.0, 6.0])
    else:
        start, width = rng.uniform(0, 20), rng.uniform(0, 10)
    return [float(start), float(start + width)]


def metric_sets():
    """Digests of compute_report's repr over seeded prediction sets, of the
    match cost matrix and of the matched gIoU term."""
    rng = np.random.default_rng([SEED, 3])
    reports = []
    for _ in range(300):
        predictions, annotations = [], []
        for qid in range(int(rng.integers(1, 6))):
            n_clips = int(rng.integers(1, 9))
            windows = [_span(rng) + [float(rng.choice([0.1, 0.5, 0.9]))]
                       for _ in range(int(rng.integers(0, 6)))]
            predictions.append(QueryPrediction(qid=qid, windows=windows,
                                               saliency=rng.choice([0.2, 0.7], n_clips).tolist()))
            annotations.append(Annotation(
                qid=qid, query="a query", vid=f"v{qid}", duration=30.0,
                relevant_windows=[_span(rng) for _ in range(int(rng.integers(0, 4)))],
                saliency_levels=rng.integers(0, 5, n_clips).tolist(), relevant_clip_ids=[],
                clip_len=2.0))
        reports.append(repr(compute_report(predictions, annotations)))
    out = {"reports": sha("\n".join(reports).encode())}
    costs = hashlib.sha256()
    for _ in range(300):
        n_pred, n_gt = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        pred = np.column_stack([rng.uniform(-0.2, 1.2, n_pred), rng.uniform(-1e-4, 0.7, n_pred)])
        gt = np.column_stack([rng.uniform(0.1, 0.9, n_gt), rng.uniform(0.05, 0.6, n_gt)])
        costs.update(match_cost_matrix(pred, rng.uniform(0, 1, n_pred), gt, LossWeights()).tobytes())
    out["match_cost_matrix"] = costs.hexdigest()
    for dtype in ("float64", "float32"):
        moments = Tensor(np.column_stack([rng.uniform(-0.1, 1.1, 64), rng.uniform(-1e-4, 0.7, 64)])
                         .astype(dtype), requires_grad=True)
        index = rng.permutation(64)[:40]
        gt_rows = np.column_stack([rng.uniform(0.1, 0.9, 40), rng.uniform(0.05, 0.6, 40)])
        weights = rng.uniform(0.1, 1.0, (40, 1)).astype(dtype)
        loss = matched_giou(moments, index, gt_rows.astype(dtype), weights)
        loss.backward()
        out[f"matched_giou/{dtype}"] = sha(loss.data.tobytes() + moments.grad.tobytes())
    return out


def degenerate_losses():
    """Digest of the repr of each loss term's value and of the total, on item
    and batch input that leaves every term nothing to score."""
    rng = np.random.default_rng([SEED, 4])
    lengths, n_clips, n_words, n_q, d = (6, 4, 2), 6, 3, 5, 8
    gru_shapes = [(2 * d, d), (d,)] * 3 + [(d, 1), (1,)]
    values = []
    for dtype in ("float64", "float32"):
        for lead in ((), (len(lengths),)):
            def tensor(*shape, scale=1.0):
                return Tensor((rng.normal(size=lead + shape) * scale).astype(dtype),
                              requires_grad=True)

            clip_mask = np.arange(n_clips) < (np.array(lengths)[:, None] if lead else n_clips)
            none = np.zeros(lead + (n_clips,), dtype=bool)
            gt = np.zeros(lead + (n_clips,))
            unpaired = np.full(len(lengths) if lead else 1, -1)
            gts, matches = np.zeros((0, 2)), MatchResult([], [])
            if lead:
                gts, matches = [gts] * len(lengths), [matches] * len(lengths)
            s = tensor(n_clips)
            gru = [Tensor((rng.normal(size=shape) * 0.4).astype(dtype), requires_grad=True)
                   for shape in gru_shapes]
            components = {
                "rank": rank_margin_loss(s, unpaired, unpaired, 0.2),
                "contrastive": contrastive_rank_loss(s, none.astype(int), 0.5, clip_mask=clip_mask),
                "hard": highlight_distribution_loss(s, gt, none, none, 1),
                "task_specific": task_specific_loss(s, gt, clip_mask),
                "task_coupled": task_coupled_loss(tensor(n_clips, d), tuple(zip(gru[::2], gru[1::2])),
                                                  gt, clip_mask),
                "alignment": alignment_loss(tensor(n_words, d), tensor(n_clips, d), gt,
                                            clip_mask=clip_mask),
                **moment_loss(tensor(n_q, 2), tensor(n_q, 2, scale=0.2), gts, matches,
                              LossWeights()),
            }
            components["total"] = compose_total(components, LossWeights())
            values += [f"{lead} {key} {out.data.dtype} {out.item()!r}"
                       for key, out in components.items()]
    return sha("\n".join(values).encode())


def environment():
    """The builds and the machine the digests depend on, as one line."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"blas {blas.get('name')} {blas.get('version')}, {platform.machine()}")


def main():
    digests = {"env": environment()}
    with tempfile.TemporaryDirectory(prefix="bitwise-gate-") as tmp:
        for dtype in ("float64", "float32"):
            for mode in ("bidirectional", "text_to_video"):
                digests[f"desk/{dtype}/{mode}"] = desk_run(Path(tmp), dtype, mode)
        digests["bundles"] = bundles(Path(tmp))
        for dtype in ("float64", "float32"):
            digests[f"masked-keys/{dtype}"] = masked_key_steps(Path(tmp), dtype)
    digests["full/float32"] = full_steps()
    digests["init"] = init_arenas()
    digests["metrics"] = metric_sets()
    digests["losses/degenerate"] = degenerate_losses()
    text = json.dumps(digests, indent=2, sort_keys=True)
    if "--write" in sys.argv[1:]:
        DIGESTS.write_text(text + "\n", encoding="utf-8")
    print(text)


if __name__ == "__main__":
    main()
