"""Print SHA-256 digests of runs that a behaviour-preserving change must keep bit for bit.

    python3 scripts/bitwise_gate.py

Run it in two checkouts, for example a change and its parent
(`git clone . ../parent && git -C ../parent checkout HEAD~1`, then copy this
script there), and compare the two JSON objects it prints: equal digests
mean the change left the arithmetic, the init and dropout draws and the
checkpoint layout alone. The script imports momentspot from the `src/` of
the tree it lives in and pins BLAS to one thread, so the digests do not
depend on the host's core count.

Digests:

- desk/<dtype>/<fusion mode>: train() on the planted overfit fixture with
  dropout 0.1, input dropout 0.2, grad_clip=0.5, val_fraction=0.25 and
  validation every epoch; the loss trace, last.ckpt, best.ckpt and the
  predictions.jsonl of best.ckpt evaluated on every fixture item.
- full/float32: the params arena after two train-mode steps (forward,
  backward, clip, AdamW) of the full-scale preset, dropout on, on one batch of
  the full-long benchmark workload's items.
"""
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np

from momentspot.config import ModelConfig
from momentspot.fixtures import build_overfit_fixture
from momentspot.model import Model, batch_loss, bundle_for
from momentspot.training import AdamW, clip_gradients, evaluate_checkpoint, train
from perfbench.workloads import BATCH_SIZE, WORKLOADS, make_inputs

EPOCHS = 5  # of each desk run
SEED = 2
STEPS = 2  # of the full-preset run


def sha(data):
    return hashlib.sha256(data).hexdigest()


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
        "predictions": sha((run / "eval" / "predictions.jsonl").read_bytes()),
    }


def full_steps():
    """Digest of the full-preset params arena after STEPS train-mode steps on one batch."""
    workload = WORKLOADS["full-long"]
    cfg = workload.cfg
    items = make_inputs(workload, SEED, None).train_items[:BATCH_SIZE]
    batch = [(bundle_for(ann, cfg), ann) for ann in items]
    model = Model(cfg, seed=SEED)
    optimizer = AdamW(model.named_parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng([SEED, 2])
    for step in range(STEPS):
        total, _ = batch_loss(model, batch, step, rng=rng, train=True)
        model.zero_grad()
        total.backward()
        clip_gradients(model.named_parameters(), cfg.grad_clip)
        optimizer.step()
    return {"arena": sha(model.store.arena.tobytes())}


def main():
    digests = {}
    with tempfile.TemporaryDirectory(prefix="bitwise-gate-") as tmp:
        for dtype in ("float64", "float32"):
            for mode in ("bidirectional", "text_to_video"):
                digests[f"desk/{dtype}/{mode}"] = desk_run(Path(tmp), dtype, mode)
    digests["full/float32"] = full_steps()
    print(json.dumps(digests, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
