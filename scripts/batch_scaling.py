"""Full-scale train-step throughput at batch 1, 4, 8 and 32.

    python3 scripts/batch_scaling.py

Each batch size runs in its own process, with BLAS pinned to one thread, so
one size's peak RSS does not carry into the next. A process builds the
full-scale preset (`ModelConfig()`, float32, dropout on) and B 75-clip items
of the full-long benchmark workload, takes WARMUP untimed train steps and
then STEPS timed ones: forward, backward, clip and AdamW, as `train()`'s
inner loop does. It prints one JSON line: the median step, forward, backward
and update ms, items/s (B over the median step) and peak RSS in MB. The
driver then prints each size's items/s over batch 1's, the per-item
baseline, as `speedup_over_b1`.
"""
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np

from momentspot.model import Model, bundle_for
from momentspot.training import AdamW
from perfbench.bench import train_step
from perfbench.workloads import WORKLOADS, make_inputs

BATCH_SIZES = (1, 4, 8, 32)
SEED = 1801
STEPS = 5
WARMUP = 1


def measure(batch_size):
    """One batch size's step timings, in this process."""
    workload = WORKLOADS["full-long"]
    workload = dataclasses.replace(workload, train_lengths=workload.train_lengths[:1] * batch_size)
    cfg = workload.cfg
    batch = [(bundle_for(ann, cfg), ann) for ann in make_inputs(workload, SEED, None).train_items]
    model = Model(cfg, seed=SEED)
    optimizer = AdamW(model.named_parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng([SEED, 3])
    laps = []

    def lap():
        laps.append(time.perf_counter())

    phases = []
    for step in range(WARMUP + STEPS):
        laps[:] = [time.perf_counter()]
        if not train_step(model, optimizer, batch, 0, rng, cfg, lap):
            raise RuntimeError(f"batch {batch_size}: step {step} diverged")
        if step >= WARMUP:
            phases.append(np.diff(laps) * 1e3)
    forward, backward, update = (statistics.median(p[i] for p in phases) for i in range(3))
    step_ms = statistics.median(float(p.sum()) for p in phases)
    return {
        "batch": batch_size,
        "steps": STEPS,
        "step_ms": round(step_ms, 1),
        "forward_ms": round(forward, 1),
        "backward_ms": round(backward, 1),
        "update_ms": round(update, 1),
        "items_per_s": round(batch_size * 1e3 / step_ms, 2),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def main():
    if len(sys.argv) == 2:  # one batch size, run by the driver below
        print(json.dumps(measure(int(sys.argv[1]))))
        return
    rows = []
    for batch_size in BATCH_SIZES:
        out = subprocess.run([sys.executable, __file__, str(batch_size)], check=True,
                             capture_output=True, text=True).stdout
        rows.append(json.loads(out.strip().splitlines()[-1]))
    for row in rows:
        row["speedup_over_b1"] = round(row["items_per_s"] / rows[0]["items_per_s"], 2)
        print(json.dumps(row))


if __name__ == "__main__":
    main()
