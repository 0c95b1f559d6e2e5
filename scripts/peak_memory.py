"""Resident memory after each phase of a short training run, per benchmark workload.

    python3 scripts/peak_memory.py [--tree PATH]

For each perfbench workload it starts one child process (so every workload
begins from a fresh heap and its own high-water mark) that runs, in order:

- model: `Model(cfg, SEED)` and its AdamW, as perfbench builds them;
- bundles: the workload's items from SEED and `bundle_for` on every one;
- step<i>.forward / .backward / .clip / .adamw for i = 1..STEPS: one train
  step over the workload's batches in turn, dropout on, with the graph
  dropped before the next forward, as `train()` does;
- save: `save_checkpoint` of the trained model.

After each phase it reads the process's peak RSS (`ru_maxrss`) and its
current RSS (resident pages in /proc/self/statm), both in MB. It prints one
JSON line per workload with a row per phase. The peak after a phase is the
highest RSS up to its end, so the phase where the peak rises is the phase
that set it; the current RSS shows what that phase left alive.

--tree imports momentspot and perfbench from another checkout (for example
the parent commit's), so both sides of a change run the same measurement.
"""
import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parent.parent

SEED = 2201
STEPS = 3
MB = 1024.0 * 1024.0


def memory_mb():
    """(peak RSS, current RSS) of this process in MB."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        resident_pages = int(fh.read().split()[1])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return round(peak_kb / 1024.0, 1), round(resident_pages * os.sysconf("SC_PAGE_SIZE") / MB, 1)


def measure(name, workdir):
    """One workload's phases, each with the peak and current RSS at its end."""
    import numpy as np

    from momentspot.model import Model, batch_loss, bundle_for
    from momentspot.training import AdamW, clip_gradients, save_checkpoint
    from perfbench.workloads import WORKLOADS, make_inputs

    workload = WORKLOADS[name]
    cfg = workload.cfg
    phases = []

    def mark(phase):
        peak, current = memory_mb()
        phases.append({"phase": phase, "peak_rss_mb": peak, "rss_mb": current})

    mark("start")
    model = Model(cfg, seed=SEED)
    optimizer = AdamW(model.named_parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    mark("model")
    inputs = make_inputs(workload, SEED, workdir / "features")
    pairs = [(bundle_for(a, cfg, inputs.feature_dir), a) for a in inputs.train_items]
    mark("bundles")
    batches = [pairs[i:i + cfg.batch_size] for i in range(0, len(pairs), cfg.batch_size)]
    rng = np.random.default_rng([SEED, 2])
    for step in range(STEPS):
        total, parts = batch_loss(model, batches[step % len(batches)], epoch=0, rng=rng,
                                  train=True)
        mark(f"step{step + 1}.forward")
        model.zero_grad()
        total.backward()
        mark(f"step{step + 1}.backward")
        clip_gradients(model.named_parameters(), cfg.grad_clip)
        mark(f"step{step + 1}.clip")
        optimizer.step()
        mark(f"step{step + 1}.adamw")
        del total, parts  # train() drops each step's graph before the next forward
    save_checkpoint(workdir / "model.ckpt", model, optimizer)
    mark("save")
    return {"workload": name, "seed": SEED, "dtype": cfg.dtype, "phases": phases}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="checkout whose src/ and perfbench/ are measured")
    parser.add_argument("--workload", help="measure this one workload in this process")
    args = parser.parse_args()
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree)]
    if args.workload is not None:
        with tempfile.TemporaryDirectory() as workdir:
            print(json.dumps(measure(args.workload, Path(workdir))), flush=True)
        return
    from perfbench.workloads import WORKLOADS

    for name in WORKLOADS:
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--tree", str(tree),
                        "--workload", name], check=True)


if __name__ == "__main__":
    main()
