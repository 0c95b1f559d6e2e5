"""Eval items/s: a predict_item loop against evaluate_model, per benchmark workload.

    python3 scripts/eval_batching.py [--tree PATH]

For each perfbench workload it builds the workload's items from SEED and a
fresh model of its config, then times whole passes over the same bundles
perfbench's eval block uses (every train and held item), two ways:

- per_item: `predict_item` on each item, then `compute_report`, which is
  what `evaluate_model` ran before it batched;
- evaluate_model: `evaluate_model` on the same bundles, which runs the items
  through `predict_batch` in chunks of the config's batch size.

The two alternate over WARMUP untimed and PASSES timed rounds, with BLAS
pinned to one thread. It prints one JSON line per workload: the item count,
the batch size, the median ms per pass of each way, their items/s and the
ratio evaluate_model / per_item of the items/s.

--tree imports momentspot and perfbench from another checkout (for example
the parent commit's), so both sides of a change run the same measurement.
"""
import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parent.parent

SEED = 2101
PASSES = 10
WARMUP = 1


def measure(name, workload, feature_dir):
    """One workload's pass timings, in ms, for both ways."""
    from momentspot.metrics import compute_report
    from momentspot.model import Model, bundle_for, predict_item
    from momentspot.training import evaluate_model
    from perfbench.workloads import make_inputs

    cfg = workload.cfg
    inputs = make_inputs(workload, SEED, Path(feature_dir) / name)
    anns = inputs.all_items
    bundles = [bundle_for(a, cfg, inputs.feature_dir) for a in anns]
    model = Model(cfg, seed=SEED)

    def per_item():
        compute_report([predict_item(model, b, a) for b, a in zip(bundles, anns)], anns)

    def batched():
        evaluate_model(model, anns, bundles=bundles)

    laps = {"per_item": [], "evaluate_model": []}
    for round_ in range(WARMUP + PASSES):
        for way, run in (("per_item", per_item), ("evaluate_model", batched)):
            start = time.perf_counter()
            run()
            if round_ >= WARMUP:
                laps[way].append(1e3 * (time.perf_counter() - start))
    row = {"workload": name, "items": len(anns), "batch_size": cfg.batch_size,
           "passes": PASSES}
    for way, ms in laps.items():
        row[f"{way}_ms"] = round(statistics.median(ms), 3)
        row[f"{way}_items_per_s"] = round(len(anns) * 1e3 / statistics.median(ms), 1)
    row["speedup"] = round(row["evaluate_model_items_per_s"] / row["per_item_items_per_s"], 3)
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="checkout whose src/ and perfbench/ are measured")
    args = parser.parse_args()
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree)]
    from perfbench.workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as feature_dir:
        for name, workload in WORKLOADS.items():
            print(json.dumps(measure(name, workload, feature_dir)), flush=True)


if __name__ == "__main__":
    main()
