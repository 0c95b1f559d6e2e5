"""Train the desk-scale model to convergence on the bundled synthetic fixture.

Builds the eight-video planted fixture, trains with the desk preset, and
reports moment retrieval plus saliency agreement on the training items.
Expected outcome: perfect recall@0.5, near-perfect recall@0.7, and mean
per-item Spearman correlation above 0.9 within a few minutes on one core.
"""
import argparse
import tempfile
import time
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

from momentspot.config import ModelConfig
from momentspot.fixtures import build_overfit_fixture
from momentspot.training import evaluate_model, model_from_checkpoint, train


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=None,
                        help="run directory (default: a fresh temp dir)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--epochs", type=int, default=None,
                        help="override the desk preset epoch count")
    args = parser.parse_args()

    out = args.out or Path(tempfile.mkdtemp(prefix="overfit-"))
    out.mkdir(parents=True, exist_ok=True)
    feature_dir = out / "features"
    feature_dir.mkdir(exist_ok=True)
    annotations = build_overfit_fixture(feature_dir=feature_dir)

    overrides = {} if args.epochs is None else {"epochs": args.epochs}
    cfg = ModelConfig.desk(**overrides)
    started = time.monotonic()
    result = train(cfg, annotations, out / "run", seed=args.seed,
                   feature_dir=feature_dir, quiet=False)
    report, preds = evaluate_model(model_from_checkpoint(result.last_checkpoint)[0],
                                   annotations, feature_dir=feature_dir)
    elapsed = time.monotonic() - started

    rhos = [spearmanr(p.saliency, a.saliency_levels).statistic
            for p, a in zip(preds, annotations)]
    print(f"\ntrained {result.epochs_run} epochs in {elapsed:.0f}s  (run dir: {out})")
    print(f"r1@0.5={report.r1_050:.3f}  r1@0.7={report.r1_070:.3f}  "
          f"map_avg={report.map_avg:.3f}  hd_map={report.hd_map:.3f}")
    print(f"mean per-item saliency Spearman: {np.mean(rhos):.4f}")
    for ann, rho in zip(annotations, rhos):
        print(f"  {ann.vid}: rho={rho:.4f}")


if __name__ == "__main__":
    main()
