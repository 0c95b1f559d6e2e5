"""Measure what the refinement stage and bidirectional fusion each contribute.

Trains three variants on the first five fixture videos and compares held-out
retrieval quality on the remaining three, across several seeds:

  baseline   no refinement, single text-to-video fusion stage
  +fra       adds the relevance-weighted feature refinement stage
  +bicmf     swaps in the three-stage bidirectional fusion block

Expected outcome: each module beats the baseline on held-out map_avg in at
least four of five seeds (margins are small at this scale; the direction is
the point).
"""
import argparse
import tempfile
from pathlib import Path

from momentspot.config import ModelConfig
from momentspot.fixtures import build_overfit_fixture
from momentspot.training import evaluate_checkpoint, train

VARIANTS = {
    "baseline": dict(use_refinement=False, fusion_mode="text_to_video"),
    "+fra": dict(use_refinement=True, fusion_mode="text_to_video"),
    "+bicmf": dict(use_refinement=False, fusion_mode="bidirectional"),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=None,
                        help="run directory (default: a fresh temp dir)")
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--epochs", type=int, default=160)
    parser.add_argument("--lr", type=float, default=5e-4)
    parser.add_argument("--weight-decay", type=float, default=1e-3)
    args = parser.parse_args()

    out = args.out or Path(tempfile.mkdtemp(prefix="ablation-"))
    out.mkdir(parents=True, exist_ok=True)
    feature_dir = out / "features"
    feature_dir.mkdir(exist_ok=True)
    annotations = build_overfit_fixture(feature_dir=feature_dir)
    train_set, held_out = annotations[:5], annotations[5:]

    scores = {name: [] for name in VARIANTS}
    for name, overrides in VARIANTS.items():
        cfg = ModelConfig.desk(epochs=args.epochs, lr=args.lr,
                               weight_decay=args.weight_decay, **overrides)
        for seed in range(args.seeds):
            result = train(cfg, train_set, out / f"{name}-{seed}", seed=seed,
                           feature_dir=feature_dir)
            report, _ = evaluate_checkpoint(result.last_checkpoint, held_out,
                                            feature_dir=feature_dir)
            scores[name].append(report.map_avg)
            print(f"{name} seed {seed}: held-out map_avg {report.map_avg:.4f}")

    print(f"\nheld-out map_avg by seed  (run dir: {out})")
    header = "variant   " + "".join(f"  seed{s}" for s in range(args.seeds)) + "    mean"
    print(header)
    for name, vals in scores.items():
        row = "".join(f"  {v:.3f}" for v in vals)
        print(f"{name:<9} {row}   {sum(vals) / len(vals):.3f}")
    for name in ("+fra", "+bicmf"):
        wins = sum(a >= b for a, b in zip(scores[name], scores["baseline"]))
        print(f"{name} >= baseline in {wins}/{args.seeds} seeds")


if __name__ == "__main__":
    main()
