"""Command line entry points: train, eval, datagen."""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ModelConfig
from .data import (default_captioner, default_embedder, generate_synthetic,
                   load_dataset, load_manifest, records_to_annotations,
                   save_dataset)
from .metrics import save_predictions
from .training import evaluate_model, model_from_checkpoint, train


def _add_common(parser):
    parser.add_argument("--data", type=str, required=True, help="jsonl input (annotations or manifest)")
    parser.add_argument("--out", type=str, required=True, help="output directory or file")
    return parser


def _add_config(parser):
    parser.add_argument("--config", type=str, default=None, help="JSON model/training config")
    return parser


def build_parser():
    parser = argparse.ArgumentParser(prog="momentspot",
                                     description="Joint moment retrieval and highlight detection")
    sub = parser.add_subparsers(dest="command", required=True)
    p = _add_config(_add_common(sub.add_parser("train", help="train a model")))
    p.add_argument("--seed", type=int, default=0, help="u64 master seed")
    p.add_argument("--init-from", type=str, default=None, help="checkpoint to warm start from")
    p.add_argument("--val-data", type=str, default=None,
                   help="explicit validation jsonl (overrides the split)")
    # eval reads its config, clip_len default included, from the checkpoint
    p = _add_common(sub.add_parser("eval", help="evaluate a checkpoint"))
    p.add_argument("--init-from", type=str, default=None, help="checkpoint to evaluate")
    _add_config(_add_common(sub.add_parser("datagen",
                                           help="generate synthetic annotations from a video manifest")))
    return parser


def _load_config(path):
    return ModelConfig.from_json(path) if path else ModelConfig()


def cmd_train(args):
    cfg = _load_config(args.config)
    annotations = load_dataset(args.data, default_clip_len=cfg.clip_len)
    val = load_dataset(args.val_data, default_clip_len=cfg.clip_len) if args.val_data else None
    result = train(cfg, annotations, args.out, seed=args.seed,
                   init_from=args.init_from, val_annotations=val, quiet=False)
    summary = {
        "last_checkpoint": result.last_checkpoint,
        "best_checkpoint": result.best_checkpoint,
        "best_metric": result.best_metric,
        "epochs_run": result.epochs_run,
        "diverged": result.diverged,
    }
    print(json.dumps(summary))
    return 1 if result.diverged else 0


def cmd_eval(args):
    if not args.init_from:
        raise ValueError("eval requires --init-from <checkpoint>")
    model, _ = model_from_checkpoint(args.init_from)
    annotations = load_dataset(args.data, default_clip_len=model.cfg.clip_len)
    report, predictions = evaluate_model(model, annotations)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_predictions(predictions, out / "predictions.jsonl")
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    print(json.dumps(report.to_dict()))
    return 0


def cmd_datagen(args):
    cfg = _load_config(args.config)
    manifest = load_manifest(args.data, cfg.clip_len, cfg.max_clips)
    annotations = []
    for vid, duration in manifest:
        records = generate_synthetic(duration, default_captioner(vid), default_embedder(vid))
        annotations.extend(records_to_annotations(vid, duration, records,
                                                  clip_len=cfg.clip_len,
                                                  qid_start=len(annotations)))
    out = Path(args.out)
    if out.suffix != ".jsonl":
        out.mkdir(parents=True, exist_ok=True)
        out = out / "synthetic.jsonl"
    save_dataset(annotations, out)
    print(json.dumps({"annotations": len(annotations), "path": str(out)}))
    return 0


def main(argv=None):
    """Run one command; bad input (a ParseError, ValidationError, ConfigError
    or any other ValueError) or a file that cannot be opened (an OSError)
    prints one `momentspot <command>: <message>` line to stderr and returns 2."""
    args = build_parser().parse_args(argv)
    handlers = {"train": cmd_train, "eval": cmd_eval, "datagen": cmd_datagen}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as err:
        print(f"momentspot {args.command}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
