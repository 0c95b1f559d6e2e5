"""Training loop, AdamW, gradient clipping, checkpoints, and evaluation."""
from __future__ import annotations

import json
import math
import os
import shutil
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, ModelConfig
from .losses import CompositionError
from .metrics import compute_report, save_predictions
from .model import Model, batch_loss, bundle_for, predict_item

CHECKPOINT_MAGIC = b"MSPT"
CHECKPOINT_VERSION = 1


class AdamW:
    """Adam with decoupled weight decay:
    p <- p - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * p."""

    def __init__(self, params, lr, weight_decay=0.0, betas=(0.9, 0.999), eps=1e-8):
        self.params = params  # name -> Parameter
        self.lr = lr
        self.weight_decay = weight_decay
        self.betas = betas
        self.eps = eps
        self.step_count = 0
        self.m = {name: np.zeros_like(p.tensor.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.tensor.data) for name, p in params.items()}

    def step(self):
        self.step_count += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for name, p in self.params.items():
            g = p.tensor.grad
            if g is None:
                g = np.zeros_like(p.tensor.data)
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            old = p.tensor.data
            p.tensor.data = old - self.lr * m_hat / (np.sqrt(v_hat) + self.eps) \
                - self.lr * self.weight_decay * old

    def state(self):
        return {"step": self.step_count, "m": self.m, "v": self.v}

    def load(self, state):
        self.step_count = int(state["step"])
        for name, p in self.params.items():
            self.m[name] = np.array(state["m"][name], dtype=p.tensor.data.dtype, copy=True)
            self.v[name] = np.array(state["v"][name], dtype=p.tensor.data.dtype, copy=True)


def clip_gradients(params, max_norm):
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for p in params.values():
        if p.tensor.grad is not None:
            total += float((p.tensor.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for p in params.values():
            if p.tensor.grad is not None:
                p.tensor.grad = p.tensor.grad * scale
    return norm


# -- checkpoint format ----------------------------------------------------------
# magic "MSPT" | u32 version | u32 json_len | json metadata | raw little-endian
# payload (params, then optimizer m and v in the same order). The payload dtype
# is f32 unless the model runs in float64 (recorded in the metadata). Every
# checkpoint file is written through _write_atomic, so a run killed mid-write
# leaves the previous file whole.


def _write_atomic(path, write):
    """Call write(fh) on "<path>.tmp" in path's directory, then os.replace it over path.

    If anything raises, the temp file is removed and path is left untouched.
    There is no fsync: the replace survives a killed process, not an OS crash
    or a power loss.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def save_checkpoint(path, model, optimizer=None, epoch=0, rng_state=None, best_metric=None):
    arrays = model.state_arrays()
    names = list(arrays)
    payload_dtype = "<f8" if model.cfg.dtype == "float64" else "<f4"
    meta = {
        "config": model.cfg.to_dict(),
        "epoch": int(epoch),
        "payload_dtype": "f64" if payload_dtype == "<f8" else "f32",
        "params": [{"name": n, "shape": list(arrays[n].shape)} for n in names],
        "has_optimizer": optimizer is not None,
        "optimizer_step": optimizer.step_count if optimizer is not None else 0,
        "rng_state": rng_state,
        "best_metric": best_metric,
    }
    groups = [arrays] if optimizer is None else [arrays, optimizer.m, optimizer.v]
    meta_bytes = json.dumps(meta).encode("utf-8")

    def write(fh):
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(meta_bytes)))
        fh.write(meta_bytes)
        for group in groups:
            for n in names:
                # from the array's own buffer unless its dtype or layout differs
                fh.write(np.ascontiguousarray(group[n], dtype=payload_dtype))

    _write_atomic(path, write)
    return path


def _copy_checkpoint(src, dst):
    """Byte copy of checkpoint src to dst through the same atomic replace."""
    with open(src, "rb") as fsrc:
        _write_atomic(dst, lambda fdst: shutil.copyfileobj(fsrc, fdst))


def load_checkpoint(path):
    """Returns (meta dict, params arrays, optimizer m/v arrays or None)."""
    with open(path, "rb") as fh:
        head = fh.read(12)
        if len(head) != 12 or head[:4] != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint (bad magic)")
        version, meta_len = struct.unpack("<II", head[4:])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        meta = json.loads(fh.read(meta_len).decode("utf-8"))
        payload = fh.read()
    dtype = "<f8" if meta["payload_dtype"] == "f64" else "<f4"
    itemsize = 8 if dtype == "<f8" else 4
    specs = [(entry["name"], tuple(entry["shape"])) for entry in meta["params"]]
    counts = [int(np.prod(shape)) if shape else 1 for _, shape in specs]
    groups = 3 if meta["has_optimizer"] else 1
    expected = groups * sum(counts) * itemsize
    if len(payload) != expected:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    flat = np.frombuffer(payload, dtype=dtype)
    offset = 0

    def take():
        nonlocal offset
        out = {}
        for (name, shape), count in zip(specs, counts):
            out[name] = flat[offset:offset + count].reshape(shape)
            offset += count
        return out

    params = take()
    opt_state = None
    if meta["has_optimizer"]:
        m = take()
        v = take()
        opt_state = {"step": meta["optimizer_step"], "m": m, "v": v}
    return meta, params, opt_state


def model_from_checkpoint(path):
    meta, params, _ = load_checkpoint(path)
    cfg = ModelConfig.from_dict(meta["config"])
    model = Model(cfg, seed=0)
    model.load_state(params)
    return model, meta


# -- loops -----------------------------------------------------------------------


@dataclass
class TrainResult:
    last_checkpoint: str
    best_checkpoint: str
    log_path: str
    best_metric: float
    loss_trace: list
    diverged: bool
    epochs_run: int


def split_dataset(annotations, val_fraction, seed):
    """Deterministic shuffle split; returns (train, val)."""
    if val_fraction <= 0 or len(annotations) < 2:
        return list(annotations), []
    order = np.random.default_rng([seed, 1]).permutation(len(annotations))
    n_val = max(1, int(round(val_fraction * len(annotations))))
    val_idx = set(int(i) for i in order[:n_val])
    train = [a for i, a in enumerate(annotations) if i not in val_idx]
    val = [a for i, a in enumerate(annotations) if i in val_idx]
    return train, val


def _checked_bundles(annotations, cfg, feature_dir=None):
    """bundle_for over a dataset, rejecting items the model cannot run.

    A video longer than max_clips raises ConfigError and non-finite video or
    text features raise ValueError, each naming the item's qid.
    """
    bundles = []
    for ann in annotations:
        bundle = bundle_for(ann, cfg, feature_dir)
        clips = bundle.video.shape[0]
        if clips > cfg.max_clips:
            raise ConfigError(f"qid {ann.qid}: {clips} clips exceed max_clips={cfg.max_clips}")
        if not (np.isfinite(bundle.video).all() and np.isfinite(bundle.text).all()):
            raise ValueError(f"qid {ann.qid}: non-finite video or text features")
        bundles.append(bundle)
    return bundles


def evaluate_model(model, annotations, feature_dir=None, bundles=None):
    """Eval-mode predictions and the full metric report for a dataset."""
    if not annotations:
        raise ValueError("evaluate on an empty dataset")
    if bundles is None:
        bundles = _checked_bundles(annotations, model.cfg, feature_dir)
    predictions = [predict_item(model, b, a) for b, a in zip(bundles, annotations)]
    return compute_report(predictions, annotations), predictions


def train(cfg, annotations, out_dir, seed=0, init_from=None, val_annotations=None,
          feature_dir=None, quiet=True):
    """Run the full training loop; writes last/best checkpoints and a jsonl log.

    Every item is bundled and checked (see _checked_bundles), and the training
    split must be non-empty, before anything is written. Validation runs every
    cfg.eval_every epochs (0: after the last epoch only). last.ckpt is written
    at the start and after each epoch's validation, with the best validation
    mAP so far as best_metric; best.ckpt is its byte copy from the epoch that
    set that best, or from the end when no validation ran.

    A failing loss component, a non-finite loss or a non-finite parameter
    after an update aborts the run and leaves the last good checkpoint on
    disk (diverged=True in the result); the log's last entry then names the
    batch and the cause. Each epoch's train entry lists the
    global gradient norm of every step, before clipping, as grad_norms.
    """
    if not annotations:
        raise ValueError("train on an empty dataset")
    if val_annotations is None:
        train_set, val_set = split_dataset(annotations, cfg.val_fraction, seed)
    else:
        train_set, val_set = list(annotations), list(val_annotations)
    if not train_set:
        raise ValueError(f"the training split is empty: val_fraction={cfg.val_fraction} "
                         f"puts all {len(annotations)} items in the validation split")
    model = Model(cfg, seed=seed)
    if init_from is not None:
        _, params, _ = load_checkpoint(init_from)
        model.load_state(params)
    optimizer = AdamW(model.named_parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng([seed, 2])
    train_bundles = _checked_bundles(train_set, cfg, feature_dir)
    val_bundles = _checked_bundles(val_set, cfg, feature_dir)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "train_log.jsonl"
    last_path = out / "last.ckpt"
    best_path = out / "best.ckpt"
    best_metric = -math.inf
    loss_trace = []
    diverged = False
    epochs_run = 0
    eval_period = cfg.eval_every or cfg.epochs
    # ensure a "last good" checkpoint exists even if epoch 0 diverges
    save_checkpoint(last_path, model, optimizer=optimizer, epoch=0,
                    rng_state=rng.bit_generator.state, best_metric=None)
    with open(log_path, "w", encoding="utf-8") as log:
        def write_log(entry):
            log.write(json.dumps(entry) + "\n")
            log.flush()

        for epoch in range(cfg.epochs):
            order = rng.permutation(len(train_set))
            epoch_total = 0.0
            epoch_parts = {}
            grad_norms = []
            n_batches = 0
            cause = None
            for batch_index, start in enumerate(range(0, len(order), cfg.batch_size)):
                idx = order[start:start + cfg.batch_size]
                batch = [(train_bundles[i], train_set[i]) for i in idx]
                try:
                    total, parts = batch_loss(model, batch, epoch, rng=rng, train=True)
                except CompositionError as exc:
                    cause = str(exc)
                    break
                if not np.isfinite(total.data):
                    cause = "non-finite total"
                    break
                model.zero_grad()
                total.backward()
                grad_norms.append(clip_gradients(model.named_parameters(), cfg.grad_clip))
                optimizer.step()
                # a step that overflows the weights must not reach the epoch save
                cause = next((f"non-finite parameter {name}"
                              for name, p in model.named_parameters().items()
                              if not np.isfinite(p.tensor.data).all()), None)
                if cause is not None:
                    break
                epoch_total += total.item()
                for key, val in parts.items():
                    epoch_parts[key] = epoch_parts.get(key, 0.0) + float(val.data)
                n_batches += 1
            if cause is not None:
                diverged = True
                write_log({"epoch": epoch, "split": "train", "diverged": True,
                           "batch": batch_index, "cause": cause})
                break
            epochs_run = epoch + 1
            mean_total = epoch_total / n_batches
            loss_trace.append(mean_total)
            entry = {"epoch": epoch, "split": "train", "total": mean_total}
            entry.update({k: v / n_batches for k, v in epoch_parts.items()})
            entry["grad_norms"] = grad_norms
            write_log(entry)
            improved = False
            if val_set and (epoch + 1) % eval_period == 0:
                report, _ = evaluate_model(model, val_set, bundles=val_bundles)
                entry = {"epoch": epoch, "split": "val"}
                entry.update(report.to_dict())
                write_log(entry)
                improved = report.map_avg > best_metric
                if improved:
                    best_metric = report.map_avg
            save_checkpoint(last_path, model, optimizer=optimizer, epoch=epoch,
                            rng_state=rng.bit_generator.state,
                            best_metric=None if best_metric == -math.inf else best_metric)
            if improved:
                _copy_checkpoint(last_path, best_path)
            if not quiet:
                print(f"epoch {epoch}: loss {mean_total:.4f}")
    if best_metric == -math.inf:
        # this run wrote no best.ckpt; the last good checkpoint doubles as
        # "best", replacing any best.ckpt an earlier run left in out_dir
        # (after a divergence the in-memory model is the diverged one)
        _copy_checkpoint(last_path, best_path)
        best_metric = math.nan
    return TrainResult(last_checkpoint=str(last_path), best_checkpoint=str(best_path),
                       log_path=str(log_path), best_metric=best_metric,
                       loss_trace=loss_trace, diverged=diverged, epochs_run=epochs_run)


def evaluate_checkpoint(ckpt_path, annotations, out_dir=None, feature_dir=None):
    model, _ = model_from_checkpoint(ckpt_path)
    report, predictions = evaluate_model(model, annotations, feature_dir=feature_dir)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_predictions(predictions, out / "predictions.jsonl")
        with open(out / "report.json", "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
    return report, predictions
