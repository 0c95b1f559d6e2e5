"""Training loop, AdamW, gradient clipping, checkpoints, and evaluation."""
from __future__ import annotations

import json
import math
import os
import shutil
import struct
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from .config import ConfigError, ModelConfig
from .losses import CompositionError
from .metrics import compute_report, save_predictions
from .model import Model, ParamStore, batch_loss, bundle_for, predict_item

CHECKPOINT_MAGIC = b"MSPT"
CHECKPOINT_VERSION = 2


# AdamW's standard moment decay rates and denominator guard (Loshchilov & Hutter)
BETAS = (0.9, 0.999)
EPS = 1e-8
# elements per AdamW chunk: a chunk's weights, moments and scratch stay in cache
CHUNK = 1 << 16
# elements per checkpoint write: one write of a whole 46 MB arena measured
# 40-60 ms slower per full-scale save than 1 MB pieces (2-core Linux VM)
WRITE_SLICE = 1 << 18


class AdamW:
    """Adam with decoupled weight decay:
    p <- p - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * p.

    `params` is a model's ParamStore. The moments m and v are two flat arenas
    laid out like its weight and gradient arenas. step() updates weights and
    moments in place, CHUNK elements at a time: a chunk is the same slice of
    the four arenas, and two scratch rows hold its intermediates, so the
    gradients are left as backward and clipping made them.
    """

    def __init__(self, params, lr, weight_decay=0.0):
        if not isinstance(params, ParamStore):
            raise TypeError(f"AdamW needs a ParamStore such as Model.named_parameters(), "
                            f"got {type(params).__name__}")
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        arena = params.arena
        self.m_arena = np.zeros_like(arena)
        self.v_arena = np.zeros_like(arena)
        arenas = (arena, params.grad_arena, self.m_arena, self.v_arena)
        # each chunk: the same slice of the weight, gradient, m and v arenas
        self._chunks = [[a[c0:c0 + CHUNK] for a in arenas] for c0 in range(0, arena.size, CHUNK)]
        self._scratch = np.empty((2, min(CHUNK, arena.size)), dtype=arena.dtype)

    def step(self):
        self.step_count += 1
        b1, b2 = BETAS
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        lr, decay = self.lr, self.lr * self.weight_decay
        for w, g, m, v in self._chunks:
            t, u = self._scratch[:, :w.size]
            # the same elementwise order as the whole-array expressions
            # m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
            # w = (w - (lr*(m/bc1)) / (sqrt(v/bc2) + eps)) - (lr*wd)*w
            np.multiply(m, b1, out=m)
            np.multiply(g, 1.0 - b1, out=t)
            np.add(m, t, out=m)
            np.multiply(v, b2, out=v)
            np.multiply(g, 1.0 - b2, out=t)
            np.multiply(t, g, out=t)
            np.add(v, t, out=v)
            np.divide(v, bc2, out=t)
            np.sqrt(t, out=t)
            np.add(t, EPS, out=t)
            np.divide(m, bc1, out=u)
            np.multiply(u, lr, out=u)
            np.divide(u, t, out=u)
            np.multiply(w, decay, out=t)
            np.subtract(w, u, out=w)
            np.subtract(w, t, out=w)


def clip_gradients(params, max_norm):
    """Scale the grad arena in place so the global L2 norm (float64 sums of
    squares, per parameter in registry order) is at most max_norm."""
    total = 0.0
    for p in params.values():
        total += float((p.tensor.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        params.grad_arena *= max_norm / norm
    return norm


# -- checkpoint format ----------------------------------------------------------
# magic "MSPT" | u32 version | u32 json_len | json metadata | raw little-endian
# payload: the params arena. The payload dtype is the arena's, tagged f32 or
# f64 in the metadata. Every checkpoint file is written through _write_atomic,
# so a run killed mid-write leaves the previous file whole.
PAYLOAD_DTYPES = {"f32": "<f4", "f64": "<f8"}
# arena-sized payload blocks per version: version 1 wrote params|m|v (AdamW's
# moments, which no load ever read), version 2 writes params alone
PAYLOAD_BLOCKS = {1: 3, 2: 1}


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


def _check_as_read(cfg):
    """ModelConfig.from_dict on cfg as it reads back from a header's JSON, the
    check model_from_checkpoint runs: a ConfigError for a config it would
    refuse (a non-finite float), while a numpy float, written as a plain one,
    passes."""
    ModelConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))


def save_checkpoint(path, model, optimizer, epoch=0, best_metric=None):
    """Write the params arena under a header; epoch counts finished epochs
    (header key epochs_done), and the optimizer gives only its step count.

    A config that model_from_checkpoint would refuse is a ConfigError before
    any file is opened (see _check_as_read).
    """
    _check_as_read(model.cfg)
    params = model.named_parameters()
    arena = params.arena
    tag = f"f{8 * arena.itemsize}"
    payload_dtype = PAYLOAD_DTYPES[tag]
    meta = {
        "config": model.cfg.to_dict(),
        "epochs_done": int(epoch),
        "payload_dtype": tag,
        "params": [{"name": n, "shape": list(p.tensor.data.shape)} for n, p in params.items()],
        "optimizer_step": optimizer.step_count,
        "best_metric": best_metric,
    }
    meta_bytes = json.dumps(meta).encode("utf-8")

    def write(fh):
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(meta_bytes)))
        fh.write(meta_bytes)
        for lo in range(0, arena.size, WRITE_SLICE):
            # from the arena's own buffer unless the payload dtype differs
            fh.write(np.ascontiguousarray(arena[lo:lo + WRITE_SLICE], dtype=payload_dtype))

    _write_atomic(path, write)
    return path


def _copy_checkpoint(src, dst):
    """Byte copy of checkpoint src to dst through the same atomic replace."""
    with open(src, "rb") as fsrc:
        _write_atomic(dst, lambda fdst: shutil.copyfileobj(fsrc, fdst))


def _is_param_entry(entry):
    """True for a params entry: an object with a string name and a shape of non-negative ints."""
    if not isinstance(entry, dict):
        return False
    shape = entry.get("shape")
    return (isinstance(entry.get("name"), str) and isinstance(shape, list)
            and all(type(d) is int and d >= 0 for d in shape))


def _read_head(fh, path):
    """Reads the header; returns (meta, payload dtype).

    Checks the magic, the version, that the metadata is a JSON object with
    the keys a load needs, the params entries, the payload dtype tag and
    that the rest of the file is exactly the version's PAYLOAD_BLOCKS blocks
    of the layout the metadata describes. Any failure is a ValueError naming
    path.
    """
    head = fh.read(12)
    if len(head) != 12 or head[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic)")
    version, meta_len = struct.unpack("<II", head[4:])
    if version not in PAYLOAD_BLOCKS:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    try:
        meta = json.loads(fh.read(meta_len).decode("utf-8"))
    except ValueError as err:  # UnicodeDecodeError and JSONDecodeError alike
        raise ValueError(f"{path}: checkpoint metadata is not UTF-8 JSON ({err})") from err
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: checkpoint metadata is not a JSON object "
                         f"(got {type(meta).__name__})")
    missing = [key for key in ("config", "params", "payload_dtype") if key not in meta]
    if missing:
        raise ValueError(f"{path}: checkpoint metadata lacks {', '.join(missing)}")
    entries = meta["params"]
    if not (isinstance(entries, list) and all(_is_param_entry(e) for e in entries)):
        raise ValueError(f"{path}: each params entry needs a string name and a shape "
                         f"of non-negative ints")
    if meta["payload_dtype"] not in PAYLOAD_DTYPES:
        raise ValueError(f"{path}: unknown payload dtype {meta['payload_dtype']!r}")
    dtype = np.dtype(PAYLOAD_DTYPES[meta["payload_dtype"]])
    expected = PAYLOAD_BLOCKS[version] * sum(math.prod(e["shape"]) for e in entries) * dtype.itemsize
    actual = os.fstat(fh.fileno()).st_size - fh.tell()
    if actual != expected:
        raise ValueError(f"{path}: payload is {actual} bytes, expected {expected}")
    return meta, dtype


def model_from_checkpoint(path, cfg=None):
    """(model, meta): a Model with no random init whose arena holds the
    checkpoint's params block, read straight into it when the dtypes agree and
    cast to the model's dtype when not. A version-1 file's trailing m and v
    blocks are never read.

    The model is built from cfg (a warm start passes the run's), or from the
    checkpoint's own config when cfg is None; its parameter names and shapes
    must match the checkpoint's.
    """
    with open(path, "rb") as fh:
        meta, dtype = _read_head(fh, path)
        model = Model(ModelConfig.from_dict(meta["config"]) if cfg is None else cfg, seed=None)
        layout = [(e["name"], tuple(e["shape"])) for e in meta["params"]]
        if layout != [(n, p.tensor.data.shape) for n, p in model.named_parameters().items()]:
            raise ConfigError(f"{path}: parameter layout does not match the model's config")
        arena = model.store.arena
        block = arena if dtype == arena.dtype else np.empty(arena.size, dtype)
        if fh.readinto(block.view(np.uint8)) != block.nbytes:
            raise ValueError(f"{path}: params block is shorter than its layout")
    if block is not arena:
        arena[...] = block
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


def _reject_duplicate_qids(annotations, split):
    """A qid that repeats within one split would reach compute_report twice."""
    seen = set()
    for ann in annotations:
        if ann.qid in seen:
            raise ValueError(f"duplicate qid {ann.qid} in the {split} set")
        seen.add(ann.qid)


def evaluate_model(model, annotations, feature_dir=None, bundles=None):
    """Eval-mode predictions and the full metric report for a dataset of unique qids."""
    if not annotations:
        raise ValueError("evaluate on an empty dataset")
    _reject_duplicate_qids(annotations, "evaluation")
    if bundles is None:
        bundles = [bundle_for(a, model.cfg, feature_dir) for a in annotations]
    pairs = list(zip(bundles, annotations, strict=True))  # a count mismatch raises here
    predictions = [predict_item(model, b, a) for b, a in pairs]
    return compute_report(predictions, annotations), predictions


def train(cfg, annotations, out_dir, seed=0, init_from=None, val_annotations=None,
          feature_dir=None, quiet=True):
    """Run the full training loop; writes last/best checkpoints and a jsonl log.

    Every item is bundled, which rejects an item the model cannot run (see
    bundle_for and data.encode_item), the training split must be non-empty,
    no qid may repeat within either split, and the config must be one
    model_from_checkpoint accepts, before anything is written.
    Validation runs every cfg.eval_every epochs (0: after the last epoch
    only). last.ckpt is written at the start and after each epoch's
    validation, with the best validation mAP so far as best_metric; best.ckpt
    is its byte copy from the epoch that set that best, or from the end when
    no validation ran.

    A failing loss component, a non-finite loss or a non-finite parameter
    after an update aborts the run and leaves the last good checkpoint on
    disk (diverged=True in the result); the log's last entry then names the
    batch and the cause. Each epoch's train entry lists, for every step, the
    global gradient norm before clipping (grad_norms) and the wall ms of the
    forward (batch_loss), the backward and clip plus the AdamW step
    (forward_ms, backward_ms, optimizer_ms), and gives the epoch's training
    items/s (items_per_s). The timings never reach a checkpoint or the loss.
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
    _reject_duplicate_qids(train_set, "training")
    _reject_duplicate_qids(val_set, "validation")
    if init_from is None:
        model = Model(cfg, seed=seed)
    else:
        model, _ = model_from_checkpoint(init_from, cfg)
    optimizer = AdamW(model.named_parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng([seed, 2])
    train_bundles = [bundle_for(a, cfg, feature_dir) for a in train_set]
    val_bundles = [bundle_for(a, cfg, feature_dir) for a in val_set]
    _check_as_read(model.cfg)  # the first save's check, before the run directory exists
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
    save_checkpoint(last_path, model, optimizer=optimizer, epoch=0, best_metric=None)
    with open(log_path, "w", encoding="utf-8") as log:
        def write_log(entry):
            log.write(json.dumps(entry) + "\n")
            log.flush()

        for epoch in range(cfg.epochs):
            order = rng.permutation(len(train_set))
            epoch_total = 0.0
            epoch_parts = {}
            grad_norms = []
            phase_ms = {"forward_ms": [], "backward_ms": [], "optimizer_ms": []}
            n_batches = 0
            cause = None
            epoch_start = perf_counter()
            for batch_index, start in enumerate(range(0, len(order), cfg.batch_size)):
                idx = order[start:start + cfg.batch_size]
                batch = [(train_bundles[i], train_set[i]) for i in idx]
                t0 = perf_counter()
                try:
                    total, parts = batch_loss(model, batch, epoch, rng=rng, train=True)
                except CompositionError as exc:
                    cause = str(exc)
                    break
                if not np.isfinite(total.data):
                    cause = "non-finite total"
                    break
                t1 = perf_counter()
                model.zero_grad()
                total.backward()
                t2 = perf_counter()
                grad_norms.append(clip_gradients(model.named_parameters(), cfg.grad_clip))
                optimizer.step()
                t3 = perf_counter()
                # a step that overflows the weights must not reach the epoch save;
                # min and max over the arena propagate any NaN or infinity
                weights = model.store.arena
                if not (np.isfinite(weights.min()) and np.isfinite(weights.max())):
                    cause = next(f"non-finite parameter {name}"
                                 for name, p in model.named_parameters().items()
                                 if not np.isfinite(p.tensor.data).all())
                    break
                for key, (a, b) in zip(phase_ms, ((t0, t1), (t1, t2), (t2, t3))):
                    phase_ms[key].append(1e3 * (b - a))
                epoch_total += total.item()
                for key, val in parts.items():
                    epoch_parts[key] = epoch_parts.get(key, 0.0) + float(val.data)
                n_batches += 1
            train_s = perf_counter() - epoch_start
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
            entry.update(phase_ms)
            entry["items_per_s"] = len(train_set) / train_s
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
            save_checkpoint(last_path, model, optimizer=optimizer, epoch=epoch + 1,
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
