"""Training loop, AdamW, gradient clipping, checkpoints, and evaluation."""
from __future__ import annotations

import json
import math
import os
import shutil
import struct
import weakref
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from .config import ConfigError, ModelConfig
from .losses import CompositionError, largest_term
from .metrics import compute_report, save_predictions
from .model import Model, ParamStore, batch_loss, bundle_for, predict_batch

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
    the four arenas, and one scratch row holds its intermediates, so the
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
        # np.zeros, not zeros_like, which writes every byte up front
        self.m_arena = np.zeros(arena.shape, arena.dtype)
        self.v_arena = np.zeros(arena.shape, arena.dtype)
        arenas = (arena, params.grad_arena, self.m_arena, self.v_arena)
        # each chunk: the same slice of the weight, gradient, m and v arenas
        self._chunks = [[a[c0:c0 + CHUNK] for a in arenas] for c0 in range(0, arena.size, CHUNK)]
        self._scratch = np.empty(min(CHUNK, arena.size), dtype=arena.dtype)

    def step(self):
        self.step_count += 1
        b1, b2 = BETAS
        bc1 = 1.0 - b1 ** self.step_count
        root_bc2 = math.sqrt(1.0 - b2 ** self.step_count)
        # the bias corrections folded into two per-step constants (Kingma & Ba,
        # section 2): m_hat / (sqrt(v_hat) + eps) == (m / (sqrt(v) + eps_v)) * (root_bc2 / bc1)
        eps_v = EPS * root_bc2
        step_size = self.lr * root_bc2 / bc1
        keep = 1.0 - self.lr * self.weight_decay
        for w, g, m, v in self._chunks:
            t = self._scratch[:w.size]
            # the same elementwise order as the whole-array expressions
            # m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
            # w = w*keep - (m / (sqrt(v) + eps_v))*step_size
            np.multiply(m, b1, out=m)
            np.multiply(g, 1.0 - b1, out=t)
            np.add(m, t, out=m)
            np.multiply(v, b2, out=v)
            np.multiply(g, 1.0 - b2, out=t)
            np.multiply(t, g, out=t)
            np.add(v, t, out=v)
            np.sqrt(v, out=t)
            np.add(t, eps_v, out=t)
            np.divide(m, t, out=t)
            np.multiply(t, step_size, out=t)
            np.multiply(w, keep, out=w)
            np.subtract(w, t, out=w)


def clip_gradients(params, max_norm):
    """Scale the grad arena in place so its global L2 norm is at most
    max_norm; returns the norm before clipping.

    The norm is a float64 sum of squares in registry order, summed CHUNK
    elements at a time: each chunk is copied into one float64 buffer and
    adds its dot product with itself. So only the grouping of the sum
    differs from a sum per parameter.
    """
    grads = params.grad_arena
    buffer = np.empty(min(CHUNK, grads.size), dtype=np.float64)
    total = 0.0
    for c0 in range(0, grads.size, CHUNK):
        x = buffer[:min(CHUNK, grads.size - c0)]
        x[...] = grads[c0:c0 + CHUNK]
        total += float(np.dot(x, x))
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        grads *= max_norm / norm
    return norm


# -- checkpoint format ----------------------------------------------------------
# magic "MSPT" | u32 version | u32 json_len | json metadata | raw little-endian
# payload: the params arena, in the dtype of the metadata's config. Every
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


# a model's config and parameter layout are fixed when it is built, so the
# header's JSON of them is built, and checked, once per model
_HEADER_PARTS = weakref.WeakKeyDictionary()


def _header_parts(model):
    """(config JSON, params JSON) of model's checkpoint header.

    The config is checked as it reads back, with the ModelConfig.from_dict
    that model_from_checkpoint runs: a ConfigError for a config it would
    refuse (a non-finite float), while a numpy float, written as a plain one,
    passes.
    """
    parts = _HEADER_PARTS.get(model)
    if parts is None:
        config = json.dumps(model.cfg.to_dict())
        ModelConfig.from_dict(json.loads(config))
        params = json.dumps([{"name": n, "shape": list(p.tensor.data.shape)}
                             for n, p in model.named_parameters().items()])
        parts = _HEADER_PARTS[model] = (config, params)
    return parts


def save_checkpoint(path, model, optimizer, epoch=0, best_metric=None):
    """Write the params arena under a header; epoch counts finished epochs
    (header key epochs_done), and the optimizer gives only its step count.

    A config that model_from_checkpoint would refuse is a ConfigError before
    any file is opened (see _header_parts).
    """
    config, params = _header_parts(model)
    arena = model.store.arena
    dtype = np.dtype(model.cfg.dtype).newbyteorder("<")
    # json.dumps of the header's dict, in its key order, around the prebuilt parts
    meta_bytes = (f'{{"config": {config}, "epochs_done": {json.dumps(int(epoch))}, '
                  f'"params": {params}, "optimizer_step": {json.dumps(optimizer.step_count)}, '
                  f'"best_metric": {json.dumps(best_metric)}}}').encode("utf-8")

    def write(fh):
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(meta_bytes)))
        fh.write(meta_bytes)
        for lo in range(0, arena.size, WRITE_SLICE):
            # from the arena's own buffer on a little-endian host
            fh.write(np.ascontiguousarray(arena[lo:lo + WRITE_SLICE], dtype=dtype))

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
    """Reads the header; returns (meta, config, payload dtype).

    Checks the magic, the version, that the metadata is a JSON object with
    the keys a load needs, the params entries, the config (a ConfigError
    from ModelConfig.from_dict) and that the rest of the file is exactly one
    params block of the layout the metadata describes, in the config's dtype.
    Any other failure is a ValueError naming path.
    """
    head = fh.read(12)
    if len(head) != 12 or head[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic)")
    version, meta_len = struct.unpack("<II", head[4:])
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    try:
        meta = json.loads(fh.read(meta_len).decode("utf-8"))
    except (ValueError, RecursionError) as err:  # not UTF-8, not JSON, or nested too deeply
        raise ValueError(f"{path}: checkpoint metadata is not UTF-8 JSON ({err})") from err
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: checkpoint metadata is not a JSON object "
                         f"(got {type(meta).__name__})")
    missing = [key for key in ("config", "params") if key not in meta]
    if missing:
        raise ValueError(f"{path}: checkpoint metadata lacks {', '.join(missing)}")
    entries = meta["params"]
    if not (isinstance(entries, list) and all(_is_param_entry(e) for e in entries)):
        raise ValueError(f"{path}: each params entry needs a string name and a shape "
                         f"of non-negative ints")
    cfg = ModelConfig.from_dict(meta["config"])
    dtype = np.dtype(cfg.dtype).newbyteorder("<")
    expected = sum(math.prod(e["shape"]) for e in entries) * dtype.itemsize
    actual = os.fstat(fh.fileno()).st_size - fh.tell()
    if actual != expected:
        raise ValueError(f"{path}: payload is {actual} bytes, expected {expected}")
    return meta, cfg, dtype


def checkpoint_config(path):
    """The ModelConfig in checkpoint path's header; the params are not read."""
    with open(path, "rb") as fh:
        return _read_head(fh, path)[1]


def model_from_checkpoint(path, cfg=None):
    """(model, meta): a Model with no random init whose arena holds the
    checkpoint's params block, read straight into it when the dtypes agree and
    cast to the model's dtype when not.

    The model is built from cfg (a warm start passes the run's), or from the
    checkpoint's own config when cfg is None; its parameter names and shapes
    must match the checkpoint's. The checkpoint's config is checked either way.
    """
    with open(path, "rb") as fh:
        meta, own_cfg, dtype = _read_head(fh, path)
        model = Model(own_cfg if cfg is None else cfg, seed=None)
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
    """Eval-mode predictions, in input order, and the full metric report for a
    dataset of unique qids; the items run through predict_batch in chunks of
    model.cfg.batch_size."""
    if not annotations:
        raise ValueError("evaluate on an empty dataset")
    _reject_duplicate_qids(annotations, "evaluation")
    if bundles is None:
        bundles = [bundle_for(a, model.cfg, feature_dir) for a in annotations]
    pairs = list(zip(bundles, annotations, strict=True))  # a count mismatch raises here
    size = model.cfg.batch_size
    predictions = [pred for start in range(0, len(pairs), size)
                   for pred in predict_batch(model, pairs[start:start + size])]
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

    A failing loss component, a non-finite loss, a non-finite gradient
    (checked before the update) or a non-finite parameter after an update
    aborts the run and leaves the last good checkpoint on disk
    (diverged=True in the result); the log's last entry then names the batch
    and the cause. Each epoch's train entry lists, for every step, the
    global gradient norm before clipping (grad_norms) and the wall ms of the
    forward (batch_loss), the backward and clip plus the AdamW step
    (forward_ms, backward_ms, optimizer_ms), and gives the epoch's training
    items/s (items_per_s); each val entry gives its items/s over the wall
    time of evaluate_model (items_per_s). The timings never reach a
    checkpoint or the loss.
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
    _header_parts(model)  # the first save's check, before the run directory exists
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "train_log.jsonl"
    last_path = out / "last.ckpt"
    best_path = out / "best.ckpt"
    best_metric = None  # the best validation mAP so far; None until a validation runs
    loss_trace = []
    cause = None  # why the run stopped early, if it did
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
                    # compose_total rejects a non-finite component: finite terms overflowed
                    cause = f"non-finite total: {largest_term(parts, model.cfg.weights)}"
                    break
                t1 = perf_counter()
                model.zero_grad()
                total.backward()
                t2 = perf_counter()
                norm = clip_gradients(model.named_parameters(), cfg.grad_clip)
                if not math.isfinite(norm):
                    # before the update, so the weights and moments stay as they were
                    cause = next((f"non-finite gradient {name}"
                                  for name, p in model.named_parameters().items()
                                  if not np.isfinite(p.tensor.grad).all()),
                                 "non-finite gradient norm")
                    break
                grad_norms.append(norm)
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
                for key in parts:
                    epoch_parts[key] = epoch_parts.get(key, 0.0) + float(parts[key].data)
                del total, parts  # the step's graph, before the next forward or validation
            train_s = perf_counter() - epoch_start
            if cause is not None:
                write_log({"epoch": epoch, "split": "train", "diverged": True,
                           "batch": batch_index, "cause": cause})
                break
            mean_total = epoch_total / len(grad_norms)
            loss_trace.append(mean_total)
            entry = {"epoch": epoch, "split": "train", "total": mean_total}
            entry.update({k: v / len(grad_norms) for k, v in epoch_parts.items()})
            entry["grad_norms"] = grad_norms
            entry.update(phase_ms)
            entry["items_per_s"] = len(train_set) / train_s
            write_log(entry)
            improved = False
            if val_set and (epoch + 1) % eval_period == 0:
                val_start = perf_counter()
                report, _ = evaluate_model(model, val_set, bundles=val_bundles)
                entry = {"epoch": epoch, "split": "val"}
                entry.update(report.to_dict())
                entry["items_per_s"] = len(val_set) / (perf_counter() - val_start)
                write_log(entry)
                improved = best_metric is None or report.map_avg > best_metric
                if improved:
                    best_metric = report.map_avg
            save_checkpoint(last_path, model, optimizer=optimizer, epoch=epoch + 1,
                            best_metric=best_metric)
            if improved:
                _copy_checkpoint(last_path, best_path)
            if not quiet:
                print(f"epoch {epoch}: loss {mean_total:.4f}")
    if best_metric is None:
        # this run wrote no best.ckpt; the last good checkpoint doubles as
        # "best", replacing any best.ckpt an earlier run left in out_dir
        # (after a divergence the in-memory model is the diverged one)
        _copy_checkpoint(last_path, best_path)
    return TrainResult(last_checkpoint=str(last_path), best_checkpoint=str(best_path),
                       log_path=str(log_path),
                       best_metric=math.nan if best_metric is None else best_metric,
                       loss_trace=loss_trace, diverged=cause is not None,
                       epochs_run=len(loss_trace))


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
