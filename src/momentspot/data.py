"""Dataset records, deterministic pseudo features, and synthetic annotation generation.

Everything here is plain numpy and stdlib; model tensors are built downstream.
"""
from __future__ import annotations

import hashlib
import json
import math
import numbers
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

VIDEO_ENCODER_KINDS = ("clip_v", "slowfast", "blip_v")
TEXT_ENCODER_KINDS = ("clip_t", "blip_t")
ENCODER_KINDS = VIDEO_ENCODER_KINDS + TEXT_ENCODER_KINDS

FEATURE_MAGIC = b"VLFT"


class ParseError(ValueError):
    pass


class ValidationError(ValueError):
    pass


def _is_int(x):
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x):
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass
class Annotation:
    """One (query, video) pair with its moment windows and clip saliency levels."""
    qid: int
    query: str
    vid: str
    duration: float
    relevant_windows: list
    saliency_levels: list
    relevant_clip_ids: list
    clip_len: float = 2.0

    @property
    def num_clips(self):
        return int(math.ceil(self.duration / self.clip_len))

    def validate(self):
        def bad(field_name, msg):
            return ValidationError(f"qid {self.qid}: field '{field_name}' {msg}")

        if not _is_int(self.qid) or self.qid < 0:
            raise bad("qid", "must be a non-negative int")
        for name, value in (("query", self.query), ("vid", self.vid)):
            if not isinstance(value, str) or not value:
                raise bad(name, "must be a non-empty string")
        for name, value in (("duration", self.duration), ("clip_len", self.clip_len)):
            if not (_is_real(value) and 0 < value < math.inf):
                raise bad(name, "must be a finite positive number")
        if not 0 < self.duration / self.clip_len < math.inf:
            raise bad("clip_len", f"{self.clip_len} cuts duration {self.duration} into no "
                                  "clip or into unboundedly many")
        if not isinstance(self.relevant_windows, list) or not self.relevant_windows:
            raise bad("relevant_windows", "must be a list of at least one window")
        for w in self.relevant_windows:
            if not (isinstance(w, (list, tuple)) and len(w) == 2 and all(map(_is_real, w))):
                raise bad("relevant_windows", f"window {w!r} is not a [start, end] pair of numbers")
            if not (0.0 <= w[0] < w[1] <= self.duration):
                raise bad("relevant_windows", f"window {w} outside [0, {self.duration}] or empty")
        n = self.num_clips
        if not isinstance(self.saliency_levels, list) or len(self.saliency_levels) != n:
            raise bad("saliency_levels", f"must be a list of one level per clip ({n})")
        for lv in self.saliency_levels:
            if not _is_int(lv) or not (0 <= lv <= 4):
                raise bad("saliency_levels", f"level {lv!r} is not an int in 0..4")
        ids = self.relevant_clip_ids
        if not isinstance(ids, list) or not all(map(_is_int, ids)):
            raise bad("relevant_clip_ids", f"{ids!r} is not a list of ints")
        expected = clips_overlapping_windows(self.relevant_windows, self.duration, self.clip_len)
        if sorted(ids) != expected:
            raise bad("relevant_clip_ids", f"{sorted(self.relevant_clip_ids)} inconsistent with windows (expected {expected})")
        return self


def clips_overlapping_windows(windows, duration, clip_len):
    """Sorted ids of clips with positive overlap against any window."""
    n = int(math.ceil(duration / clip_len))
    ids = set()
    for s, e in windows:
        first = max(0, int(math.floor(float(s) / clip_len)))
        for i in range(first, n):
            cs, ce = i * clip_len, min((i + 1) * clip_len, duration)
            if cs < float(e) and ce > float(s):
                ids.add(i)
            elif cs >= float(e):
                break
    return sorted(ids)


_ANNOTATION_FIELDS = ("qid", "query", "vid", "duration", "relevant_windows",
                      "saliency_levels", "relevant_clip_ids")


def read_jsonl(path, required, convert):
    """Yield (line number, convert(row)) for each non-blank line of a JSON-lines file.

    Lines end at b"\n". A line that is not UTF-8, invalid or too deeply nested
    JSON, a row that is not an object or lacks a required key, and a value
    convert rejects (TypeError, ValueError or OverflowError) raise
    ParseError("<path>:<line>: ...").
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as err:
                raise ParseError(f"{where}: not UTF-8 ({err.reason} at byte {err.start})") from err
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise ParseError(f"{where}: invalid JSON ({err.msg})") from err
            except RecursionError as err:
                raise ParseError(f"{where}: invalid JSON (nested too deeply)") from err
            if not isinstance(obj, dict):
                raise ParseError(f"{where}: expected a JSON object, got {type(obj).__name__}")
            missing = [f for f in required if f not in obj]
            if missing:
                raise ParseError(f"{where}: missing fields {missing}")
            try:
                row = convert(obj)
            except (TypeError, ValueError, OverflowError) as err:
                raise ParseError(f"{where}: bad value ({type(err).__name__}: {err})") from err
            yield lineno, row


def _number(x):
    """A JSON number as a float. A string or a bool is a ValueError, null or a
    container a TypeError: none of them is converted."""
    if isinstance(x, (str, bool)):
        raise ValueError(f"{x!r} is not a number")
    return float(x)


def _annotation(obj, default_clip_len):
    """The Annotation of a JSON row: numbers become floats, and every other
    value stays as read, for Annotation.validate to check."""
    return Annotation(
        qid=obj["qid"],
        query=obj["query"],
        vid=obj["vid"],
        duration=_number(obj["duration"]),
        relevant_windows=[[_number(a), _number(b)] for a, b in obj["relevant_windows"]],
        saliency_levels=obj["saliency_levels"],
        relevant_clip_ids=obj["relevant_clip_ids"],
        clip_len=_number(obj.get("clip_len", default_clip_len)),
    )


def load_dataset(path, default_clip_len=2.0):
    """Read line-delimited JSON annotations; parse errors and duplicate qids carry line numbers."""
    annotations = []
    seen = set()
    rows = read_jsonl(path, _ANNOTATION_FIELDS, lambda obj: _annotation(obj, default_clip_len))
    for lineno, ann in rows:
        try:
            ann.validate()
        except ValidationError as err:
            raise ValidationError(f"{path}:{lineno}: {err}") from err
        if ann.qid in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate qid {ann.qid}")
        seen.add(ann.qid)
        annotations.append(ann)
    return annotations


def save_dataset(annotations, path):
    with open(path, "w", encoding="utf-8") as fh:
        for ann in annotations:
            obj = {
                "qid": ann.qid,
                "query": ann.query,
                "vid": ann.vid,
                "duration": ann.duration,
                "relevant_windows": ann.relevant_windows,
                "saliency_levels": ann.saliency_levels,
                "relevant_clip_ids": ann.relevant_clip_ids,
                "clip_len": ann.clip_len,
            }
            fh.write(json.dumps(obj) + "\n")


# -- deterministic pseudo encoders -----------------------------------------


def stable_hash(kind, ident):
    """Platform-stable 64-bit hash of an (encoder kind, id) pair."""
    digest = hashlib.blake2b(f"{kind}:{ident}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


# float64 elements per pseudo_encode scratch block (128 KB): small enough to
# stay in cache and to reuse freed heap memory rather than map fresh pages
PSEUDO_BLOCK = 1 << 14


def pseudo_encode(kind, ident, length, dim):
    """Deterministic stand-in features: value[i][j] = sin(h + i*dim + j) * 0.5."""
    if length <= 0 or dim <= 0:
        raise ValueError("pseudo_encode needs positive length and dim")
    return _pseudo_into(np.empty((length, dim)), kind, ident)


def _pseudo_into(out, kind, ident):
    """Write pseudo_encode(kind, ident, *out.shape) into the 2-D array out,
    computed in float64 a block of rows at a time and cast on write."""
    if kind not in ENCODER_KINDS:
        raise ValueError(f"unknown encoder kind '{kind}' (expected one of {ENCODER_KINDS})")
    length, dim = out.shape
    h = stable_hash(kind, ident) % 1000
    step = max(1, PSEUDO_BLOCK // dim)
    for r0 in range(0, length, step):
        block = out[r0:r0 + step]
        grid = np.arange(r0 * dim, r0 * dim + block.size, dtype=np.float64).reshape(block.shape)
        grid += h
        np.sin(grid, out=grid)
        np.multiply(grid, 0.5, out=block)  # cast on write
    return out


# -- precomputed feature files ----------------------------------------------


def save_features(path, arr):
    """Write a (L, d) float array as magic + u32 L + u32 d + little-endian f32 rows."""
    a = np.ascontiguousarray(arr, dtype="<f4")
    if a.ndim != 2:
        raise ValueError("feature arrays must be rank-2")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", a.shape[0], a.shape[1], 0))
        fh.write(a.tobytes())


def _read_features(path):
    """The (L, d) little-endian float32 payload of the feature file at path, as
    stored, or None when there is no such file."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return None
    with fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != FEATURE_MAGIC:
            raise ValueError(f"{path}: not a feature file (bad magic)")
        length, dim, _reserved = struct.unpack("<III", header[4:])
        payload = fh.read()
    expected = length * dim * 4
    if len(payload) != expected:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    return np.frombuffer(payload, dtype="<f4").reshape(length, dim)


# -- feature assembly --------------------------------------------------------


@dataclass
class FeatureBundle:
    video: np.ndarray       # (L, d_v)
    text: np.ndarray        # (N, d_t)
    video_mask: np.ndarray  # (L,) bool
    text_mask: np.ndarray   # (N,) bool


def text_token_count(query, max_text_len):
    return min(max(1, len(query.split())), max_text_len)


def encode_item(ann, video_parts, text_parts, max_text_len, feature_dir=None, *, dtype):
    """Build the per-item feature bundle from pseudo encoders or feature files.

    Each modality is one array of `dtype`, each part written once into its
    columns. Precomputed files, when present under feature_dir, are named
    "<vid>.<kind>.vlft" for video parts and "qid<qid>.<kind>.vlft" for text
    parts; missing files fall back to the pseudo encoder. A loaded file with
    non-finite values is a ValueError naming the qid and the file; pseudo
    features are finite by construction.
    """
    length = ann.num_clips
    n_tok = text_token_count(ann.query, max_text_len)
    return FeatureBundle(
        video=_assemble(video_parts, length, dtype, ann.vid, ann.vid, feature_dir, ann.qid),
        text=_assemble(text_parts, n_tok, dtype, ann.query, f"qid{ann.qid}", feature_dir, ann.qid),
        video_mask=np.ones(length, dtype=bool),
        text_mask=np.ones(n_tok, dtype=bool),
    )


def _assemble(parts, rows, dtype, ident, prefix, feature_dir, qid):
    """One modality's (rows, sum of dims) array: each part from its stored
    float32 "<prefix>.<kind>.vlft" or else pseudo_encode(kind, ident, ...)."""
    out = np.empty((rows, sum(dim for _, dim in parts)), dtype=dtype)
    c0 = 0
    for kind, dim in parts:
        path = None if feature_dir is None else Path(feature_dir) / f"{prefix}.{kind}.vlft"
        arr = None if path is None else _read_features(path)
        if arr is not None:
            if arr.shape != (rows, dim):
                raise ValueError(f"{path}: shape {arr.shape} does not match expected ({rows}, {dim})")
            if not np.isfinite(arr).all():
                raise ValueError(f"qid {qid}: {path} holds non-finite features")
            out[:, c0:c0 + dim] = arr
        else:
            _pseudo_into(out[:, c0:c0 + dim], kind, ident)
        c0 += dim
    return out


# -- synthetic data generation ------------------------------------------------

INTERVAL_LEN = 10.0  # seconds per captioned interval
EMBED_DIM = 16  # width of default_embedder's vectors


@dataclass
class SyntheticRecord:
    caption: str
    interval: tuple
    saliency: list = field(default_factory=list)
    flagged: bool = False


def _interval_frames(start, end):
    ticks = np.arange(start + 0.5, end, 1.0)
    if ticks.size == 0:
        return [0.5 * (start + end)]
    return [float(t) for t in ticks]


def generate_synthetic(duration, captioner, embedder):
    """Tile [0, duration] into <= INTERVAL_LEN chunks and score frames against captions.

    The representative frame of each interval (its middle 1 Hz tick) is
    captioned; every frame's saliency is the cosine between the caption
    embedding and the frame embedding. Zero-norm embeddings flag the record
    and contribute saliency 0.
    """
    if not 0 < duration < math.inf:
        raise ValueError("duration must be finite and positive")
    n = int(math.ceil(duration / INTERVAL_LEN))
    records = []
    for i in range(n):
        start = i * INTERVAL_LEN
        end = min((i + 1) * INTERVAL_LEN, duration)
        frames = _interval_frames(start, end)
        caption = captioner(frames[len(frames) // 2])
        cap_vec = np.asarray(embedder(caption), dtype=np.float64)
        saliency = []
        flagged = False
        for t in frames:
            frame_vec = np.asarray(embedder(t), dtype=np.float64)
            denom = np.linalg.norm(cap_vec) * np.linalg.norm(frame_vec)
            if denom == 0.0:
                saliency.append(0.0)
                flagged = True
            else:
                cos = np.dot(cap_vec, frame_vec) / denom
                saliency.append(float(np.clip(cos, -1.0, 1.0)))  # rounding can push |cos| past 1
        records.append(SyntheticRecord(caption=caption, interval=(start, end),
                                       saliency=saliency, flagged=flagged))
    return records


def default_captioner(vid):
    def caption(t):
        return f"scene {vid} around second {int(t)}"
    return caption


def default_embedder(vid):
    """Embeds captions by their text and frames by (vid, floor(t)), both via sin-hash."""
    def embed(x):
        if isinstance(x, str):
            return pseudo_encode("clip_t", x, 1, EMBED_DIM)[0]
        return pseudo_encode("clip_v", f"{vid}@{int(math.floor(x))}", 1, EMBED_DIM)[0]
    return embed


def synthetic_level(mean_cosine):
    """Map a [-1, 1] cosine to an integer saliency level 0..4."""
    unit = min(1.0, max(0.0, (mean_cosine + 1.0) * 0.5))
    return int(round(unit * 4.0))


def records_to_annotations(vid, duration, records, clip_len=2.0, qid_start=0):
    """Convert synthetic records into one Annotation per (caption, interval)."""
    n_clips = int(math.ceil(duration / clip_len))
    annotations = []
    for offset, rec in enumerate(records):
        start, end = rec.interval
        frames = _interval_frames(start, end)
        levels = [0] * n_clips
        per_clip = {}
        for t, s in zip(frames, rec.saliency):
            idx = min(int(t // clip_len), n_clips - 1)
            per_clip.setdefault(idx, []).append(s)
        for idx, vals in per_clip.items():
            levels[idx] = synthetic_level(sum(vals) / len(vals))
        window = [float(start), float(end)]
        ann = Annotation(
            qid=qid_start + offset,
            query=rec.caption,
            vid=vid,
            duration=float(duration),
            relevant_windows=[window],
            saliency_levels=levels,
            relevant_clip_ids=clips_overlapping_windows([window], duration, clip_len),
            clip_len=clip_len,
        )
        annotations.append(ann.validate())
    return annotations


def load_manifest(path, clip_len, max_clips):
    """Read a jsonl manifest of {vid, duration}.

    A vid that is not a non-empty string, a duration that is not a finite
    positive number, a video of more than max_clips clips of clip_len seconds
    and a duplicate vid are each a ValidationError naming the line.
    """
    entries = []
    seen = set()
    rows = read_jsonl(path, ("vid", "duration"), lambda obj: (obj["vid"], _number(obj["duration"])))
    for lineno, (vid, duration) in rows:
        where = f"{path}:{lineno}"
        if not isinstance(vid, str) or not vid:
            raise ValidationError(f"{where}: vid {vid!r} is not a non-empty string")
        if not 0 < duration < math.inf:
            raise ValidationError(f"{where}: duration {duration} of vid '{vid}' is not finite and positive")
        if duration / clip_len > max_clips:
            raise ValidationError(f"{where}: vid '{vid}' of {duration} s has more than "
                                  f"max_clips={max_clips} clips of {clip_len} s")
        if vid in seen:
            raise ValidationError(f"{where}: duplicate vid '{vid}'")
        seen.add(vid)
        entries.append((vid, duration))
    return entries
