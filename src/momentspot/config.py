"""Model and training configuration as plain dataclasses with JSON round-trip."""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .data import TEXT_ENCODER_KINDS, VIDEO_ENCODER_KINDS


class ConfigError(ValueError):
    pass


@dataclass
class LossWeights:
    l1: float = 10.0
    giou: float = 1.0
    cls: float = 4.0
    saliency: float = 1.0
    rank: float = 1.0
    contrastive: float = 1.0
    hard: float = 10.0
    task_specific: float = 1.0
    task_coupled: float = 1.0
    alignment: float = 0.01
    margin: float = 0.2
    temperature: float = 0.5
    background_weight: float = 0.1


# the JSON types from_dict accepts per field annotation; parts are [kind, dim] pairs
JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,),
              "tuple": (list, tuple), "LossWeights": (dict,)}


def _checked_fields(cls, d, what):
    """A copy of d once it is a dict of cls's fields, each of its field's JSON type (floats finite)."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be an object, got {type(d).__name__}")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    for key, value in d.items():
        if key not in types:
            raise ConfigError(f"unknown {what} field {key!r}")
        ok = type(value) in JSON_TYPES[types[key]]
        if ok and types[key] == "tuple":
            ok = all(type(p) in (list, tuple) and list(map(type, p)) == [str, int] for p in value)
        if not ok:
            raise ConfigError(f"{what} field {key} has the wrong type: {value!r}")
        # JSON's NaN and Infinity parse as floats
        if types[key] == "float" and not math.isfinite(value):
            raise ConfigError(f"{what} field {key} must be finite, got {value!r}")
    return dict(d)


@dataclass
class ModelConfig:
    hidden_dim: int = 256
    heads: int = 8
    fusion_layers: int = 1
    encoder_layers: int = 3
    decoder_layers: int = 3
    num_queries: int = 10
    ffn_dim: int = 1024
    proj_layers: int = 2
    proj_kernel: int = 3
    refine_kernel: int = 3
    max_text_len: int = 32
    max_clips: int = 75
    dropout: float = 0.1
    input_dropout: float = 0.5
    video_parts: tuple = (("clip_v", 512), ("slowfast", 2304), ("blip_v", 768))
    text_parts: tuple = (("clip_t", 512), ("blip_t", 768))
    clip_len: float = 2.0
    use_refinement: bool = True
    fusion_mode: str = "bidirectional"  # or "text_to_video"
    dtype: str = "float32"
    weights: LossWeights = field(default_factory=LossWeights)
    lr: float = 1e-4
    weight_decay: float = 1e-4
    epochs: int = 200
    batch_size: int = 32
    grad_clip: float = 0.1  # global norm; <= 0 disables
    val_fraction: float = 0.1
    eval_every: int = 1  # epochs between validation passes; 0 = final only

    def __post_init__(self):
        self.video_parts = tuple((str(k), int(d)) for k, d in self.video_parts)
        self.text_parts = tuple((str(k), int(d)) for k, d in self.text_parts)
        self.validate()

    def validate(self):
        if self.heads <= 0:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
        if self.hidden_dim <= 0 or self.hidden_dim % self.heads != 0:
            raise ConfigError(f"hidden_dim {self.hidden_dim} must be positive and divisible by heads {self.heads}")
        for name in ("proj_kernel", "refine_kernel"):
            kernel = getattr(self, name)
            if kernel < 1 or kernel % 2 != 1:
                raise ConfigError(f"{name} must be odd and positive for same padding, got {kernel}")
        if self.fusion_mode not in ("bidirectional", "text_to_video"):
            raise ConfigError(f"unknown fusion_mode '{self.fusion_mode}'")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got '{self.dtype}'")
        if not self.video_parts or not self.text_parts:
            raise ConfigError("at least one video and one text feature part required")
        for name, parts, kinds in (("video_parts", self.video_parts, VIDEO_ENCODER_KINDS),
                                   ("text_parts", self.text_parts, TEXT_ENCODER_KINDS)):
            unknown = sorted({kind for kind, _ in parts} - set(kinds))
            if unknown:
                raise ConfigError(f"unknown feature parts {unknown} (expected one of {kinds})")
            narrow = [list(part) for part in parts if part[1] < 1]
            if narrow:
                raise ConfigError(f"{name} widths must be >= 1, got {narrow}")
        for name in ("fusion_layers", "encoder_layers", "decoder_layers", "proj_layers",
                     "num_queries", "ffn_dim", "max_text_len", "max_clips"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.batch_size < 1 or self.epochs < 0 or self.eval_every < 0:
            raise ConfigError(f"need batch_size >= 1, epochs >= 0 and eval_every >= 0, got "
                              f"{self.batch_size}, {self.epochs} and {self.eval_every}")
        if not (0 <= self.val_fraction < 1):
            raise ConfigError("val_fraction must be in [0, 1)")
        if not (0 <= self.dropout < 1 and 0 <= self.input_dropout < 1):
            raise ConfigError(f"dropout and input_dropout must be in [0, 1), got "
                              f"{self.dropout} and {self.input_dropout}")
        if not self.weights.temperature > 0:
            raise ConfigError(f"weights field temperature must be > 0, got {self.weights.temperature}")
        return self

    @property
    def video_dim(self):
        return sum(d for _, d in self.video_parts)

    @property
    def text_dim(self):
        return sum(d for _, d in self.text_parts)

    @classmethod
    def desk(cls, **overrides):
        """Small CPU-friendly preset used by the synthetic experiments."""
        base = dict(
            hidden_dim=32,
            heads=2,
            ffn_dim=128,
            num_queries=8,
            max_text_len=8,
            max_clips=32,
            dropout=0.0,
            input_dropout=0.0,
            video_parts=(("clip_v", 24),),
            text_parts=(("clip_t", 16),),
            dtype="float64",
            lr=1e-3,
            weight_decay=1e-4,
            epochs=300,
            batch_size=4,
            grad_clip=0.0,  # epoch-scaled saliency term grows grad norms; a fixed cap starves late epochs
            val_fraction=0.0,
            eval_every=0,
        )
        base.update(overrides)
        return cls(**base)

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["video_parts"] = [list(p) for p in self.video_parts]
        d["text_parts"] = [list(p) for p in self.text_parts]
        return d

    def to_json(self, path=None):
        text = json.dumps(self.to_dict(), indent=2)
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        return text

    @classmethod
    def from_dict(cls, d):
        """A JSON object as to_dict() gives; a field of the wrong type is a ConfigError."""
        d = _checked_fields(cls, d, "config")
        if "weights" in d:
            d["weights"] = LossWeights(**_checked_fields(LossWeights, d["weights"], "weights"))
        return cls(**d)  # __post_init__ makes the parts tuples

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
