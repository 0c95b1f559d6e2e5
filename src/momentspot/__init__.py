"""momentspot: joint video moment retrieval and highlight detection.

The whole stack (autodiff tensors, attention blocks, losses, metrics,
training) is self-contained on numpy and runs end to end on deterministic
synthetic features.
"""
from .config import LossWeights, ModelConfig
from .data import Annotation, load_dataset, save_dataset
from .metrics import MetricReport, QueryPrediction, compute_report
from .model import Model
from .training import evaluate_model, train

__version__ = "0.1.0"

__all__ = [
    "Annotation",
    "LossWeights",
    "MetricReport",
    "Model",
    "ModelConfig",
    "QueryPrediction",
    "compute_report",
    "evaluate_model",
    "load_dataset",
    "save_dataset",
    "train",
    "__version__",
]
