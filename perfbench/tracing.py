"""In-memory spans around momentspot's layer boundaries.

Modules bind their imports with ``from .x import y``, so a layer is traced by
wrapping the name in the namespace of the module that calls it (for example
``momentspot.model.fuse`` or ``momentspot.heads.multi_head_attention``), and
methods by wrapping them on their class. Nothing under ``src/`` changes; the
wrappers are removed when the traced block ends.
"""
from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from time import perf_counter_ns


def layer_boundaries():
    """(owner, attribute, span name) for every traced call site."""
    from momentspot import autodiff, fusion, heads, metrics, model, training
    return [
        (model, "batch_loss", "model.batch_loss"),
        (training, "batch_loss", "model.batch_loss"),
        (model.Model, "forward", "model.forward"),
        (model, "project", "refinement.project"),
        (model, "refine", "refinement.refine"),
        (model, "fuse", "fusion.fuse"),
        (model, "encode", "heads.encode"),
        (model, "decode", "heads.decode"),
        (model, "predict_saliency", "heads.predict"),
        (model, "predict_moments", "heads.predict"),
        (fusion, "multi_head_attention", "autodiff.mha"),
        (heads, "multi_head_attention", "autodiff.mha"),
        (fusion, "layer_norm", "autodiff.layer_norm"),
        (heads, "layer_norm", "autodiff.layer_norm"),
        (model, "rank_margin_loss", "losses.saliency"),
        (model, "contrastive_rank_loss", "losses.saliency"),
        (model, "highlight_distribution_loss", "losses.saliency"),
        (model, "task_specific_loss", "losses.saliency"),
        (model, "task_coupled_loss", "losses.task_coupled"),
        (model, "alignment_loss", "refinement.alignment"),
        (model, "hungarian_match", "matching.hungarian"),
        (model, "moment_loss", "matching.moment_loss"),
        (model, "compose_total", "losses.compose"),
        (autodiff.Tensor, "backward", "autodiff.backward"),
        (training, "clip_gradients", "training.clip"),
        (training.AdamW, "step", "training.adamw"),
        (training, "save_checkpoint", "training.checkpoint_save"),
        (training, "model_from_checkpoint", "training.checkpoint_load"),
        (model, "bundle_for", "data.bundle"),
        (training, "bundle_for", "data.bundle"),
        (metrics, "compute_report", "metrics.report"),
        (training, "compute_report", "metrics.report"),
    ]


@contextlib.contextmanager
def wrapped(owner, attr, make_wrapper):
    """Replace owner.attr by make_wrapper(original) inside the block."""
    original = owner.__dict__[attr]
    setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index, unit] records.

    ``unit`` is whatever the caller set before the call, such as
    ("train", step) or ("eval", item); spans of one step or item share it.
    """

    def __init__(self):
        self.spans = []
        self.unit = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        record = [name, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.unit]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter_ns()
            self._stack.pop()

    def _wrapper(self, name):
        def make(original):
            def traced(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)
            return traced
        return make

    @contextlib.contextmanager
    def installed(self):
        """Trace every layer boundary inside the block."""
        with contextlib.ExitStack() as stack:
            for owner, attr, name in layer_boundaries():
                stack.enter_context(wrapped(owner, attr, self._wrapper(name)))
            yield self

    def self_times(self):
        """Per span, its duration minus the time its child spans cover (ns)."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self, phases):
        """name -> (calls, total ns, self ns) over spans whose unit's phase is in `phases`."""
        out = defaultdict(lambda: [0, 0, 0])
        for record, own in zip(self.spans, self.self_times()):
            name, start, end, _, unit = record
            if unit is not None and unit[0] in phases:
                acc = out[name]
                acc[0] += 1
                acc[1] += end - start
                acc[2] += own
        return dict(out)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "unit"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def graph_nodes(outputs, inputs=()):
    """Op nodes reachable from `outputs` through ``_parents``, stopping at `inputs`.

    A read-only walk; leaves (parameters, constants) are not counted.
    """
    stop = {id(t) for t in inputs}
    seen = set()
    stack = list(outputs)
    count = 0
    while stack:
        node = stack.pop()
        key = id(node)
        if key in seen or key in stop:
            continue
        seen.add(key)
        if node._parents:
            count += 1
            stack.extend(node._parents)
    return count
