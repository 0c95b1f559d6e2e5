"""Benchmark rounds, output checks and metric assembly.

A run drives one workload through the program's public functions only. It
first builds the model and bundles, takes two warm-up steps and round-trips
a checkpoint (``save_checkpoint`` then ``model_from_checkpoint``) for eval.
Then it repeats rounds until about ``--seconds`` have passed. Each round
times:

1. a block of closed-loop training steps mirroring ``train()``'s inner loop
   (``batch_loss``, ``Tensor.backward``, ``clip_gradients``, ``AdamW.step``);
2. a block of eval passes: ``predict_item`` per item on the loaded model,
   then ``compute_report`` over the pass;
3. three set-ups, each ``Model(cfg, seed)`` plus ``bundle_for`` over the
   dataset;
4. one whole ``train()`` call with a validation set and ``eval_every=1``.

The two blocks take 45% and 20% of a round, the set-ups and the train()
call the rest, so each kind of work is spread over the whole run. Every timed unit (a step, an
eval item, a report, a set-up, a train() call) is recorded as laps, split at
the public calls it makes, and each lap carries the host's slowness around
it (see calibration.py). At the end the run fits how strongly its units
follow that slowness and turns each unit into its time at the reference
speed. A time metric is the median of those over the run (for
``eval_item_ms_p90`` the 90th percentile); ``train_items_per_s`` is the
run's training items over its steps' time, and ``eval_items_per_s`` its
eval items over the time of its eval passes, reports included.

With tracing on, the same rounds run with spans around every layer boundary
(see tracing.py), and the training block alternates untraced and traced
steps; the run reports per-layer figures in wall time, and the tracing
overhead as the median difference between each traced step and the
untraced one before it, both taken back to the reference speed.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from momentspot import metrics as ms_metrics
from momentspot import model as ms_model
from momentspot import training as ms_training
from momentspot.losses import CompositionError

from . import tracing
from .calibration import Clock, at_reference, elasticity
from .workloads import WORKLOADS, make_inputs

MIN_ROUNDS = 3
FIRST_ROUND_S = 2.0
# shares of the run given to the training and eval blocks; set-ups and train() take the rest
TRAIN_SHARE = 0.45
EVAL_SHARE = 0.2
WARMUP_STEPS = 2
SETUP_REPEATS = 3  # per round

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_items_per_s": "items/s",
    "step_ms_p50": "ms",
    "train_run_s": "s",
    "eval_items_per_s": "items/s",
    "eval_item_ms_p50": "ms",
    "eval_item_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

# traced spans reported per training step, and per item that passed through them
STEP_SPANS = ("model.batch_loss", "autodiff.backward", "training.clip", "training.adamw",
              "losses.compose")
ITEM_SPANS = ("model.forward", "refinement.project", "refinement.refine", "fusion.fuse",
              "heads.encode", "heads.decode", "heads.predict", "autodiff.mha",
              "autodiff.layer_norm", "losses.saliency", "losses.task_coupled",
              "refinement.alignment", "matching.hungarian", "matching.moment_loss")
CALL_COUNTED = ("autodiff.mha", "autodiff.layer_norm")
# spans reported per call, over every phase they occur in
CALL_SPANS = ("training.checkpoint_save", "training.checkpoint_load", "data.bundle",
              "metrics.report")


def per_layer_units():
    """Every per-layer metric name with its unit, in print order."""
    units = {}
    for name in STEP_SPANS + ITEM_SPANS + CALL_SPANS:
        units[f"{name}_ms"] = "ms"
        units[f"{name}_self_ms"] = "ms"
    for name in CALL_COUNTED:
        units[f"{name}_calls"] = "count"
    units.update({
        "model.eval_forward_ms": "ms",
        "model.nodes_per_item": "count",
        "autodiff.backward_nodes": "count",
        "losses.task_coupled_nodes": "count",
        "training.checkpoint_bytes": "bytes",
        "data.feature_bytes": "bytes",
        "trace.overhead_ms": "ms",
        "trace.overhead_pct": "%",
    })
    return units


@dataclasses.dataclass
class Ledger:
    """Operations attempted and failed, and the named output checks."""
    attempted: int = 0
    failed: int = 0
    checks: dict = dataclasses.field(default_factory=dict)

    def count(self, ok):
        self.attempted += 1
        self.failed += 0 if ok else 1

    def check(self, name, ok):
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    @property
    def correct(self):
        return all(self.checks.values())


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _fresh(cfg, seed):
    model = ms_model.Model(cfg, seed=seed)
    return model, ms_training.AdamW(model.named_parameters(), lr=cfg.lr,
                                    weight_decay=cfg.weight_decay)


def train_step(model, optimizer, batch, epoch, rng, cfg, lap):
    """One step of train()'s inner loop; False when it diverged.

    A CompositionError, a non-finite loss or a non-finite parameter after
    the update is a failed step, exactly as train() treats it. ``lap`` is
    called after the forward, the backward and the update.
    """
    try:
        total, _ = ms_model.batch_loss(model, batch, epoch, rng=rng, train=True)
    except CompositionError:
        return False
    finally:
        lap()
    if not np.isfinite(total.data):
        return False
    model.zero_grad()
    total.backward()
    lap()
    ms_training.clip_gradients(model.named_parameters(), cfg.grad_clip)
    optimizer.step()
    lap()
    return all(np.isfinite(p.tensor.data).all() for p in model.named_parameters().values())


def _finite_prediction(pred):
    return all(math.isfinite(x) for w in pred.windows for x in w) and \
        all(math.isfinite(x) for x in pred.saliency)


class Runner:
    """One workload's model, optimizer and inputs, and the timed blocks over them.

    Timed blocks return their units as lists of laps, (wall seconds,
    slowness) pairs, split at the public calls a unit makes (see
    calibration.py). With a tracer set, every block marks its spans with a
    (phase, id) unit.
    """

    def __init__(self, workload, inputs, workdir, ledger, tracer=None):
        self.workload, self.inputs, self.workdir = workload, inputs, Path(workdir)
        self.cfg = workload.cfg
        self.ledger, self.tracer = ledger, tracer
        self.clock = Clock()
        self.model, self.optimizer = _fresh(self.cfg, inputs.seed)
        self.bundles = [ms_model.bundle_for(a, self.cfg, inputs.feature_dir)
                        for a in inputs.all_items]
        self.eval_pairs = list(zip(self.bundles, inputs.all_items))
        train_pairs = self.eval_pairs[:len(inputs.train_items)]
        size = self.cfg.batch_size
        self.batches = [train_pairs[i:i + size] for i in range(0, len(train_pairs), size)]
        self.rng = np.random.default_rng([inputs.seed, 2])
        self.loaded = None
        self.step = 0
        self.eval_items = 0
        self.runs = 0
        self.final_losses = []

    def _mark(self, phase, ident):
        if self.tracer is not None:
            self.tracer.unit = (phase, ident)

    def setup(self):
        """Laps of Model(cfg, seed) plus bundle_for over the dataset."""
        self._mark("setup", self.runs)
        self.clock.restart()
        ms_model.Model(self.cfg, seed=self.inputs.seed)
        for ann in self.inputs.all_items:
            ms_model.bundle_for(ann, self.cfg, self.inputs.feature_dir)
        return [self.clock.lap()]

    def train_block(self, budget_s, min_steps=1):
        """Closed loop of steps for budget_s; returns (items, laps of each step).

        A failed step restarts from a freshly initialized model and optimizer.
        """
        steps = []
        items = 0
        started = perf_counter()
        self.clock.restart()
        while len(steps) < min_steps or perf_counter() - started < budget_s:
            batch = self.batches[self.step % len(self.batches)]
            self._mark("train", self.step)
            laps = []
            self.clock.begin()
            ok = train_step(self.model, self.optimizer, batch, self.step // len(self.batches),
                            self.rng, self.cfg, lambda: laps.append(self.clock.lap()))
            steps.append(laps)
            self.ledger.count(ok)
            items += len(batch)
            if not ok:
                self.model, self.optimizer = _fresh(self.cfg, self.inputs.seed)
            self.step += 1
        return items, steps

    def load_for_eval(self):
        """Save the trained model, load it back and check the round trip bitwise.

        Returns the checkpoint's size in bytes.
        """
        path = self.workdir / "eval.ckpt"
        self._mark("eval", -1)
        ms_training.save_checkpoint(path, self.model, optimizer=self.optimizer, epoch=0)
        self.loaded, _ = ms_training.model_from_checkpoint(str(path))
        live, restored = self.model.state_arrays(), self.loaded.state_arrays()
        self.ledger.check("checkpoint_round_trip_bitwise", live.keys() == restored.keys() and all(
            live[n].dtype == restored[n].dtype and live[n].tobytes() == restored[n].tobytes()
            for n in live))
        first = self.eval_pairs[0]
        self.ledger.check("checkpoint_predictions_equal",
                          ms_model.predict_item(self.model, *first)
                          == ms_model.predict_item(self.loaded, *first))
        return path.stat().st_size

    def eval_block(self, budget_s):
        """Whole eval passes for budget_s; returns [(item laps, report lap)], one per pass."""
        annotations = [a for _, a in self.eval_pairs]
        passes = []
        started = perf_counter()
        self.clock.restart()
        while not passes or perf_counter() - started < budget_s:
            predictions, item_laps = [], []
            for bundle, ann in self.eval_pairs:
                self._mark("eval", self.eval_items)
                self.clock.begin()
                pred = ms_model.predict_item(self.loaded, bundle, ann)
                item_laps.append(self.clock.lap())
                self.eval_items += 1
                self.ledger.count(_finite_prediction(pred) and len(pred.saliency) == ann.num_clips)
                predictions.append(pred)
            self.clock.begin()
            report = ms_metrics.compute_report(predictions, annotations)
            report_lap = self.clock.lap()
            self.ledger.check("report_metrics_in_unit_interval",
                              all(0.0 <= v <= 1.0 for v in report.to_dict().values()))
            passes.append((item_laps, report_lap))
        return passes

    def train_run(self):
        """Laps of one whole train() call; its final loss must repeat exactly."""
        cfg = dataclasses.replace(self.cfg, epochs=self.workload.run_epochs, eval_every=1)
        out = self.workdir / f"train-run-{self.runs}"
        self._mark("run", self.runs)
        self.clock.restart()
        result = ms_training.train(cfg, self.inputs.train_items[:self.workload.run_train_items],
                                   out, seed=self.inputs.seed,
                                   val_annotations=self.inputs.held_items,
                                   feature_dir=self.inputs.feature_dir)
        laps = [self.clock.lap()]
        self.runs += 1
        self.ledger.count(not result.diverged)
        self.ledger.check("train_run_completes", result.epochs_run == cfg.epochs)
        if result.loss_trace:
            self.final_losses.append(result.loss_trace[-1])
            # reruns reproduce the loss to 1e-9 in float64; float32 to its own precision
            first = self.final_losses[0]
            tol = 1e-9 if cfg.dtype == "float64" else 1e-6 * max(1.0, abs(first))
            self.ledger.check("train_run_deterministic",
                              abs(self.final_losses[-1] - first) <= tol)
        shutil.rmtree(out)
        return laps


def _rounds(seconds):
    """Round indices until about `seconds` have passed, at least MIN_ROUNDS of them.

    A round starts only while half of one more still ends in time, so a run
    ends within half a round of `seconds`.
    """
    started = perf_counter()
    index, last = 0, 0.0
    while index < MIN_ROUNDS or perf_counter() - started + 0.5 * last < seconds:
        round_start = perf_counter()
        yield index
        last = perf_counter() - round_start
        index += 1


def _block_budgets(fixed_s):
    """Training and eval block seconds that keep a round's shares, given its set-ups and train() call."""
    rest = 1.0 - TRAIN_SHARE - EVAL_SHARE
    return TRAIN_SHARE / rest * fixed_s, EVAL_SHARE / rest * fixed_s


def run_untraced(runner, seconds):
    runner.train_block(0.0, WARMUP_STEPS)
    runner.load_for_eval()
    train_s, eval_s = TRAIN_SHARE * FIRST_ROUND_S, EVAL_SHARE * FIRST_ROUND_S
    train_items, units = 0, defaultdict(list)
    for _ in _rounds(seconds):
        items, steps = runner.train_block(train_s)
        train_items += items
        units["step"] += steps
        for item_laps, report_lap in runner.eval_block(eval_s):
            units["eval_item"] += [[lap] for lap in item_laps]
            units["report"].append([report_lap])
        started = perf_counter()
        units["setup"] += [runner.setup() for _ in range(SETUP_REPEATS)]
        units["run"].append(runner.train_run())
        train_s, eval_s = _block_budgets(perf_counter() - started)

    beta = elasticity(units)
    ref = {kind: [at_reference(laps, beta) for laps in kind_units]
           for kind, kind_units in units.items()}
    values = {
        "setup_s": statistics.median(ref["setup"]),
        "train_items_per_s": train_items / sum(ref["step"]),
        "step_ms_p50": 1e3 * statistics.median(ref["step"]),
        "train_run_s": statistics.median(ref["run"]),
        "eval_items_per_s": len(ref["eval_item"]) / (sum(ref["eval_item"]) + sum(ref["report"])),
        "eval_item_ms_p50": 1e3 * statistics.median(ref["eval_item"]),
        "eval_item_ms_p90": 1e3 * statistics.quantiles(ref["eval_item"], n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    slowness = [s for kind_units in units.values() for laps in kind_units for _, s in laps]
    info = {"final_loss": runner.final_losses[0] if runner.final_losses else math.nan,
            "rounds": len(units["run"]), "steps": len(units["step"]),
            "eval_items": len(units["eval_item"]), "eval_passes": len(units["report"]),
            "train_runs": runner.runs, "elasticity": beta,
            "host_slowness_p10_p50_p90": statistics.quantiles(slowness, n=10)[::4],
            "step_ms_p50_wall": 1e3 * statistics.median(
                sum(wall for wall, _ in laps) for laps in units["step"])}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, info


def count_nodes(workload, batches, seed):
    """Graph sizes from one untimed pass over the training batches (forward only)."""
    model, _ = _fresh(workload.cfg, seed)
    rng = np.random.default_rng([seed, 3])
    coupled = []

    def counting(original):
        def counted(features, *args, **kwargs):
            out = original(features, *args, **kwargs)
            coupled.append(tracing.graph_nodes([out], [features]))
            return out
        return counted

    totals = []
    with tracing.wrapped(ms_model, "task_coupled_loss", counting):
        for batch in batches:
            total, _ = ms_model.batch_loss(model, batch, 0, rng=rng, train=True)
            totals.append(tracing.graph_nodes([total]))
    items = sum(len(b) for b in batches)
    return {"model.nodes_per_item": sum(totals) / items,
            "autodiff.backward_nodes": sum(totals) / len(batches),
            "losses.task_coupled_nodes": sum(coupled) / items}


def run_traced(runner, seconds, trace_path):
    tracer = runner.tracer
    runner.train_block(0.0, WARMUP_STEPS)
    with tracer.installed():
        checkpoint_bytes = runner.load_for_eval()
    train_s, eval_s = TRAIN_SHARE * FIRST_ROUND_S, EVAL_SHARE * FIRST_ROUND_S
    plain, traced = [], []
    items = 0
    for _ in _rounds(seconds):
        # untraced and traced steps alternate, so both see the same host conditions
        started = perf_counter()
        while not traced or perf_counter() - started < train_s:
            runner.tracer = None
            plain += runner.train_block(0.0)[1]
            runner.tracer = tracer
            items += len(runner.batches[runner.step % len(runner.batches)])
            with tracer.installed():
                traced += runner.train_block(0.0)[1]
        started = perf_counter()
        with tracer.installed():
            runner.eval_block(eval_s)
            runner.setup()
            runner.train_run()
        train_s, eval_s = _block_budgets(perf_counter() - started)
    tracer.unit = None
    tracer.write(trace_path)

    train_totals = tracer.totals({"train"})
    call_totals = tracer.totals({"setup", "train", "eval", "run"})
    values = {}
    steps = len(traced)
    for names, totals, per in ((STEP_SPANS, train_totals, lambda calls: steps),
                               (ITEM_SPANS, train_totals, lambda calls: items),
                               (CALL_SPANS, call_totals, lambda calls: calls)):
        for name in names:
            calls, total, own = totals.get(name, (0, 0, 0))
            values[f"{name}_ms"] = 1e-6 * total / max(per(calls), 1)
            values[f"{name}_self_ms"] = 1e-6 * own / max(per(calls), 1)
    for name in CALL_COUNTED:
        values[f"{name}_calls"] = train_totals.get(name, (0, 0, 0))[0] / items
    eval_calls, eval_total, _ = tracer.totals({"eval"}).get("model.forward", (0, 0, 0))
    values["model.eval_forward_ms"] = 1e-6 * eval_total / max(eval_calls, 1)
    values.update(count_nodes(runner.workload, runner.batches, runner.inputs.seed))
    values["training.checkpoint_bytes"] = checkpoint_bytes
    values["data.feature_bytes"] = sum(b.video.nbytes + b.text.nbytes
                                       for b in runner.bundles) / len(runner.bundles)
    beta = elasticity({"untraced": plain, "traced": traced})
    plain, traced = ([at_reference(laps, beta) for laps in steps] for steps in (plain, traced))
    overhead = statistics.median(t - p for p, t in zip(plain, traced))
    values["trace.overhead_ms"] = 1e3 * overhead
    values["trace.overhead_pct"] = 100.0 * overhead / statistics.median(plain)
    units = per_layer_units()
    info = {"traced_steps": steps, "spans": len(tracer.spans),
            "step_ms_p50_untraced": 1e3 * statistics.median(plain),
            "step_ms_p50_traced": 1e3 * statistics.median(traced),
            "trace_file": str(trace_path)}
    return {k: (values[k], units[k]) for k in units}, info


def run(workload, inputs, seconds, trace, workdir, trace_path=None):
    """Run one workload; returns (ledger, {metric: (value, unit)}, info)."""
    ledger = Ledger()
    runner = Runner(workload, inputs, workdir, ledger, tracing.Tracer() if trace else None)
    if trace:
        metrics, info = run_traced(runner, seconds, trace_path)
    else:
        metrics, info = run_untraced(runner, seconds)
    return ledger, metrics, info


def report(out, ledger, metrics, info):
    """Readable lines, then the result object as the last line."""
    for key, value in info.items():
        print(f"info {key} {value}", file=out)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}", file=out)
    ratio = ledger.failed / ledger.attempted if ledger.attempted else math.nan
    print(f"metric ops_failed_ratio {ratio!r} ratio (attempted={ledger.attempted} "
          f"failed={ledger.failed})", file=out)
    for name, ok in ledger.checks.items():
        print(f"check {name} {'ok' if ok else 'FAILED'}", file=out)
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), file=out)
    out.flush()


def main(argv, root):
    parser = argparse.ArgumentParser(description="momentspot benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    scratch = Path(root) / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        inputs = make_inputs(workload, args.seed, workdir / "features")
        header = {**environment(), "workload": workload.name,
                  "config_fingerprint": workload.fingerprint(), "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace}
        print("env " + json.dumps(header))
        trace_path = scratch / f"trace-{workload.name}-seed{args.seed}.json"
        ledger, metrics, info = run(workload, inputs, args.seconds, args.trace, workdir,
                                    trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(sys.stdout, ledger, metrics, info)
    return 0
