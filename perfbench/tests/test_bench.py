"""Tests of the benchmark itself: run them with

    python -m pytest -q perfbench/tests
"""
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from momentspot.autodiff import Tensor
from perfbench import bench, calibration, tracing
from perfbench.workloads import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    """The named workload shrunk to a tiny model and short items, same code paths."""
    wl = WORKLOADS[name]
    cfg = dataclasses.replace(
        wl.cfg, hidden_dim=8, heads=2, ffn_dim=16, num_queries=4, encoder_layers=1,
        decoder_layers=1, max_clips=12, max_text_len=6,
        video_parts=tuple((kind, 8) for kind, _ in wl.cfg.video_parts),
        text_parts=tuple((kind, 6) for kind, _ in wl.cfg.text_parts))
    lengths = {"desk-short": ((8,) * 4, (8,) * 2), "desk-long": ((8, 10, 12, 9), (11, 12)),
               "full-long": ((12,) * 4, (12,) * 2)}[name]
    return dataclasses.replace(wl, cfg=cfg, train_lengths=lengths[0], held_lengths=lengths[1],
                               run_epochs=1, run_train_items=4)


def run_tiny(name, tmp_path, trace, seed=5):
    wl = tiny(name)
    inputs = make_inputs(wl, seed, tmp_path / "features")
    return bench.run(wl, inputs, 0.0, trace, tmp_path, tmp_path / "trace.json")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(name, tmp_path):
    ledger, metrics, info = run_tiny(name, tmp_path, trace=0)
    assert ledger.correct and ledger.failed == 0 and ledger.attempted > 0, ledger.checks
    assert set(ledger.checks) == {"checkpoint_round_trip_bitwise", "checkpoint_predictions_equal",
                                  "report_metrics_in_unit_interval", "train_run_completes",
                                  "train_run_deterministic"}
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: u for k, (_, u) in metrics.items()} == expected
    assert all(math.isfinite(v) and v > 0 for v, _ in metrics.values())
    out = io.StringIO()
    bench.report(out, ledger, metrics, info)
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(expected)
    assert any(line.startswith("metric ops_failed_ratio 0.0 ratio") for line in lines)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(name, tmp_path):
    ledger, metrics, _ = run_tiny(name, tmp_path, trace=1)
    assert ledger.correct and ledger.failed == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: u for k, (_, u) in metrics.items()} == expected
    assert all(math.isfinite(v) for v, _ in metrics.values())
    for key in ("model.forward_ms", "autodiff.backward_ms", "training.adamw_ms",
                "model.nodes_per_item", "losses.task_coupled_nodes", "data.bundle_ms",
                "training.checkpoint_save_ms", "training.checkpoint_load_ms"):
        assert metrics[key][0] > 0, key
    assert metrics["model.nodes_per_item"][0] > metrics["losses.task_coupled_nodes"][0]


def test_self_times_sum_to_each_root_span(tmp_path):
    run_tiny("desk-long", tmp_path, trace=1)
    spans = json.loads((tmp_path / "trace.json").read_text())["spans"]
    tracer = tracing.Tracer()
    tracer.spans = spans
    own = tracer.self_times()
    root_of = []
    for name, start, end, parent, unit in spans:
        root_of.append(root_of[parent] if parent >= 0 else len(root_of))
    sums = {}
    for index, root in enumerate(root_of):
        sums[root] = sums.get(root, 0) + own[index]
    assert sums and all(sums[r] == spans[r][2] - spans[r][1] for r in sums)
    assert all(t >= 0 for t in own)
    nested = [s for s in spans if s[3] >= 0]
    assert nested and all(spans[s[3]][1] <= s[1] <= s[2] <= spans[s[3]][2] for s in nested)


def test_same_seed_runs_print_the_same_final_loss(tmp_path):
    first = run_tiny("desk-short", tmp_path / "a", trace=0)[2]["final_loss"]
    second = run_tiny("desk-short", tmp_path / "b", trace=0)[2]["final_loss"]
    assert math.isfinite(first) and abs(first - second) <= 1e-9


def _runner(tmp_path, name="desk-short", **cfg_overrides):
    wl = tiny(name)
    wl = dataclasses.replace(wl, cfg=dataclasses.replace(wl.cfg, **cfg_overrides))
    inputs = make_inputs(wl, 3, tmp_path / "features")
    return bench.Runner(wl, inputs, tmp_path, bench.Ledger())


def test_diverging_forward_is_a_failed_step_and_the_loop_goes_on(tmp_path):
    runner = _runner(tmp_path)
    weight = runner.model.named_parameters()["heads.moment.0.weight"].tensor
    weight.data = np.full_like(weight.data, np.nan)
    runner.train_block(0.0, min_steps=3)
    assert (runner.ledger.attempted, runner.ledger.failed) == (3, 1)
    assert all(np.isfinite(p.tensor.data).all() for p in runner.model.named_parameters().values())


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_parameter_after_the_update_is_a_failed_step(tmp_path):
    runner = _runner(tmp_path, lr=math.inf)
    runner.train_block(0.0, min_steps=2)
    assert (runner.ledger.attempted, runner.ledger.failed) == (2, 2)


def test_graph_nodes_walks_parents_down_to_the_inputs():
    a = Tensor(np.ones(3), requires_grad=True)
    b = a * 2.0
    c = (b + a).sum()
    assert tracing.graph_nodes([c]) == 3
    assert tracing.graph_nodes([c], inputs=[b]) == 2


def test_elasticity_recovers_the_slope_and_undoes_the_slowness():
    rng = np.random.default_rng(0)
    units = {}
    for kind, seconds in (("step", 0.8), ("item", 0.04)):
        # a persistent host state with jitter, as slowness is on a shared host
        slowness = np.exp(np.cumsum(rng.normal(0.0, 0.1, size=40)))
        # two laps per unit at different slowness, wall = reference seconds * slowness ** 0.6
        units[kind] = [[(0.5 * seconds * s ** 0.6, s), (0.5 * seconds * (1.1 * s) ** 0.6, 1.1 * s)]
                       for s in slowness]
    beta = calibration.elasticity(units)
    assert abs(beta - 0.6) < 0.01
    assert all(abs(calibration.at_reference(laps, beta) - 0.8) < 0.01 for laps in units["step"])
    assert calibration.elasticity({"step": units["step"][:2]}) == 1.0


def test_clock_laps_carry_the_slowness_around_them():
    readings = iter([2.0, 4.0, 1.0])
    clock = calibration.Clock(lambda: next(readings) * calibration.NOMINAL_S)
    assert clock.lap()[1] == 3.0 and clock.lap()[1] == 2.5


def test_benchmark_file_matches_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {m["name"] for m in SPEC["end_to_end"]} == set(bench.END_TO_END_UNITS)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk-short",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
