"""Robustness: a killed training run leaves loadable files, and corrupted
checkpoints, annotation files, feature files and manifests either load or
raise a ValueError subclass.

The kill test signals only the child process it started. The corruption
tests mutate one small file per example (byte flips, truncations, splices,
runs of nested brackets up to 100k deep, and swaps of JSON values for
Infinity, NaN, 1e300, strings, bools or null);
max_examples keeps the whole file to a few seconds.
"""
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from momentspot.config import ModelConfig
from momentspot.data import (Annotation, load_dataset, load_manifest, save_dataset,
                             save_features)
from momentspot.fixtures import build_overfit_fixture
from momentspot.model import Model, bundle_for
from momentspot.training import AdamW, model_from_checkpoint, save_checkpoint

SRC = Path(__file__).resolve().parents[1] / "src"
DESK = ModelConfig.desk()
FIELDS = ("qid", "query", "vid", "duration", "relevant_windows", "saliency_levels",
          "relevant_clip_ids", "clip_len")
SWAPS = (math.inf, -math.inf, math.nan, 1e300, -1e300, 0, -1, 2.9, "3", "", "x", True, False,
         None, [], {})
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# -- killed runs ------------------------------------------------------------------

CHILD = """
import sys
from momentspot.config import ModelConfig
from momentspot.fixtures import build_overfit_fixture
from momentspot.training import train
out = sys.argv[1]
cfg = ModelConfig.desk(epochs=10000, eval_every=1, val_fraction=0.25)
train(cfg, build_overfit_fixture(out + "/features"), out + "/run", seed=0,
      feature_dir=out + "/features")
"""


def start_child(out):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.Popen([sys.executable, "-c", CHILD, str(out)], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


def wait_for(path, child, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not path.exists():
        if child.poll() is not None:
            raise AssertionError(f"training child exited early: {child.stderr.read().decode()}")
        if time.monotonic() > deadline:
            raise AssertionError(f"{path} did not appear within {timeout} s")
        time.sleep(0.005)


@pytest.mark.parametrize("seed", range(3))
def test_a_killed_run_leaves_a_loadable_checkpoint_and_whole_log_lines(tmp_path, seed):
    run = tmp_path / "run"
    child = start_child(tmp_path)
    try:
        wait_for(run / "last.ckpt", child)
        # a seeded moment within the first few epochs: saves, validations and steps alike
        time.sleep(float(np.random.default_rng(seed).uniform(0.0, 0.6)))
        assert child.poll() is None, child.stderr.read().decode()
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait()
        child.stderr.close()
    assert child.returncode == -signal.SIGKILL
    model, meta = model_from_checkpoint(run / "last.ckpt")
    assert np.isfinite(model.store.arena).all()
    if (run / "best.ckpt").exists():
        model_from_checkpoint(run / "best.ckpt")
    log = (run / "train_log.jsonl").read_text(encoding="utf-8")
    assert log == "" or log.endswith("\n")
    entries = [json.loads(line) for line in log.splitlines()]
    assert all(entry["split"] in ("train", "val") for entry in entries)
    assert meta["epochs_done"] <= sum(entry["split"] == "train" for entry in entries)


# -- byte-level corruption ----------------------------------------------------------


@st.composite
def corruptions(draw, size, hot):
    """A list of edits of a size-byte file; positions favour its first hot bytes."""
    position = st.one_of(st.integers(0, min(hot, size) - 1), st.integers(0, size - 1))
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("flip", "truncate", "splice")))
        if kind == "flip":
            edits.append(("flip", draw(position), draw(st.integers(1, 255))))
        elif kind == "truncate":
            edits.append(("truncate", draw(position)))
        else:
            edits.append(("splice", draw(position), draw(position), draw(st.integers(1, 64))))
    return edits


def corrupt(data, edits):
    data = bytearray(data)
    for edit in edits:
        if not data:
            break
        kind, at = edit[0], edit[1] % len(data)
        if kind == "flip":
            data[at] ^= edit[2]
        elif kind == "truncate":
            del data[at:]
        else:  # copy a chunk from one place of the file into another
            src, length = edit[2] % len(data), edit[3]
            data[at:at] = data[src:src + length]
    return bytes(data)


@pytest.fixture(scope="module")
def desk_checkpoint(tmp_path_factory):
    model = Model(DESK, seed=0)
    path = tmp_path_factory.mktemp("ckpt") / "desk.ckpt"
    save_checkpoint(path, model, AdamW(model.named_parameters(), lr=1e-3), epoch=3, best_metric=0.5)
    return path.read_bytes()


@SETTINGS
@given(data=st.data())
def test_a_corrupted_checkpoint_loads_or_raises_a_value_error(tmp_path, desk_checkpoint, data):
    head = 12 + int.from_bytes(desk_checkpoint[8:12], "little")
    path = tmp_path / "bad.ckpt"
    path.write_bytes(corrupt(desk_checkpoint, data.draw(corruptions(len(desk_checkpoint),
                                                                      head + 64))))
    try:
        model, _ = model_from_checkpoint(path)
    except ValueError:
        return
    assert model.store.arena.size == Model(model.cfg, seed=None).store.arena.size


@pytest.fixture(scope="module")
def fixture_items():
    return build_overfit_fixture()[:3]


@SETTINGS
@given(data=st.data())
def test_a_corrupted_feature_file_loads_or_raises_a_value_error(tmp_path, fixture_items, data):
    ann = fixture_items[0]
    (kind, dim), = DESK.video_parts
    path = tmp_path / f"{ann.vid}.{kind}.vlft"
    save_features(path, np.random.default_rng(0).normal(size=(ann.num_clips, dim)))
    clean = path.read_bytes()
    path.write_bytes(corrupt(clean, data.draw(corruptions(len(clean), 16))))
    try:
        bundle = bundle_for(ann, DESK, feature_dir=tmp_path)
    except ValueError:
        return
    assert bundle.video.shape == (ann.num_clips, dim) and np.isfinite(bundle.video).all()


# -- annotation files ---------------------------------------------------------------


def assert_loaded_as_written(anns, rows):
    """Each loaded annotation holds exactly its row's values, in the types the
    format documents, and describes at least one clip."""
    assert len(anns) == len(rows)
    for ann, row in zip(anns, rows):
        assert type(ann.qid) is int and ann.qid == row["qid"]
        assert type(ann.query) is str and ann.query == row["query"]
        assert type(ann.vid) is str and ann.vid == row["vid"]
        for name in ("duration", "clip_len"):
            value = getattr(ann, name)
            assert type(value) is float and math.isfinite(value) and value > 0
            assert value == row.get(name, 2.0)
        for name in ("saliency_levels", "relevant_clip_ids"):
            assert all(type(x) is int for x in getattr(ann, name))
            assert getattr(ann, name) == row[name]
        assert ann.relevant_windows == row["relevant_windows"]
        assert ann.num_clips >= 1


def rows_of(anns, path):
    save_dataset(anns, path)
    return [json.loads(line) for line in path.read_text().splitlines()]


def write_rows(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


@st.composite
def swapped_rows(draw, rows, fields):
    """rows with one value swapped: a whole field or one element of a list field."""
    rows = json.loads(json.dumps(rows))
    row = rows[draw(st.integers(0, len(rows) - 1))]
    name = draw(st.sampled_from(fields))
    value = draw(st.sampled_from(SWAPS))
    target = row
    while isinstance(target[name], list) and target[name] and draw(st.booleans()):
        target, name = target[name], draw(st.integers(0, len(target[name]) - 1))
    target[name] = value
    return rows


@SETTINGS
@given(data=st.data())
def test_an_annotation_field_swap_loads_as_written_or_raises_a_value_error(tmp_path, fixture_items,
                                                                          data):
    path = tmp_path / "items.jsonl"
    rows = data.draw(swapped_rows(rows_of(fixture_items, path), FIELDS))
    write_rows(path, rows)
    try:
        anns = load_dataset(path)
    except ValueError as err:
        assert str(err).startswith(f"{path}:")
        return
    assert_loaded_as_written(anns, rows)


@SETTINGS
@given(data=st.data())
def test_a_corrupted_annotation_file_loads_or_raises_a_value_error(tmp_path, fixture_items, data):
    path = tmp_path / "items.jsonl"
    save_dataset(fixture_items, path)
    clean = path.read_bytes()
    path.write_bytes(corrupt(clean, data.draw(corruptions(len(clean), len(clean)))))
    try:
        load_dataset(path)
    except ValueError:
        pass


def reproduced_row(**changes):
    """A valid annotation row, with the given fields replaced."""
    row = {"qid": 0, "query": "a query", "vid": "v0", "duration": 8.0,
           "relevant_windows": [[2.0, 6.0]], "saliency_levels": [0, 3, 2, 0],
           "relevant_clip_ids": [1, 2], "clip_len": 2.0}
    row.update(changes)
    return row


@pytest.mark.parametrize("row", [
    reproduced_row(duration=math.inf),
    reproduced_row(clip_len=math.inf, saliency_levels=[], relevant_clip_ids=[]),
    reproduced_row(duration=1e-300, relevant_windows=[[0.0, 1e-300]], saliency_levels=[],
                   relevant_clip_ids=[], clip_len=1e300),
    reproduced_row(duration=1e300, relevant_windows=[[0.0, 1.0]], relevant_clip_ids=[0],
                   clip_len=1e-300),
    reproduced_row(query=123),
    reproduced_row(vid=["v0"]),
    reproduced_row(saliency_levels=[0, "3", 2.9, 0]),
    reproduced_row(relevant_clip_ids=[1, 2.7]),
    reproduced_row(qid=True),
    reproduced_row(relevant_windows=[[2, "6"]]),
    reproduced_row(saliency_levels="0320"),
    reproduced_row(duration=10 ** 400),
], ids=["inf-duration", "inf-clip-len", "no-clip", "unbounded-clips", "int-query", "list-vid",
        "str-and-float-levels", "float-clip-id", "bool-qid", "str-window-end", "str-levels",
        "huge-int-duration"])
def test_an_unusable_annotation_is_rejected_with_its_line(tmp_path, row):
    path = tmp_path / "items.jsonl"
    path.write_text(json.dumps(reproduced_row(qid=7)) + "\n" + json.dumps(row) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "):
        load_dataset(path)


def test_the_reproduced_row_itself_loads(tmp_path):
    path = tmp_path / "items.jsonl"
    write_rows(path, [reproduced_row()])
    assert_loaded_as_written(load_dataset(path), [reproduced_row()])


def test_python_numbers_of_every_kind_still_validate():
    ann = Annotation(qid=np.int64(2), query="q", vid="v", duration=np.float32(8.0),
                     relevant_windows=[(2, 6.0)], saliency_levels=[0, 3, np.int64(2), 0],
                     relevant_clip_ids=[1, 2], clip_len=2)
    assert ann.validate() is ann


# -- manifests --------------------------------------------------------------------


MANIFEST = [{"vid": "a", "duration": 30.0}, {"vid": "b", "duration": 12.5}]


def assert_manifest_loaded_as_written(entries, rows):
    assert len(entries) == len(rows)
    for (vid, duration), row in zip(entries, rows):
        assert type(vid) is str and vid == row["vid"]
        assert type(duration) is float and duration == row["duration"]
        assert 0 < duration / DESK.clip_len <= DESK.max_clips


@SETTINGS
@given(data=st.data())
def test_a_manifest_field_swap_loads_as_written_or_raises_a_value_error(tmp_path, data):
    path = tmp_path / "m.jsonl"
    rows = data.draw(swapped_rows(MANIFEST, ("vid", "duration")))
    write_rows(path, rows)
    try:
        entries = load_manifest(path, DESK.clip_len, DESK.max_clips)
    except ValueError as err:
        assert str(err).startswith(f"{path}:")
        return
    assert_manifest_loaded_as_written(entries, rows)


@SETTINGS
@given(data=st.data())
def test_a_corrupted_manifest_loads_or_raises_a_value_error(tmp_path, data):
    path = tmp_path / "m.jsonl"
    write_rows(path, MANIFEST)
    clean = path.read_bytes()
    path.write_bytes(corrupt(clean, data.draw(corruptions(len(clean), len(clean)))))
    try:
        load_manifest(path, DESK.clip_len, DESK.max_clips)
    except ValueError:
        pass


@pytest.mark.parametrize("row", [
    {"vid": None, "duration": 12.0},
    {"vid": 7, "duration": 12.0},
    {"vid": "a", "duration": "12"},
    {"vid": "a", "duration": math.inf},
    {"vid": "a", "duration": math.nan},
    {"vid": "a", "duration": 1e300},
    {"vid": "a", "duration": True},
], ids=["null-vid", "int-vid", "str-duration", "inf-duration", "nan-duration", "huge-duration",
        "bool-duration"])
def test_an_unusable_manifest_row_is_rejected_with_its_line(tmp_path, row):
    path = tmp_path / "m.jsonl"
    write_rows(path, [MANIFEST[0], row])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "):
        load_manifest(path, DESK.clip_len, DESK.max_clips)


# -- nested brackets ------------------------------------------------------------------

# depths of a run of nested brackets: shallow, just past the interpreter's
# recursion limit (where json.loads raises RecursionError), and far past it
DEPTHS = st.sampled_from((1, 64, 1000, 100_000))


def nest(data, at, depth):
    """data with depth balanced brackets inserted where the JSON value or the
    line that byte at is in starts."""
    at = max(data.rfind(b":", 0, at), data.rfind(b"\n", 0, at)) + 1
    return data[:at] + b"[" * depth + b"]" * depth + data[at:]


@pytest.mark.parametrize("name", ["items.jsonl", "m.jsonl", "desk.ckpt"])
@SETTINGS
@given(data=st.data())
def test_nested_brackets_load_or_raise_a_value_error_naming_the_file(tmp_path, fixture_items,
                                                                     desk_checkpoint, name, data):
    path = tmp_path / name
    if name == "items.jsonl":
        save_dataset(fixture_items, path)
        clean, load = path.read_bytes(), load_dataset
    elif name == "m.jsonl":
        write_rows(path, MANIFEST)
        clean, load = path.read_bytes(), lambda p: load_manifest(p, DESK.clip_len, DESK.max_clips)
    else:  # a checkpoint's JSON is its header
        clean, load = desk_checkpoint, model_from_checkpoint
    end = 12 + int.from_bytes(clean[8:12], "little") if name == "desk.ckpt" else len(clean)
    path.write_bytes(nest(clean, data.draw(st.integers(0, end - 1)), data.draw(DEPTHS)))
    try:
        load(path)
    except ValueError as err:
        assert str(err).startswith(f"{path}:")
