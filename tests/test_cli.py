import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from momentspot import training
from momentspot.cli import main
from momentspot.data import load_dataset
from momentspot.metrics import save_predictions
from momentspot.training import evaluate_model, model_from_checkpoint

from conftest import tiny_config

SRC = Path(__file__).resolve().parents[1] / "src"


def write_manifest(path, durations):
    with open(path, "w") as fh:
        for i, dur in enumerate(durations):
            fh.write(json.dumps({"vid": f"clip{i}", "duration": dur}) + "\n")


def cli_config(tmp_path, **overrides):
    cfg = tiny_config(video_parts=(("clip_v", 8),), text_parts=(("clip_t", 6),),
                      encoder_layers=1, decoder_layers=1, epochs=1, batch_size=4,
                      **overrides)
    path = tmp_path / "config.json"
    cfg.to_json(path)
    return path


class TestDatagen:
    def test_annotation_count_formula(self, tmp_path, capsys):
        durations = [12.0, 25.0, 10.0, 7.5, 31.0]
        manifest = tmp_path / "manifest.jsonl"
        write_manifest(manifest, durations)
        out = tmp_path / "data"
        rc = main(["datagen", "--data", str(manifest), "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        want = sum(math.ceil(d / 10.0) for d in durations)
        assert summary["annotations"] == want
        anns = load_dataset(summary["path"])
        assert len(anns) == want
        assert [a.qid for a in anns] == list(range(want))

    def test_explicit_jsonl_path(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.jsonl"
        write_manifest(manifest, [10.0])
        out = tmp_path / "items.jsonl"
        rc = main(["datagen", "--data", str(manifest), "--out", str(out)])
        assert rc == 0
        assert out.exists()

    def test_datagen_is_deterministic(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.jsonl"
        write_manifest(manifest, [22.0])
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["datagen", "--data", str(manifest), "--out", str(a)])
        main(["datagen", "--data", str(manifest), "--out", str(b)])
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize("duration", [1e300, 75 * 2.0 + 0.5])
    def test_a_video_over_max_clips_is_refused_before_generating(self, tmp_path, capsys, duration):
        manifest = tmp_path / "manifest.jsonl"
        write_manifest(manifest, [12.0, duration])  # the default config: 75 clips of 2 s
        out = tmp_path / "items.jsonl"
        start = time.perf_counter()
        assert main(["datagen", "--data", str(manifest), "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert not out.exists()
        err = capsys.readouterr().err
        assert re.fullmatch(f"momentspot datagen: {re.escape(str(manifest))}:2: .*max_clips=75.*\n", err)


class TestBadInputIsOneLine:
    """A ParseError, ValidationError, ConfigError or a missing input file ends
    the process with one `momentspot <command>: <message>` line on stderr and
    exit code 2."""

    def run(self, *argv):
        return subprocess.run([sys.executable, "-m", "momentspot", *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)

    @pytest.mark.parametrize("row, error", [
        ('{"vid": "a", "duration": 1e300}', ".*max_clips=75.*"),  # a ValidationError
        ('{"vid": "a"}', r"missing fields \['duration'\]"),  # a ParseError
    ])
    def test_a_bad_manifest(self, tmp_path, row, error):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(row + "\n")
        proc = self.run("datagen", "--data", str(manifest), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert re.fullmatch(f"momentspot datagen: {re.escape(str(manifest))}:1: {error}\n",
                            proc.stderr)

    def test_a_bad_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"d_model": 32}))
        proc = self.run("train", "--data", str(tmp_path / "none.jsonl"), "--out", str(tmp_path),
                        "--config", str(config))
        assert proc.returncode == 2
        assert proc.stderr == "momentspot train: unknown config field 'd_model'\n"

    @pytest.mark.parametrize("clip_len", [0, -2.0])
    def test_a_config_with_a_bad_clip_len(self, tmp_path, clip_len):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"vid": "a", "duration": 10.0}\n')
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"clip_len": clip_len}))
        proc = self.run("datagen", "--data", str(manifest), "--out", str(tmp_path / "o"),
                        "--config", str(config))
        assert proc.returncode == 2
        assert proc.stderr == \
            f"momentspot datagen: clip_len must be finite and > 0, got {clip_len}\n"

    def test_eval_without_a_checkpoint(self, tmp_path):
        proc = self.run("eval", "--data", str(tmp_path / "x.jsonl"), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "momentspot eval: eval requires --init-from <checkpoint>\n"

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "MISSING"],
        ["train", "--data", "DATA", "--config", "MISSING"],
        ["eval", "--data", "DATA", "--init-from", "MISSING"],
        ["datagen", "--data", "MISSING"],
    ], ids=["train-data", "train-config", "eval-checkpoint", "datagen-data"])
    def test_a_missing_input_file(self, tmp_path, argv):
        data = tmp_path / "data.jsonl"
        data.write_text('{"vid": "a", "duration": 10.0}\n')
        missing = tmp_path / "nope"
        paths = {"DATA": str(data), "MISSING": str(missing)}
        proc = self.run(*(paths.get(arg, arg) for arg in argv), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == \
            f"momentspot {argv[0]}: [Errno 2] No such file or directory: {str(missing)!r}\n"


class TestParser:
    @pytest.mark.parametrize("argv", [
        ["train", "--device", "cpu"],
        ["eval", "--seed", "1"],
        ["datagen", "--seed", "1"],
        ["datagen", "--init-from", "x.ckpt"],
        ["eval", "--config", "config.json"],
    ])
    def test_flags_a_subcommand_does_not_read_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--data", "in.jsonl", "--out", "out"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestTrainEval:
    @pytest.fixture
    def dataset(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.jsonl"
        write_manifest(manifest, [20.0, 16.0, 24.0])
        data = tmp_path / "items.jsonl"
        main(["datagen", "--data", str(manifest), "--out", str(data)])
        capsys.readouterr()
        return data

    def test_train_then_eval(self, tmp_path, capsys, monkeypatch, dataset):
        config = cli_config(tmp_path)
        run_dir = tmp_path / "run"
        rc = main(["train", "--config", str(config), "--data", str(dataset),
                   "--out", str(run_dir), "--seed", "1"])
        captured = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        summary = json.loads(captured[-1])
        assert summary["epochs_run"] == 1
        assert not summary["diverged"]
        ckpt = summary["last_checkpoint"]
        assert (run_dir / "train_log.jsonl").exists()

        eval_dir = tmp_path / "eval"
        heads = []
        read_head = training._read_head
        monkeypatch.setattr(training, "_read_head", lambda *a: heads.append(a) or read_head(*a))
        rc = main(["eval", "--data", str(dataset), "--out", str(eval_dir), "--init-from", ckpt])
        assert rc == 0
        assert len(heads) == 1  # the checkpoint is read once
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(report) == {"r1_050", "r1_070", "map_050", "map_075", "map_avg",
                               "hd_map", "hit_at_1", "miou"}
        assert json.loads((eval_dir / "report.json").read_text()) == report
        predictions = (eval_dir / "predictions.jsonl").read_bytes()
        assert len(predictions.splitlines()) == len(load_dataset(dataset))
        # the bytes of evaluate_model's predictions on the same checkpoint and data
        model, _ = model_from_checkpoint(ckpt)
        _, want = evaluate_model(model, load_dataset(dataset, default_clip_len=model.cfg.clip_len))
        save_predictions(want, tmp_path / "want.jsonl")
        assert predictions == (tmp_path / "want.jsonl").read_bytes()

    def test_eval_requires_checkpoint(self, tmp_path, capsys, dataset):
        rc = main(["eval", "--data", str(dataset), "--out", str(tmp_path / "eval")])
        assert rc == 2

    def test_eval_reads_clip_len_default_from_the_checkpoint(self, tmp_path, capsys):
        config = cli_config(tmp_path, clip_len=1.0)
        manifest = tmp_path / "manifest.jsonl"
        write_manifest(manifest, [10.0, 12.0])
        data = tmp_path / "items.jsonl"
        main(["datagen", "--config", str(config), "--data", str(manifest), "--out", str(data)])
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(run_dir)]) == 0
        rows = [json.loads(line) for line in data.read_text().splitlines()]
        assert {row.pop("clip_len") for row in rows} == {1.0}
        bare = tmp_path / "bare.jsonl"
        bare.write_text("".join(json.dumps(row) + "\n" for row in rows))
        capsys.readouterr()
        rc = main(["eval", "--data", str(bare), "--out", str(tmp_path / "eval"),
                   "--init-from", str(run_dir / "last.ckpt")])
        assert rc == 0
        predictions = (tmp_path / "eval" / "predictions.jsonl").read_text().splitlines()
        assert [len(json.loads(line)["pred_saliency_scores"]) for line in predictions] == \
            [math.ceil(row["duration"] / 1.0) for row in rows]

    def test_train_with_explicit_val_data(self, tmp_path, capsys, dataset):
        config = cli_config(tmp_path, eval_every=1)
        rc = main(["train", "--config", str(config), "--data", str(dataset),
                   "--out", str(tmp_path / "run"), "--val-data", str(dataset)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert not math.isnan(summary["best_metric"])

    def test_checkpoint_records_config(self, tmp_path, capsys, dataset):
        config = cli_config(tmp_path)
        main(["train", "--config", str(config), "--data", str(dataset),
              "--out", str(tmp_path / "run"), "--seed", "1"])
        capsys.readouterr()
        _, meta = model_from_checkpoint(tmp_path / "run" / "last.ckpt")
        assert meta["config"]["hidden_dim"] == 16
        assert meta["config"]["video_parts"] == [["clip_v", 8]]
