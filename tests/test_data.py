import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentspot import data as d
from momentspot.data import (Annotation, ParseError,
                             ValidationError, clips_overlapping_windows,
                             default_captioner,
                             default_embedder, encode_item, generate_synthetic,
                             load_dataset, load_manifest,
                             pseudo_encode, records_to_annotations,
                             save_dataset, save_features, stable_hash,
                             synthetic_level, text_token_count)
from momentspot.config import ModelConfig
from momentspot.fixtures import build_overfit_fixture, planted_video_features
from momentspot.model import bundle_for
import composed


def make_annotation(**overrides):
    base = dict(
        qid=3,
        query="person walks a dog",
        vid="vid_a",
        duration=20.0,
        relevant_windows=[[4.0, 10.0]],
        saliency_levels=[0, 0, 2, 3, 4, 0, 0, 0, 0, 0],
        relevant_clip_ids=[2, 3, 4],
        clip_len=2.0,
    )
    base.update(overrides)
    return Annotation(**base)


class TestAnnotationValidation:
    def test_valid_passes(self):
        assert make_annotation().validate() is not None

    def test_num_clips_rounds_up(self):
        assert make_annotation(duration=19.0, saliency_levels=[0] * 10).num_clips == 10
        assert make_annotation().num_clips == 10

    @pytest.mark.parametrize("overrides,field", [
        (dict(qid=-1), "qid"),
        (dict(query=""), "query"),
        (dict(vid=""), "vid"),
        (dict(duration=0.0), "duration"),
        (dict(relevant_windows=[]), "relevant_windows"),
        (dict(relevant_windows=[[10.0, 4.0]]), "relevant_windows"),
        (dict(relevant_windows=[[4.0, 25.0]]), "relevant_windows"),
        (dict(saliency_levels=[0] * 9), "saliency_levels"),
        (dict(saliency_levels=[0, 0, 2, 3, 5, 0, 0, 0, 0, 0]), "saliency_levels"),
        (dict(saliency_levels=[0, 0, 2.0, 3, 4, 0, 0, 0, 0, 0]), "saliency_levels"),
        (dict(relevant_clip_ids=[2, 3]), "relevant_clip_ids"),
        (dict(relevant_clip_ids=[2, 3, 4, 5]), "relevant_clip_ids"),
    ])
    def test_each_bad_field_is_named(self, overrides, field):
        with pytest.raises(ValidationError) as err:
            make_annotation(**overrides).validate()
        assert field in str(err.value)
        assert "qid" in str(err.value)


class TestClipOverlap:
    def test_positive_overlap_only(self):
        # window touching a clip boundary does not claim the neighbor
        assert clips_overlapping_windows([[4.0, 8.0]], 20.0, 2.0) == [2, 3]
        assert clips_overlapping_windows([[4.0, 8.1]], 20.0, 2.0) == [2, 3, 4]
        assert clips_overlapping_windows([[3.9, 8.0]], 20.0, 2.0) == [1, 2, 3]

    def test_multiple_windows_merge(self):
        got = clips_overlapping_windows([[0.0, 2.0], [9.0, 11.0]], 20.0, 2.0)
        assert got == [0, 4, 5]

    def test_final_partial_clip(self):
        assert clips_overlapping_windows([[18.0, 19.0]], 19.0, 2.0) == [9]

    @given(st.floats(0.5, 60.0), st.floats(0.0, 59.0), st.floats(0.1, 30.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_bruteforce(self, duration, start, width):
        start = min(start, duration - 0.25)
        end = min(duration, start + max(width, 0.1))
        if not (0 <= start < end <= duration):
            return
        clip_len = 2.0
        n = int(math.ceil(duration / clip_len))
        ref = [i for i in range(n)
               if i * clip_len < end and min((i + 1) * clip_len, duration) > start]
        assert clips_overlapping_windows([[start, end]], duration, clip_len) == ref


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        anns = [make_annotation(), make_annotation(qid=4, query="a cat jumps")]
        path = tmp_path / "items.jsonl"
        save_dataset(anns, path)
        back = load_dataset(path)
        assert [a.qid for a in back] == [3, 4]
        assert back[0].relevant_windows == [[4.0, 10.0]]
        assert back[1].query == "a cat jumps"

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"qid": 1}\n{not json\n')
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert ":1:" in str(err.value)  # missing fields reported first

    def test_bad_json_line_number(self, tmp_path):
        anns = [make_annotation()]
        path = tmp_path / "mixed.jsonl"
        save_dataset(anns, path)
        with open(path, "a") as fh:
            fh.write("{oops\n")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert ":2:" in str(err.value)

    def test_validation_error_carries_line_number(self, tmp_path):
        ann = make_annotation()
        ann.saliency_levels = [9] * 10
        path = tmp_path / "bad.jsonl"
        save_dataset([ann], path)
        with pytest.raises(ValidationError) as err:
            load_dataset(path)
        assert ":1:" in str(err.value)

    @pytest.mark.parametrize("field, value, cause", [
        ("relevant_windows", [[4.0, 10.0, 0.5]], "ValueError"),  # a 3-number window
        ("duration", None, "TypeError"),
    ])
    def test_bad_field_value_is_a_parse_error_with_its_line(self, tmp_path, field, value, cause):
        path = tmp_path / "bad.jsonl"
        save_dataset([make_annotation(), make_annotation(qid=4)], path)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        obj[field] = value
        path.write_text(lines[0] + "\n\n" + json.dumps(obj) + "\n")  # blank lines still count
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:3: bad value \\({cause}"):
            load_dataset(path)

    def test_duplicate_qid_carries_its_line_number(self, tmp_path):
        path = tmp_path / "twice.jsonl"
        save_dataset([make_annotation(), make_annotation(qid=4), make_annotation(vid="vid_b")], path)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:3: duplicate qid 3$"):
            load_dataset(path)

    def test_non_object_line_is_a_parse_error(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text("7\n")
        with pytest.raises(ParseError, match=":1: expected a JSON object, got int"):
            load_dataset(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        save_dataset([make_annotation()], path)
        text = path.read_text()
        path.write_text("\n" + text + "\n\n")
        assert len(load_dataset(path)) == 1


class TestPseudoEncode:
    def test_formula(self):
        kind, ident = "clip_v", "vid_a"
        h = stable_hash(kind, ident) % 1000
        got = pseudo_encode(kind, ident, 3, 4)
        for i in range(3):
            for j in range(4):
                assert got[i, j] == math.sin(h + i * 4 + j) * 0.5

    def test_zero_hash_bucket(self):
        # these ids land exactly on h % 1000 == 0, exercising the offset-free row
        for kind, ident in (("clip_v", "probe489"), ("clip_t", "probe458")):
            assert stable_hash(kind, ident) % 1000 == 0
            got = pseudo_encode(kind, ident, 2, 3)
            expected = np.sin(np.arange(6, dtype=np.float64)).reshape(2, 3) * 0.5
            np.testing.assert_array_equal(got, expected)

    def test_kind_changes_output(self):
        a = pseudo_encode("clip_v", "x", 2, 4)
        b = pseudo_encode("slowfast", "x", 2, 4)
        assert not np.array_equal(a, b)

    def test_deterministic(self):
        np.testing.assert_array_equal(pseudo_encode("blip_t", "q", 5, 7),
                                      pseudo_encode("blip_t", "q", 5, 7))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            pseudo_encode("resnet", "x", 2, 2)

    def test_bounded(self):
        arr = pseudo_encode("clip_v", "anything", 10, 10)
        assert np.abs(arr).max() <= 0.5


class TestFeatureFiles:
    def test_round_trip_exact_f32(self, tmp_path, rng):
        arr = rng.normal(size=(6, 5)).astype(np.float32)
        path = tmp_path / "a.vlft"
        save_features(path, arr)
        back = d._read_features(path)
        assert back.dtype == np.dtype("<f4")
        np.testing.assert_array_equal(back, arr)
        assert path.stat().st_size == 16 + 6 * 5 * 4

    def test_missing_file_reads_as_none(self, tmp_path):
        assert d._read_features(tmp_path / "absent.vlft") is None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.vlft"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValueError) as err:
            d._read_features(path)
        assert "magic" in str(err.value)

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "short.vlft"
        save_features(path, rng.normal(size=(4, 4)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError):
            d._read_features(path)


class TestEncodeItem:
    VIDEO_PARTS = (("clip_v", 6), ("slowfast", 4))
    TEXT_PARTS = (("clip_t", 5),)

    def encode(self, ann, feature_dir=None, max_text_len=8):
        return encode_item(ann, self.VIDEO_PARTS, self.TEXT_PARTS, max_text_len,
                           feature_dir=feature_dir, dtype=np.float64)

    def test_pseudo_path_shapes(self):
        ann = make_annotation()
        bundle = self.encode(ann)
        assert bundle.video.shape == (10, 10)
        assert bundle.text.shape == (4, 5)
        assert bundle.video_mask.all() and bundle.text_mask.all()
        np.testing.assert_array_equal(bundle.video[:, :6], pseudo_encode("clip_v", "vid_a", 10, 6))

    def test_text_length_rules(self):
        short = make_annotation(query="hi")
        assert self.encode(short).text.shape[0] == 1
        long = make_annotation(query=" ".join(["word"] * 40))
        assert self.encode(long).text.shape[0] == 8
        assert text_token_count("", 8) == 1

    def test_feature_file_override_and_fallback(self, tmp_path, rng):
        ann = make_annotation()
        custom = rng.normal(size=(10, 6)).astype(np.float32)
        save_features(tmp_path / "vid_a.clip_v.vlft", custom)
        bundle = self.encode(ann, feature_dir=tmp_path)
        np.testing.assert_array_equal(bundle.video[:, :6], custom.astype(np.float64))
        # slowfast part had no file; falls back to pseudo features
        np.testing.assert_array_equal(bundle.video[:, 6:], pseudo_encode("slowfast", "vid_a", 10, 4))

    def test_wrong_shape_file_is_an_error(self, tmp_path, rng):
        ann = make_annotation()
        save_features(tmp_path / "vid_a.clip_v.vlft", rng.normal(size=(10, 7)))
        with pytest.raises(ValueError):
            self.encode(ann, feature_dir=tmp_path)

    def test_non_finite_file_is_an_error_naming_qid_and_file(self, tmp_path):
        ann = make_annotation()
        feats = np.ones((4, 5))  # qid 3's query has 4 tokens
        feats[1, 2] = np.nan
        save_features(tmp_path / "qid3.clip_t.vlft", feats)
        with pytest.raises(ValueError, match=r"qid 3: .*qid3\.clip_t\.vlft holds non-finite"):
            self.encode(ann, feature_dir=tmp_path)


class TestBundlesWrittenOnce:
    """encode_item writes each part into its columns of one array in the
    requested dtype; the bundle is bitwise the float64 concatenation of the
    parts, cast once, that it replaced (composed.encode_item)."""

    VIDEO_PARTS = (("clip_v", 6), ("slowfast", 4), ("blip_v", 3))
    TEXT_PARTS = (("clip_t", 5), ("blip_t", 2))
    FILES = {
        "pseudo-only": (),
        "file-only": ("vid_a.clip_v", "vid_a.slowfast", "vid_a.blip_v", "qid3.clip_t", "qid3.blip_t"),
        "mixed": ("vid_a.slowfast", "qid3.clip_t"),
    }

    @pytest.mark.parametrize("block", [d.PSEUDO_BLOCK, 12])  # 12: blocks of 2-6 rows
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("files", sorted(FILES))
    def test_equals_the_concatenate_then_cast_oracle(self, files, dtype, block, tmp_path, rng,
                                                     monkeypatch):
        monkeypatch.setattr(d, "PSEUDO_BLOCK", block)
        ann = make_annotation()  # 10 clips, 4 tokens
        dims = dict(self.VIDEO_PARTS + self.TEXT_PARTS)
        for name in self.FILES[files]:
            rows = 4 if name.startswith("qid") else 10
            save_features(tmp_path / f"{name}.vlft", rng.normal(size=(rows, dims[name.split(".")[1]])))
        got = encode_item(ann, self.VIDEO_PARTS, self.TEXT_PARTS, 8, feature_dir=tmp_path,
                          dtype=dtype)
        want = composed.encode_item(ann, self.VIDEO_PARTS, self.TEXT_PARTS, 8, tmp_path, dtype)
        assert got.video.dtype == got.text.dtype == np.dtype(dtype)
        assert got.video.tobytes() == want.video.tobytes()
        assert got.text.tobytes() == want.text.tobytes()
        np.testing.assert_array_equal(got.video_mask, want.video_mask)
        np.testing.assert_array_equal(got.text_mask, want.text_mask)

    def test_each_part_is_opened_once_without_a_stat(self, tmp_path, rng, monkeypatch):
        # a feature_dir holding some parts: the missing ones are pseudo-encoded
        # because their open fails, not because a stat said so
        ann = make_annotation()
        save_features(tmp_path / "vid_a.slowfast.vlft", rng.normal(size=(10, 4)))
        want = composed.encode_item(ann, self.VIDEO_PARTS, self.TEXT_PARTS, 8, tmp_path, np.float32)
        missing_dir = tmp_path / "absent"
        pseudo = composed.encode_item(ann, self.VIDEO_PARTS, self.TEXT_PARTS, 8, None, np.float32)

        def no_stat(path):
            raise AssertionError(f"stat of {path}")

        monkeypatch.setattr(Path, "exists", no_stat)
        for feature_dir, bundle in ((tmp_path, want), (missing_dir, pseudo)):
            got = encode_item(ann, self.VIDEO_PARTS, self.TEXT_PARTS, 8, feature_dir=feature_dir,
                              dtype=np.float32)
            assert got.video.tobytes() == bundle.video.tobytes()
            assert got.text.tobytes() == bundle.text.tobytes()

    def test_full_preset_float32_peak_is_below_the_concatenate_path(self):
        cfg = ModelConfig()  # 3584-wide video, 1280-wide text, float32
        ann = make_annotation(duration=150.0, saliency_levels=[0] * 75)
        peaks = []
        for build in (lambda: bundle_for(ann, cfg),
                      lambda: composed.encode_item(ann, cfg.video_parts, cfg.text_parts,
                                                   cfg.max_text_len, None, cfg.dtype)):
            tracemalloc.start()
            try:
                bundle = build()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert bundle.video.shape == (75, cfg.video_dim)
        new, old = peaks
        assert new < old, peaks


class TestSyntheticGeneration:
    def test_interval_count_formula(self):
        for duration in (1.0, 9.9, 10.0, 10.1, 25.0, 150.0, 73.3):
            recs = generate_synthetic(duration, default_captioner("v"), default_embedder("v"))
            assert len(recs) == math.ceil(duration / 10.0)

    def test_saliency_bounded(self):
        for vid in ("a", "b", "c"):
            recs = generate_synthetic(60.0, default_captioner(vid), default_embedder(vid))
            for rec in recs:
                assert all(-1.0 <= s <= 1.0 for s in rec.saliency)
                assert not rec.flagged

    def test_identical_embeddings_give_saliency_one(self):
        def embed(_x):
            return np.ones(4)

        recs = generate_synthetic(20.0, default_captioner("v"), embed)
        for rec in recs:
            assert all(abs(s - 1.0) < 1e-12 for s in rec.saliency)

    def test_zero_norm_embedding_flags_record(self):
        def embed(x):
            if isinstance(x, str):
                return np.ones(4)
            return np.zeros(4)

        recs = generate_synthetic(10.0, default_captioner("v"), embed)
        assert recs[0].flagged
        assert all(s == 0.0 for s in recs[0].saliency)

    def test_frames_are_half_second_ticks(self):
        assert d._interval_frames(0.0, 10.0) == [0.5 + i for i in range(10)]
        assert d._interval_frames(10.0, 13.0) == [10.5, 11.5, 12.5]
        # degenerate tail shorter than a tick spacing still yields its midpoint
        assert d._interval_frames(10.0, 10.4) == [10.2]

    def test_middle_frame_is_captioned(self):
        seen = []

        def captioner(t):
            seen.append(t)
            return f"cap@{t}"

        generate_synthetic(10.0, captioner, default_embedder("v"))
        assert seen == [5.5]

    def test_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_synthetic(0.0, default_captioner("v"), default_embedder("v"))


class TestSyntheticLevels:
    @pytest.mark.parametrize("cosine,level", [
        (-1.0, 0), (-0.9, 0), (-0.5, 1), (0.0, 2), (0.5, 3), (0.9, 4), (1.0, 4),
        (2.0, 4), (-2.0, 0),  # clamped outside [-1, 1]
    ])
    def test_mapping(self, cosine, level):
        assert synthetic_level(cosine) == level

    def test_records_to_annotations_levels(self):
        rec = d.SyntheticRecord(caption="c", interval=(0.0, 10.0),
                                saliency=[1.0, 1.0, 0.0, 0.0, -1.0, -1.0, 1.0, -1.0, 0.5, 0.5])
        anns = records_to_annotations("v", 10.0, [rec], clip_len=2.0)
        ann = anns[0]
        # frame pairs (0.5,1.5), (2.5,3.5), ... average into clip levels
        assert ann.saliency_levels == [4, 2, 0, 2, 3]
        assert ann.relevant_windows == [[0.0, 10.0]]
        assert ann.relevant_clip_ids == [0, 1, 2, 3, 4]

    def test_qid_offset_and_windows(self):
        recs = generate_synthetic(25.0, default_captioner("v"), default_embedder("v"))
        anns = records_to_annotations("v", 25.0, recs, qid_start=100)
        assert [a.qid for a in anns] == [100, 101, 102]
        assert [a.relevant_windows[0] for a in anns] == [[0.0, 10.0], [10.0, 20.0], [20.0, 25.0]]
        for ann in anns:
            ann.validate()


class TestManifest:
    def test_load(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"vid": "a", "duration": 30.0}\n{"vid": "b", "duration": 12.5}\n')
        assert load_manifest(path, 2.0, 75) == [("a", 30.0), ("b", 12.5)]

    def test_duplicate_vid_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"vid": "a", "duration": 30.0}\n{"vid": "a", "duration": 10.0}\n')
        with pytest.raises(ValidationError):
            load_manifest(path, 2.0, 75)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"vid": "a"}\n')
        with pytest.raises(ParseError):
            load_manifest(path, 2.0, 75)

    def test_bad_duration_is_a_parse_error_with_its_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"vid": "a", "duration": 30.0}\n{"vid": "b", "duration": "long"}\n')
        with pytest.raises(ParseError, match=":2: bad value \\(ValueError"):
            load_manifest(path, 2.0, 75)

    # neither a byte that is not UTF-8 (which the text-mode file iterator
    # raised as a bare UnicodeDecodeError) nor JSON nested past the recursion
    # limit (a RecursionError) escapes without its line
    @pytest.mark.parametrize("line, message", [
        (b'{"vid": "\xff", "duration": 12.0}', r"not UTF-8 \(invalid start byte at byte 9\)"),
        (b"[" * 100_000, r"invalid JSON \(nested too deeply\)"),
    ], ids=["non-utf8-byte", "nested-100k-deep"])
    def test_undecodable_line_is_a_parse_error_with_its_line(self, tmp_path, line, message):
        path = tmp_path / "m.jsonl"
        path.write_bytes(b'{"vid": "a", "duration": 30.0}\n' + line + b'\n{"vid": "b", "duration": 1.0}\n')
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:2: {message}$"):
            load_manifest(path, 2.0, 75)


class TestOverfitFixture:
    def test_feature_dir_is_created(self, tmp_path):
        feature_dir = tmp_path / "missing" / "features"
        anns = build_overfit_fixture(feature_dir=feature_dir)[:2]
        # the fixture is shaped for the desk preset: clip length, video part,
        # text width and token limit
        cfg = ModelConfig.desk()
        (kind, dim), = cfg.video_parts
        for ann in anns:
            video = composed.load_features(feature_dir / f"{ann.vid}.{kind}.vlft")
            assert ann.clip_len == cfg.clip_len
            assert video.shape == (ann.num_clips, dim)
            want = planted_video_features(ann.vid, ann.query, ann.saliency_levels, dim,
                                          cfg.text_dim, cfg.max_text_len)
            assert video.tobytes() == want.astype("<f4").astype(np.float64).tobytes()
            bundle = bundle_for(ann, cfg, feature_dir)
            assert bundle.text.shape == (text_token_count(ann.query, cfg.max_text_len),
                                         cfg.text_dim)
