import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentspot.metrics import (DEFAULT_IOU_THRESHOLDS, QueryPrediction,
                                compute_report, giou_1d, hd_map, iou_1d,
                                load_predictions, mean_ap, recall_at_1,
                                save_predictions, span_giou, span_iou)
from momentspot.data import ParseError
from test_data import make_annotation
import composed


# -- slow, deliberately naive reference implementations -----------------------


def ref_iou(a, b):
    gap = max(0.0, max(a[0], b[0]) - min(a[1], b[1]))
    union = (max(a[1], b[1]) - min(a[0], b[0])) - gap
    inter = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
    return inter / union if union > 0 else 0.0


def ref_detection_ap(preds, gts, thr):
    if not gts:
        return None
    order = sorted(range(len(preds)), key=lambda i: (-preds[i][2], i))
    matched = set()
    flags = []
    for i in order:
        cands = [(ref_iou(preds[i], g), j) for j, g in enumerate(gts)
                 if j not in matched and ref_iou(preds[i], g) >= thr]
        if cands:
            best = max(cands, key=lambda t: (t[0], -t[1]))
            matched.add(best[1])
            flags.append(True)
        else:
            flags.append(False)
    ap = 0.0
    for k, hit in enumerate(flags):
        if not hit:
            continue
        best_prec = 0.0
        for m in range(k, len(flags)):
            best_prec = max(best_prec, sum(flags[:m + 1]) / (m + 1))
        ap += best_prec / len(gts)
    return ap


def ref_mean_ap(preds_per_q, gts_per_q, thresholds):
    per_thr = {}
    for thr in thresholds:
        aps = [ref_detection_ap(p, g, thr) for p, g in zip(preds_per_q, gts_per_q)]
        aps = [a for a in aps if a is not None]
        per_thr[thr] = sum(aps) / len(aps) if aps else 0.0
    return per_thr, sum(per_thr.values()) / len(per_thr)


def ref_ranking_ap(scores, positives):
    idx = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    pos_ranks = [r for r, i in enumerate(idx, start=1) if positives[i]]
    if not pos_ranks:
        return None
    precs = [sum(1 for i in idx[:r] if positives[i]) / r for r in pos_ranks]
    return sum(precs) / len(pos_ranks)


def ref_recall_at_1(preds_per_q, gts_per_q, thr):
    hits = 0
    for preds, gts in zip(preds_per_q, gts_per_q):
        if not preds or not gts:
            continue
        best = min(range(len(preds)), key=lambda i: (-preds[i][2], i))
        if any(ref_iou(preds[best], g) >= thr for g in gts):
            hits += 1
    return hits / len(gts_per_q)


def highlight_report(scores_per_query, levels_per_query):
    """compute_report of one windowless prediction per query, scored against its levels."""
    preds = [QueryPrediction(qid=i, windows=[], saliency=s) for i, s in enumerate(scores_per_query)]
    anns = [make_annotation(qid=i, saliency_levels=lv) for i, lv in enumerate(levels_per_query)]
    return compute_report(preds, anns)


def random_instance(rng, max_queries=5, max_preds=3, max_gt=3):
    n_q = int(rng.integers(1, max_queries + 1))
    preds_per_q, gts_per_q = [], []
    score_pool = [0.1, 0.25, 0.25, 0.5, 0.9]  # repeated values force tie handling
    for _ in range(n_q):
        gts = []
        for _ in range(int(rng.integers(0, max_gt + 1))):
            s = float(rng.uniform(0, 90))
            gts.append([s, s + float(rng.uniform(1, 30))])
        preds = []
        for _ in range(int(rng.integers(0, max_preds + 1))):
            if gts and rng.random() < 0.5:
                base = gts[int(rng.integers(0, len(gts)))]
                jitter = float(rng.uniform(-5, 5))
                w = [base[0] + jitter, base[1] + jitter]
            else:
                s = float(rng.uniform(0, 90))
                w = [s, s + float(rng.uniform(1, 30))]
            preds.append([w[0], w[1], float(rng.choice(score_pool))])
        preds_per_q.append(preds)
        gts_per_q.append(gts)
    return preds_per_q, gts_per_q


class TestIoU:
    def test_examples(self):
        assert iou_1d([0, 10], [0, 10]) == 1.0
        assert iou_1d([0, 10], [5, 15]) == pytest.approx(5 / 15)
        assert iou_1d([0, 10], [10, 20]) == 0.0
        assert iou_1d([0, 10], [20, 30]) == 0.0
        assert iou_1d([0, 0], [0, 0]) == 0.0  # degenerate spans have no union

    def test_giou_examples(self):
        assert giou_1d([0, 10], [0, 10]) == 1.0
        # disjoint spans incur the enclosure-gap penalty
        assert giou_1d([0, 10], [20, 30]) == pytest.approx(0.0 - 10 / 30)
        assert giou_1d([0, 10], [10, 20]) == 0.0

    @given(st.floats(0, 100), st.floats(0.01, 50), st.floats(0, 100), st.floats(0.01, 50))
    @settings(max_examples=300, deadline=None)
    def test_giou_never_exceeds_iou(self, s1, w1, s2, w2):
        a, b = [s1, s1 + w1], [s2, s2 + w2]
        i, g = iou_1d(a, b), giou_1d(a, b)
        assert g <= i + 1e-15
        union = w1 + w2 - max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
        enclosure = max(a[1], b[1]) - min(a[0], b[0])
        if abs(enclosure - union) < 1e-12:
            assert abs(g - i) < 1e-9
        elif enclosure > union + 1e-9:
            assert g < i

    @given(st.lists(st.sampled_from([0.0, 1.0, 2.5, 4.0, 10.0]) | st.floats(-5, 50),
                    min_size=4, max_size=4))
    @settings(max_examples=500, deadline=None)
    def test_wrappers_equal_the_scalar_oracles(self, ends):
        # touching, nested, zero-width, coincident and reversed spans
        a, b = ends[:2], ends[2:]
        assert iou_1d(a, b) == composed.iou_1d(a, b)
        assert giou_1d(a, b) == composed.giou_1d(a, b)

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, 10.0]) | st.floats(-5, 50),
                    min_size=4, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_python_float_path_equals_the_array_path(self, ends):
        # max and np.maximum may break a tie of 0.0 and -0.0 either way; the values are equal
        for span in (span_iou, span_giou):
            scalar = span(*ends)
            assert type(scalar) is float and scalar == span(*np.array(ends)[:, None])[0]

    def test_iou_matches_reference(self, rng):
        for _ in range(500):
            a = sorted(rng.uniform(0, 50, size=2))
            b = sorted(rng.uniform(0, 50, size=2))
            assert iou_1d(a, b) == pytest.approx(ref_iou(a, b), abs=1e-12)


class TestRecallAt1:
    def test_tie_breaks_toward_earlier_prediction(self):
        gt = [[[10.0, 20.0]]]
        preds = [[[50.0, 60.0, 0.7], [10.0, 20.0, 0.7]]]
        # equal confidence: the first listed window is the top-1 and misses
        assert recall_at_1(preds, gt, 0.5) == 0.0
        preds_swapped = [[[10.0, 20.0, 0.7], [50.0, 60.0, 0.7]]]
        assert recall_at_1(preds_swapped, gt, 0.5) == 1.0

    def test_threshold_edge_inclusive(self):
        gt = [[[0.0, 10.0]]]
        assert recall_at_1([[[0.0, 5.0, 1.0]]], gt, 0.5) == 1.0  # IoU exactly 0.5
        assert recall_at_1([[[0.0, 5.0, 1.0]]], gt, 0.51) == 0.0

    def test_empty_predictions_count_as_miss(self):
        assert recall_at_1([[], [[0, 10, 1.0]]], [[[5, 15]], [[0, 10]]], 0.5) == 0.5

    def test_query_count_mismatch(self):
        with pytest.raises(ValueError):
            recall_at_1([[]], [], 0.5)

    def test_empty_query_set(self):
        with pytest.raises(ValueError, match="recall_at_1 on an empty query set"):
            recall_at_1([], [], 0.5)


class TestDetectionAP:
    """One query's detection AP: mean_ap's entry at one IoU threshold."""

    def test_single_hit(self):
        assert mean_ap([[[0, 10, 0.9]]], [[[0, 10]]])[0][0.5] == 1.0

    def test_miss_then_hit(self):
        preds = [[50, 60, 0.9], [0, 10, 0.1]]
        assert mean_ap([preds], [[[0, 10]]])[0][0.5] == 0.5

    def test_duplicate_predictions_one_gt(self):
        preds = [[0, 10, 0.9], [0, 10, 0.8]]
        # second duplicate cannot rematch the taken gt
        assert mean_ap([preds], [[[0, 10]]])[0][0.5] == 1.0

    def test_no_predictions(self):
        assert mean_ap([[]], [[[0, 10]]])[0][0.5] == 0.0

    def test_iou_tie_takes_lower_gt_index(self):
        # pred0 has IoU 0.5 with both gts; gt 0 must be consumed
        gts = [[0.0, 10.0], [10.0, 20.0]]
        preds = [[0.0, 20.0, 0.9], [0.0, 10.0, 0.8]]
        # pred0 matches gt0 (tie), pred1 would want gt0 but only gt1 remains and misses
        assert mean_ap([preds], [gts])[0][0.5] == pytest.approx(0.5)

    def test_interpolation_carries_later_precision_back(self):
        # hit, miss, miss, hit over 2 gts: interp precision at second step is 2/4
        preds = [[0, 10, 0.9], [40, 50, 0.8], [60, 70, 0.7], [20, 30, 0.6]]
        gts = [[0, 10], [20, 30]]
        ap = mean_ap([preds], [gts])[0][0.5]
        assert ap == pytest.approx(0.5 * 1.0 + 0.5 * 0.5)

    def test_matches_reference_on_random_instances(self, rng):
        for _ in range(200):
            preds_q, gts_q = random_instance(rng, max_queries=1)
            got = mean_ap(preds_q, gts_q)[0]
            for thr in DEFAULT_IOU_THRESHOLDS[::3]:  # 0.5, 0.65, 0.8 and 0.95
                want = ref_detection_ap(preds_q[0], gts_q[0], thr)
                # a query without gt leaves mean_ap nothing to average
                assert got[thr] == pytest.approx(0.0 if want is None else want, abs=1e-12)


class TestMeanAP:
    def test_matches_reference_on_random_instances(self, rng):
        for _ in range(200):
            preds_q, gts_q = random_instance(rng)
            got_thr, got_avg = mean_ap(preds_q, gts_q)
            want_thr, want_avg = ref_mean_ap(preds_q, gts_q, DEFAULT_IOU_THRESHOLDS)
            assert got_avg == pytest.approx(want_avg, abs=1e-12)
            for thr in DEFAULT_IOU_THRESHOLDS:
                assert got_thr[thr] == pytest.approx(want_thr[thr], abs=1e-12)

    def test_recall_matches_reference_on_random_instances(self, rng):
        for _ in range(200):
            preds_q, gts_q = random_instance(rng)
            for thr in (0.5, 0.7):
                assert recall_at_1(preds_q, gts_q, thr) == pytest.approx(
                    ref_recall_at_1(preds_q, gts_q, thr), abs=1e-12)

    def test_queries_without_gt_are_skipped(self):
        preds = [[[0, 10, 0.9]], [[0, 10, 0.9]]]
        gts = [[[0, 10]], []]
        per_thr, avg = mean_ap(preds, gts)
        assert avg == 1.0

    def test_threshold_grid(self):
        assert len(DEFAULT_IOU_THRESHOLDS) == 10
        assert DEFAULT_IOU_THRESHOLDS[0] == 0.5
        assert DEFAULT_IOU_THRESHOLDS[-1] == 0.95


class TestHighlightMetrics:
    def test_single_positive_ranked_last_of_four(self):
        scores = [[0.9, 0.8, 0.7, 0.1]]
        levels = [[0, 0, 0, 4]]
        assert hd_map(scores, levels) == pytest.approx(0.25)

    def test_positive_ranked_first(self):
        assert hd_map([[0.9, 0.1, 0.2]], [[4, 0, 0]]) == 1.0

    def test_two_positives(self):
        # positives at ranks 1 and 3: AP = (1/1 + 2/3) / 2
        assert hd_map([[0.9, 0.5, 0.4]], [[4, 0, 4]]) == pytest.approx((1 + 2 / 3) / 2)

    def test_queries_without_positives_are_skipped(self):
        assert hd_map([[0.9], [0.1, 0.9]], [[0], [0, 4]]) == 1.0
        assert hd_map([[0.9]], [[0]]) == 0.0

    def test_matches_reference_on_random_instances(self, rng):
        for _ in range(200):
            n_q = int(rng.integers(1, 5))
            scores, levels = [], []
            for _ in range(n_q):
                length = int(rng.integers(1, 9))
                scores.append([float(rng.choice([0.1, 0.4, 0.4, 0.8])) for _ in range(length)])
                levels.append([int(rng.integers(0, 5)) for _ in range(length)])
            want = [ref_ranking_ap(s, [lv >= 4 for lv in lvs]) for s, lvs in zip(scores, levels)]
            want = [w for w in want if w is not None]
            expected = sum(want) / len(want) if want else 0.0
            assert hd_map(scores, levels) == pytest.approx(expected, abs=1e-12)

    def test_ranking_ap_tie_handling(self):
        # tied scores rank by index, so the positive at index 0 wins rank 1
        assert hd_map([[0.5, 0.5]], [[4, 0]]) == 1.0
        assert hd_map([[0.5, 0.5]], [[0, 4]]) == 0.5

    def test_hit_at_1(self):
        assert highlight_report([[0.9, 0.1]], [[4, 0]]).hit_at_1 == 1.0
        assert highlight_report([[0.1, 0.9]], [[4, 0]]).hit_at_1 == 0.0
        assert highlight_report([[0.9, 0.9]], [[4, 0]]).hit_at_1 == 1.0  # tie goes to clip 0

    def test_query_count_mismatch(self):
        with pytest.raises(ValueError, match="prediction/gt query counts differ"):
            hd_map([[0.9]], [])


class TestMeanIoUAndReport:
    def test_mean_iou(self):
        preds = [QueryPrediction(qid=0, windows=[[0, 10, 0.9]], saliency=[0.0] * 10),
                 QueryPrediction(qid=1, windows=[], saliency=[0.0] * 10)]
        anns = [make_annotation(qid=0, relevant_windows=[[0, 5]]),
                make_annotation(qid=1, relevant_windows=[[0, 10]])]
        assert compute_report(preds, anns).miou == pytest.approx(0.25)

    def test_report_round_trip(self, tmp_path):
        ann = make_annotation()
        pred = QueryPrediction(qid=3, windows=[[4.0, 10.0, 0.9]],
                               saliency=[0.0, 0.1, 0.3, 0.5, 0.9, 0.0, 0.0, 0.1, 0.0, 0.0])
        report = compute_report([pred], [ann])
        assert report.r1_050 == 1.0
        assert report.map_avg == 1.0
        assert report.hd_map == 1.0  # single level-4 clip (id 4) is top scored
        assert report.hit_at_1 == 1.0
        assert report.miou == 1.0
        assert list(report.to_dict()) == ["r1_050", "r1_070", "map_050", "map_075",
                                          "map_avg", "hd_map", "hit_at_1", "miou"]
        path = tmp_path / "preds.jsonl"
        save_predictions([pred], path)
        back = load_predictions(path)
        assert back[0].qid == 3
        assert back[0].windows == [[4.0, 10.0, 0.9]]
        assert back[0].saliency == pred.saliency

    def test_duplicate_qids_rejected(self):
        ann = make_annotation()
        pred = QueryPrediction(qid=3, windows=[], saliency=[0.0] * 10)
        with pytest.raises(ValueError):
            compute_report([pred, pred], [ann])

    def test_missing_prediction_rejected(self):
        with pytest.raises(ValueError):
            compute_report([], [make_annotation()])

    def test_malformed_window_rejected_with_its_qid(self):
        pred = QueryPrediction(qid=3, windows=[[4.0, 10.0]], saliency=[0.1] * 10)
        with pytest.raises(ValueError, match=r"qid 3: window \[4.0, 10.0\] is not"):
            compute_report([pred], [make_annotation()])

    @pytest.mark.parametrize("window", [[math.nan, 6.0, 0.9], [4.0, math.inf, 0.9],
                                        [4.0, 6.0, -math.inf], [True, 6.0, 0.5],
                                        [4.0, 6.0, 10 ** 400], [10.0, 4.0, 0.9]])
    def test_non_finite_or_bool_window_rejected_with_its_qid(self, window):
        pred = QueryPrediction(qid=3, windows=[window], saliency=[0.1] * 10)
        with pytest.raises(ValueError, match="qid 3: window .* is not"):
            compute_report([pred], [make_annotation()])

    @pytest.mark.parametrize("bad", ["x", math.nan, math.inf, None, False])
    def test_bad_saliency_score_rejected_with_its_qid_and_clip(self, bad):
        saliency = [0.1] * 10
        saliency[7] = bad
        pred = QueryPrediction(qid=3, windows=[[4.0, 10.0, 0.9]], saliency=saliency)
        with pytest.raises(ValueError, match=r"qid 3: saliency score .* of clip 7 is not a finite"):
            compute_report([pred], [make_annotation()])

    def test_saliency_length_mismatch_rejected_with_its_qid(self):
        pred = QueryPrediction(qid=3, windows=[[4.0, 10.0, 0.9]], saliency=[0.1])
        with pytest.raises(ValueError, match="qid 3: 1 saliency scores for 10 clips"):
            compute_report([pred], [make_annotation()])


class TestPredictionsIO:
    def write(self, path, second_line):
        save_predictions([QueryPrediction(qid=3, windows=[[4.0, 10.0, 0.9]], saliency=[0.5])], path)
        path.write_text(path.read_text() + second_line + "\n")

    def test_missing_key_is_a_parse_error_with_its_line(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        self.write(path, json.dumps({"qid": 4, "pred_relevant_windows": []}))
        with pytest.raises(ParseError, match=r":2: missing fields \['pred_saliency_scores'\]"):
            load_predictions(path)

    @pytest.mark.parametrize("window", [[4.0, 10.0], [4.0, 10.0, 0.9, 1.0], [4.0, "x", 0.9], 4.0,
                                        [math.nan, 6.0, 0.9], [4.0, math.inf, 0.9],
                                        [True, 6.0, 0.5], [4.0, 6.0, 10 ** 400],
                                        [10.0, 4.0, 0.9]])
    def test_window_not_three_numbers_is_a_parse_error_with_its_line(self, tmp_path, window):
        path = tmp_path / "preds.jsonl"
        self.write(path, json.dumps({"qid": 4, "pred_relevant_windows": [window],
                                     "pred_saliency_scores": [0.5]}))
        with pytest.raises(ParseError, match=":2: bad value"):
            load_predictions(path)

    @pytest.mark.parametrize("scores", [["x", 1, 2], [0.5, math.nan], [-math.inf], [True], 0.5])
    def test_bad_saliency_scores_are_a_parse_error_with_its_line(self, tmp_path, scores):
        path = tmp_path / "preds.jsonl"
        self.write(path, json.dumps({"qid": 4, "pred_relevant_windows": [[4.0, 10.0, 0.9]],
                                     "pred_saliency_scores": scores}))
        with pytest.raises(ParseError, match=":2: bad value"):
            load_predictions(path)

    @pytest.mark.parametrize("qid", [True, 2.0, "x", None])
    def test_qid_not_an_int_is_a_parse_error_with_its_line(self, tmp_path, qid):
        path = tmp_path / "preds.jsonl"
        self.write(path, json.dumps({"qid": qid, "pred_relevant_windows": [[4.0, 10.0, 0.9]],
                                     "pred_saliency_scores": [0.5]}))
        with pytest.raises(ParseError, match=r":2: bad value \(ValueError: qid .* is not an int"):
            load_predictions(path)

    def test_invalid_json_is_a_parse_error_with_its_line(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        self.write(path, '{"qid": 4,')
        with pytest.raises(ParseError, match=":2: invalid JSON"):
            load_predictions(path)


# -- one IoU matrix per query against the scalar-oracle report ------------------

# a small grid of ends and scores makes touching, nested, coincident and
# zero-width spans, and confidence ties, common
_END = st.sampled_from([0.0, 2.0, 4.0, 5.0, 10.0]) | st.floats(0, 20)
_WIDTH = st.sampled_from([0.0, 1.0, 2.0, 6.0]) | st.floats(0, 10)
_SCORE = st.sampled_from([0.1, 0.5, 0.9]) | st.floats(-1, 1)
_SPAN = st.tuples(_END, _WIDTH).map(lambda sw: [sw[0], sw[0] + sw[1]])
_QUERY = st.tuples(
    st.lists(st.tuples(_SPAN, _SCORE).map(lambda t: t[0] + [t[1]]), max_size=5),  # windows
    st.lists(_SPAN, max_size=3),  # gt windows, possibly none
    st.integers(1, 6).flatmap(lambda n: st.tuples(st.lists(_SCORE, min_size=n, max_size=n),
                                                  st.lists(st.integers(0, 4), min_size=n,
                                                           max_size=n))),
)


@given(st.lists(_QUERY, min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_report_equals_the_scalar_oracle_report(queries):
    predictions, annotations = [], []
    for qid, (windows, gts, (saliency, levels)) in enumerate(queries):
        predictions.append(QueryPrediction(qid=qid, windows=windows, saliency=saliency))
        annotations.append(make_annotation(qid=qid, relevant_windows=gts, saliency_levels=levels))
    got = compute_report(predictions, annotations)
    assert got == composed.metric_report(predictions, annotations)


# -- the shared ranking and the AP short cut against the oracle report --------------

# integer spans inside a gt of width 10 or 20 have IoU k/10 or k/20, which
# is exactly 0.5, 0.7 and seven more of DEFAULT_IOU_THRESHOLDS; scores tie
# often, -0.0 with 0.0 among them
_TIED = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0])
_GT_GRID = st.sampled_from([[0.0, 20.0], [0.0, 10.0], [5.0, 15.0], [12.0, 14.0]])
_PRED_GRID = st.tuples(st.integers(0, 19), st.integers(0, 20), _TIED).map(
    lambda t: [float(t[0]), float(min(t[0] + t[1], 20)), t[2]])
_TIED_QUERY = st.tuples(
    st.lists(_PRED_GRID, max_size=6),
    st.lists(_GT_GRID, max_size=3),  # several gt windows, or none
    st.integers(1, 8).flatmap(lambda n: st.tuples(st.lists(_TIED, min_size=n, max_size=n),
                                                  st.lists(st.integers(0, 4), min_size=n,
                                                           max_size=n))),
)


@given(st.lists(_TIED_QUERY, min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_report_with_ties_and_ious_at_a_threshold_equals_the_oracle_report(queries):
    predictions, annotations = [], []
    for qid, (windows, gts, (saliency, levels)) in enumerate(queries):
        predictions.append(QueryPrediction(qid=qid, windows=windows, saliency=saliency))
        annotations.append(make_annotation(qid=qid, relevant_windows=gts, saliency_levels=levels))
    got = compute_report(predictions, annotations)
    assert got == composed.metric_report(predictions, annotations)


@pytest.mark.parametrize("end, hits", [(10.0, 1), (14.0, 5), (15.0, 6), (20.0, 10)])
def test_an_iou_equal_to_a_threshold_is_a_match_at_it(end, hits):
    # IoU end / 20 against the gt [0, 20]: 0.5, 0.7, 0.75 and 1 exactly
    pred = QueryPrediction(qid=0, windows=[[0.0, end, 0.9]], saliency=[0.0] * 10)
    report = compute_report([pred], [make_annotation(qid=0, duration=20.0,
                                                     relevant_windows=[[0.0, 20.0]])])
    assert report.map_050 == 1.0 and report.r1_050 == 1.0
    assert report.r1_070 == float(end >= 14.0)
    assert report.map_075 == float(end >= 15.0)
    assert report.map_avg == hits / 10


@pytest.mark.parametrize("scores, top", [([0.0, -0.0, 0.0], 0), ([-0.0, 0.0], 0),
                                         ([0.2, 0.7, 0.7, 0.1], 1)])
def test_tied_scores_rank_toward_the_lower_index(scores, top):
    levels = [[0] * len(scores)]
    levels[0][top] = 4
    assert highlight_report([scores], levels).hit_at_1 == 1.0
    assert hd_map([scores], levels) == 1.0
