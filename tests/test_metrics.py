import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cvrmot import (
    AttributeSet,
    BBox,
    Detection,
    LanguageDescription,
    MetricCounts,
    Scene,
    Track,
    aggregate,
    count_events,
    cvidf1,
    cvidf1_exact,
    cvma,
    cvma_exact,
    evaluate_description,
    id_measures,
    iou,
    match_frame,
    restrict_gt,
)
from cvrmot.metrics import DescriptionResult, IdMeasures
from cvrmot.synth import generate_scene

from helpers import box, desc_for, drop_detection, lane_scene, tracks_copy
from oracles import oracle_cvidf1_exact, oracle_id_ratios


def test_restrict_gt_selects_referred_identities():
    scene = lane_scene(num_ids=3)
    assert [t.identity for t in restrict_gt(scene, desc_for(scene, {2}))] == [2]
    assert restrict_gt(scene, desc_for(scene, set())) == ()
    assert [t.identity for t in restrict_gt(scene, desc_for(scene, {1, 3}))] == [1, 3]


def test_match_frame_above_threshold_matches():
    gt = [Detection(0, 1, 1, box(0.0))]
    pred = [Detection(0, 1, 7, box(0.5))]
    assert iou(gt[0].bbox, pred[0].bbox) > 0.9
    match = match_frame(gt, pred, 0.5)
    assert match.pairs == ((0, 0),)
    assert match.unmatched_gt == ()
    assert match.unmatched_pred == ()


def test_match_frame_below_threshold_is_miss_plus_fp():
    gt = [Detection(0, 1, 1, box(0.0))]
    pred = [Detection(0, 1, 7, box(8.0))]
    assert iou(gt[0].bbox, pred[0].bbox) < 0.5
    match = match_frame(gt, pred, 0.5)
    assert match.pairs == ()
    assert match.unmatched_gt == (0,)
    assert match.unmatched_pred == (0,)


def test_match_frame_crossing_boxes_maximizes_total_iou():
    gt = [Detection(0, 1, 1, BBox(0, 0, 10, 10)), Detection(0, 1, 2, BBox(6, 0, 10, 10))]
    pred = [Detection(0, 1, 8, BBox(1, 0, 10, 10)), Detection(0, 1, 9, BBox(5, 0, 10, 10))]
    match = match_frame(gt, pred, 0.3)
    got = sum(iou(gt[g].bbox, pred[p].bbox) for g, p in match.pairs)
    best = max(
        iou(gt[0].bbox, pred[a].bbox) + iou(gt[1].bbox, pred[b].bbox)
        for a, b in itertools.permutations(range(2))
    )
    assert len(match.pairs) == 2
    assert got == pytest.approx(best, abs=1e-12)


def test_count_events_perfect_predictions():
    scene = lane_scene(num_views=2, num_ids=2, num_frames=3)
    counts = count_events(scene.gt_tracks, tracks_copy(scene))
    assert counts.miss_total == 0
    assert counts.fp_total == 0
    assert counts.mismatch_total == 0
    assert counts.gt_totals == (4, 4, 4)


def test_count_events_crossview_mismatch_single_frame():
    scene = lane_scene(num_views=2, num_ids=1, num_frames=1)
    track = scene.gt_tracks[0]
    view0 = Track(101, tuple(
        Detection(d.view_id, d.frame, 101, d.bbox)
        for d in track.detections if d.view_id == 0
    ))
    view1 = Track(102, tuple(
        Detection(d.view_id, d.frame, 102, d.bbox)
        for d in track.detections if d.view_id == 1
    ))
    counts = count_events(scene.gt_tracks, (view0, view1))
    assert counts.mismatch_total == 1
    assert counts.miss_total == 0 and counts.fp_total == 0


def test_count_events_temporal_switch():
    dets = (
        Detection(0, 1, 1, box(0.0)),
        Detection(0, 2, 1, box(2.0)),
    )
    scene = Scene("t", 2, 2, (4000, 2000), (Track(1, dets),))
    pred = (
        Track(201, (Detection(0, 1, 201, box(0.0)),)),
        Track(202, (Detection(0, 2, 202, box(2.0)),)),
    )
    counts = count_events(scene.gt_tracks, pred)
    assert counts.frames == (1, 2)
    assert counts.mismatches == (0, 1)
    assert counts.miss_total == 0 and counts.fp_total == 0


def test_count_events_includes_pred_only_frames():
    scene = lane_scene(num_views=2, num_ids=1, num_frames=2)
    extra = Track(99, (Detection(0, 5, 99, box(900.0)),))
    counts = count_events(scene.gt_tracks, tracks_copy(scene) + (extra,))
    assert 5 in counts.frames
    idx = counts.frames.index(5)
    assert counts.gt_totals[idx] == 0
    assert counts.false_positives[idx] == 1


def test_cvma_values():
    perfect = MetricCounts((1,), (0,), (0,), (0,), (40,))
    assert cvma(perfect) == 1.0
    mixed = MetricCounts((1,), (4,), (2,), (1,), (40,))
    assert cvma_exact(mixed) == Fraction(4, 5)
    assert cvma(mixed) == 0.8
    negative = MetricCounts((1,), (40,), (20,), (0,), (40,))
    assert cvma(negative) == -0.5
    # With no GT object every prediction is a false positive: 1 - fp.
    assert cvma_exact(MetricCounts((1,), (0,), (3,), (0,), (0,))) == -2
    assert cvma(MetricCounts((), (), (), (), ())) == 1.0


def test_id_measures_full_coverage():
    scene = lane_scene(num_views=2, num_ids=2, num_frames=3)
    measures = id_measures(scene.gt_tracks, tracks_copy(scene))
    assert measures.idtp == 12 and measures.idfp == 0 and measures.idfn == 0
    assert measures.cvidp == 1.0 and measures.cvidr == 1.0


def test_id_measures_ten_slot_split():
    scene = lane_scene(num_views=2, num_ids=1, num_frames=5)
    gt = scene.gt_tracks
    dets = gt[0].detections
    p1 = Track(11, tuple(Detection(d.view_id, d.frame, 11, d.bbox) for d in dets if d.frame <= 3))
    p2 = Track(12, tuple(Detection(d.view_id, d.frame, 12, d.bbox) for d in dets if d.frame > 3))
    assert len(p1.detections) == 6 and len(p2.detections) == 4
    measures = id_measures(gt, (p1, p2))
    assert (measures.idtp, measures.idfp, measures.idfn) == (6, 4, 4)
    assert measures.cvidp == 0.6 and measures.cvidr == 0.6
    assert cvidf1(measures) == 0.6


def test_id_measures_no_predictions():
    scene = lane_scene(num_views=2, num_ids=2, num_frames=3)
    measures = id_measures(scene.gt_tracks, ())
    assert measures.idtp == 0
    assert measures.cvidp == 0.0 and measures.cvidr == 0.0


ID_COUNT = st.integers(0, 10**30) | st.sampled_from([0, 1, 2**53 - 1, 2**53 + 1])


@settings(max_examples=400, deadline=None)
@given(ID_COUNT, ID_COUNT, ID_COUNT)
@example(0, 0, 0)
@example(0, 5, 0)
@example(0, 0, 7)
@example(3, 0, 0)
@example(2**53 + 1, 2**53 - 1, 10**30)
def test_id_ratios_and_f1_equal_their_fraction_oracles(idtp, idfp, idfn):
    """Past 2**53 too: an int division rounds the exact ratio once, as ``float(Fraction)`` does."""
    measures = IdMeasures(idtp, idfp, idfn)
    precision, recall = oracle_id_ratios(measures)
    assert repr((measures.cvidp, measures.cvidr)) == repr((float(precision), float(recall)))
    assert cvidf1_exact(measures) == oracle_cvidf1_exact(measures)
    assert repr(cvidf1(measures)) == repr(float(oracle_cvidf1_exact(measures)))


def test_cvidf1_values():
    assert cvidf1(IdMeasures(1, 1, 1)) == 0.5
    assert cvidf1(IdMeasures(0, 5, 0)) == 0.0
    assert cvidf1(IdMeasures(0, 0, 7)) == 0.0
    assert cvidf1(IdMeasures(0, 0, 0)) == 1.0  # nothing to find and nothing predicted


def test_evaluate_description_perfect():
    scene = lane_scene(num_views=3, num_ids=3, num_frames=4)
    desc = desc_for(scene, {1, 2})
    result = evaluate_description(scene, desc, tracks_copy(scene, {1, 2}))
    assert result.cvidf1 == 1.0 and result.cvma_raw == 1.0


def test_evaluate_description_referring_fp_rule():
    scene = lane_scene(num_views=2, num_ids=3, num_frames=5)
    desc = desc_for(scene, {1, 2})
    clean = tracks_copy(scene, {1, 2})
    with_extra = clean + tracks_copy(scene, {3})
    before = evaluate_description(scene, desc, clean)
    after = evaluate_description(scene, desc, with_extra)
    extra_dets = len(tracks_copy(scene, {3})[0].detections)
    gt_total = before.counts.gt_total
    assert after.counts.fp_total == extra_dets
    assert before.cvma_exact - after.cvma_exact == Fraction(extra_dets, gt_total)


def test_evaluate_description_empty_predictions():
    scene = lane_scene(num_views=2, num_ids=2, num_frames=3)
    desc = desc_for(scene, {1})
    result = evaluate_description(scene, desc, ())
    assert result.cvidf1 == 0.0
    assert result.cvma_raw == 0.0  # 1 - gt/gt


def test_evaluate_description_empty_referred_set():
    scene = lane_scene(num_views=2, num_ids=2, num_frames=3)
    desc = desc_for(scene, set())
    silent = evaluate_description(scene, desc, ())
    assert silent.cvidf1 == 1.0 and silent.cvma_raw == 1.0
    noisy = evaluate_description(scene, desc, tracks_copy(scene, {1}))
    assert noisy.cvidf1 == 0.0
    assert noisy.cvma_raw == 1.0 - 6  # every predicted detection is an FP
    assert max(noisy.cvma_exact, Fraction(0)) == 0


def _result(desc_id, gt, fp, mme, measures):
    """A result of one frame with ``gt`` boxes, none missed."""
    return DescriptionResult(desc_id, MetricCounts((1,), (0,), (fp,), (mme,), (gt,)), measures)


def test_aggregate_means_and_clamp():
    a = _result("a", 10, 5, 0, IdMeasures(10, 5, 0))
    b = _result("b", 10, 5, 4, IdMeasures(5, 10, 5))
    assert (a.cvidf1_exact, a.cvma_exact) == (Fraction(4, 5), Fraction(1, 2))
    assert (b.cvidf1_exact, b.cvma_exact) == (Fraction(2, 5), Fraction(-3, 10))
    agg = aggregate([a, b])
    assert agg.cvridf1 == pytest.approx(0.6)
    assert agg.cvrma == 0.25
    single = aggregate([_result("a", 1, 0, 0, IdMeasures(1, 0, 0))])
    assert (single.cvridf1, single.cvrma) == (1.0, 1.0)
    assert 0.0 <= agg.cvridf1 <= 1.0 and 0.0 <= agg.cvrma <= 1.0
    assert aggregate([]) == (0, None, None)


def test_view_relabeling_invariance():
    scene = generate_scene(3, 4, 6, seed=19)
    desc = LanguageDescription("d", "x", AttributeSet(), frozenset({1, 2}))
    reference = evaluate_description(scene, desc, tracks_copy(scene, {1, 2, 3}))
    mapping = {0: 2, 1: 0, 2: 1}

    def remap(tracks):
        return tuple(
            Track(
                t.identity,
                tuple(Detection(mapping[d.view_id], d.frame, d.identity, d.bbox) for d in t.detections),
            )
            for t in tracks
        )

    remapped_scene = Scene(
        scene.name, scene.num_views, scene.frames_per_view, scene.image_size, remap(scene.gt_tracks)
    )
    permuted = evaluate_description(
        remapped_scene, desc, remap(tracks_copy(scene, {1, 2, 3}))
    )
    assert permuted.cvidf1_exact == reference.cvidf1_exact
    assert permuted.cvma_exact == reference.cvma_exact
    assert permuted.counts.miss_total == reference.counts.miss_total
    assert permuted.counts.mismatch_total == reference.counts.mismatch_total


def test_monotone_degradation():
    rng = random.Random(29)
    for seed in range(5):
        scene = generate_scene(2, 3, 6, seed=seed)
        desc = desc_for(scene)
        clean = tracks_copy(scene)
        base = evaluate_description(scene, desc, clean)
        assert base.cvma_raw == 1.0
        # deleting one matched predicted detection adds exactly one miss
        track = clean[rng.randrange(len(clean))]
        det = track.detections[rng.randrange(len(track.detections))]
        dropped = drop_detection(clean, det.view_id, det.frame, det.identity)
        degraded = evaluate_description(scene, desc, dropped)
        assert degraded.cvma_exact < base.cvma_exact
        # a spurious far-away detection adds exactly one false positive
        spurious = clean + (Track(777, (Detection(0, 1, 777, box(3900.0, 1900.0)),)),)
        noisy = evaluate_description(scene, desc, spurious)
        assert noisy.cvma_exact < base.cvma_exact
