import contextlib
import io
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvrmot import (
    Detection,
    ErrorSpec,
    InfeasibleSpecError,
    LanguageDescription,
    AttributeSet,
    Scene,
    ScoreRecord,
    Track,
    count_events,
    cvma_exact,
    evaluate_description,
    filter_tracks,
    generate_scene,
    id_measures,
    iou,
    perturb,
    score_tracks,
)
from cvrmot.cli import main
from cvrmot.datamodel import validate_scene
from cvrmot.ingest import parse_descriptions, parse_scene, write_scene
from cvrmot.synth import FrameErrors

from helpers import box, desc_for, predictions_from_gt
from oracles import oracle_id_measures, oracle_synth_tracks


def ledger_matches_counts(ledger, counts):
    per_frame = {f: ledger.per_frame.get(f, FrameErrors()) for f in counts.frames}
    for i, frame in enumerate(counts.frames):
        errs = per_frame[frame]
        if counts.misses[i] != errs.misses:
            return False
        if counts.false_positives[i] != errs.false_positives:
            return False
        if counts.mismatches[i] != errs.mismatches:
            return False
    # no errors outside the frames the metrics saw
    extra = set(ledger.per_frame) - set(counts.frames)
    return all(
        ledger.per_frame[f] == FrameErrors() for f in extra
    )


def test_generate_scene_counts_and_determinism():
    scene = generate_scene(2, 1, 5, seed=7)
    assert scene.detection_count() == 10
    assert validate_scene(scene) is None
    assert generate_scene(2, 1, 5, seed=7) == scene
    assert generate_scene(2, 1, 5, seed=8) != scene


def test_generate_scene_density():
    scene = generate_scene(3, 4, 10, seed=1)
    assert scene.detection_count() == 120  # 4 objects per frame per view
    per_slot = {}
    for det in scene.all_detections():
        per_slot.setdefault((det.view_id, det.frame), 0)
        per_slot[(det.view_id, det.frame)] += 1
    assert set(per_slot.values()) == {4}


def test_generate_scene_write_is_byte_identical(tmp_path):
    scene = generate_scene(3, 3, 6, seed=9)
    write_scene(scene, tmp_path / "a" / "manifest.json", tmp_path / "a" / "gt")
    write_scene(scene, tmp_path / "b" / "manifest.json", tmp_path / "b" / "gt")
    for name in ["manifest.json", "gt/view_00.csv", "gt/view_01.csv", "gt/view_02.csv"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_generate_scene_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        generate_scene(1, 1, 5)
    with pytest.raises(ValueError):
        generate_scene(2, 0, 5)
    with pytest.raises(ValueError):
        generate_scene(2, 1, 5, image_size=(100, 80))


def test_perturb_zero_spec_is_identity():
    scene = generate_scene(2, 3, 5, seed=3)
    preds, ledger = perturb(scene, ErrorSpec(), seed=1)
    assert preds.tracks == scene.gt_tracks
    assert ledger.totals.misses == 0 and ledger.totals.false_positives == 0
    assert ledger.totals.mismatches == 0
    assert ledger.expected_cvma == 1
    counts = count_events(scene.gt_tracks, preds.tracks)
    assert cvma_exact(counts) == 1


def test_perturb_worked_example_four_two_one():
    # 2 views x 20 identities x 1 frame: 40 GT detections
    scene = generate_scene(2, 20, 1, seed=3)
    spec = ErrorSpec(miss_count=4, fp_count=2, crossview_mismatch_count=1)
    preds, ledger = perturb(scene, spec, seed=9)
    assert ledger.totals.misses == 4
    assert ledger.totals.false_positives == 2
    assert ledger.totals.temporal == 0
    assert ledger.totals.crossview == 1
    assert ledger.expected_cvma == Fraction(4, 5)
    counts = count_events(scene.gt_tracks, preds.tracks)
    assert (counts.miss_total, counts.fp_total, counts.mismatch_total, counts.gt_total) == (4, 2, 1, 40)
    assert cvma_exact(counts) == Fraction(4, 5)


def test_perturb_temporal_switch_on_single_view_track():
    dets = tuple(Detection(0, f, 1, box(4.0 * f)) for f in range(1, 6))
    scene = Scene("single", 2, 5, (4000, 2000), (Track(1, dets),))
    preds, ledger = perturb(scene, ErrorSpec(temporal_switch_count=1), seed=2)
    assert ledger.totals.temporal == 1
    assert ledger.totals.crossview == 0
    assert ledger.totals.mismatches == 1
    counts = count_events(scene.gt_tracks, preds.tracks)
    assert counts.mismatch_total == 1
    assert cvma_exact(counts) == ledger.expected_cvma


def test_perturb_temporal_switch_multi_view_counts_each_view():
    scene = generate_scene(3, 2, 6, seed=5)
    preds, ledger = perturb(scene, ErrorSpec(temporal_switch_count=1), seed=4)
    assert ledger.totals.temporal == 3  # one switch per view
    assert ledger.totals.crossview == 0
    counts = count_events(scene.gt_tracks, preds.tracks)
    assert ledger_matches_counts(ledger, counts)
    assert cvma_exact(counts) == ledger.expected_cvma


def test_perturb_without_ground_truth_expects_one_minus_its_false_positives():
    empty = Scene("e", 2, 3, (1920, 1080), ())
    assert perturb(empty, ErrorSpec(), seed=1)[1].expected_cvma == 1
    preds, ledger = perturb(empty, ErrorSpec(fp_count=2), seed=1)
    assert ledger.gt_total == 0 and ledger.totals.false_positives == 2
    assert ledger.expected_cvma == -1
    nobody = LanguageDescription("d", "Nobody.", AttributeSet(), frozenset())
    assert evaluate_description(empty, nobody, preds.tracks).cvma_exact == -1


def test_perturb_false_positives_never_overlap_gt():
    scene = generate_scene(2, 4, 6, seed=13)
    preds, ledger = perturb(scene, ErrorSpec(fp_count=5), seed=6)
    assert ledger.totals.false_positives == 5
    gt_by_slot = {}
    for det in scene.all_detections():
        gt_by_slot.setdefault((det.view_id, det.frame), []).append(det.bbox)
    gt_ids = scene.identities()
    fp_dets = [
        d
        for t in preds.tracks
        if t.identity not in gt_ids
        for d in t.detections
    ]
    assert len(fp_dets) == 5
    for det in fp_dets:
        for gt_box in gt_by_slot.get((det.view_id, det.frame), []):
            assert iou(det.bbox, gt_box) == 0.0


def test_perturb_infeasible_specs():
    scene = generate_scene(2, 2, 3, seed=1)
    with pytest.raises(InfeasibleSpecError):
        perturb(scene, ErrorSpec(miss_count=1000))
    single = Scene(
        "s", 2, 2, (4000, 2000), (Track(1, (Detection(0, 1, 1, box(0.0)),)),)
    )
    with pytest.raises(InfeasibleSpecError):
        perturb(single, ErrorSpec(crossview_mismatch_count=1))
    with pytest.raises(InfeasibleSpecError):
        perturb(single, ErrorSpec(temporal_switch_count=1))


def test_perturb_ledger_equivalence_small_batch():
    rng = random.Random(99)
    for seed in range(12):
        scene = generate_scene(
            rng.choice([2, 3]), rng.randint(2, 5), rng.randint(2, 8), seed=seed
        )
        frames = scene.frames_per_view
        spec = ErrorSpec(
            miss_count=rng.randint(0, 3),
            fp_count=rng.randint(0, 3),
            temporal_switch_count=rng.randint(0, 1) if frames >= 2 else 0,
            crossview_mismatch_count=rng.randint(0, min(2, frames)),
        )
        preds, ledger = perturb(scene, spec, seed=seed + 100)
        counts = count_events(scene.gt_tracks, preds.tracks)
        assert ledger_matches_counts(ledger, counts), (seed, spec)
        assert cvma_exact(counts) == ledger.expected_cvma


def test_oracle_trivial_cases():
    scene = generate_scene(2, 3, 4, seed=21)
    perfect = oracle_id_measures(scene, predictions_from_gt(scene))
    assert perfect.idtp == scene.detection_count()
    assert perfect.cvidp == 1.0 and perfect.cvidr == 1.0
    empty = oracle_id_measures(scene, ())
    assert empty.idtp == 0 and empty.idfn == scene.detection_count()


def test_oracle_matches_id_measures_and_ledger():
    rng = random.Random(7)
    for seed in range(8):
        scene = generate_scene(2, rng.randint(2, 4), rng.randint(2, 6), seed=seed)
        spec = ErrorSpec(
            miss_count=rng.randint(0, 2),
            fp_count=rng.randint(0, 1),
            temporal_switch_count=rng.randint(0, 1) if scene.frames_per_view >= 2 else 0,
        )
        preds, ledger = perturb(scene, spec, seed=seed + 50)
        measured = id_measures(scene.gt_tracks, preds.tracks)
        oracle = oracle_id_measures(scene, preds)
        assert measured == oracle
        assert ledger_matches_counts(ledger, count_events(scene.gt_tracks, preds.tracks))


def test_oracle_rejects_large_instances():
    scene = generate_scene(2, 7, 2, seed=1)
    with pytest.raises(ValueError):
        oracle_id_measures(scene, predictions_from_gt(scene))


def test_score_tracks_exact_without_jitter():
    scene = generate_scene(2, 3, 4, seed=15)
    base = predictions_from_gt(scene)
    scores = score_tracks(scene, base, {1}, hi=0.95, lo=0.05, seed=3)
    for track in scene.gt_tracks:
        expected = 0.95 if track.identity == 1 else 0.05
        for det in track.detections:
            record = scores[(det.view_id, det.frame, det.identity)]
            assert record == ScoreRecord(expected, expected)


def test_score_tracks_hi_equals_lo_ignores_referral():
    scene = generate_scene(2, 3, 4, seed=15)
    base = predictions_from_gt(scene)
    a = score_tracks(scene, base, {1}, hi=0.4, lo=0.4, seed=3)
    b = score_tracks(scene, base, {2, 3}, hi=0.4, lo=0.4, seed=3)
    assert a == b
    assert filter_tracks(base.tracks, a) == filter_tracks(base.tracks, b)


def test_score_tracks_validation():
    scene = generate_scene(2, 2, 3, seed=1)
    base = predictions_from_gt(scene)
    with pytest.raises(ValueError):
        score_tracks(scene, base, {1}, hi=0.2, lo=0.5)
    with pytest.raises(ValueError):
        score_tracks(scene, base, {42}, hi=0.9, lo=0.1)
    for jitter in (-0.2, -1e-300, float("nan")):
        with pytest.raises(ValueError, match="jitter"):
            score_tracks(scene, base, {1}, hi=0.9, lo=0.1, jitter=jitter)


def test_generate_score_filter_evaluate_pipeline():
    scene = generate_scene(3, 5, 12, seed=31)
    base = predictions_from_gt(scene)
    referred = frozenset({2, 5})
    scores = score_tracks(scene, base, referred, hi=0.95, lo=0.05, seed=8)
    kept = filter_tracks(base.tracks, scores)
    assert sorted(t.identity for t in kept) == sorted(referred)
    desc = LanguageDescription("d", "A person.", AttributeSet(), referred)
    result = evaluate_description(scene, desc, kept)
    assert result.cvidf1 == 1.0 and result.cvma_raw == 1.0
    lows = desc_for(scene, set(), "none")
    assert lows.referred_identities == frozenset()


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.integers(2, 3), st.integers(1, 4), st.integers(1, 5), st.integers(1, 4)),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
    st.sampled_from([0.0, 0.2, 0.9]),
    st.integers(0, 100),
)
def test_synth_tracks_equal_the_per_description_oracle(shape, levels, jitter, seed):
    views, ids, frames, descriptions = shape
    lo, hi = levels
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "scene"
        argv = ["synth", "--views", views, "--ids", ids, "--frames", frames,
                "--descriptions", descriptions, "--hi", hi, "--lo", lo, "--jitter", jitter,
                "--seed", seed, "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([str(a) for a in argv]) == 0
        scene = parse_scene(out / "manifest.json", out / "gt")
        descs = parse_descriptions(out / "descriptions.json", scene)
        oracle = Path(tmp) / "oracle"
        oracle_synth_tracks(scene, descs, oracle, hi, lo, seed + 2, jitter)
        assert _tree(out / "tracks") == _tree(oracle)
