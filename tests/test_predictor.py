import random

import pytest
from hypothesis import given, settings, strategies as st

from cvrmot import (
    FusionWeights,
    MissingScoreError,
    PredictorConfig,
    ScoreRecord,
    TrackState,
    filter_tracks,
    fuse_scores,
    step,
)
from cvrmot.synth import generate_scene, score_tracks

from helpers import lane_scene, tracks_copy

CFG = PredictorConfig()


def test_step_average_branch():
    state, emit = step(TrackState(1), [0.9, 0.7], CFG)
    assert emit is True
    assert state.hit_score == 3.0


def test_step_single_view_multiplier_branch():
    # a single view never takes the average branch; 1.6 clears t_ss twice over
    state, emit = step(TrackState(1), [1.6], CFG)
    assert emit is False
    assert state.hit_score == 6.0


def test_step_clamp_branch():
    state, emit = step(TrackState(1, hit_score=1.0), [0.3, 0.2], CFG)
    assert emit is False
    assert state.hit_score == 0.0


def test_step_eleven_frame_accumulation():
    state = TrackState(1)
    first_emit = None
    for frame in range(1, 12):
        state, emit = step(state, [0.8], CFG)
        assert state.hit_score == 3.0 * frame
        if emit and first_emit is None:
            first_emit = frame
    assert first_emit == 11
    assert state.hit_score == 33.0


def test_step_rejects_empty_scores():
    with pytest.raises(ValueError):
        step(TrackState(1), [], CFG)


def test_config_validation():
    with pytest.raises(ValueError):
        PredictorConfig(s3=-1.0)
    with pytest.raises(ValueError):
        PredictorConfig(t_ss=0.0)
    with pytest.raises(ValueError):
        TrackState(1, hit_score=-0.5)


@given(
    st.lists(st.floats(min_value=-2.0, max_value=3.0), min_size=1, max_size=4),
    st.floats(min_value=0.0, max_value=60.0),
)
@settings(max_examples=200)
def test_hit_score_never_negative(scores, hit):
    state, _ = step(TrackState(1, hit_score=hit), scores, CFG)
    assert state.hit_score >= 0.0


@given(
    st.lists(st.floats(min_value=-2.0, max_value=3.0), min_size=1, max_size=4),
    st.floats(min_value=0.0, max_value=60.0),
    st.data(),
)
@settings(max_examples=200)
def test_step_emit_monotone_in_each_score(scores, hit, data):
    index = data.draw(st.integers(min_value=0, max_value=len(scores) - 1))
    delta = data.draw(st.floats(min_value=0.001, max_value=2.0))
    state = TrackState(1, hit_score=hit)
    _, emit_before = step(state, scores, CFG)
    raised = list(scores)
    raised[index] += delta
    _, emit_after = step(state, raised, CFG)
    assert emit_after >= emit_before


def _uniform_scores(tracks, value):
    return {
        (d.view_id, d.frame, d.identity): ScoreRecord(value, value)
        for t in tracks
        for d in t.detections
    }


def test_filter_keeps_everything_on_high_scores():
    scene = lane_scene(num_views=3, num_ids=2, num_frames=4)
    tracks = tracks_copy(scene)
    scores = _uniform_scores(tracks, 0.95)
    out = filter_tracks(tracks, scores)
    assert out == tracks


def test_filter_drops_everything_on_low_scores():
    scene = lane_scene(num_views=3, num_ids=2, num_frames=4)
    tracks = tracks_copy(scene)
    out = filter_tracks(tracks, _uniform_scores(tracks, 0.1))
    assert out == ()


def test_filter_single_view_accumulation_emits_from_frame_11():
    # one track visible in a single view; fused score exactly 0.8 per frame
    scene = lane_scene(num_views=2, num_ids=1, num_frames=14)
    track = tracks_copy(scene)[0]
    single_view = type(track)(
        track.identity, tuple(d for d in track.detections if d.view_id == 0)
    )
    s_t = 0.8 - 0.1  # fuse(0.7, 0, beta=0.1) = 0.8
    scores = {
        (d.view_id, d.frame, d.identity): ScoreRecord(s_t, 0.0)
        for d in single_view.detections
    }
    assert fuse_scores(s_t, 0.0, 0.1) == pytest.approx(0.8, abs=1e-12)
    out = filter_tracks([single_view], scores)
    assert len(out) == 1
    assert sorted({d.frame for d in out[0].detections}) == list(range(11, 15))


def test_filter_whole_track_switch():
    scene = lane_scene(num_views=2, num_ids=1, num_frames=14)
    track = tracks_copy(scene)[0]
    single_view = type(track)(
        track.identity, tuple(d for d in track.detections if d.view_id == 0)
    )
    scores = {
        (d.view_id, d.frame, d.identity): ScoreRecord(0.7, 0.0)
        for d in single_view.detections
    }
    out = filter_tracks([single_view], scores, PredictorConfig(whole_track=True))
    assert len(out) == 1
    assert sorted({d.frame for d in out[0].detections}) == list(range(1, 15))


def test_filter_missing_score_raises():
    scene = lane_scene(num_views=2, num_ids=1, num_frames=2)
    tracks = tracks_copy(scene)
    scores = _uniform_scores(tracks, 0.9)
    scores.pop((1, 2, 1))
    with pytest.raises(MissingScoreError) as raised:
        filter_tracks(tracks, scores)
    assert isinstance(raised.value, KeyError)
    assert str(raised.value) == "no score for detection (view=1, frame=2, identity=1)"


def test_filter_idempotent_on_average_branch_inputs():
    scene = generate_scene(3, 4, 8, seed=2)
    base = scene.gt_tracks
    scores = score_tracks(scene, base, {1, 3}, hi=0.95, lo=0.05, seed=4)
    once = filter_tracks(base, scores)
    twice = filter_tracks(once, scores)
    assert twice == once


def test_filter_output_is_subset_with_same_identities():
    rng = random.Random(9)
    scene = generate_scene(2, 5, 10, seed=6)
    tracks = scene.gt_tracks
    scores = {
        (d.view_id, d.frame, d.identity): ScoreRecord(
            round(rng.random(), 6), round(rng.random(), 6)
        )
        for t in tracks
        for d in t.detections
    }
    out = filter_tracks(tracks, scores)
    in_slots = {(d.view_id, d.frame, d.identity) for t in tracks for d in t.detections}
    out_slots = {(d.view_id, d.frame, d.identity) for t in out for d in t.detections}
    assert out_slots <= in_slots
    assert {t.identity for t in out} <= {t.identity for t in tracks}


def test_filter_respects_beta_weight():
    scene = lane_scene(num_views=2, num_ids=1, num_frames=1)
    tracks = tracks_copy(scene)
    scores = _uniform_scores(tracks, 0.4)
    # with beta=0.1 the mean fused score is ~0.55 > 0.5; with beta=0 it is 0.4
    assert filter_tracks(tracks, scores, CFG, FusionWeights(beta=0.1)) == tracks
    assert filter_tracks(tracks, scores, CFG, FusionWeights(beta=0.0)) == ()
