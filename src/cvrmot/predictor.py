"""Score-driven track filtering.

Treats previously associated tracks as detections and their fused scores as
confidences. Per frame, a track either passes the cross-view average test
(emit immediately and bank the average bonus) or runs each view's score
through the single-view rules, accumulating a hit score that must clear the
hit threshold before the frame is emitted. The hit score persists across
frames and never drops below zero.
"""

from itertools import groupby
from operator import itemgetter
from typing import Mapping, NamedTuple, Sequence

from .datamodel import Checked, Track, check_fields
from .fusion_losses import FusionWeights, ScoreRecord, fuse_scores


class MissingScoreError(KeyError):
    """A detection to be filtered has no score record."""

    __str__ = Exception.__str__  # the plain message: KeyError's quotes it


class _PredictorConfig(NamedTuple):
    t_as: float = 0.5
    t_ss: float = 0.75
    t_hs: float = 30.0
    s1: float = 3.0
    s2: float = 3.0
    s3: float = 1.0
    whole_track: bool = False


class PredictorConfig(Checked, _PredictorConfig):
    """Thresholds and increments of the filtering rules.

    t_as gates the cross-view average of fused scores, t_ss the single-view
    fused score, and t_hs the accumulated hit score. s1 is the average-branch
    bonus, s2 the single-view hit bonus (scaled by how many times the score
    clears t_ss), s3 the single-view miss penalty. ``whole_track`` switches
    emission from per-frame to all-or-nothing per track.
    """

    __slots__ = ()

    def _check(self) -> None:
        check_fields(self)
        if self.s1 < 0 or self.s2 < 0 or self.s3 < 0:
            raise ValueError("score increments s1, s2, s3 must be non-negative")
        if self.t_ss <= 0:
            raise ValueError("t_ss must be positive")


class _TrackState(NamedTuple):
    track_id: int
    hit_score: float = 0.0


class TrackState(Checked, _TrackState):
    """Accumulated filtering state of one track."""

    __slots__ = ()

    def _check(self) -> None:
        if self.hit_score < 0:
            raise ValueError("hit score is never negative")


def step(
    state: TrackState, view_scores: Sequence[float], config: PredictorConfig
) -> tuple[TrackState, bool]:
    """Advance one track by one frame given its per-view fused scores.

    The average rule needs cross-view corroboration, so it only applies when
    the track is visible in at least two views at this frame; a single-view
    frame always goes through the single-view rules. In the single-view
    branch each score above t_ss adds floor(score / t_ss) * s2 to the hit
    score, each score at or below it costs s3 (clamped at zero), and the frame
    is emitted only while the hit score exceeds t_hs.
    """
    if not view_scores:
        raise ValueError("view_scores must contain at least one score")
    hit = state.hit_score
    if len(view_scores) >= 2 and sum(view_scores) / len(view_scores) > config.t_as:
        hit += config.s1
        emit = True
    else:
        for score in view_scores:
            if score > config.t_ss:
                hit += int(score / config.t_ss) * config.s2
            else:
                hit = max(hit - config.s3, 0.0)
        emit = hit > config.t_hs
    return TrackState(state.track_id, hit), emit


def filter_tracks(
    t_input: Sequence[Track],
    scores: Mapping[tuple[int, int, int], ScoreRecord],
    config: PredictorConfig = PredictorConfig(),
    weights: FusionWeights = FusionWeights(),
) -> tuple[Track, ...]:
    """Filter tracks frame by frame against their fused scores.

    ``scores`` maps (view, frame, identity) to the stored score record; the
    fused score is always recomputed here with ``weights.beta``. The output
    keeps exactly the detections at emitted frames (or, with
    ``config.whole_track``, every detection of any track that emitted at
    least once); tracks that never emit are dropped. Identities are
    preserved and the result is deterministic.
    """
    kept: list[Track] = []
    for track in sorted(t_input, key=lambda t: t.identity):
        state = TrackState(track.identity)
        emitted: set[int] = set()
        for frame, dets in groupby(track.detections, itemgetter(1)):  # in (frame, view) order
            view_scores = []
            for det in dets:
                record = scores.get(det[:3])  # keyed by (view, frame, identity)
                if record is None:
                    raise MissingScoreError(
                        f"no score for detection (view={det.view_id}, "
                        f"frame={det.frame}, identity={det.identity})"
                    )
                view_scores.append(fuse_scores(record.s_t, record.s_a, weights.beta))
            state, emit = step(state, view_scores, config)
            if emit:
                emitted.add(frame)
        if not emitted:
            continue
        if config.whole_track:
            survivors = track.detections
        else:
            survivors = tuple(d for d in track.detections if d.frame in emitted)
        kept.append(Track(track.identity, survivors))
    return tuple(kept)
