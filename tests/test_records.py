"""Records are immutable ``NamedTuple``s: checks, ordering, pickling, defaults."""

import math
import pickle

import pytest

from cvrmot import (
    BBox,
    CostMatrix,
    Detection,
    ErrorSpec,
    EvalConfig,
    FusionWeights,
    LossInputs,
    PredictionSet,
    PredictorConfig,
    ScoreRecord,
    Track,
    TrackState,
)
from cvrmot.cli import RunConfig
from cvrmot.datamodel import field_types

from helpers import box, lane_scene

# (class, arguments in field order, the ValueError text). Each case is built
# once with the values as positional and once as keyword arguments.
BAD = [
    (BBox, {"x": 0, "y": 0, "w": 0, "h": 10}, "bbox sides must be positive, got w=0, h=10"),
    (BBox, {"x": 0, "y": 0, "w": 10, "h": -1.5}, "bbox sides must be positive, got w=10, h=-1.5"),
    (BBox, {"x": math.nan, "y": 0, "w": 10, "h": 10}, "bbox x must be finite, got nan"),
    (BBox, {"x": 0, "y": -math.inf, "w": 10, "h": 10}, "bbox y must be finite, got -inf"),
    (BBox, {"x": 0, "y": 0, "w": math.inf, "h": math.nan}, "bbox w must be finite, got inf"),
    (BBox, {"x": 0, "y": 0, "w": 10, "h": math.inf}, "bbox h must be finite, got inf"),
    (ScoreRecord, {"s_t": 1.5, "s_a": 0.5}, "s_t must lie in [0, 1], got 1.5"),
    (ScoreRecord, {"s_t": 0.5, "s_a": -0.25}, "s_a must lie in [0, 1], got -0.25"),
    (ScoreRecord, {"s_t": 0.5, "s_a": math.nan}, "s_a must lie in [0, 1], got nan"),
    (ScoreRecord, {"s_t": math.inf, "s_a": 0.5}, "s_t must lie in [0, 1], got inf"),
    # A row's error path reports the first failing check: finiteness before
    # the sides, and the fields in order.
    (BBox, {"x": math.inf, "y": 0, "w": -1, "h": 10}, "bbox x must be finite, got inf"),
    (BBox, {"x": 0, "y": 0, "w": -math.inf, "h": -1}, "bbox w must be finite, got -inf"),
    (ScoreRecord, {"s_t": 2.0, "s_a": math.nan}, "s_t must lie in [0, 1], got 2.0"),
    (
        PredictionSet,
        {"tracks": (), "scores": {(5, 5, 5): ScoreRecord(0.5, 0.5)}},
        "score key (5, 5, 5) has no matching detection",
    ),
    (TrackState, {"track_id": 1, "hit_score": -0.5}, "hit score is never negative"),
    (ErrorSpec, {"miss_count": -1}, "miss_count must be non-negative"),
    (
        ErrorSpec,
        dict(miss_count=0, fp_count=0, temporal_switch_count=0, crossview_mismatch_count=-2),
        "crossview_mismatch_count must be non-negative",
    ),
    (ErrorSpec, {"miss_count": 0, "fp_count": 1.5}, "fp_count must be an integer, got 1.5"),
    (ErrorSpec, {"miss_count": True}, "miss_count must be an integer, got True"),
    (EvalConfig, {"iou_threshold": 0}, "iou_threshold must be in (0, 1], got 0"),
    (EvalConfig, {"iou_threshold": 1.5}, "iou_threshold must be in (0, 1], got 1.5"),
    (EvalConfig, {"iou_threshold": math.nan}, "iou_threshold must be a finite number, got nan"),
    (EvalConfig, {"iou_threshold": "0.5"}, "iou_threshold must be a finite number, got '0.5'"),
    (FusionWeights, {"alpha": None}, "alpha must be a finite number, got None"),
    (FusionWeights, {"alpha": 0.01, "beta": True}, "beta must be a finite number, got True"),
    (PredictorConfig, {"t_as": math.inf}, "t_as must be a finite number, got inf"),
    (
        PredictorConfig,
        {"t_as": 0.5, "t_ss": 0.75, "t_hs": 30.0, "s1": 3.0, "s2": -1.0},
        "score increments s1, s2, s3 must be non-negative",
    ),
    (PredictorConfig, {"t_as": 0.5, "t_ss": 0.0}, "t_ss must be positive"),
    (
        PredictorConfig,
        {"t_as": 0.5, "t_ss": 0.75, "t_hs": 30.0, "s1": 3.0, "s2": 3.0, "s3": 1.0,
         "whole_track": "false"},
        "whole_track must be true or false, got 'false'",
    ),
    (RunConfig, {"seed": 1.0}, "seed must be an integer, got 1.0"),
    (RunConfig, {"seed": False}, "seed must be an integer, got False"),
    (
        LossInputs,
        {"l_d": -0.5, "l_s": 0.0, "l_c": 0.0},
        "l_d must be a finite non-negative loss, got -0.5",
    ),
    (LossInputs, {"l_d": 0.0, "l_s": 0.0, "l_c": 0.0, "w1": math.nan}, "w1 must be finite"),
    (CostMatrix, {"costs": ()}, "cost matrix must have at least one row and one column"),
    (CostMatrix, {"costs": ((0.0, 1.0), (2.0,))}, "ragged cost matrix: row 1 has 1 entries"),
    (CostMatrix, {"costs": ((0.0, -math.inf),)}, "cost[0][1] must be finite or +inf, got -inf"),
]


@pytest.mark.parametrize("cls, kwargs, message", BAD)
@pytest.mark.parametrize("form", ["positional", "keyword"])
def test_checked_records_raise_their_message(cls, kwargs, message, form):
    with pytest.raises(ValueError) as caught:
        if form == "positional":
            cls(*kwargs.values())
        else:
            cls(**kwargs)
    assert str(caught.value) == message


def test_bbox_whose_coordinate_sum_overflows_is_still_valid():
    big = BBox(1e308, 1e308, 1.0, 1.0)
    assert (big.x, big.w) == (1e308, 1.0)


def test_track_sorts_detections_by_frame_then_view():
    dets = [Detection(view, frame, 7, box(float(10 * view + frame))) for view, frame in
            [(1, 2), (0, 2), (2, 1), (0, 1), (1, 1)]]
    expected = [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]
    for track in (Track(7, tuple(dets)), Track(detections=dets, identity=7)):
        assert [(d.frame, d.view_id) for d in track.detections] == expected
        assert type(track.detections) is tuple


def test_records_are_immutable_tuples():
    record = BBox(1.0, 2.0, 3.0, 4.0)
    assert record == (1.0, 2.0, 3.0, 4.0)
    assert tuple(record) == (1.0, 2.0, 3.0, 4.0)
    with pytest.raises(AttributeError):
        record.x = 5.0
    with pytest.raises(AttributeError):
        record.extra = 1
    # _replace does not run the check; a new record does.
    assert record._replace(w=-1.0).w == -1.0
    with pytest.raises(ValueError):
        BBox(*record._replace(w=-1.0))


@pytest.mark.parametrize(
    "value",
    [
        lane_scene(3, 2, 4),
        EvalConfig(0.25),
        FusionWeights(0.5, 0.2),
        PredictorConfig(t_hs=12.0, whole_track=True),
        RunConfig(7),
        ErrorSpec(1, 2, 3, 4),
        PredictionSet(lane_scene().gt_tracks, {(0, 1, 1): ScoreRecord(0.5, 0.25)}),
    ],
    ids=lambda value: type(value).__name__,
)
def test_pickle_round_trip_is_equal(value):
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value
    assert type(copy) is type(value)


def test_prediction_set_default_scores_are_an_immutable_empty_mapping():
    first = PredictionSet(())
    second = PredictionSet(())
    assert first.scores == {} and len(first.scores) == 0
    with pytest.raises(TypeError):
        first.scores[(0, 1, 1)] = ScoreRecord(0.5, 0.5)
    assert second.scores == {}


def test_config_field_types_and_echo():
    assert field_types(PredictorConfig) == {
        "t_as": float, "t_ss": float, "t_hs": float,
        "s1": float, "s2": float, "s3": float, "whole_track": bool,
    }
    assert field_types(ErrorSpec) == dict.fromkeys(ErrorSpec._fields, int)
    assert EvalConfig()._asdict() == {"iou_threshold": 0.5}
    assert RunConfig(3)._asdict() == {"seed": 3}


def test_no_record_has_an_instance_dict():
    import cvrmot

    records = [getattr(cvrmot, name) for name in cvrmot.__all__]
    records = [obj for obj in records if isinstance(obj, type) and issubclass(obj, tuple)]
    assert len(records) == 23
    for cls in records + [RunConfig]:
        assert cls.__dictoffset__ == 0, cls.__name__
