"""Write -> parse round trips and garbage-row fuzzing of the per-view CSV codec."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cvrmot import (
    BBox,
    Detection,
    ParseError,
    PredictionSet,
    Scene,
    ScoreRecord,
    Track,
    parse_predictions,
    parse_scene,
    parse_scores,
    write_predictions,
    write_scene,
    write_scores,
)
from cvrmot.ingest import _read_box_rows, _read_score_rows

from oracles import oracle_box_rows, oracle_score_rows

NUM_VIEWS = 3
NUM_FRAMES = 4

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
unit = st.floats(min_value=0.0, max_value=1.0)
boxes = st.builds(BBox, finite, finite, positive, positive)
keys = st.tuples(
    st.integers(0, NUM_VIEWS - 1), st.integers(1, NUM_FRAMES), st.integers(-5, 5)
)


def _tracks(by_key):
    by_id = {}
    for (view, frame, identity), bbox in by_key.items():
        by_id.setdefault(identity, []).append(Detection(view, frame, identity, bbox))
    return tuple(Track(i, tuple(dets)) for i, dets in sorted(by_id.items()))


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(keys, boxes, max_size=20), st.text(max_size=8))
def test_scene_round_trip(by_key, name):
    scene = Scene(name, NUM_VIEWS, NUM_FRAMES, (640, 480), _tracks(by_key))
    with tempfile.TemporaryDirectory() as tmp:
        write_scene(scene, Path(tmp) / "manifest.json", Path(tmp) / "gt")
        assert parse_scene(Path(tmp) / "manifest.json", Path(tmp) / "gt") == scene


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(keys, st.tuples(boxes, st.none() | st.tuples(unit, unit)), max_size=20))
def test_predictions_round_trip_with_and_without_scores(rows):
    scores = {key: ScoreRecord(*score) for key, (_, score) in rows.items() if score is not None}
    pred = PredictionSet("d", _tracks({key: bbox for key, (bbox, _) in rows.items()}), scores)
    with tempfile.TemporaryDirectory() as tmp:
        write_predictions(pred, tmp, NUM_VIEWS)
        assert parse_predictions(tmp, "d", NUM_VIEWS) == pred


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(keys, st.builds(ScoreRecord, unit, unit), max_size=20))
def test_scores_round_trip(scores):
    with tempfile.TemporaryDirectory() as tmp:
        write_scores(scores, tmp, NUM_VIEWS)
        assert parse_scores(tmp, NUM_VIEWS) == scores


numberish = st.text(alphabet="0123456789-+.,eEinfa _", max_size=40)
garbage_lines = st.lists(st.one_of(numberish, st.text(max_size=40)), max_size=6)


@settings(max_examples=300, deadline=None)
@given(garbage_lines)
def test_garbage_rows_parse_or_raise_parse_error(lines):
    text = "\n".join(lines)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "manifest.json").write_text(
            '{"name": "s", "views": 2, "frames_per_view": 9, '
            '"image_width": 9, "image_height": 9}'
        )
        for sub in ("gt", "csv"):
            (root / sub).mkdir()
            (root / sub / "view_00.csv").write_text(text, "utf-8")
            (root / sub / "view_01.csv").write_text("")
        for parse in (
            lambda: parse_scene(root / "manifest.json", root / "gt"),
            lambda: parse_predictions(root / "csv", "d", 2),
            lambda: parse_scores(root / "csv", 2),
        ):
            try:
                parse()
            except ParseError:
                pass


# Fields for the one-pass reader against the per-field reader it replaced.
# Each field is valid nine times in ten; otherwise it is garbage, out of range
# (a key, a size <= 0, a score outside [0, 1]) or nan / inf / 1e400. Small keys
# make repeats common; rows also get wrong field counts and padding.


def mostly(good, bad):
    return st.integers(0, 9).flatmap(lambda i: bad if i == 0 else good)


NOT_FINITE = ["nan", "inf", "-inf", "1e400", "-1e400", "NaN"]
GARBAGE = ["", "-", "abc", "1.5.2", "0x10", "1e", "--1"]
KEY = mostly(st.integers(1, 4).map(str), st.sampled_from(["0", "-1", "1.0", "+2", *GARBAGE]))
NUMBER = mostly(
    st.one_of(st.floats(-60, 60).map(repr), st.integers(-60, 60).map(str), st.just("1e-400")),
    st.sampled_from(NOT_FINITE + GARBAGE),
)
SIZE = mostly(st.floats(0.5, 40).map(repr), st.sampled_from(["0", "-0.0", "-3", *NOT_FINITE]))
SCORE = mostly(st.floats(0, 1).map(repr), st.sampled_from(["1.5", "-0.5", "1.0000001", *NOT_FINITE]))
PADS = st.sampled_from(["", "", "", " ", "\t", " \t "])


@st.composite
def csv_texts(draw, kind):
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 7)) == 0:  # blank or whitespace-only
            lines.append(draw(st.sampled_from(["", " ", "\t", " \t  "])))
            continue
        fields = [draw(KEY), draw(KEY)]
        if kind == "scores":
            fields += [draw(SCORE), draw(SCORE)]
        else:
            fields += [draw(NUMBER), draw(NUMBER), draw(SIZE), draw(SIZE)]
            if kind == "predictions" and draw(st.booleans()):
                fields += [draw(SCORE), draw(SCORE)]
        if draw(st.integers(0, 9)) == 0:  # one field too few or too many
            fields = fields[:-1] if draw(st.booleans()) else fields + [draw(NUMBER)]
        lines.append(",".join(draw(PADS) + f + draw(PADS) for f in fields))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


def _outcome(read):
    try:
        return "ok", read()
    except ParseError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("kind", ["gt", "predictions", "scores"])
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_row_reader_matches_the_per_field_oracle(kind, data):
    text = data.draw(csv_texts(kind))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "view_01.csv"
        path.write_bytes(text.encode("ascii"))
        new, old = {
            "gt": (lambda: _read_box_rows(path, 1, False), lambda: oracle_box_rows(path, 1, False)),
            "predictions": (
                lambda: _read_box_rows(path, 1, True), lambda: oracle_box_rows(path, 1, True)
            ),
            "scores": (lambda: _read_score_rows(path, 1), lambda: oracle_score_rows(path, 1)),
        }[kind]
        assert _outcome(new) == _outcome(old)
