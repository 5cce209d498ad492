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
from cvrmot.ingest import _read_box_rows, _read_score_rows, record_text, view_lines, write_lines

from oracles import (
    oracle_box_row,
    oracle_box_rows,
    oracle_prediction_rows,
    oracle_score_rows,
    oracle_write_views,
)

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
    pred = PredictionSet(_tracks({key: bbox for key, (bbox, _) in rows.items()}), scores)
    with tempfile.TemporaryDirectory() as tmp:
        write_predictions(pred, tmp, NUM_VIEWS)
        assert parse_predictions(tmp, NUM_VIEWS) == pred


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(keys, st.builds(ScoreRecord, unit, unit), max_size=20))
def test_scores_round_trip(scores):
    with tempfile.TemporaryDirectory() as tmp:
        write_scores(scores, tmp, NUM_VIEWS)
        assert parse_scores(tmp, NUM_VIEWS) == scores


# Numbers whose repr is easy to get wrong: signed zero, extremes, and ints.
EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 1e-300, -1e-300, 1e22, -1e22, 5e-324])
coordinates = st.one_of(EDGE_FLOATS, st.integers(-10**6, 10**6), finite)
sides = st.one_of(st.sampled_from([1e-300, 1e22, 5e-324]), st.integers(1, 10**6), positive)
unit_scores = st.one_of(st.sampled_from([-0.0, 0.0, 1e-300, 1.0, 0, 1]), unit)
written_boxes = st.builds(BBox, coordinates, coordinates, sides, sides)
written_scores = st.builds(ScoreRecord, unit_scores, unit_scores)


def _same_files(tmp, write, oracle):
    """``write`` and ``oracle`` each fill a directory; their files must be byte-identical."""
    new, old = Path(tmp) / "new", Path(tmp) / "old"
    write(new)
    old.mkdir(parents=True)
    oracle(old)
    names = sorted(p.name for p in old.iterdir())
    assert sorted(p.name for p in new.iterdir()) == names
    for name in names:
        assert (new / name).read_bytes() == (old / name).read_bytes(), name


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(keys, st.tuples(written_boxes, st.none() | written_scores), max_size=12))
def test_writers_match_the_per_row_oracle(rows):
    scores = {key: score for key, (_, score) in rows.items() if score is not None}
    tracks = _tracks({key: bbox for key, (bbox, _) in rows.items()})
    scene = Scene("s", NUM_VIEWS, NUM_FRAMES, (640, 480), tracks)
    score_rows = [(*key, *record) for key, record in scores.items()]
    with tempfile.TemporaryDirectory() as tmp:
        _same_files(
            Path(tmp) / "scene",
            lambda out: write_scene(scene, out.parent / "manifest.json", out),
            lambda out: oracle_write_views(
                out, NUM_VIEWS, [oracle_box_row(d) for d in scene.all_detections()]
            ),
        )
        _same_files(
            Path(tmp) / "predictions",
            lambda out: write_predictions(PredictionSet(tracks, scores), out, NUM_VIEWS),
            lambda out: oracle_write_views(out, NUM_VIEWS, oracle_prediction_rows(tracks, scores)),
        )
        _same_files(
            Path(tmp) / "scores",
            lambda out: write_scores(scores, out, NUM_VIEWS),
            lambda out: oracle_write_views(out, NUM_VIEWS, score_rows),
        )


def test_shared_text_keeps_equal_records_that_print_differently_apart(tmp_path):
    """Text reused by object never merges ``10`` with ``10.0`` or ``0.0`` with ``-0.0``."""
    by_key = {
        (0, 1, 1): BBox(10, 0, 10, 10),
        (0, 1, 2): BBox(10.0, 0.0, 10.0, 10.0),
        (1, 1, 1): BBox(10.0, -0.0, 10.0, 10.0),
    }
    scores = {
        (0, 1, 1): ScoreRecord(0, 1),
        (0, 1, 2): ScoreRecord(0.0, 1.0),
        (1, 1, 1): ScoreRecord(-0.0, 1.0),
    }
    tracks = _tracks(by_key)
    scene = Scene("s", NUM_VIEWS, NUM_FRAMES, (640, 480), tracks)
    texts = {}  # shared by every file, as synth shares it

    def text_rows(pred_scores):
        """Each detection's key, then the text of its box and of its scores, if any."""
        rows = []
        for d in scene.all_detections():
            records = (d.bbox, pred_scores[d[:3]]) if d[:3] in pred_scores else (d.bbox,)
            rows.append((*d[:3], *(record_text(record, texts) for record in records)))
        return rows

    box_rows = [oracle_box_row(d) for d in scene.all_detections()]
    _same_files(
        tmp_path / "gt",
        lambda out: write_lines(out, view_lines(text_rows({}), NUM_VIEWS)),
        lambda out: oracle_write_views(out, NUM_VIEWS, box_rows),
    )
    for name, pred_scores in (("boxes", {}), ("scored", scores)):
        _same_files(
            tmp_path / name,
            lambda out: write_lines(out, view_lines(text_rows(pred_scores), NUM_VIEWS)),
            lambda out: oracle_write_views(
                out, NUM_VIEWS, oracle_prediction_rows(tracks, pred_scores)
            ),
        )
    # A record is held by its entry, so a new equal record cannot take its id.
    texts = {}
    assert record_text(BBox(1, 2, 3, 4), texts) == "1,2,3,4"
    for _ in range(3):
        assert record_text(BBox(1.0, 2.0, 3.0, 4.0), texts) == "1.0,2.0,3.0,4.0"


def test_view_lines_prints_numbers_as_their_repr_and_text_unchanged():
    """One path for every row: ``str`` of each field after the view column."""
    text = "1.0,2,-0.0,4e-05"
    rows = [
        (1, 3, 9, 7, -0.0, 5e-324, 1e300, 0.30000000000000004, text),
        (0, 2, 4, text),
        (1, 1, 9, 10, 2.5),
    ]
    assert view_lines(rows, 3) == [
        ["2,4,1.0,2,-0.0,4e-05"],
        ["1,9,10,2.5", "3,9,7,-0.0,5e-324,1e+300,0.30000000000000004,1.0,2,-0.0,4e-05"],
        [],
    ]
    numbers = rows[0][3:-1]
    assert view_lines([rows[0]], 3)[1] == [",".join(map(repr, (3, 9, *numbers))) + "," + text]


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
            lambda: parse_predictions(root / "csv", 2),
            lambda: parse_scores(root / "csv", 2),
        ):
            try:
                parse()
            except ParseError:
                pass


# Fields for the one-pass reader against the per-field reader it replaced.
# Each field is valid nine times in ten; otherwise it is garbage, out of range
# (a key, a size <= 0, a score outside [0, 1]) or nan / inf / 1e400. Small keys
# make repeats common; rows also get wrong field counts and padding. Box rows
# are read with LAST_FRAME as the scene's last frame, so a key of 4 is a frame
# past it; score rows, which only ``filter`` reads, have no such bound.
LAST_FRAME = 3


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


def _readers(kind, path):
    """The reader of ``kind`` and the per-field oracle of it, both reading ``path``."""
    return {
        "gt": (
            lambda: _read_box_rows(path, 1, False, LAST_FRAME),
            lambda: oracle_box_rows(path, 1, False, LAST_FRAME),
        ),
        "predictions": (
            lambda: _read_box_rows(path, 1, True, LAST_FRAME),
            lambda: oracle_box_rows(path, 1, True, LAST_FRAME),
        ),
        "scores": (lambda: _read_score_rows(path, 1), lambda: oracle_score_rows(path, 1)),
    }[kind]


@pytest.mark.parametrize("kind", ["gt", "predictions", "scores"])
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_row_reader_matches_the_per_field_oracle(kind, data):
    text = data.draw(csv_texts(kind))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "view_01.csv"
        path.write_bytes(text.encode("ascii"))
        new, old = _readers(kind, path)
        assert _outcome(new) == _outcome(old)


BOX_ROWS = [f"{frame},{identity},10.5,-2.0,5.0,6.25" for frame in (1, 2) for identity in (1, 2)]
SCORED = [row + ",0.5,0.75" for row in BOX_ROWS]
# Longer than the 8 KiB a text-mode file decodes at a time: a bad byte after that is
# named by its position within its chunk, not within the file.
LONG_GT = "".join(f"1,{identity},10.5,-2.0,5.0,6.25\n" for identity in range(400)).encode()

# Edge cases of the whole-file pass and of the line-by-line reader it falls back to:
# case -> (kind, file bytes, "ok" or a part of the error).
EDGE_CASES = {
    "mixed-widths": ("predictions", "\n".join(BOX_ROWS[:2] + SCORED[2:]).encode(), "ok"),
    "blank-line": ("gt", "\n".join(BOX_ROWS[:2] + [""] + BOX_ROWS[2:]).encode(), "ok"),
    "crlf": ("predictions", "\r\n".join(SCORED).encode() + b"\r\n", "ok"),
    "cr": ("scores", b"1,1,0.5,0.5\r2,1,0.5,0.5\r", "ok"),
    "x1c-padding": ("gt", "\n".join(BOX_ROWS[:1] + ["\x1c1,2,10.5,-2.0,5.0,6.25"]).encode(), "ok"),
    "repeated-key": ("scores", b"1,1,0.5,0.5\n2,1,0.5,0.5\n1,1,0.25,0.5\n", "first at line 1"),
    "empty": ("predictions", b"", "ok"),
    "whitespace-only": ("gt", b" \n\t\n", "ok"),
    "non-utf8-past-8k": ("gt", LONG_GT + b"2,1,1\xff.0,20.0,5.0,6.0\n", "not UTF-8 text"),
    "frame-past-end": (  # plain lines: the whole-file pass sees it first
        "gt", "\n".join(BOX_ROWS + ["4,1,10.5,-2.0,5.0,6.25"]).encode(),
        ":5: frame must be <= 3, got 4",
    ),
    "scores-unbounded": ("scores", b"1,1,0.5,0.5\n99999,1,0.5,0.5\n", "ok"),
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_row_reader_edge_cases_match_the_per_field_oracle(tmp_path, case):
    kind, data, expected = EDGE_CASES[case]
    path = tmp_path / "view_01.csv"
    path.write_bytes(data)
    new, old = _readers(kind, path)
    status, value = _outcome(new)
    assert (status, value) == _outcome(old)
    if expected == "ok":
        assert status == "ok"
    else:
        assert status == "error" and expected in value
