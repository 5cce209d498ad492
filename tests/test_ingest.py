import json
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from cvrmot import (
    AttributeSet,
    LanguageDescription,
    ParseError,
    PredictionSet,
    ScoreRecord,
    build_report,
    parse_descriptions,
    parse_predictions,
    parse_scene,
    parse_scores,
    read_report,
    render_description,
    write_descriptions,
    write_predictions,
    write_report,
    write_scene,
    write_scores,
)
from cvrmot.metrics import (
    AggregateResult,
    DescriptionResult,
    IdMeasures,
    MetricCounts,
    aggregate,
    evaluate_description,
)
from cvrmot.synth import generate_scene

from helpers import desc_for, lane_scene, predictions_from_gt, tracks_copy


def test_scene_round_trip(tmp_path):
    scene = generate_scene(3, 4, 7, seed=5)
    write_scene(scene, tmp_path / "manifest.json", tmp_path / "gt")
    again = parse_scene(tmp_path / "manifest.json", tmp_path / "gt")
    assert again == scene


def test_scene_row_count_conservation(tmp_path):
    scene = lane_scene(num_views=2, num_ids=1, num_frames=3)
    write_scene(scene, tmp_path / "manifest.json", tmp_path / "gt")
    text = (tmp_path / "gt" / "view_00.csv").read_text()
    assert len(text.strip().splitlines()) == 3
    again = parse_scene(tmp_path / "manifest.json", tmp_path / "gt")
    assert again.detection_count() == 6


def test_scene_parse_error_names_file_and_line(tmp_path):
    scene = lane_scene(num_views=2, num_ids=1, num_frames=3)
    write_scene(scene, tmp_path / "manifest.json", tmp_path / "gt")
    gt_file = tmp_path / "gt" / "view_01.csv"
    lines = gt_file.read_text().splitlines()
    lines[1] = "2,1,0.0,0.0,0,20.0"  # zero width
    gt_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        parse_scene(tmp_path / "manifest.json", tmp_path / "gt")
    assert err.value.line == 2
    assert "view_01.csv" in err.value.path


def test_scene_missing_view_file(tmp_path):
    scene = lane_scene(num_views=2)
    write_scene(scene, tmp_path / "manifest.json", tmp_path / "gt")
    (tmp_path / "gt" / "view_01.csv").unlink()
    with pytest.raises(ParseError) as err:
        parse_scene(tmp_path / "manifest.json", tmp_path / "gt")
    assert "missing ground-truth file" in str(err.value)


def test_descriptions_round_trip(tmp_path):
    scene = lane_scene(num_ids=3)
    descs = [
        desc_for(scene, {1, 2}, "two"),
        desc_for(scene, set(), "none"),
        LanguageDescription(
            "styled",
            "A person in a black coat.",
            AttributeSet(coat="black coat"),
            frozenset({3}),
        ),
    ]
    path = tmp_path / "descriptions.json"
    write_descriptions(descs, path)
    again = parse_descriptions(path, scene)
    assert again == descs
    assert len(again[1].referred_identities) == 0
    assert len(again[0].referred_identities) == 2


def test_descriptions_unknown_identity(tmp_path):
    scene = lane_scene(num_ids=2)
    path = tmp_path / "descriptions.json"
    write_descriptions([desc_for(scene, {1}, "ok")], path)
    raw = json.loads(path.read_text())
    raw[0]["referred_identities"] = [99]
    path.write_text(json.dumps(raw))
    with pytest.raises(ParseError) as err:
        parse_descriptions(path, scene)
    assert "99" in str(err.value)


def test_descriptions_unknown_attribute_category(tmp_path):
    path = tmp_path / "descriptions.json"
    payload = [
        {
            "id": "x",
            "text": "t",
            "attributes": {"hat": "red"},
            "referred_identities": [],
        }
    ]
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError) as err:
        parse_descriptions(path)
    assert "hat" in str(err.value)


def test_predictions_group_rows_into_tracks(tmp_path):
    (tmp_path / "view_00.csv").write_text("1,1,0.0,0.0,10.0,20.0\n2,1,1.0,0.0,10.0,20.0\n1,2,50.0,0.0,10.0,20.0\n")
    (tmp_path / "view_01.csv").write_text("")
    preds = parse_predictions(tmp_path, 2)
    assert len(preds.tracks) == 2
    assert sum(len(t.detections) for t in preds.tracks) == 3
    assert preds.scores == {}


def test_predictions_with_scores(tmp_path):
    (tmp_path / "view_00.csv").write_text(
        "1,1,0.0,0.0,10.0,20.0,0.9,0.8\n"
        "2,1,1.0,0.0,10.0,20.0,0.7,0.6\n"
        "1,2,50.0,0.0,10.0,20.0,0.1,0.2\n"
    )
    preds = parse_predictions(tmp_path, 1)
    assert len(preds.scores) == 3
    assert preds.scores[(0, 1, 1)] == ScoreRecord(0.9, 0.8)


def test_predictions_empty_directory_is_empty_set(tmp_path):
    preds = parse_predictions(tmp_path, 2)
    assert preds.tracks == ()
    assert sum(len(t.detections) for t in preds.tracks) == 0


def test_predictions_score_out_of_range(tmp_path):
    (tmp_path / "view_00.csv").write_text("1,1,0.0,0.0,10.0,20.0,1.5,0.5\n")
    with pytest.raises(ParseError) as err:
        parse_predictions(tmp_path, 1)
    assert err.value.line == 1


def test_predictions_round_trip_with_scores(tmp_path):
    scene = lane_scene(num_views=2, num_ids=2, num_frames=3)
    tracks = tracks_copy(scene)
    scores = {
        (d.view_id, d.frame, d.identity): ScoreRecord(0.5, 0.25)
        for t in tracks
        for d in t.detections
    }
    original = PredictionSet(tracks, scores)
    write_predictions(original, tmp_path / "preds", 2)
    again = parse_predictions(tmp_path / "preds", 2)
    assert again == original


def test_prediction_set_rejects_orphan_scores():
    scene = lane_scene(num_views=2, num_ids=1, num_frames=1)
    with pytest.raises(ValueError):
        PredictionSet(tracks_copy(scene), {(5, 5, 5): ScoreRecord(0.5, 0.5)})


def test_scores_round_trip(tmp_path):
    scores = {
        (0, 1, 1): ScoreRecord(0.25, 0.5),
        (1, 2, 3): ScoreRecord(0.125, 0.75),
    }
    write_scores(scores, tmp_path / "scores", 2)
    assert parse_scores(tmp_path / "scores", 2) == scores


def test_render_description_worked_example():
    attrs = AttributeSet(coat="black coat", trousers="blue trousers", held_item_style="a book")
    assert (
        render_description(attrs)
        == "A person in a black coat and blue trousers, holding a book."
    )


def test_render_description_empty_and_deterministic():
    assert render_description(AttributeSet()) == "A person."
    attrs = AttributeSet(
        headwear_color="red",
        headwear_style="with cap",
        coat="white coat",
        trousers="black trousers",
        shoes="white shoes",
        held_item_color="orange",
        held_item_style="a bag",
        transportation="an electric bike",
    )
    first = render_description(attrs)
    assert first == render_description(attrs)
    assert first == (
        "A person with a red cap, in a white coat, black trousers and white shoes, "
        "holding an orange bag, riding an electric bike."
    )


def test_report_round_trip(tmp_path):
    scene = lane_scene(num_views=2, num_ids=2, num_frames=3)
    descs = [desc_for(scene, {1}, "a"), desc_for(scene, {2}, "b")]
    results = [
        evaluate_description(scene, d, tracks_copy(scene, d.referred_identities))
        for d in descs
    ]
    report = build_report(results, aggregate(results), {"iou_threshold": 0.5})
    assert len(report["descriptions"]) == 2
    assert report["aggregate"]["n_l"] == 2
    path = tmp_path / "report.json"
    write_report(report, path)
    assert read_report(path) == report


def test_report_empty_results_marks_aggregate_undefined(tmp_path):
    report = build_report([], aggregate([]), {})
    assert report["aggregate"] == {"n_l": 0, "cvridf1": None, "cvrma": None}
    write_report(report, tmp_path / "r.json")
    assert read_report(tmp_path / "r.json") == report


# Text built from JSON escapes, non-ASCII characters and the writer's marker.
TEXT = st.one_of(
    st.text(max_size=8),
    st.lists(
        st.sampled_from(['"', "\\", "\n", "\x00", "é", "雪", "\U0001f600", "d00", "frames",
                         '"frames": []', "[]", ": "]),
        max_size=6,
    ).map("".join),
)
COUNT = st.integers(0, 10**12)
RATIO = st.floats(allow_nan=False)


@st.composite
def description_results(draw):
    rows = draw(st.lists(st.tuples(COUNT, COUNT, COUNT, COUNT, COUNT), max_size=4))
    counts = MetricCounts(*(tuple(column) for column in zip(*rows))) if rows else MetricCounts(
        (), (), (), (), ())
    return DescriptionResult(draw(TEXT), counts, IdMeasures(draw(COUNT), draw(COUNT), draw(COUNT)))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(description_results(), max_size=4),
    st.just(AggregateResult(0, None, None)) | st.builds(AggregateResult, COUNT, RATIO, RATIO),
    st.dictionaries(TEXT, st.one_of(COUNT, RATIO, st.booleans(), TEXT, st.just([])), max_size=3),
)
@example(  # a config key gives json.dumps a "frames": [] the writer must not fill
    [DescriptionResult('"frames": []', MetricCounts((1,), (2,), (3,), (4,), (5,)),
                       IdMeasures(1, 2, 3))],
    AggregateResult(0, None, None),
    {"frames": []},
)
def test_write_report_equals_json_dumps(tmp_path_factory, results, aggregate_result, config):
    report = build_report(results, aggregate_result, config)
    expected = json.dumps(report, indent=2, sort_keys=True) + "\n"
    path = tmp_path_factory.mktemp("report") / "report.json"
    write_report(report, path)
    assert path.read_bytes() == expected.encode("utf-8")
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == expected  # report left as it was


def test_predictions_from_gt_matches_scene():
    scene = lane_scene(num_views=2, num_ids=2, num_frames=2)
    preds = predictions_from_gt(scene)
    assert preds.tracks == scene.gt_tracks


def test_parse_predictions_rejects_duplicate_row(tmp_path):
    scene = lane_scene(num_views=2, num_ids=2, num_frames=2)
    write_predictions(PredictionSet(tracks_copy(scene)), tmp_path, 2)
    view = tmp_path / "view_01.csv"
    lines = view.read_text().splitlines()
    view.write_text("\n".join(lines[:2] + [lines[1]] + lines[2:]) + "\n")
    with pytest.raises(ParseError, match="duplicate row for frame 1, id 2") as info:
        parse_predictions(tmp_path, 2)
    assert info.value.path == str(view)
    assert info.value.line == 3


def test_view_count_is_highest_index_plus_one(tmp_path):
    from cvrmot.ingest import view_count

    with pytest.raises(ParseError, match="no view_"):
        view_count(tmp_path)
    (tmp_path / "view_00.csv").write_text("")
    (tmp_path / "view_02.csv").write_text("")
    assert view_count(tmp_path) == 3
    (tmp_path / "view_002.csv").write_text("")
    with pytest.raises(ParseError, match="view_NN"):
        view_count(tmp_path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("views", 2.9),
        ("frames_per_view", 10.5),
        ("views", None),
        ("image_width", None),
        ("image_height", True),
        ("name", 5),
    ],
)
def test_manifest_values_must_have_exact_types(tmp_path, key, value):
    write_scene(lane_scene(), tmp_path / "manifest.json", tmp_path / "gt")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest[key] = value
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ParseError, match=f"manifest field '{key}' must be") as err:
        parse_scene(tmp_path / "manifest.json", tmp_path / "gt")
    assert err.value.path == str(tmp_path / "manifest.json")


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("referred_identities", "12", "entry 0 field 'referred_identities'"),
        ("referred_identities", [1.5], "entry 0 referred_identities[0]"),
        ("referred_identities", [True], "entry 0 referred_identities[0]"),
        ("id", 5, "entry 0 field 'id'"),
        ("text", None, "entry 0 field 'text'"),
        ("attributes", None, "entry 0 field 'attributes'"),
        ("attributes", {"coat": 1}, "attribute 'coat'"),
        ("referred_identities", [1, 1], "entry 0 referred_identities[1] repeats identity 1"),
    ],
)
def test_description_values_must_have_exact_types(tmp_path, key, value, named):
    path = tmp_path / "descriptions.json"
    write_descriptions([desc_for(lane_scene(), {1}, "d")], path)
    raw = json.loads(path.read_text())
    raw[0][key] = value
    path.write_text(json.dumps(raw))
    with pytest.raises(ParseError, match=re.escape(named)) as err:
        parse_descriptions(path)
    assert err.value.path == str(path)


@pytest.mark.parametrize("content", ["5", '"abc"', "not json"])
def test_json_files_must_hold_the_expected_value(tmp_path, content):
    path = tmp_path / "descriptions.json"
    path.write_text(content)
    with pytest.raises(ParseError) as err:
        parse_descriptions(path)
    assert err.value.path == str(path)


@pytest.mark.parametrize(
    "rows, line, message",
    [
        ("1,1,0.5,0.5\n1,1,0.6,0.6\n", 2, "duplicate row for frame 1, id 1 (first at line 1)"),
        ("0,1,0.5,0.5\n", 1, "frame must be >= 1, got 0"),
        ("-3,1,0.5,0.5\n", 1, "frame must be >= 1, got -3"),
    ],
)
def test_score_rows_get_the_box_row_key_checks(tmp_path, rows, line, message):
    (tmp_path / "view_00.csv").write_text(rows)
    with pytest.raises(ParseError) as err:
        parse_scores(tmp_path, 1)
    assert err.value.line == line
    assert message in str(err.value)


def test_writers_reject_a_view_past_the_view_count(tmp_path):
    with pytest.raises(ValueError, match="view 1 is outside the 1 views"):
        write_scores({(1, 1, 1): ScoreRecord(0.5, 0.5)}, tmp_path, 1)


def test_non_utf8_files_are_parse_errors_naming_the_file(tmp_path):
    (tmp_path / "view_00.csv").write_bytes(b"1,1,0.5,\xff\n")
    with pytest.raises(ParseError, match="not UTF-8") as err:
        parse_scores(tmp_path, 1)
    assert err.value.path == str(tmp_path / "view_00.csv")
    (tmp_path / "descriptions.json").write_bytes(b'["\xff"]')
    with pytest.raises(ParseError, match="invalid JSON") as err:
        parse_descriptions(tmp_path / "descriptions.json")
    assert err.value.path == str(tmp_path / "descriptions.json")


_ROWS = {  # a valid row of each CSV kind, with a {} where one numeric field goes
    "gt": ("1,1,0.0,{},10.0,10.0", "y", "0.0"),
    "predictions": ("{},1,0.0,0.0,10.0,10.0,0.5,0.5", "frame", "1"),
    "scores": ("1,1,0.5,{}", "s_a", "0.5"),
}


def _parse_kind(kind, tmp_path, text):
    """Write ``text`` as view 0's file of ``kind`` in a 2-view scene; parse and return it."""
    path = tmp_path / "csv" / "view_00.csv"
    path.parent.mkdir(exist_ok=True)
    path.write_text(text, "utf-8")
    (path.parent / "view_01.csv").write_text("")
    if kind == "gt":
        manifest = {"name": "s", "views": 2, "frames_per_view": 9,
                    "image_width": 99, "image_height": 99}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        return parse_scene(tmp_path / "manifest.json", path.parent).gt_tracks
    if kind == "predictions":
        return parse_predictions(path.parent, 2)
    return parse_scores(path.parent, 2)


@pytest.mark.parametrize("kind", sorted(_ROWS))
@pytest.mark.parametrize("token", ["1_0", "1_0.0", "\u0662", "\u0661.5", "\uff11", "2\u00b2"])
def test_csv_numbers_must_be_ascii_without_underscores(tmp_path, kind, token):
    row, field, value = _ROWS[kind]
    text = row.format(value) + "\n\n" + row.format(token).replace("1,1,", "2,1,", 1) + "\n"
    with pytest.raises(ParseError) as err:
        _parse_kind(kind, tmp_path, text)
    assert str(err.value) == f"{tmp_path / 'csv' / 'view_00.csv'}:3: bad {field}: {token!r}"


@pytest.mark.parametrize("kind", sorted(_ROWS))
@pytest.mark.parametrize("pad", [" \t", "\xa0", "\u3000", "\x1c", "\x1f"])
def test_csv_fields_padded_with_any_whitespace_still_parse(tmp_path, kind, pad):
    row, _, value = _ROWS[kind]
    plain = _parse_kind(kind, tmp_path, row.format(value) + "\n")
    padded = _parse_kind(kind, tmp_path, pad + row.format(pad + value + pad) + pad + "\n")
    assert padded == plain
