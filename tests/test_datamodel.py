import math
import re
import struct

import pytest
from hypothesis import given, settings, strategies as st

from cvrmot import (
    ATTRIBUTE_CATEGORIES,
    AttributeSet,
    BBox,
    DEFAULT_VOCABULARY,
    Detection,
    Scene,
    Track,
    iou,
    validate_attributes,
    validate_scene,
)
from cvrmot.datamodel import validate_description

from helpers import box, desc_for, lane_scene
from oracles import oracle_iou


def test_bbox_rejects_bad_sides():
    with pytest.raises(ValueError):
        BBox(0, 0, 0, 10)
    with pytest.raises(ValueError):
        BBox(0, 0, 10, -1)
    with pytest.raises(ValueError):
        BBox(math.nan, 0, 10, 10)
    with pytest.raises(ValueError):
        BBox(0, math.inf, 10, 10)


def test_iou_identical_is_exactly_one():
    b = BBox(0.1, 0.2, 0.3, 0.4)
    assert iou(b, b) == 1.0


def test_iou_disjoint_is_zero():
    assert iou(box(0.0), box(100.0)) == 0.0


def test_iou_partial_overlap_hand_value():
    a = BBox(0, 0, 2, 2)
    b = BBox(1, 0, 2, 2)
    # intersection 1x2 = 2, union 4 + 4 - 2 = 6
    assert iou(a, b) == 1 / 3
    assert iou(b, a) == 1 / 3


_coords = st.integers(min_value=-1000, max_value=1000)
_sides = st.integers(min_value=1, max_value=500)


@st.composite
def int_boxes(draw):
    return BBox(draw(_coords), draw(_coords), draw(_sides), draw(_sides))


# Ints, signed zeros, the smallest subnormal and huge values, where min/max pick an operand.
_iou_numbers = st.one_of(
    st.sampled_from([0, 1, -1, 0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]),
    st.integers(-10**6, 10**6),
    st.floats(-1e300, 1e300),
)
_iou_sides = st.one_of(
    st.sampled_from([1, 5e-324, 1e300]),
    st.integers(1, 10**6),
    st.floats(0.0, 1e300, exclude_min=True),
)
_iou_boxes = st.builds(BBox, _iou_numbers, _iou_numbers, _iou_sides, _iou_sides)


def _iou_outcome(fn, a, b):
    """The bits of ``fn(a, b)``, or the type of what it raised (a subnormal area is 0)."""
    try:
        return struct.pack("d", fn(a, b))
    except ArithmeticError as exc:
        return type(exc)


@settings(max_examples=500)
@given(_iou_boxes, _iou_boxes)
def test_iou_matches_the_min_max_oracle_bit_for_bit(a, b):
    for pair in ((a, b), (b, a), (a, a)):
        assert _iou_outcome(iou, *pair) == _iou_outcome(oracle_iou, *pair)


@given(int_boxes(), int_boxes())
def test_iou_symmetric_and_bounded(a, b):
    v = iou(a, b)
    assert v == iou(b, a)
    assert 0.0 <= v <= 1.0


@given(int_boxes(), int_boxes())
def test_iou_one_only_for_identical(a, b):
    if (a.x, a.y, a.w, a.h) == (b.x, b.y, b.w, b.h):
        assert iou(a, b) == 1.0
    else:
        assert iou(a, b) < 1.0


def test_track_sorts_detections():
    d1 = Detection(1, 2, 7, box(0.0))
    d2 = Detection(0, 1, 7, box(5.0))
    d3 = Detection(0, 2, 7, box(10.0))
    track = Track(7, (d1, d2, d3))
    assert [(d.frame, d.view_id) for d in track.detections] == [(1, 0), (2, 0), (2, 1)]


def test_validate_scene_clean():
    assert validate_scene(lane_scene()) is None


def _scene_with(*tracks):
    return Scene("bad", 2, 3, (4000, 2000), tracks)


def _raises(scene, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        validate_scene(scene)


def test_validate_scene_too_few_views():
    _raises(Scene("one", 1, 3, (4000, 2000), ()), "[scene] num_views must be >= 2, got 1")


def test_validate_scene_out_of_range_view():
    scene = lane_scene(num_views=2)
    tracks = scene.gt_tracks + (Track(99, (Detection(2, 1, 99, box(900.0)),)),)
    _raises(Scene("bad", 2, 3, (4000, 2000), tracks),
            "[range] detection (view=2, frame=1, identity=99) has out-of-range view")


def test_validate_scene_duplicate_slot():
    d1 = Detection(0, 1, 5, box(0.0))
    d2 = Detection(0, 1, 5, box(40.0))
    _raises(Scene("dup", 2, 3, (4000, 2000), (Track(5, (d1, d2)),)),
            "[duplicate] duplicate detection at (view=0, frame=1, identity=5)")


# One scene for each other violation kind, and the exact error it raises.
BAD_SCENES = {
    "no-frames": (  # the scene's fields are checked before its detections
        lane_scene()._replace(frames_per_view=0), "[scene] frames_per_view must be >= 1, got 0"
    ),
    "image-width": (Scene("w", 2, 3, (0, 2000), ()), "[scene] image_width must be >= 1, got 0"),
    "image-height": (Scene("h", 2, 3, (4000, -1), ()), "[scene] image_height must be >= 1, got -1"),
    "duplicate-track": (
        _scene_with(Track(5, (Detection(0, 1, 5, box(0.0)),)),
                    Track(5, (Detection(0, 2, 5, box(50.0)),))),
        "[duplicate-track] identity 5 appears in two tracks",
    ),
    "track-identity": (
        _scene_with(Track(5, (Detection(0, 1, 9, box(0.0)),))),
        "[track-identity] detection (view=0, frame=1, identity=9) stored under track identity 5",
    ),
    "frame-out-of-range": (
        _scene_with(Track(4, (Detection(1, 4, 4, box(0.0)),))),
        "[range] detection (view=1, frame=4, identity=4) has out-of-range frame",
    ),
}


@pytest.mark.parametrize("case", BAD_SCENES)
def test_validate_scene_raises_each_violation_kind(case):
    _raises(*BAD_SCENES[case])


def test_validate_scene_identity_mismatch_and_duplicate_track():
    """Of two violations, the one met first in the walk is raised."""
    t1 = Track(5, (Detection(0, 1, 9, box(0.0)),))
    t2 = Track(5, (Detection(0, 2, 5, box(50.0)),))
    _raises(Scene("mix", 2, 3, (4000, 2000), (t1, t2)), BAD_SCENES["track-identity"][1])


def test_vocabulary_has_74_words_in_8_categories():
    assert ATTRIBUTE_CATEGORIES == AttributeSet._fields == (
        "headwear_color", "headwear_style", "coat", "trousers",
        "shoes", "held_item_color", "held_item_style", "transportation",
    )
    assert tuple(DEFAULT_VOCABULARY) == ATTRIBUTE_CATEGORIES
    assert sum(len(words) for words in DEFAULT_VOCABULARY.values()) == 74
    with pytest.raises(TypeError):
        DEFAULT_VOCABULARY["coat"] = ("brown coat",)


def test_validate_attributes_listed_words():
    attrs = AttributeSet(coat="black coat")
    assert validate_attributes(attrs) is None
    assert validate_attributes(AttributeSet(transportation="a bicycle")) is None


def test_validate_attributes_unlisted_word():
    message = "[vocabulary] 'brown coat' is not a listed coat word"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        validate_attributes(AttributeSet(coat="brown coat", shoes="flippers"))


def test_validate_description_raises_the_word_then_the_smallest_unknown_identity():
    scene = lane_scene(num_ids=2)
    assert validate_description(desc_for(scene, desc_id="d")) is None
    unknown = desc_for(scene, [1, 9, 7], desc_id="d")
    message = "[referred-identity] description 'd' refers to unknown identity 7"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        validate_description(unknown, scene)
    assert validate_description(unknown) is None  # no scene: only the words are checked
    worded = unknown._replace(attributes=AttributeSet(shoes="flippers"))
    with pytest.raises(ValueError, match=r"^\[vocabulary\] 'flippers' is not a listed shoes word$"):
        validate_description(worded, scene)
