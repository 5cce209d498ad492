"""Core domain types for cross-view tracking evaluation.

Boxes are axis-aligned, anchored at the top-left corner, in continuous pixel
units (no rasterization). Frames are 1-based. Identities are integer labels
shared across views: the same physical object carries the same identity in
every view of a scene.
"""

import functools
import math
import sys
from operator import itemgetter
from types import MappingProxyType
from typing import Any, Iterator, Mapping, NamedTuple, Optional, get_type_hints

_EXPECTED = {float: "a finite number", int: "an integer", bool: "true or false",
             str: "a string", dict: "a JSON object", list: "a JSON list"}


def check_type(name: str, value: object, kind: type) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is strictly a ``kind``.

    A bool is never an ``int`` or ``float`` here, an ``int`` is accepted as a
    ``float``, and a ``float`` must be finite (a huge ``int`` must fit one).
    """
    if kind is float:
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, kind)
    if not ok or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{name} must be {_EXPECTED[kind]}, got {value!r}")


field_types = functools.cache(get_type_hints)  # a record's fields -> their types


def check_fields(instance: object) -> None:
    """:func:`check_type` every field of a record against its annotation."""
    for name, kind in field_types(type(instance)).items():
        check_type(name, getattr(instance, name), kind)


class Checked:
    """Base of a record whose values are checked when it is built.

    Records are ``NamedTuple`` classes, and ``typing`` allows no ``__new__``
    in their body. So a checked record ``R`` is ``class R(Checked, _R)``, with
    its fields in the ``NamedTuple`` ``_R``: the tuple is built by ``_R`` and
    then ``R._check`` raises ``ValueError`` on a bad value (by default,
    :func:`check_fields`). ``_replace`` skips the check; build a new record.
    """

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> Any:
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    def _check(self) -> None:
        check_fields(self)


def check_iou_threshold(value: object) -> None:
    """Raise ``ValueError`` unless ``value`` is a finite number in (0, 1].

    At 0 disjoint boxes would be feasible matches, and the gated sweep skips
    pairs whose IoU is 0, which is exact only for a positive gate.
    """
    check_type("iou_threshold", value, float)
    if not 0 < value <= 1:
        raise ValueError(f"iou_threshold must be in (0, 1], got {value!r}")


class _EvalConfig(NamedTuple):
    iou_threshold: float = 0.5


class EvalConfig(Checked, _EvalConfig):
    """Evaluation parameters; the 0.5 IoU gate is standard practice."""

    __slots__ = ()

    def _check(self) -> None:
        check_iou_threshold(self.iou_threshold)


class _BBox(NamedTuple):
    x: float
    y: float
    w: float
    h: float


class BBox(_BBox):
    """Axis-aligned box: top-left corner plus positive width/height."""

    __slots__ = ()

    def __new__(cls, x: float, y: float, w: float, h: float) -> "BBox":
        # A nan or an infinity makes the sum non-finite; so, rarely, does overflow.
        if not math.isfinite(x + y + w + h):
            for name, value in zip(cls._fields, (x, y, w, h)):
                if not math.isfinite(value):
                    raise ValueError(f"bbox {name} must be finite, got {value!r}")
        if w <= 0 or h <= 0:
            raise ValueError(f"bbox sides must be positive, got w={w}, h={h}")
        return tuple.__new__(cls, (x, y, w, h))

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes on the closed real plane.

    Symmetric, bounded in [0, 1]; 0 for disjoint boxes and exactly 1 for
    identical boxes. Same float operations as ``BBox.x2`` and ``y2``. The
    conditional expressions return exactly what ``min(ax2, bx2) - max(ax, bx)``
    would (ints and signed zeros included), without the builtin calls. When
    the areas underflow or overflow, so that the float union is 0, ``inf`` or
    ``nan``, the IoU of the stored values is computed exactly and rounded.
    """
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ax2, ay2, bx2, by2 = ax + aw, ay + ah, bx + bw, by + bh
    ix = (bx2 if bx2 < ax2 else ax2) - (bx if bx > ax else ax)
    iy = (by2 if by2 < ay2 else ay2) - (by if by > ay else ay)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = (ax2 - ax) * (ay2 - ay) + (bx2 - bx) * (by2 - by) - inter
    if 0 < union < math.inf:
        return inter / union
    from fractions import Fraction  # exactly, the union is positive and finite

    return float(iou(*(tuple(map(Fraction, box)) for box in (a, b))))


class Detection(NamedTuple):
    """One observation of an object: a box in one view at one frame."""

    view_id: int
    frame: int
    identity: int
    bbox: BBox


_FRAME_VIEW = itemgetter(1, 0)  # a detection's (frame, view_id)


class _Track(NamedTuple):
    identity: int
    detections: tuple[Detection, ...]


class Track(_Track):
    """All detections of one identity, ordered by (frame, view)."""

    __slots__ = ()

    def __new__(cls, identity: int, detections: tuple[Detection, ...]) -> "Track":
        return tuple.__new__(cls, (identity, tuple(sorted(detections, key=_FRAME_VIEW))))


class Scene(NamedTuple):
    """Synchronized multi-view ground truth with globally consistent identities."""

    name: str
    num_views: int
    frames_per_view: int
    image_size: tuple[int, int]
    gt_tracks: tuple[Track, ...]

    def identities(self) -> frozenset[int]:
        return frozenset(t.identity for t in self.gt_tracks)

    def all_detections(self) -> Iterator[Detection]:
        for track in self.gt_tracks:
            yield from track.detections

    def detection_count(self) -> int:
        return sum(len(t.detections) for t in self.gt_tracks)


def validate_scene(scene: Scene) -> None:
    """Raise ``ValueError("[kind] message")`` at a scene's first structural violation.

    The scene-level fields are checked first, then the tracks in order, and
    each track's detections in (frame, view) order; a message names the
    offending track or detection. A scene that passes makes every downstream
    operation total.
    """
    if scene.num_views < 2:
        raise ValueError(f"[scene] num_views must be >= 2, got {scene.num_views}")
    if scene.frames_per_view < 1:
        raise ValueError(f"[scene] frames_per_view must be >= 1, got {scene.frames_per_view}")
    for name, size in zip(("image_width", "image_height"), scene.image_size):
        if size < 1:
            raise ValueError(f"[scene] {name} must be >= 1, got {size}")
    seen_identities: set[int] = set()
    seen_slots: set[tuple[int, int, int]] = set()
    for track in scene.gt_tracks:
        if track.identity in seen_identities:
            raise ValueError(f"[duplicate-track] identity {track.identity} appears in two tracks")
        seen_identities.add(track.identity)
        for view, frame, identity, _ in track.detections:
            slot = (view, frame, identity)
            if identity != track.identity:
                raise ValueError(f"[track-identity] detection {_where(slot)} "
                                 f"stored under track identity {track.identity}")
            if not 0 <= view < scene.num_views:
                raise ValueError(f"[range] detection {_where(slot)} has out-of-range view")
            if not 1 <= frame <= scene.frames_per_view:
                raise ValueError(f"[range] detection {_where(slot)} has out-of-range frame")
            if slot in seen_slots:
                raise ValueError(f"[duplicate] duplicate detection at {_where(slot)}")
            seen_slots.add(slot)


def _where(slot: tuple[int, int, int]) -> str:
    return "(view={}, frame={}, identity={})".format(*slot)


_COLORS = ("white", "black", "gray", "green", "pink", "red", "yellow", "blue", "orange", "purple")

# Attribute category -> its words: 8 categories, 74 words in total counting the
# "null" entry once per category.
DEFAULT_VOCABULARY: Mapping[str, tuple[str, ...]] = MappingProxyType({
    "headwear_color": _COLORS + ("null",),
    "headwear_style": ("with cap", "with helmet", "null"),
    "coat": tuple(f"{c} coat" for c in _COLORS) + ("null",),
    "trousers": tuple(f"{c} trousers" for c in _COLORS) + ("null",),
    "shoes": tuple(f"{c} shoes" for c in _COLORS) + ("null",),
    "held_item_color": _COLORS + ("null",),
    "held_item_style": (
        "a bag",
        "a plastic bag",
        "a handbag",
        "a schoolbag",
        "a cart",
        "a box",
        "a child",
        "a stick",
        "a book",
        "a mobile phone",
        "a can",
        "null",
    ),
    "transportation": ("a bicycle", "an electric bike", "a tricycle", "null"),
})

ATTRIBUTE_CATEGORIES: tuple[str, ...] = tuple(DEFAULT_VOCABULARY)


class AttributeSet(NamedTuple):
    """One optional word per attribute category; None means absent."""

    headwear_color: Optional[str] = None
    headwear_style: Optional[str] = None
    coat: Optional[str] = None
    trousers: Optional[str] = None
    shoes: Optional[str] = None
    held_item_color: Optional[str] = None
    held_item_style: Optional[str] = None
    transportation: Optional[str] = None

    def items(self) -> Iterator[tuple[str, Optional[str]]]:
        return zip(self._fields, self)


def validate_attributes(attrs: AttributeSet) -> None:
    """Raise ``ValueError`` at the first attribute value not listed for its category."""
    for category, value in attrs.items():
        if value is not None and value not in DEFAULT_VOCABULARY[category]:
            raise ValueError(f"[vocabulary] {value!r} is not a listed {category} word")


class LanguageDescription(NamedTuple):
    """A referring query: text, attribute decomposition, and referred identities.

    The referred set may be empty (a query matching nobody), a single identity,
    or many identities.
    """

    id: str
    text: str
    attributes: AttributeSet
    referred_identities: frozenset[int]


def validate_description(desc: LanguageDescription, scene: Optional[Scene] = None) -> None:
    """Raise ``ValueError`` at a description's first unlisted attribute word.

    With a scene, then also at its smallest referred identity that the
    scene's ground truth lacks.
    """
    validate_attributes(desc.attributes)
    if scene is not None:
        unknown = min(desc.referred_identities - scene.identities(), default=None)
        if unknown is not None:
            raise ValueError(f"[referred-identity] description {desc.id!r} "
                             f"refers to unknown identity {unknown}")
