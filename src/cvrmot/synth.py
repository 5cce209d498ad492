"""Synthetic scenes, seeded perturbations with an exact error ledger, and
exhaustive reference implementations used as test oracles.

All randomness flows from a single seeded Mersenne Twister stream per call,
so every artifact is reproducible across platforms. Generated coordinates are
rounded to two decimals and box sizes are unique per identity, which keeps
the intended per-frame matching the unique cost-zero optimum; the ledger is
therefore exact by construction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .datamodel import BBox, Checked, Detection, Scene, Track, check_fields, iou
from .fusion_losses import ScoreRecord
from .ingest import PredictionSet, _tracks_from_detections
from .metrics import IdMeasures


class InfeasibleSpecError(ValueError):
    """The requested error injection cannot be realized on this scene."""


class _ErrorSpec(NamedTuple):
    miss_count: int = 0
    fp_count: int = 0
    temporal_switch_count: int = 0
    crossview_mismatch_count: int = 0


class ErrorSpec(Checked, _ErrorSpec):
    """Requested error injections.

    ``miss_count`` requests standalone deletions; cross-view events may add
    further deletions of their own (to pin the number of mismatching view
    pairs exactly), which the ledger records as realized misses.
    ``crossview_mismatch_count`` is the total number of mismatching view
    pairs to realize; ``temporal_switch_count`` is the number of switch
    events (each realizes one switch per view that was already matched).
    """

    __slots__ = ()

    def _check(self) -> None:
        check_fields(self)
        for name, value in zip(self._fields, self):
            if value < 0:
                raise ValueError(f"{name} must be non-negative")


class FrameErrors(NamedTuple):
    """Realized error counts at one frame."""

    misses: int = 0
    false_positives: int = 0
    temporal: int = 0
    crossview: int = 0

    @property
    def mismatches(self) -> int:
        return self.temporal + self.crossview


class Ledger(NamedTuple):
    """Exact record of the injected errors and the metric values they imply."""

    per_frame: Mapping[int, FrameErrors]
    gt_total: int
    expected_cvma: Fraction
    expected_id: Optional[IdMeasures]

    @property
    def miss_total(self) -> int:
        return sum(e.misses for e in self.per_frame.values())

    @property
    def fp_total(self) -> int:
        return sum(e.false_positives for e in self.per_frame.values())

    @property
    def temporal_total(self) -> int:
        return sum(e.temporal for e in self.per_frame.values())

    @property
    def crossview_total(self) -> int:
        return sum(e.crossview for e in self.per_frame.values())

    @property
    def mismatch_total(self) -> int:
        return self.temporal_total + self.crossview_total


def ledger_to_dict(ledger: Ledger) -> dict:
    """JSON-friendly view of a ledger."""
    frames = {
        str(frame): {
            "misses": e.misses,
            "false_positives": e.false_positives,
            "temporal": e.temporal,
            "crossview": e.crossview,
        }
        for frame, e in sorted(ledger.per_frame.items())
    }
    expected_id = None
    if ledger.expected_id is not None:
        expected_id = {
            "idtp": ledger.expected_id.idtp,
            "idfp": ledger.expected_id.idfp,
            "idfn": ledger.expected_id.idfn,
        }
    return {
        "per_frame": frames,
        "gt_total": ledger.gt_total,
        "totals": {
            "misses": ledger.miss_total,
            "false_positives": ledger.fp_total,
            "temporal": ledger.temporal_total,
            "crossview": ledger.crossview_total,
        },
        "expected_cvma": {
            "numerator": ledger.expected_cvma.numerator,
            "denominator": ledger.expected_cvma.denominator,
            "value": float(ledger.expected_cvma),
        },
        "expected_id": expected_id,
    }


def generate_scene(
    num_views: int,
    num_identities: int,
    num_frames: int,
    image_size: tuple[int, int] = (1920, 1080),
    seed: int = 0,
) -> Scene:
    """Linear-with-jitter trajectories, shared identities across all views.

    Each identity follows one world trajectory projected into every view by a
    fixed per-view offset; each (width, height) pair is unique within the
    scene. Deterministic for a given seed.
    """
    if num_views < 2:
        raise ValueError(f"num_views must be >= 2, got {num_views}")
    if num_identities < 1:
        raise ValueError(f"num_identities must be >= 1, got {num_identities}")
    if num_frames < 1:
        raise ValueError(f"num_frames must be >= 1, got {num_frames}")
    width, height = image_size
    if width < 400 or height < 300:
        raise ValueError(f"image size too small for synthesis: {image_size}")
    rng = random.Random(seed)
    offsets = [
        (round(rng.uniform(-30.0, 30.0), 2), round(rng.uniform(-20.0, 20.0), 2))
        for _ in range(num_views)
    ]
    used_sizes: set[tuple[float, float]] = set()
    tracks: list[Track] = []
    for identity in range(1, num_identities + 1):
        while True:
            box_w = round(rng.uniform(40.0, 80.0), 2)
            box_h = round(rng.uniform(80.0, 160.0), 2)
            if (box_w, box_h) not in used_sizes:
                used_sizes.add((box_w, box_h))
                break
        right, bottom = width - box_w - 2.0, height - box_h - 2.0
        x0 = rng.uniform(120.0, width - 200.0 - box_w)
        y0 = rng.uniform(80.0, height - 140.0 - box_h)
        vx = rng.uniform(-3.0, 3.0)
        vy = rng.uniform(-2.0, 2.0)
        detections: list[Detection] = []
        for frame in range(1, num_frames + 1):
            jx = rng.uniform(-1.5, 1.5)
            jy = rng.uniform(-1.5, 1.5)
            base_x = x0 + vx * (frame - 1) + jx
            base_y = y0 + vy * (frame - 1) + jy
            for view in range(num_views):
                off_x, off_y = offsets[view]
                # min(max(x, 2.0), right) without builtin calls, returning what they return.
                # Detection checks nothing, so its tuple is built without a Python call.
                x = base_x + off_x
                x = 2.0 if 2.0 > x else x
                x = right if right < x else x
                y = base_y + off_y
                y = 2.0 if 2.0 > y else y
                y = bottom if bottom < y else y
                box = BBox(round(x, 2), round(y, 2), box_w, box_h)
                detections.append(tuple.__new__(Detection, (view, frame, identity, box)))
        tracks.append(Track(identity, tuple(detections)))
    return Scene(
        name=f"synthetic-s{seed}",
        num_views=num_views,
        frames_per_view=num_frames,
        image_size=image_size,
        gt_tracks=tuple(tracks),
    )


def predictions_from_gt(scene: Scene) -> PredictionSet:
    """Ground truth re-packaged as a (perfect) tracker output."""
    return PredictionSet(scene.gt_tracks, {})


def _disjoint_with_margin(box: BBox, others: Sequence[BBox], margin: float) -> bool:
    for other in others:
        if (
            box.x2 + margin > other.x
            and other.x2 + margin > box.x
            and box.y2 + margin > other.y
            and other.y2 + margin > box.y
        ):
            return False
    return True


def _place_far_box(
    rng: random.Random, image_size: tuple[int, int], gt_boxes: Sequence[BBox]
) -> Optional[BBox]:
    """A 60 x 120 box at least one box-width clear of every ground-truth box."""
    width, height = image_size
    box_w, box_h = 60.0, 120.0
    xs = [4.0 + k * (width - box_w - 8.0) / 7.0 for k in range(8)]
    ys = [4.0 + k * (height - box_h - 8.0) / 4.0 for k in range(5)]
    candidates = [(x, y) for x in xs for y in ys]
    rng.shuffle(candidates)
    for x, y in candidates:
        box = BBox(round(x, 2), round(y, 2), box_w, box_h)
        if _disjoint_with_margin(box, gt_boxes, margin=box_w):
            return box
    return None


def _view_frames(detections: Sequence[Detection]) -> dict[int, set[int]]:
    """One identity's view -> the frames it is seen in, views in detection order."""
    views: dict[int, set[int]] = {}
    for det in detections:
        views.setdefault(det.view_id, set()).add(det.frame)
    return views


def perturb(scene: Scene, spec: ErrorSpec, seed: int = 0) -> tuple[PredictionSet, Ledger]:
    """Realize an error spec on top of the scene's ground truth.

    The result is the ground truth minus deleted slots, plus far-away false
    positive boxes, with identity relabelings realizing the requested
    mismatches; the ledger records exactly what was realized per frame. Each
    identity is used by at most one relabel event and deletions never touch
    relabeled identities, so the counts compose without interaction.
    """
    by_identity: dict[int, list[Detection]] = {
        t.identity: list(t.detections) for t in scene.gt_tracks
    }
    if not by_identity and (
        spec.miss_count or spec.temporal_switch_count or spec.crossview_mismatch_count
    ):
        raise InfeasibleSpecError("scene has no ground truth to perturb")
    rng = random.Random(seed)
    errors: dict[int, dict[str, int]] = {}

    def bump(frame: int, kind: str) -> None:
        errors.setdefault(frame, {"misses": 0, "false_positives": 0, "temporal": 0, "crossview": 0})
        errors[frame][kind] += 1

    next_alias = max(by_identity, default=0) + 1
    relabels: dict[tuple[int, int, int], int] = {}
    deletions: set[tuple[int, int, int]] = set()
    used_ids: set[int] = set()

    event_order = sorted(by_identity)
    rng.shuffle(event_order)

    # Cross-view mismatches: relabel one whole view of an identity and trim
    # the other views' overlapping slots down to exactly the number of
    # mismatching pairs this event should contribute.
    remaining_pairs = spec.crossview_mismatch_count
    for identity in event_order:
        if remaining_pairs == 0:
            break
        if identity in used_ids:
            continue
        views = _view_frames(by_identity[identity])
        if len(views) < 2:
            continue
        relabel_view = rng.choice(sorted(views))
        shared = sorted(
            (view, frame)
            for view, frames in views.items()
            if view != relabel_view
            for frame in frames
            if frame in views[relabel_view]
        )
        if not shared:
            continue
        take = min(remaining_pairs, len(shared))
        kept = set(rng.sample(shared, take))
        alias = next_alias
        next_alias += 1
        for frame in views[relabel_view]:
            relabels[(relabel_view, frame, identity)] = alias
        for view, frame in shared:
            if (view, frame) in kept:
                bump(frame, "crossview")
            else:
                deletions.add((view, frame, identity))
                bump(frame, "misses")
        used_ids.add(identity)
        remaining_pairs -= take
    if remaining_pairs > 0:
        raise InfeasibleSpecError(
            f"cannot realize {spec.crossview_mismatch_count} cross-view pairs "
            f"({remaining_pairs} left unplaced)"
        )

    # Temporal switches: relabel every view of an identity from a chosen
    # frame onward. Each view that was matched before the switch frame
    # realizes exactly one switch; views are never left disagreeing, so no
    # cross-view pairs are introduced.
    for _ in range(spec.temporal_switch_count):
        chosen = None
        for identity in event_order:
            if identity in used_ids:
                continue
            views = _view_frames(by_identity[identity])
            all_frames = sorted({f for frames in views.values() for f in frames})
            candidates = [
                f
                for f in all_frames[1:]
                if any(min(fr) < f <= max(fr) for fr in views.values())
            ]
            if candidates:
                chosen = (identity, views, candidates)
                break
        if chosen is None:
            raise InfeasibleSpecError("no identity left with room for a temporal switch")
        identity, views, candidates = chosen
        switch_frame = rng.choice(candidates)
        alias = next_alias
        next_alias += 1
        for det in by_identity[identity]:
            if det.frame >= switch_frame:
                relabels[(det.view_id, det.frame, det.identity)] = alias
        for frames in views.values():
            post = sorted(f for f in frames if f >= switch_frame)
            pre = [f for f in frames if f < switch_frame]
            if post and pre:
                bump(post[0], "temporal")
        used_ids.add(identity)

    # Standalone misses on identities untouched by any relabel event.
    pool = sorted(
        (det.view_id, det.frame, det.identity)
        for identity, dets in by_identity.items()
        if identity not in used_ids
        for det in dets
    )
    if spec.miss_count > len(pool):
        raise InfeasibleSpecError(
            f"requested {spec.miss_count} misses but only {len(pool)} slots are free"
        )
    for slot in rng.sample(pool, spec.miss_count):
        deletions.add(slot)
        bump(slot[1], "misses")

    # False positives: fresh identities, boxes far from every GT box.
    gt_by_slot: dict[tuple[int, int], list[BBox]] = {}
    for det in scene.all_detections():
        gt_by_slot.setdefault((det.view_id, det.frame), []).append(det.bbox)
    fp_detections: list[Detection] = []
    slot_choices = [
        (view, frame)
        for view in range(scene.num_views)
        for frame in range(1, scene.frames_per_view + 1)
    ]
    for _ in range(spec.fp_count):
        placed = False
        for _attempt in range(64):
            view, frame = rng.choice(slot_choices)
            box = _place_far_box(rng, scene.image_size, gt_by_slot.get((view, frame), []))
            if box is not None:
                fp_detections.append(Detection(view, frame, next_alias, box))
                next_alias += 1
                bump(frame, "false_positives")
                placed = True
                break
        if not placed:
            raise InfeasibleSpecError("could not place a false positive away from all GT boxes")

    pred_detections: list[Detection] = []
    for view, frame, identity, box in scene.all_detections():
        key = (view, frame, identity)
        if key in deletions:
            continue
        # The box object is kept, so synth reuses its ground-truth text; Detection checks nothing.
        row = (view, frame, relabels.get(key, identity), box)
        pred_detections.append(tuple.__new__(Detection, row))
    pred_detections.extend(fp_detections)
    tracks = _tracks_from_detections(pred_detections)
    predictions = PredictionSet(tracks, {})

    per_frame = {frame: FrameErrors(**counts) for frame, counts in sorted(errors.items())}
    expected_id = None
    if len(by_identity) <= 6 and len(tracks) <= 6:
        expected_id = oracle_id_measures(scene, predictions)
    ledger = Ledger(per_frame, scene.detection_count(), None, expected_id)  # CVMA from its totals
    errors_total = ledger.miss_total + ledger.fp_total + 2 * ledger.mismatch_total
    return predictions, ledger._replace(expected_cvma=1 - Fraction(errors_total, ledger.gt_total))


def oracle_id_measures(
    scene: Scene,
    predictions: PredictionSet | Sequence[Track],
    iou_threshold: float = 0.5,
    limit: int = 6,
) -> IdMeasures:
    """Identity tallies by exhaustive search over all partial bijections.

    Independent of the assignment solver; intended for instances with at most
    ``limit`` identities on each side.
    """
    gt_tracks = scene.gt_tracks
    pred_tracks = predictions.tracks if isinstance(predictions, PredictionSet) else tuple(predictions)
    gt_ids = sorted(t.identity for t in gt_tracks)
    pred_ids = sorted(t.identity for t in pred_tracks)
    if len(gt_ids) > limit or len(pred_ids) > limit:
        raise ValueError(
            f"oracle limited to {limit} identities per side, "
            f"got {len(gt_ids)} GT and {len(pred_ids)} predicted"
        )
    total_gt = sum(len(t.detections) for t in gt_tracks)
    total_pred = sum(len(t.detections) for t in pred_tracks)
    if not gt_ids or not pred_ids:
        return IdMeasures(0, total_pred, total_gt)
    gt_slots = {
        t.identity: {(d.view_id, d.frame): d.bbox for d in t.detections} for t in gt_tracks
    }
    pred_slots = {
        t.identity: {(d.view_id, d.frame): d.bbox for d in t.detections} for t in pred_tracks
    }
    overlap: dict[tuple[int, int], int] = {}
    for g in gt_ids:
        for p in pred_ids:
            count = 0
            p_map = pred_slots[p]
            for slot, box in gt_slots[g].items():
                other = p_map.get(slot)
                if other is not None and iou(box, other) >= iou_threshold:
                    count += 1
            overlap[(g, p)] = count

    best = 0

    def search(index: int, used: set[int], current: int) -> None:
        nonlocal best
        if current > best:
            best = current
        if index == len(gt_ids):
            return
        g = gt_ids[index]
        search(index + 1, used, current)  # leave g unpaired
        for p in pred_ids:
            if p in used:
                continue
            used.add(p)
            search(index + 1, used, current + overlap[(g, p)])
            used.remove(p)

    search(0, set(), 0)
    return IdMeasures(best, total_pred - best, total_gt - best)


def score_tracks(
    scene: Scene,
    predictions: PredictionSet | Sequence[Track],
    referred_identities: Iterable[int],
    hi: float,
    lo: float,
    seed: int = 0,
    jitter: float = 0.0,
) -> dict[tuple[int, int, int], ScoreRecord]:
    """Per-detection scores: referred identities near ``hi``, others near ``lo``.

    With ``jitter`` 0 the scores are exact, and each level's detections share
    one ``ScoreRecord``; otherwise each score is displaced by a seeded uniform
    offset in [-jitter, jitter] and clamped into [0, 1].
    """
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError(f"need 0 <= lo <= hi <= 1, got lo={lo}, hi={hi}")
    if not jitter >= 0.0:
        raise ValueError(f"need jitter >= 0, got jitter={jitter}")
    referred = frozenset(referred_identities)
    unknown = referred - scene.identities()
    if unknown:
        raise ValueError(f"referred identities not in scene: {sorted(unknown)}")
    tracks = predictions.tracks if isinstance(predictions, PredictionSet) else tuple(predictions)
    rng = random.Random(seed)
    scores: dict[tuple[int, int, int], ScoreRecord] = {}

    def sample(base: float) -> float:
        value = base + rng.uniform(-jitter, jitter)
        value = 0.0 if 0.0 > value else value  # max(value, 0.0)
        return 1.0 if 1.0 < value else value  # min(value, 1.0)

    # Without jitter every offset is exactly 0.0 (uniform(-0.0, 0.0) is -0.0 + 0.0 * r),
    # so one record per level, indexed by "is referred", is what every draw would give.
    shared = None
    if not jitter:
        shared = [ScoreRecord(sample(base), sample(base)) for base in (lo, hi)]
    for track in sorted(tracks, key=lambda t: t.identity):
        is_referred = track.identity in referred
        base = hi if is_referred else lo
        for det in track.detections:
            record = shared[is_referred] if shared else ScoreRecord(sample(base), sample(base))
            scores[det[:3]] = record
    return scores
