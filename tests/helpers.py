"""Hand-built fixtures shared across test modules."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional, Sequence

from cvrmot import (
    AttributeSet,
    BBox,
    Detection,
    LanguageDescription,
    PredictionSet,
    Scene,
    Track,
)


def box(x: float, y: float = 0.0, w: float = 10.0, h: float = 20.0) -> BBox:
    return BBox(x, y, w, h)


def lane_scene(num_views: int = 2, num_ids: int = 2, num_frames: int = 3) -> Scene:
    """Deterministic micro-scene: identities in well-separated lanes.

    Identity i sits at x = 200*i + 4*frame, y = 150*view, so boxes of
    different identities never overlap within a view.
    """
    tracks = []
    for identity in range(1, num_ids + 1):
        dets = []
        for frame in range(1, num_frames + 1):
            for view in range(num_views):
                dets.append(
                    Detection(
                        view,
                        frame,
                        identity,
                        box(200.0 * identity + 4.0 * frame, 150.0 * view),
                    )
                )
        tracks.append(Track(identity, tuple(dets)))
    return Scene(
        name="lane",
        num_views=num_views,
        frames_per_view=num_frames,
        image_size=(4000, 2000),
        gt_tracks=tuple(tracks),
    )


def predictions_from_gt(scene: Scene) -> PredictionSet:
    """Ground truth re-packaged as a (perfect) tracker output."""
    return PredictionSet(scene.gt_tracks, {})


def desc_for(scene: Scene, identities: Optional[Iterable[int]] = None, desc_id: str = "d") -> LanguageDescription:
    referred = scene.identities() if identities is None else frozenset(identities)
    return LanguageDescription(desc_id, "A person.", AttributeSet(), frozenset(referred))


def tracks_copy(scene: Scene, identities: Optional[Iterable[int]] = None) -> tuple[Track, ...]:
    keep = scene.identities() if identities is None else frozenset(identities)
    return tuple(t for t in scene.gt_tracks if t.identity in keep)


def drop_detection(tracks: Sequence[Track], view: int, frame: int, identity: int) -> tuple[Track, ...]:
    out = []
    for track in tracks:
        if track.identity != identity:
            out.append(track)
            continue
        dets = tuple(
            d for d in track.detections if not (d.view_id == view and d.frame == frame)
        )
        if dets:
            out.append(Track(identity, dets))
    return tuple(out)


def crowded_pipeline(tmp_path: Path) -> tuple[list[list[str]], Path]:
    """The CLI argument lists of a crowded synth -> filter -> evaluate run, and its report.

    40 identities in 400 x 300 images, so identity components are wide (up
    to 45 identities). d00 keeps the perturbed predictions; d01 is filtered.
    """
    scene = tmp_path / "scene"
    errors = tmp_path / "errors.json"
    errors.write_text(json.dumps(
        {"miss_count": 20, "temporal_switch_count": 4, "crossview_mismatch_count": 4}
    ))
    root, report = scene / "predictions", tmp_path / "report.json"
    argvs = [
        ["synth", "--views", "3", "--ids", "40", "--frames", "20", "--image-width", "400",
         "--image-height", "300", "--descriptions", "2", "--jitter", "0.2", "--seed", "5",
         "--errors", errors, "--out", scene],
        ["filter", "--tracks", scene / "tracks" / "d01", "--out", root / "d01"],
        ["evaluate", "--manifest", scene / "manifest.json", "--gt-dir", scene / "gt",
         "--descriptions", scene / "descriptions.json", "--predictions-root", root, "--out", report],
    ]
    return [[str(a) for a in argv] for argv in argvs], report
