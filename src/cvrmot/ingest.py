"""On-disk formats: scenes, descriptions, predictions, scores, embeddings, reports.

Formats (all text is UTF-8, all numbers decimal ASCII):

* Scene manifest -- JSON object with ``name``, ``views``, ``frames_per_view``,
  ``image_width``, ``image_height``.
* Ground truth -- one headerless CSV per view, named ``view_%02d.csv``, rows
  ``frame,id,x,y,w,h`` (frame 1-based, box top-left + size in pixels).
* Predictions -- same per-view CSVs with optional trailing score columns:
  ``frame,id,x,y,w,h[,s_t,s_a]``. Scores are the stored pre-fusion values;
  the fused score is always recomputed downstream.
* Scores -- per-view CSVs ``frame,id,s_t,s_a`` for trackers that export
  scores separately from boxes.
* Descriptions -- JSON list of ``{id, text, attributes, referred_identities}``
  where ``attributes`` maps category names to vocabulary words ("null" or a
  missing key means absent).
* Embeddings -- headerless CSV rows ``view,frame,id,D,<D floats>,<D floats>``
  holding the full re-id feature and the encoder feature.
* Report -- JSON document with the effective config, one block per
  description, and the aggregate; see :func:`build_report`.

Parsers are strict: a malformed row raises :class:`ParseError` naming the
file and line, so no row is ever silently dropped.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .datamodel import (
    ATTRIBUTE_CATEGORIES,
    AttributeSet,
    AttributeVocabulary,
    BBox,
    DEFAULT_VOCABULARY,
    Detection,
    LanguageDescription,
    Scene,
    Track,
    validate_description,
    validate_scene,
)
from .fusion_losses import ScoreRecord
from .metrics import AggregateResult, DescriptionResult


class ParseError(Exception):
    """A file could not be parsed; carries the offending path and line."""

    def __init__(self, path: object, message: str, line: Optional[int] = None):
        self.path = str(path)
        self.line = line
        self.message = message
        where = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class PredictionSet:
    """Tracker output for one language description."""

    description_id: str
    tracks: tuple[Track, ...]
    scores: Mapping[tuple[int, int, int], ScoreRecord] = field(default_factory=dict)

    def __post_init__(self) -> None:
        existing = {
            (d.view_id, d.frame, d.identity)
            for t in self.tracks
            for d in t.detections
        }
        for key in self.scores:
            if key not in existing:
                raise ValueError(f"score key {key} has no matching detection")

    def detection_count(self) -> int:
        return sum(len(t.detections) for t in self.tracks)


@dataclass(frozen=True)
class EmbeddingRecord:
    """Stored feature pair for one detection; both vectors share length D."""

    key: tuple[int, int, int]
    f_f: tuple[float, ...]
    f_ai: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.f_f) == 0 or len(self.f_f) != len(self.f_ai):
            raise ValueError(
                f"feature vectors must be non-empty and equal length, "
                f"got {len(self.f_f)} and {len(self.f_ai)}"
            )
        if any(not math.isfinite(x) for x in self.f_f + self.f_ai):
            raise ValueError("feature entries must be finite")


def _view_file(directory: Path, view: int) -> Path:
    return Path(directory) / f"view_{view:02d}.csv"


def view_count(directory: Path | str) -> int:
    """Number of views a directory of per-view CSVs covers: highest index + 1.

    Views between the files present are treated as empty, as
    :func:`parse_predictions` does.
    """
    directory = Path(directory)
    indices = []
    for path in directory.glob("view_*.csv"):
        digits = path.stem[len("view_"):]
        valid = digits.isascii() and digits.isdigit()
        if not valid or _view_file(directory, int(digits)).name != path.name:
            raise ParseError(path, "expected a name of the form view_NN.csv")
        indices.append(int(digits))
    if not indices:
        raise ParseError(directory, "no view_*.csv files found")
    return max(indices) + 1


def _parse_float(raw: str, path: Path, line_no: int, what: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(path, f"bad {what}: {raw!r}", line_no) from None
    if not math.isfinite(value):
        raise ParseError(path, f"{what} must be finite, got {raw!r}", line_no)
    return value


def _parse_int(raw: str, path: Path, line_no: int, what: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ParseError(path, f"bad {what}: {raw!r}", line_no) from None


def _read_box_rows(
    path: Path, view: int, allow_scores: bool
) -> tuple[list[Detection], dict[tuple[int, int, int], ScoreRecord]]:
    detections: list[Detection] = []
    scores: dict[tuple[int, int, int], ScoreRecord] = {}
    first_line: dict[tuple[int, int], int] = {}  # (frame, id) -> line of its row
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            parts = [p.strip() for p in text.split(",")]
            if len(parts) not in ((6, 8) if allow_scores else (6,)):
                expected = "6 or 8" if allow_scores else "6"
                raise ParseError(path, f"expected {expected} fields, got {len(parts)}", line_no)
            frame = _parse_int(parts[0], path, line_no, "frame")
            identity = _parse_int(parts[1], path, line_no, "id")
            if frame < 1:
                raise ParseError(path, f"frame must be >= 1, got {frame}", line_no)
            if allow_scores:  # ground-truth duplicates are reported by validate_scene
                earlier = first_line.setdefault((frame, identity), line_no)
                if earlier != line_no:
                    raise ParseError(
                        path,
                        f"duplicate row for frame {frame}, id {identity} (first at line {earlier})",
                        line_no,
                    )
            x = _parse_float(parts[2], path, line_no, "x")
            y = _parse_float(parts[3], path, line_no, "y")
            w = _parse_float(parts[4], path, line_no, "w")
            h = _parse_float(parts[5], path, line_no, "h")
            try:
                box = BBox(x, y, w, h)
            except ValueError as exc:
                raise ParseError(path, str(exc), line_no) from None
            detections.append(Detection(view, frame, identity, box))
            if len(parts) == 8:
                s_t = _parse_float(parts[6], path, line_no, "s_t")
                s_a = _parse_float(parts[7], path, line_no, "s_a")
                try:
                    scores[(view, frame, identity)] = ScoreRecord(s_t, s_a)
                except ValueError as exc:
                    raise ParseError(path, str(exc), line_no) from None
    return detections, scores


def _tracks_from_detections(detections: Sequence[Detection]) -> tuple[Track, ...]:
    by_id: dict[int, list[Detection]] = {}
    for det in detections:
        by_id.setdefault(det.identity, []).append(det)
    return tuple(Track(identity, tuple(dets)) for identity, dets in sorted(by_id.items()))


def parse_scene(manifest_path: Path | str, gt_dir: Path | str) -> Scene:
    """Parse the manifest plus one ground-truth CSV per view.

    The returned scene passes :func:`validate_scene`; the parse is loss-free
    (writing and re-parsing reproduces the same scene).
    """
    manifest_path = Path(manifest_path)
    gt_dir = Path(gt_dir)
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise ParseError(manifest_path, "manifest not found") from None
    except json.JSONDecodeError as exc:
        raise ParseError(manifest_path, f"invalid JSON: {exc}") from None
    required = ("name", "views", "frames_per_view", "image_width", "image_height")
    for key in required:
        if key not in manifest:
            raise ParseError(manifest_path, f"manifest missing field {key!r}")
    num_views = int(manifest["views"])
    detections: list[Detection] = []
    for view in range(num_views):
        path = _view_file(gt_dir, view)
        if not path.exists():
            raise ParseError(path, f"missing ground-truth file for view {view}")
        view_dets, _ = _read_box_rows(path, view, allow_scores=False)
        detections.extend(view_dets)
    scene = Scene(
        name=str(manifest["name"]),
        num_views=num_views,
        frames_per_view=int(manifest["frames_per_view"]),
        image_size=(int(manifest["image_width"]), int(manifest["image_height"])),
        gt_tracks=_tracks_from_detections(detections),
    )
    report = validate_scene(scene)
    if not report.ok:
        first = report.violations[0]
        raise ParseError(manifest_path, f"invalid scene: {first}")
    return scene


def write_scene(scene: Scene, manifest_path: Path | str, gt_dir: Path | str) -> None:
    manifest_path = Path(manifest_path)
    gt_dir = Path(gt_dir)
    gt_dir.mkdir(parents=True, exist_ok=True)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    manifest = {
        "name": scene.name,
        "views": scene.num_views,
        "frames_per_view": scene.frames_per_view,
        "image_width": scene.image_size[0],
        "image_height": scene.image_size[1],
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", "utf-8")
    by_view: dict[int, list[Detection]] = {v: [] for v in range(scene.num_views)}
    for det in scene.all_detections():
        by_view[det.view_id].append(det)
    for view in range(scene.num_views):
        rows = sorted(by_view[view], key=lambda d: (d.frame, d.identity))
        lines = [
            f"{d.frame},{d.identity},{d.bbox.x!r},{d.bbox.y!r},{d.bbox.w!r},{d.bbox.h!r}"
            for d in rows
        ]
        _view_file(gt_dir, view).write_text("\n".join(lines) + ("\n" if lines else ""), "utf-8")


def _attributes_from_json(raw: Mapping[str, object], path: Path) -> AttributeSet:
    values: dict[str, Optional[str]] = {}
    for key, value in raw.items():
        if key not in ATTRIBUTE_CATEGORIES:
            raise ParseError(path, f"unknown attribute category {key!r}")
        if value is None or value == "null":
            values[key] = None
        elif isinstance(value, str):
            values[key] = value
        else:
            raise ParseError(path, f"attribute {key!r} must be a string, got {value!r}")
    return AttributeSet(**values)


def parse_descriptions(
    path: Path | str,
    scene: Optional[Scene] = None,
    vocab: AttributeVocabulary = DEFAULT_VOCABULARY,
) -> list[LanguageDescription]:
    """Parse and validate the description list.

    With a scene supplied, every referred identity must exist in the scene's
    ground truth.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise ParseError(path, "descriptions file not found") from None
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"invalid JSON: {exc}") from None
    if not isinstance(raw, list):
        raise ParseError(path, "descriptions file must hold a JSON list")
    out: list[LanguageDescription] = []
    for index, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ParseError(path, f"entry {index} is not an object")
        for key in ("id", "text", "attributes", "referred_identities"):
            if key not in entry:
                raise ParseError(path, f"entry {index} missing field {key!r}")
        attrs = _attributes_from_json(entry["attributes"], path)
        desc = LanguageDescription(
            id=str(entry["id"]),
            text=str(entry["text"]),
            attributes=attrs,
            referred_identities=frozenset(int(i) for i in entry["referred_identities"]),
        )
        report = validate_description(desc, scene, vocab)
        if not report.ok:
            first = report.violations[0]
            raise ParseError(path, f"invalid description {desc.id!r}: {first}")
        out.append(desc)
    return out


def write_descriptions(descriptions: Sequence[LanguageDescription], path: Path | str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = []
    for desc in descriptions:
        attrs = {k: (v if v is not None else "null") for k, v in desc.attributes.items()}
        payload.append(
            {
                "id": desc.id,
                "text": desc.text,
                "attributes": attrs,
                "referred_identities": sorted(desc.referred_identities),
            }
        )
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", "utf-8")


def parse_predictions(
    directory: Path | str, description_id: str, num_views: int
) -> PredictionSet:
    """Parse one description's per-view prediction CSVs.

    Missing or empty view files are treated as the tracker finding nothing in
    that view. Score columns, when present, populate the score map.
    """
    directory = Path(directory)
    detections: list[Detection] = []
    scores: dict[tuple[int, int, int], ScoreRecord] = {}
    for view in range(num_views):
        path = _view_file(directory, view)
        if not path.exists():
            continue
        view_dets, view_scores = _read_box_rows(path, view, allow_scores=True)
        detections.extend(view_dets)
        scores.update(view_scores)
    return PredictionSet(description_id, _tracks_from_detections(detections), scores)


def write_predictions(pred: PredictionSet, directory: Path | str, num_views: int) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    by_view: dict[int, list[Detection]] = {v: [] for v in range(num_views)}
    for track in pred.tracks:
        for det in track.detections:
            by_view[det.view_id].append(det)
    for view in range(num_views):
        rows = sorted(by_view[view], key=lambda d: (d.frame, d.identity))
        lines = []
        for d in rows:
            base = f"{d.frame},{d.identity},{d.bbox.x!r},{d.bbox.y!r},{d.bbox.w!r},{d.bbox.h!r}"
            record = pred.scores.get((d.view_id, d.frame, d.identity))
            if record is not None:
                base += f",{record.s_t!r},{record.s_a!r}"
            lines.append(base)
        _view_file(directory, view).write_text(
            "\n".join(lines) + ("\n" if lines else ""), "utf-8"
        )


def parse_scores(
    directory: Path | str, num_views: int
) -> dict[tuple[int, int, int], ScoreRecord]:
    """Parse standalone per-view score CSVs (``frame,id,s_t,s_a``)."""
    directory = Path(directory)
    scores: dict[tuple[int, int, int], ScoreRecord] = {}
    for view in range(num_views):
        path = _view_file(directory, view)
        if not path.exists():
            continue
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                text = line.strip()
                if not text:
                    continue
                parts = [p.strip() for p in text.split(",")]
                if len(parts) != 4:
                    raise ParseError(path, f"expected 4 fields, got {len(parts)}", line_no)
                frame = _parse_int(parts[0], path, line_no, "frame")
                identity = _parse_int(parts[1], path, line_no, "id")
                s_t = _parse_float(parts[2], path, line_no, "s_t")
                s_a = _parse_float(parts[3], path, line_no, "s_a")
                try:
                    scores[(view, frame, identity)] = ScoreRecord(s_t, s_a)
                except ValueError as exc:
                    raise ParseError(path, str(exc), line_no) from None
    return scores


def write_scores(
    scores: Mapping[tuple[int, int, int], ScoreRecord],
    directory: Path | str,
    num_views: int,
) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    by_view: dict[int, list[tuple[int, int, ScoreRecord]]] = {v: [] for v in range(num_views)}
    for (view, frame, identity), record in scores.items():
        by_view[view].append((frame, identity, record))
    for view in range(num_views):
        rows = sorted(by_view[view])
        lines = [f"{f},{i},{r.s_t!r},{r.s_a!r}" for f, i, r in rows]
        _view_file(directory, view).write_text(
            "\n".join(lines) + ("\n" if lines else ""), "utf-8"
        )


_HEADWEAR_WORDS = {"with cap": "cap", "with helmet": "helmet"}


def _article(phrase: str) -> str:
    return "an" if phrase[:1].lower() in "aeiou" else "a"


def _join_and(parts: Sequence[str]) -> str:
    if len(parts) == 1:
        return parts[0]
    return ", ".join(parts[:-1]) + " and " + parts[-1]


def render_description(attrs: AttributeSet, template_id: str = "default") -> str:
    """Render deterministic description text from attributes.

    Absent (None) fields are omitted; identical inputs produce byte-identical
    text. With every field absent the result is "A person.".
    """
    if template_id != "default":
        raise ValueError(f"unknown template {template_id!r}")
    parts: list[str] = []
    if attrs.headwear_style or attrs.headwear_color:
        word = _HEADWEAR_WORDS.get(attrs.headwear_style or "", "headwear")
        if attrs.headwear_color:
            phrase = f"{attrs.headwear_color} {word}"
        else:
            phrase = word
        parts.append(f"with {_article(phrase)} {phrase}")
    clothes = []
    if attrs.coat:
        clothes.append(f"{_article(attrs.coat)} {attrs.coat}")
    if attrs.trousers:
        clothes.append(attrs.trousers)
    if attrs.shoes:
        clothes.append(attrs.shoes)
    if clothes:
        parts.append("in " + _join_and(clothes))
    if attrs.held_item_style or attrs.held_item_color:
        if attrs.held_item_style:
            item = attrs.held_item_style[2:]  # strip the listed "a " prefix
        else:
            item = "item"
        if attrs.held_item_color:
            item = f"{attrs.held_item_color} {item}"
        parts.append(f"holding {_article(item)} {item}")
    if attrs.transportation:
        parts.append(f"riding {attrs.transportation}")
    if not parts:
        return "A person."
    return "A person " + parts[0] + "".join(", " + p for p in parts[1:]) + "."


def parse_embeddings(path: Path | str) -> list[EmbeddingRecord]:
    path = Path(path)
    records: list[EmbeddingRecord] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            parts = [p.strip() for p in text.split(",")]
            if len(parts) < 4:
                raise ParseError(path, "row too short", line_no)
            view = _parse_int(parts[0], path, line_no, "view")
            frame = _parse_int(parts[1], path, line_no, "frame")
            identity = _parse_int(parts[2], path, line_no, "id")
            dim = _parse_int(parts[3], path, line_no, "D")
            if dim <= 0:
                raise ParseError(path, f"D must be positive, got {dim}", line_no)
            if len(parts) != 4 + 2 * dim:
                raise ParseError(
                    path, f"expected {4 + 2 * dim} fields for D={dim}, got {len(parts)}", line_no
                )
            values = [_parse_float(p, path, line_no, "feature") for p in parts[4:]]
            records.append(
                EmbeddingRecord(
                    key=(view, frame, identity),
                    f_f=tuple(values[:dim]),
                    f_ai=tuple(values[dim:]),
                )
            )
    return records


def write_embeddings(records: Sequence[EmbeddingRecord], path: Path | str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    for record in sorted(records, key=lambda r: r.key):
        view, frame, identity = record.key
        values = ",".join(repr(v) for v in record.f_f + record.f_ai)
        lines.append(f"{view},{frame},{identity},{len(record.f_f)},{values}")
    path.write_text("\n".join(lines) + ("\n" if lines else ""), "utf-8")


def build_report(
    results: Sequence[DescriptionResult],
    aggregate_result: Optional[AggregateResult],
    config: Mapping[str, object],
) -> dict:
    """Assemble the machine-readable evaluation report.

    With zero descriptions the aggregate block is marked undefined rather
    than raising.
    """
    descriptions = []
    for result in results:
        counts = result.counts
        descriptions.append(
            {
                "id": result.description_id,
                "cvidf1": result.cvidf1,
                "cvma_raw": result.cvma_raw,
                "cvma": max(result.cvma_raw, 0.0),
                "counts": {
                    "misses": counts.miss_total,
                    "false_positives": counts.fp_total,
                    "mismatches": counts.mismatch_total,
                    "gt_total": counts.gt_total,
                    "frames": [
                        {
                            "frame": counts.frames[i],
                            "m": counts.misses[i],
                            "fp": counts.false_positives[i],
                            "mme": counts.mismatches[i],
                            "gt": counts.gt_totals[i],
                        }
                        for i in range(len(counts.frames))
                    ],
                },
                "id_measures": {
                    "idtp": result.id_measures.idtp,
                    "idfp": result.id_measures.idfp,
                    "idfn": result.id_measures.idfn,
                    "cvidp": result.id_measures.cvidp,
                    "cvidr": result.id_measures.cvidr,
                },
            }
        )
    if aggregate_result is None:
        aggregate_block: dict[str, object] = {"n_l": 0, "cvridf1": None, "cvrma": None}
    else:
        aggregate_block = {
            "n_l": aggregate_result.n_l,
            "cvridf1": aggregate_result.cvridf1,
            "cvrma": aggregate_result.cvrma,
        }
    return {
        "config": dict(config),
        "descriptions": descriptions,
        "aggregate": aggregate_block,
    }


def write_report(report: Mapping[str, object], path: Path | str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", "utf-8")


def read_report(path: Path | str) -> dict:
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ParseError(path, "report not found") from None
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"invalid JSON: {exc}") from None
