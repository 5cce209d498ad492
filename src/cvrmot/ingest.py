"""On-disk formats: scenes, descriptions, predictions, scores, reports.

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
* Report -- JSON document with the effective config, one block per
  description, and the aggregate; see :func:`build_report`.

Parsers are strict: bad input raises :class:`ParseError` (a ``ValueError``)
naming the file and the line or key, so no row, view or value is dropped or
coerced. All CSVs share one row reader, the one place a row rule is checked
(integer frame >= 1 and, when the scene is known, <= its last frame, integer
id, no ``(frame, id)`` repeated within a file, numbers without non-ASCII
digits or ``_``), which converts a file of plain lines whole, column by
column, and any other file line by line, field by field; and one row formatter,
:func:`view_lines` (``str`` of each field, which for a number is its ``repr``,
so a re-parse is exact), whose per-view lines :func:`write_lines` writes. A
field may be text: ``synth`` puts the :func:`record_text` of each box or score
record (made once per object, never keyed by value, from one map shared across
``gt/``, ``tracks/`` and ``predictions/``) into its rows, so a copied box or a
shared score record reuses its text. One helper decides which ``view_NN.csv``
files a directory holds. JSON values must have exactly their
type (a count is an ``int``), and no object may repeat a key.
"""

import math
from itertools import repeat, starmap
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Iterable, Mapping, NamedTuple, Optional, Sequence

from .datamodel import (
    ATTRIBUTE_CATEGORIES,
    AttributeSet,
    BBox,
    Checked,
    Detection,
    LanguageDescription,
    Scene,
    Track,
    check_type,
    validate_description,
    validate_scene,
)
from .fusion_losses import ScoreRecord

if TYPE_CHECKING:
    from .metrics import AggregateResult, DescriptionResult


class ParseError(ValueError):
    """A file could not be parsed; carries the offending path and line."""

    def __init__(self, path: object, message: str, line: Optional[int] = None):
        self.path = str(path)
        self.line = line
        where = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{where}: {message}")


class _PredictionSet(NamedTuple):
    tracks: tuple[Track, ...]
    scores: Mapping[tuple[int, int, int], ScoreRecord] = MappingProxyType({})


class PredictionSet(Checked, _PredictionSet):
    """Tracker output for one language description."""

    __slots__ = ()

    def _check(self) -> None:
        existing = {d[:3] for t in self.tracks for d in t.detections}  # (view, frame, identity)
        for key in self.scores:
            if key not in existing:
                raise ValueError(f"score key {key} has no matching detection")

    def detection_count(self) -> int:
        return sum(len(t.detections) for t in self.tracks)


def read_json(path: Path | str, kind: type = dict) -> object:
    """The JSON value in ``path``, which must be a ``kind`` (an object by default).

    A directory, invalid JSON, an object with a repeated key or a value of
    another type is a ParseError naming the file.
    """
    import json

    path = Path(path)

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        out = {}
        for key, value in pairs:
            if key in out:
                raise ParseError(path, f"duplicate key {key!r}")
            out[key] = value
        return out

    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle, object_pairs_hook=unique_keys)
    except ParseError:
        raise
    except IsADirectoryError:
        raise ParseError(path, "is a directory") from None
    # JSONDecodeError, UnicodeDecodeError, or a RecursionError from nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ParseError(path, f"invalid JSON: {exc}") from None
    _check_json(path, "the top-level value", raw, kind)
    return raw


def _check_json(path: Path, name: str, value: object, kind: type) -> None:
    try:
        check_type(name, value, kind)
    except ValueError as exc:
        raise ParseError(path, str(exc)) from None


def _check_json_fields(path: Path, raw: dict, spec: dict[str, type], where: str) -> None:
    """Require every key of ``spec`` in ``raw``, holding exactly its type."""
    for key, kind in spec.items():
        if key not in raw:
            raise ParseError(path, f"{where} missing field {key!r}")
        _check_json(path, f"{where} field {key!r}", raw[key], kind)


def _view_file(directory: Path | str, view: int) -> Path:
    return Path(directory) / f"view_{view:02d}.csv"


def _directory(path: Path | str) -> Path:
    """``path`` as a Path; a ParseError when it is not a directory."""
    path = Path(path)
    if not path.is_dir():
        raise ParseError(path, "not a directory")
    return path


def _view_files(directory: Path | str, num_views: Optional[int] = None) -> dict[int, Path]:
    """The ``view_NN.csv`` files a directory holds, by ascending view index.

    A ``view_*.csv`` that is misnamed or a directory is a ParseError, and so,
    when ``num_views`` is given, is a file for a view index at or past it (the lowest).
    """
    files: dict[int, Path] = {}
    for path in Path(directory).glob("view_*.csv"):
        if path.is_dir():
            raise ParseError(path, "is a directory")
        digits = path.stem[len("view_"):]
        valid = digits.isascii() and digits.isdigit()
        if not valid or _view_file(directory, int(digits)).name != path.name:
            raise ParseError(path, "expected a name of the form view_NN.csv")
        files[int(digits)] = path
    files = dict(sorted(files.items()))
    for view, path in files.items():
        if num_views is not None and view >= num_views:
            raise ParseError(path, f"view {view} is outside the {num_views} views")
    return files


def view_count(directory: Path | str) -> int:
    """Number of views a directory of per-view CSVs covers: highest index + 1.

    Views between the files present are treated as empty, as
    :func:`parse_predictions` does. A path that is not a directory is a ParseError.
    """
    files = _view_files(_directory(directory))
    if not files:
        raise ParseError(directory, "no view_*.csv files found")
    return max(files) + 1


_Layout = Mapping[int, tuple[tuple[type, int, int], ...]]  # a CSV kind's rows, by field count


def _layout(*rows: tuple[type, ...]) -> _Layout:
    """The layout whose rows each build the record classes of one of ``rows``.

    A row is ``frame,id`` (a frame in ``1..last``, the pair not repeated in its file)
    and then the columns of its records, in column order: each record class
    with its first and past-the-end column. A class reads
    ``len(cls._fields)`` columns, and its field names are the names an error
    gives them.
    """
    spans = {}
    for classes in rows:
        start, row = 2, []
        for cls in classes:
            row.append((cls, start, start + len(cls._fields)))
            start += len(cls._fields)
        spans[start] = tuple(row)
    return spans


_GT_ROWS = _layout((BBox,))
_PREDICTION_ROWS = _layout((BBox,), (BBox, ScoreRecord))
_SCORE_ROWS = _layout((ScoreRecord,))


def _read_rows(path: Path, layout: _Layout, last: float = math.inf) -> list[tuple]:
    """The non-blank rows of a headerless CSV, as blocks of columns in file order.

    Every frame must lie in ``1..last`` (the scene's last frame, when known).
    A block is ``(frames, ids, records)`` for rows of one width, with one
    column of ``records`` per record class. A file whose every non-empty line
    is plain (ASCII without ``_``, which ``int`` and ``float`` would accept,
    not all whitespace, and all of one width the layout allows) is one block:
    its text is split once, each column is converted with the built-in ``int``
    or ``float``, and the records are built column by column, so their own
    checks reject non-finite or out-of-range values. Any other file, or one
    that fails any of this, is read by :func:`_checked_rows`.
    """
    try:
        text = path.read_text("utf-8")
        if not text.isascii() or "_" in text:
            raise ValueError
        lines = list(filter(None, text.split("\n")))  # empty lines are skipped
        (commas,) = set(map(str.count, lines, repeat(",")))  # a ValueError unless one width
        width = commas + 1
        if width not in layout:
            raise ValueError
        fields = ",".join(lines).split(",")
        frames = list(map(int, fields[0::width]))
        ids = list(map(int, fields[1::width]))
        if min(frames) < 1 or max(frames) > last or len(set(zip(frames, ids))) < len(frames):
            raise ValueError
        records = [
            list(starmap(cls, zip(*(map(float, fields[i::width]) for i in range(start, stop)))))
            for cls, start, stop in layout[width]
        ]
    except ValueError:  # UnicodeDecodeError included
        return _checked_rows(path, layout, last)
    return [(frames, ids, records)]


def _checked_rows(path: Path, layout: _Layout, last: float) -> list[tuple]:
    """Every non-blank row of a CSV read by :func:`_checked_row`, one block per row."""
    blocks = []
    first_line: dict[tuple[int, int], int] = {}
    with open(path, encoding="utf-8") as handle:
        try:
            for line_no, line in enumerate(handle, start=1):
                if not line.isspace():
                    key, records = _checked_row(path, line_no, line, layout, last, first_line)
                    blocks.append(((key[0],), (key[1],), [(record,) for record in records]))
        except UnicodeDecodeError as exc:
            raise ParseError(path, f"not UTF-8 text: {exc}") from None
    return blocks


def _checked_row(
    path: Path,
    line_no: int,
    line: str,
    layout: _Layout,
    last: float,
    first_line: dict[tuple[int, int], int],
) -> tuple[tuple[int, int], list[Any]]:
    """Read one row field by field and raise its first error as a ParseError.

    A row without one is returned as its key and records: its fields are
    padded with whitespace that ``int`` and ``float`` do not strip (``\\x1c``
    to ``\\x1f``, or a non-ASCII space).
    """
    fields = [p.strip() for p in line.strip().split(",")]

    def error(message: str) -> ParseError:
        return ParseError(path, message, line_no)

    def field(index: int, what: str, kind: type = float) -> Any:
        """Field ``index`` as a ``kind`` (``int`` or a finite ``float``)."""
        raw = fields[index]
        try:
            if not raw.isascii() or "_" in raw:
                raise ValueError
            value = kind(raw)
        except ValueError:
            raise error(f"bad {what}: {raw!r}") from None
        if kind is float and not math.isfinite(value):
            raise error(f"{what} must be finite, got {raw!r}")
        return value

    row = layout.get(len(fields))
    if row is None:
        expected = " or ".join(map(str, layout))
        raise error(f"expected {expected} fields, got {len(fields)}")
    key = frame, identity = field(0, "frame", int), field(1, "id", int)
    if not 1 <= frame <= last:
        bound = ">= 1" if frame < 1 else f"<= {last}"
        raise error(f"frame must be {bound}, got {frame}")
    earlier = first_line.setdefault(key, line_no)
    if earlier != line_no:
        raise error(f"duplicate row for frame {frame}, id {identity} (first at line {earlier})")
    records = []
    for cls, start, _ in row:
        values = [field(start + i, name) for i, name in enumerate(cls._fields)]
        try:
            records.append(cls(*values))
        except ValueError as exc:  # the record's own check
            raise error(str(exc)) from None
    return key, records


def _view_rows(rows: Iterable[Sequence], num_views: int) -> list[list[Sequence]]:
    """Per view, its ``(view, frame, id, ...)`` rows ordered by (frame, id)."""
    by_view: dict[int, list[Sequence]] = {view: [] for view in range(num_views)}
    for row in rows:
        if row[0] not in by_view:
            raise ValueError(f"row for view {row[0]} is outside the {num_views} views")
        by_view[row[0]].append(row)
    for view_rows in by_view.values():
        view_rows.sort(key=itemgetter(1, 2))
    return list(by_view.values())


def record_text(record: Sequence, texts: dict[int, tuple[Sequence, str]]) -> str:
    """The CSV text of ``record``, a tuple of numbers such as a BBox, made once per object.

    ``texts`` maps ``id(record)`` to the record and its text; holding the
    record keeps its id from passing to another object while ``texts`` lives.
    Records are never matched by value, so equal ones that print differently
    (``10`` and ``10.0``, ``0.0`` and ``-0.0``) each get their own text.
    """
    entry = texts.get(id(record))
    if entry is None:
        entry = texts[id(record)] = record, ",".join(map(repr, record))
    return entry[1]


def view_lines(rows: Iterable[Sequence], num_views: int) -> list[list[str]]:
    """Per view, the CSV lines of its ``(view, frame, id, ...)`` rows, ordered by (frame, id).

    A line drops the view column and joins ``str`` of every other field. For an
    int or a float that is its ``repr``, which keeps every float exact; a text
    field, such as a :func:`record_text`, is written as it is.
    """
    return [
        list(map(",".join, map(map, repeat(str), map(itemgetter(slice(1, None)), view_rows))))
        for view_rows in _view_rows(rows, num_views)
    ]


def write_lines(directory: Path | str, lines: Sequence[Sequence[str]]) -> None:
    """Write each ``lines[view]`` to ``view_NN.csv``; a view without lines is an empty file.

    A ``view_NN.csv`` already there for a view past the written ones is a
    ParseError, raised before any file is written: it would be read with them.
    """
    directory = Path(directory)
    _view_files(directory, len(lines))
    directory.mkdir(parents=True, exist_ok=True)
    for view, file_lines in enumerate(lines):
        text = "\n".join(file_lines) + ("\n" if file_lines else "")
        _view_file(directory, view).write_text(text, "utf-8")


def _read_box_rows(
    path: Path, view: int, allow_scores: bool, last_frame: float
) -> tuple[list[Detection], dict[tuple[int, int, int], ScoreRecord]]:
    detections: list[Detection] = []
    scores: dict[tuple[int, int, int], ScoreRecord] = {}
    layout = _PREDICTION_ROWS if allow_scores else _GT_ROWS
    for frames, ids, records in _read_rows(path, layout, last_frame):
        # Detection checks nothing, so its tuples are built without a Python call per row.
        rows = zip(repeat(view), frames, ids, records[0])
        detections += map(tuple.__new__, repeat(Detection), rows)
        if len(records) == 2:
            scores.update(zip(zip(repeat(view), frames, ids), records[1]))
    return detections, scores


def _tracks_from_detections(detections: Sequence[Detection]) -> tuple[Track, ...]:
    by_id: dict[int, list[Detection]] = {}
    for det in detections:
        by_id.setdefault(det.identity, []).append(det)
    return tuple(Track(identity, tuple(dets)) for identity, dets in sorted(by_id.items()))


_MANIFEST_FIELDS = dict(name=str, views=int, frames_per_view=int, image_width=int, image_height=int)


def parse_scene(manifest_path: Path | str, gt_dir: Path | str) -> Scene:
    """Parse the manifest plus one ground-truth CSV per view.

    :func:`validate_scene` checks the manifest before any CSV is read, and the
    row reader each row (a frame in ``1..frames_per_view``), naming its file
    and line; so the scene passes ``validate_scene``. A ``gt_dir`` that is not
    a directory is an error. The parse is loss-free (writing and re-parsing
    reproduces the same scene).
    """
    manifest_path = Path(manifest_path)
    manifest = read_json(manifest_path)
    _check_json_fields(manifest_path, manifest, _MANIFEST_FIELDS, "manifest")
    num_views, last_frame = manifest["views"], manifest["frames_per_view"]
    size = (manifest["image_width"], manifest["image_height"])
    scene = Scene(manifest["name"], num_views, last_frame, size, gt_tracks=())
    try:
        validate_scene(scene)
    except ValueError as exc:
        raise ParseError(manifest_path, f"invalid scene: {exc}") from None
    files = _view_files(_directory(gt_dir), num_views)
    detections: list[Detection] = []
    for view in range(num_views):
        if view not in files:
            raise ParseError(
                _view_file(gt_dir, view), f"missing ground-truth file for view {view}"
            )
        detections.extend(_read_box_rows(files[view], view, False, last_frame)[0])
    return scene._replace(gt_tracks=_tracks_from_detections(detections))


def write_manifest(scene: Scene, path: Path | str) -> None:
    values = (scene.name, scene.num_views, scene.frames_per_view, *scene.image_size)
    write_json(dict(zip(_MANIFEST_FIELDS, values)), path)


def write_scene(scene: Scene, manifest_path: Path | str, gt_dir: Path | str) -> None:
    write_manifest(scene, manifest_path)
    rows = [(*d[:3], *d.bbox) for d in scene.all_detections()]
    write_lines(gt_dir, view_lines(rows, scene.num_views))


def _attributes_from_json(raw: Mapping[str, object], path: Path) -> AttributeSet:
    values: dict[str, Optional[str]] = {}
    for key, value in raw.items():
        if key not in ATTRIBUTE_CATEGORIES:
            raise ParseError(path, f"unknown attribute category {key!r}")
        if value is not None:
            _check_json(path, f"attribute {key!r}", value, str)
        values[key] = None if value == "null" else value
    return AttributeSet(**values)


_DESCRIPTION_FIELDS = {"id": str, "text": str, "attributes": dict, "referred_identities": list}


def parse_descriptions(
    path: Path | str, scene: Optional[Scene] = None
) -> list[LanguageDescription]:
    """Parse and validate the description list.

    An ``id`` that is not one plain directory name (``evaluate`` reads the
    predictions under ``<root>/<id>``), a repeated ``id``, or an identity
    listed twice in one ``referred_identities`` is an error. With a scene
    supplied, every referred identity must exist in the scene's ground truth.
    """
    path = Path(path)
    raw = read_json(path, list)
    out: list[LanguageDescription] = []
    first_entry: dict[str, int] = {}
    for index, entry in enumerate(raw):
        _check_json(path, f"entry {index}", entry, dict)
        _check_json_fields(path, entry, _DESCRIPTION_FIELDS, f"entry {index}")
        desc_id = entry["id"]
        if desc_id in ("", ".", "..") or any(c in desc_id for c in "/\\\0"):
            raise ParseError(path, f"entry {index} id {desc_id!r} is not a plain directory name")
        earlier = first_entry.setdefault(desc_id, index)
        if earlier != index:
            message = f"repeats description id {desc_id!r} (first in entry {earlier})"
            raise ParseError(path, f"entry {index} {message}")
        referred: set[int] = set()
        for position, identity in enumerate(entry["referred_identities"]):
            name = f"entry {index} referred_identities[{position}]"
            _check_json(path, name, identity, int)
            if identity in referred:
                raise ParseError(path, f"{name} repeats identity {identity}")
            referred.add(identity)
        desc = LanguageDescription(
            id=desc_id,
            text=entry["text"],
            attributes=_attributes_from_json(entry["attributes"], path),
            referred_identities=frozenset(referred),
        )
        try:
            validate_description(desc, scene)
        except ValueError as exc:
            raise ParseError(path, f"invalid description {desc.id!r}: {exc}") from None
        out.append(desc)
    return out


def write_descriptions(descriptions: Sequence[LanguageDescription], path: Path | str) -> None:
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
    write_json(payload, path)


def parse_predictions(
    directory: Path | str, num_views: int, last_frame: float = math.inf
) -> PredictionSet:
    """Parse one description's per-view prediction CSVs.

    Missing or empty view files are treated as the tracker finding nothing in
    that view; a file for a view past ``num_views``, or a row whose frame is
    past ``last_frame`` (a scene's ``frames_per_view``; unbounded by default),
    is an error. Score columns, when present, populate the score map.
    """
    detections: list[Detection] = []
    scores: dict[tuple[int, int, int], ScoreRecord] = {}
    for view, path in _view_files(directory, num_views).items():
        view_dets, view_scores = _read_box_rows(path, view, True, last_frame)
        detections.extend(view_dets)
        scores.update(view_scores)
    return PredictionSet(_tracks_from_detections(detections), scores)


def prediction_lines(pred: PredictionSet, num_views: int) -> list[list[str]]:
    """Per view, the lines of ``pred``'s detections as :func:`write_predictions` writes them."""
    scores = pred.scores
    rows = [
        (view, frame, identity, *box, *scores.get((view, frame, identity), ()))  # (s_t, s_a)
        for track in pred.tracks
        for view, frame, identity, box in track.detections
    ]
    return view_lines(rows, num_views)


def line_keys(tracks: Sequence[Track], num_views: int) -> list[list[tuple[int, int, int]]]:
    """Per view, the (view, frame, identity) of each line :func:`prediction_lines` gives."""
    return _view_rows((d[:3] for track in tracks for d in track.detections), num_views)


def write_predictions(pred: PredictionSet, directory: Path | str, num_views: int) -> None:
    write_lines(directory, prediction_lines(pred, num_views))


def parse_scores(
    directory: Path | str, num_views: int
) -> dict[tuple[int, int, int], ScoreRecord]:
    """Parse standalone per-view score CSVs (``frame,id,s_t,s_a``) in a directory."""
    scores: dict[tuple[int, int, int], ScoreRecord] = {}
    for view, path in _view_files(_directory(directory), num_views).items():
        scores.update(_read_score_rows(path, view))
    return scores


def _read_score_rows(path: Path, view: int) -> dict[tuple[int, int, int], ScoreRecord]:
    scores: dict[tuple[int, int, int], ScoreRecord] = {}
    for frames, ids, (records,) in _read_rows(path, _SCORE_ROWS):
        scores.update(zip(zip(repeat(view), frames, ids), records))
    return scores


def write_scores(
    scores: Mapping[tuple[int, int, int], ScoreRecord],
    directory: Path | str,
    num_views: int,
) -> None:
    rows = ((*key, record.s_t, record.s_a) for key, record in scores.items())
    write_lines(directory, view_lines(rows, num_views))


_HEADWEAR_WORDS = {"with cap": "cap", "with helmet": "helmet"}


def _article(phrase: str) -> str:
    return "an" if phrase[:1].lower() in "aeiou" else "a"


def _join_and(parts: Sequence[str]) -> str:
    if len(parts) == 1:
        return parts[0]
    return ", ".join(parts[:-1]) + " and " + parts[-1]


def render_description(attrs: AttributeSet) -> str:
    """Render deterministic description text from attributes.

    Absent (None) fields are omitted; identical inputs produce byte-identical
    text. With every field absent the result is "A person.".
    """
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


_FRAME_KEYS = ("frame", "m", "fp", "mme", "gt")  # a frame row's keys, in MetricCounts order


def build_report(
    results: Sequence["DescriptionResult"],
    aggregate_result: "AggregateResult",
    config: Mapping[str, object],
) -> dict:
    """Assemble the machine-readable evaluation report."""
    descriptions = []
    for result in results:
        counts = result.counts
        measures = result.id_measures
        descriptions.append(
            {
                "id": result.description_id,
                "cvidf1": result.cvidf1,
                "cvma_raw": result.cvma_raw,
                "cvma": float(result.cvma_clamped_exact),
                "counts": {
                    "misses": counts.miss_total,
                    "false_positives": counts.fp_total,
                    "mismatches": counts.mismatch_total,
                    "gt_total": counts.gt_total,
                    "frames": [dict(zip(_FRAME_KEYS, row)) for row in zip(*counts)],
                },
                "id_measures": {
                    **measures._asdict(), "cvidp": measures.cvidp, "cvidr": measures.cvidr
                },
            }
        )
    return {
        "config": dict(config),
        "descriptions": descriptions,
        "aggregate": aggregate_result._asdict(),
    }


def write_json(value: object, path: Path | str) -> None:
    """Write ``value`` as indented, key-sorted JSON ending in a newline."""
    import json

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n", "utf-8")


# Where an emptied frame list sits in json.dumps text. No encoded string can
# hold it: a quote inside one is escaped, and only keys are followed by ": ".
_EMPTY_FRAMES = '"frames": []'
# One per-frame row of build_report as json.dumps(indent=2, sort_keys=True) lays it out.
_FRAME_ROW = (
    '          {\n            "fp": %(fp)d,\n            "frame": %(frame)d,\n'
    '            "gt": %(gt)d,\n            "m": %(m)d,\n            "mme": %(mme)d\n          }'
)


def write_report(report: Mapping[str, Any], path: Path | str) -> None:
    """Write a :func:`build_report` report byte for byte as :func:`write_json` would.

    ``json.dumps`` encodes the report with every frame list emptied; each
    description's rows, whose values are ints, then take the place of its
    ``"frames": []`` with one ``%``-template per row. If the text does not
    hold exactly one such place per description, ``json.dumps`` encodes the
    whole report instead.
    """
    import json

    descriptions = report["descriptions"]
    frame_lists = [d["counts"]["frames"] for d in descriptions]
    shell = {
        **report,
        "descriptions": [{**d, "counts": {**d["counts"], "frames": []}} for d in descriptions],
    }
    pieces = json.dumps(shell, indent=2, sort_keys=True).split(_EMPTY_FRAMES)
    if len(pieces) != len(frame_lists) + 1:
        write_json(report, path)
        return
    out = [pieces[0]]
    for piece, rows in zip(pieces[1:], frame_lists):
        if rows:
            out.append('"frames": [\n' + ",\n".join(map(_FRAME_ROW.__mod__, rows)) + "\n        ]")
        else:
            out.append(_EMPTY_FRAMES)
        out.append(piece)
    out.append("\n")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(out), "utf-8")


def read_report(path: Path | str) -> dict:
    return read_json(path)
