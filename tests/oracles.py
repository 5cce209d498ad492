"""Reference implementations that faster code in ``cvrmot`` replaced.

* The dense per-slot matching and metrics the gated pass in
  ``cvrmot.metrics`` replaced: every (gt, pred) pair of a slot gets an IoU and
  a cell in one dense LAP, and the identity overlap table is filled by a
  G x P x slot loop.
* The per-field CSV row reader ``cvrmot.ingest`` had before its one-pass
  reader: a row object per line, each field parsed and each record built
  through a checking wrapper that names the file, line and field.
* The per-row CSV writer ``cvrmot.ingest`` had before it formatted whole
  files: one ``",".join(map(repr, row))`` per row, each row built as a tuple
  and sliced.
* The per-description loop ``cvrmot synth`` had before it scored each score
  level once: every description's tracks scored by their own
  ``score_tracks`` call and written by ``write_predictions``.
* The ``iou`` ``cvrmot.datamodel`` had before it dropped the builtin calls:
  the intersection's sides are ``min(...) - max(...)``.

Tests compare the current code against them.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from cvrmot import (
    BBox,
    CostMatrix,
    Detection,
    FORBIDDEN,
    FrameMatch,
    IdMeasures,
    LanguageDescription,
    MetricCounts,
    ParseError,
    PredictionSet,
    Scene,
    ScoreRecord,
    Track,
    iou,
    predictions_from_gt,
    score_tracks,
    solve_lap,
    write_predictions,
)


def oracle_iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union with the intersection's sides taken by ``min`` and ``max``.

    A union that underflows to 0 gives the exact IoU of the stored values, rounded.
    """
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ax2, ay2, bx2, by2 = ax + aw, ay + ah, bx + bw, by + bh
    ix = min(ax2, bx2) - max(ax, bx)
    iy = min(ay2, by2) - max(ay, by)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = (ax2 - ax) * (ay2 - ay) + (bx2 - bx) * (by2 - by) - inter
    if union == 0:
        return float(oracle_iou(*(tuple(map(Fraction, box)) for box in (a, b))))
    return inter / union


def dense_match_frame(
    gt_dets: Sequence[Detection],
    pred_dets: Sequence[Detection],
    iou_threshold: float = 0.5,
) -> FrameMatch:
    """One dense LAP over the full G x P matrix of 1 - IoU."""
    if not gt_dets or not pred_dets:
        return FrameMatch((), tuple(range(len(gt_dets))), tuple(range(len(pred_dets))))
    rows = []
    any_feasible = False
    for g in gt_dets:
        row = []
        for p in pred_dets:
            overlap = iou(g.bbox, p.bbox)
            if overlap >= iou_threshold:
                row.append(1.0 - overlap)
                any_feasible = True
            else:
                row.append(FORBIDDEN)
        rows.append(row)
    if not any_feasible:
        return FrameMatch((), tuple(range(len(gt_dets))), tuple(range(len(pred_dets))))
    assignment = solve_lap(CostMatrix.from_rows(rows))
    matched_gt = {r for r, _ in assignment.pairs}
    matched_pred = {c for _, c in assignment.pairs}
    return FrameMatch(
        assignment.pairs,
        tuple(i for i in range(len(gt_dets)) if i not in matched_gt),
        tuple(j for j in range(len(pred_dets)) if j not in matched_pred),
    )


def _index_by_slot(tracks: Sequence[Track]) -> dict[tuple[int, int], list[Detection]]:
    slots: dict[tuple[int, int], list[Detection]] = defaultdict(list)
    for track in tracks:
        for det in track.detections:
            slots[(det.view_id, det.frame)].append(det)
    return slots


def dense_count_events(
    referred_gt: Sequence[Track],
    predictions: Sequence[Track],
    iou_threshold: float = 0.5,
) -> MetricCounts:
    """Per-frame tallies with one dense LAP per (view, frame)."""
    gt_slots = _index_by_slot(referred_gt)
    pred_slots = _index_by_slot(predictions)
    frames = sorted({f for _, f in gt_slots} | {f for _, f in pred_slots})
    views = sorted({v for v, _ in gt_slots} | {v for v, _ in pred_slots})
    last_matched: dict[tuple[int, int], int] = {}
    out_m, out_fp, out_mme, out_gt = [], [], [], []
    for frame in frames:
        m_t = fp_t = gt_t = 0
        matched_here: dict[int, dict[int, int]] = defaultdict(dict)
        for view in views:
            gts = sorted(gt_slots.get((view, frame), []), key=lambda d: d.identity)
            preds = sorted(pred_slots.get((view, frame), []), key=lambda d: d.identity)
            gt_t += len(gts)
            match = dense_match_frame(gts, preds, iou_threshold)
            m_t += len(match.unmatched_gt)
            fp_t += len(match.unmatched_pred)
            for gi, pj in match.pairs:
                matched_here[gts[gi].identity][view] = preds[pj].identity
        temporal = 0
        crossview = 0
        for gt_id in sorted(matched_here):
            by_view = matched_here[gt_id]
            for view in sorted(by_view):
                pred_id = by_view[view]
                previous = last_matched.get((gt_id, view))
                if previous is not None and previous != pred_id:
                    temporal += 1
                last_matched[(gt_id, view)] = pred_id
            pred_ids = [by_view[v] for v in sorted(by_view)]
            for i in range(len(pred_ids)):
                for j in range(i + 1, len(pred_ids)):
                    if pred_ids[i] != pred_ids[j]:
                        crossview += 1
        out_m.append(m_t)
        out_fp.append(fp_t)
        out_mme.append(temporal + crossview)
        out_gt.append(gt_t)
    return MetricCounts(
        tuple(frames), tuple(out_m), tuple(out_fp), tuple(out_mme), tuple(out_gt)
    )


def dense_id_measures(
    referred_gt: Sequence[Track],
    predictions: Sequence[Track],
    iou_threshold: float = 0.5,
) -> IdMeasures:
    """Identity tallies from a G x P x slot IoU loop and one dense ID LAP."""
    total_gt = sum(len(t.detections) for t in referred_gt)
    total_pred = sum(len(t.detections) for t in predictions)
    gt_ids = sorted(t.identity for t in referred_gt)
    pred_ids = sorted(t.identity for t in predictions)
    if not gt_ids or not pred_ids:
        return IdMeasures(0, total_pred, total_gt)
    gt_boxes: dict[int, dict[tuple[int, int], BBox]] = {
        t.identity: {(d.view_id, d.frame): d.bbox for d in t.detections} for t in referred_gt
    }
    pred_boxes: dict[int, dict[tuple[int, int], BBox]] = {
        t.identity: {(d.view_id, d.frame): d.bbox for d in t.detections} for t in predictions
    }
    overlap = [[0] * len(pred_ids) for _ in gt_ids]
    for i, g in enumerate(gt_ids):
        for j, p in enumerate(pred_ids):
            p_slots = pred_boxes[p]
            count = 0
            for slot, box in gt_boxes[g].items():
                other = p_slots.get(slot)
                if other is not None and iou(box, other) >= iou_threshold:
                    count += 1
            overlap[i][j] = count
    costs = [[-float(v) for v in row] for row in overlap]
    assignment = solve_lap(CostMatrix.from_rows(costs))
    idtp = sum(overlap[r][c] for r, c in assignment.pairs)
    return IdMeasures(idtp, total_pred - idtp, total_gt - idtp)


@dataclass(slots=True)
class _Row:
    """One non-blank CSV row; :meth:`parse` raises ParseError naming file and line."""

    path: Path
    line: int
    fields: list[str]

    def error(self, message: str) -> ParseError:
        return ParseError(self.path, message, self.line)

    def parse(self, index: int, what: str, kind: type = float) -> Any:
        """Field ``index`` as a ``kind`` (``int`` or a finite ``float``)."""
        raw = self.fields[index]
        try:
            value = kind(raw)
        except ValueError:
            raise self.error(f"bad {what}: {raw!r}") from None
        if kind is float and not math.isfinite(value):
            raise self.error(f"{what} must be finite, got {raw!r}")
        return value

    def make(self, cls: Callable[..., Any], *args: object) -> Any:
        """``cls(*args)``, with a ValueError of its checks raised as a ParseError."""
        try:
            return cls(*args)
        except ValueError as exc:
            raise self.error(str(exc)) from None


_KEY_MIN = {"view": 0, "frame": 1}


def _read_rows(
    path: Path, key: Sequence[str], widths: Sequence[int] = (), unique: bool = True
) -> Iterator[tuple[_Row, tuple[int, ...]]]:
    """Yield each non-blank row of a headerless CSV with its integer key."""
    first_line: dict[tuple[int, ...], int] = {}
    bounds = [(i, name, _KEY_MIN[name]) for i, name in enumerate(key) if name in _KEY_MIN]
    with open(path, encoding="utf-8") as handle:
        try:
            for line_no, line in enumerate(handle, start=1):
                text = line.strip()
                if not text:
                    continue
                row = _Row(path, line_no, [p.strip() for p in text.split(",")])
                count = len(row.fields)
                if (count not in widths) if widths else count <= len(key):
                    expected = " or ".join(map(str, widths)) if widths else f"more than {len(key)}"
                    raise row.error(f"expected {expected} fields, got {count}")
                try:
                    values = tuple(map(int, row.fields[:len(key)]))
                except ValueError:  # name the first bad column
                    values = tuple([row.parse(i, name, int) for i, name in enumerate(key)])
                for i, name, low in bounds:
                    if values[i] < low:
                        raise row.error(f"{name} must be >= {low}, got {values[i]}")
                if unique:
                    earlier = first_line.setdefault(values, line_no)
                    if earlier != line_no:
                        where = ", ".join(f"{n} {v}" for n, v in zip(key, values))
                        raise row.error(f"duplicate row for {where} (first at line {earlier})")
                yield row, values
        except UnicodeDecodeError as exc:
            raise ParseError(path, f"not UTF-8 text: {exc}") from None


def oracle_box_rows(
    path: Path, view: int, allow_scores: bool
) -> tuple[list[Detection], dict[tuple[int, int, int], ScoreRecord]]:
    """Ground-truth (``allow_scores`` false) or prediction rows of one view file."""
    detections: list[Detection] = []
    scores: dict[tuple[int, int, int], ScoreRecord] = {}
    rows = _read_rows(path, ("frame", "id"), (6, 8) if allow_scores else (6,), allow_scores)
    for row, (frame, identity) in rows:
        x, y = row.parse(2, "x"), row.parse(3, "y")
        box = row.make(BBox, x, y, row.parse(4, "w"), row.parse(5, "h"))
        detections.append(Detection(view, frame, identity, box))
        if len(row.fields) == 8:
            record = row.make(ScoreRecord, row.parse(6, "s_t"), row.parse(7, "s_a"))
            scores[(view, frame, identity)] = record
    return detections, scores


def oracle_score_rows(path: Path, view: int) -> dict[tuple[int, int, int], ScoreRecord]:
    """Rows ``frame,id,s_t,s_a`` of one view's score file."""
    scores: dict[tuple[int, int, int], ScoreRecord] = {}
    for row, (frame, identity) in _read_rows(path, ("frame", "id"), (4,)):
        record = row.make(ScoreRecord, row.parse(2, "s_t"), row.parse(3, "s_a"))
        scores[(view, frame, identity)] = record
    return scores


def oracle_write_views(directory: Path, num_views: int, rows: Sequence[tuple]) -> None:
    """One ``view_NN.csv`` per view from ``(view, frame, id, ...)`` rows, by (frame, id)."""
    by_view: dict[int, list[tuple]] = {view: [] for view in range(num_views)}
    for row in rows:
        by_view[row[0]].append(row)
    for view, view_rows in by_view.items():
        view_rows.sort(key=lambda row: (row[1], row[2]))
        lines = [",".join(map(repr, row[1:])) for row in view_rows]
        text = "\n".join(lines) + ("\n" if lines else "")
        (Path(directory) / f"view_{view:02d}.csv").write_text(text, "utf-8")


def oracle_box_row(d: Detection) -> tuple:
    return (d.view_id, d.frame, d.identity, *d.bbox)


def oracle_prediction_rows(tracks: Sequence[Track], scores: dict) -> list[tuple]:
    """A detection's box row plus its ``(s_t, s_a)`` when it has a score."""
    rows = []
    for track in tracks:
        for d in track.detections:
            row = oracle_box_row(d)
            rows.append(row + tuple(scores.get(row[:3], ())))
    return rows


def oracle_synth_tracks(
    scene: Scene,
    descriptions: Sequence[LanguageDescription],
    directory: Path,
    hi: float,
    lo: float,
    seed: int,
    jitter: float,
) -> None:
    """``<directory>/<id>/view_NN.csv`` for each description, each scored on its own.

    ``seed`` is the one ``score_tracks`` gets: ``cvrmot synth --seed S`` passes S + 2.
    """
    base = predictions_from_gt(scene)
    for desc in descriptions:
        scores = score_tracks(
            scene, base, desc.referred_identities, hi=hi, lo=lo, seed=seed, jitter=jitter
        )
        write_predictions(PredictionSet(base.tracks, scores), directory / desc.id,
                          scene.num_views)
