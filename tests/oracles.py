"""Reference implementations that tests compare ``cvrmot`` against.

* An exhaustive assignment solver with ``solve_lap``'s objective and
  tie-break, and an exhaustive search for the identity bijection of CVIDF1.
* The successive-shortest-path core ``cvrmot.assignment`` had before its
  Kuhn–Munkres core: a maximum matching of least total cost over a matrix of
  ints and ``FORBIDDEN``, grown from every free row at once.
* CLEAR MOT continuity, the rule the matching accuracy does not follow:
  each slot keeps the pairs its view matched at the previous frame while
  they still pass the IoU gate, and solves only the rest.
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
* The IoU gate decided exactly: ``exact_gate`` compares the stored boxes'
  exact IoU with the threshold, where the sweep compares the float ``iou``.
* The identity ratios ``cvrmot.metrics`` had before CVIDF1 took the closed
  form 2 IDTP / (2 IDTP + IDFP + IDFN): precision and recall as exact
  ``Fraction`` values, and F1 as their harmonic mean.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from cvrmot import (
    Assignment,
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
    score_tracks,
    solve_lap,
    write_predictions,
)


def oracle_iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union with the intersection's sides taken by ``min`` and ``max``.

    A union that underflows to 0 or overflows to ``inf`` or ``nan`` gives the
    exact IoU of the stored values, rounded.
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
    if not 0 < union < math.inf:
        return float(oracle_iou(*(tuple(map(Fraction, box)) for box in (a, b))))
    return inter / union


def exact_gate(a: BBox, b: BBox, t: float) -> bool:
    """Whether the IoU of the stored boxes is at least ``t`` (> 0), decided exactly.

    On ``Fraction``s of the stored values, right and bottom edges included
    (``iou`` rounds ``x + w`` and ``y + h``), it tests
    ``inter * (1 + t) >= t * (area_a + area_b)``: IoU >= t without a division.
    """
    ax, ay, aw, ah = map(Fraction, a)
    bx, by, bw, bh = map(Fraction, b)
    ix = min(ax + aw, bx + bw) - max(ax, bx)
    iy = min(ay + ah, by + bh) - max(ay, by)
    inter = ix * iy if ix > 0 and iy > 0 else 0
    t = Fraction(t)
    return inter * (1 + t) >= t * (aw * ah + bw * bh)


def brute_force_lap(matrix: CostMatrix, limit: int = 8) -> Assignment:
    """Exhaustive-enumeration oracle with ``solve_lap``'s objective and tie-break.

    Enumerates every injection at the maximum feasible cardinality and keeps
    the least exact ``Fraction`` total, then the smallest sorted pair tuple;
    the reported total is the float sum in pair order. Intended for test
    matrices with min(rows, cols) <= ``limit``.
    """
    R, C = matrix.rows, matrix.cols
    if min(R, C) > limit:
        raise ValueError(f"brute force limited to min side {limit}, got {min(R, C)}")
    costs = matrix.costs
    for k in range(min(R, C), -1, -1):
        best: tuple[Fraction, tuple[tuple[int, int], ...]] | None = None
        if R <= C:
            for row_sel in combinations(range(R), k):
                for col_sel in permutations(range(C), k):
                    pairs = tuple(zip(row_sel, col_sel))
                    if any(not math.isfinite(costs[r][c]) for r, c in pairs):
                        continue
                    key = (sum(Fraction(costs[r][c]) for r, c in pairs), pairs)
                    if best is None or key < best:
                        best = key
        else:
            for col_sel in combinations(range(C), k):
                for row_sel in permutations(range(R), k):
                    pairs = tuple(sorted(zip(row_sel, col_sel)))
                    if any(not math.isfinite(costs[r][c]) for r, c in pairs):
                        continue
                    key = (sum(Fraction(costs[r][c]) for r, c in pairs), pairs)
                    if best is None or key < best:
                        best = key
        if best is not None:
            pairs = best[1]
            return Assignment(pairs, float(sum(costs[r][c] for r, c in pairs)))
    return Assignment((), 0.0)


def min_cost_max_matching(costs: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """Successive-shortest-path solve of a cost matrix of ints and ``FORBIDDEN``.

    Returns the sorted (row, col) pairs of a maximum matching of least total
    cost. On ints every comparison is exact.
    """
    R, C = len(costs), len(costs[0])
    finite = [x for row in costs for x in row if x != FORBIDDEN]
    if not finite:
        return []
    # Shift to non-negative weights; within a fixed cardinality the shift is a
    # constant offset, so the optimal pair set is unchanged.
    shift = min(finite)
    INF = FORBIDDEN
    w = [[INF if x == INF else x - shift for x in row] for row in costs]
    u = [0] * R
    v = [0] * C
    match_row = [-1] * R
    match_col = [-1] * C
    while True:
        free_rows = [r for r in range(R) if match_row[r] == -1]
        if not free_rows:
            break
        dist = [INF] * C
        prev = [-1] * C
        done = [False] * C
        row_dist = [INF] * R
        for r in free_rows:
            row_dist[r] = 0
            ur = u[r]
            wr = w[r]
            for c in range(C):
                wc = wr[c]
                if wc == INF:
                    continue
                d = wc - ur - v[c]
                if d < dist[c]:
                    dist[c] = d
                    prev[c] = r
        target = -1
        target_dist = INF
        while True:
            best = -1
            best_dist = INF
            for c in range(C):
                if not done[c] and dist[c] < best_dist:
                    best_dist = dist[c]
                    best = c
            if best == -1:
                break
            done[best] = True
            if match_col[best] == -1:
                target = best
                target_dist = best_dist
                break
            r2 = match_col[best]
            row_dist[r2] = best_dist
            ur2 = u[r2]
            wr2 = w[r2]
            for c in range(C):
                if done[c]:
                    continue
                wc = wr2[c]
                if wc == INF:
                    continue
                nd = best_dist + wc - ur2 - v[c]
                if nd < dist[c]:
                    dist[c] = nd
                    prev[c] = r2
        if target == -1:
            break  # no augmenting path: matching is maximum
        for r in range(R):
            if row_dist[r] <= target_dist:
                u[r] += target_dist - row_dist[r]
        for c in range(C):
            if done[c] and dist[c] <= target_dist:
                v[c] -= target_dist - dist[c]
        col = target
        while col != -1:
            r = prev[col]
            nxt = match_row[r]
            match_row[r] = col
            match_col[col] = r
            col = nxt
    return [(r, match_row[r]) for r in range(R) if match_row[r] != -1]


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
    return _slot_counts(referred_gt, predictions, iou_threshold, keep=False)


def continuity_counts(
    gt: Sequence[Track], pred: Sequence[Track], t: float = 0.5
) -> MetricCounts:
    """Per-frame tallies under CLEAR MOT continuity (Bernardin & Stiefelhagen, 2008).

    Frame by frame, then view by view, a slot keeps each pair its view matched
    at the previous frame while both boxes are present and their IoU is at
    least ``t``; one dense LAP matches the rest. Events are counted as
    :func:`dense_count_events` counts them.
    """
    return _slot_counts(gt, pred, t, keep=True)


def _slot_counts(
    referred_gt: Sequence[Track],
    predictions: Sequence[Track],
    iou_threshold: float,
    keep: bool,
) -> MetricCounts:
    """One dense LAP per (view, frame); with ``keep``, only for what continuity leaves."""
    gt_slots = _index_by_slot(referred_gt)
    pred_slots = _index_by_slot(predictions)
    frames = sorted({f for _, f in gt_slots} | {f for _, f in pred_slots})
    views = sorted({v for v, _ in gt_slots} | {v for v, _ in pred_slots})
    last_matched: dict[tuple[int, int], int] = {}
    matched_before: dict[int, dict[int, int]] = {}  # the previous frame's matched_here
    out_m, out_fp, out_mme, out_gt = [], [], [], []
    for frame in frames:
        m_t = fp_t = gt_t = 0
        matched_here: dict[int, dict[int, int]] = defaultdict(dict)
        for view in views:
            gts = sorted(gt_slots.get((view, frame), []), key=lambda d: d.identity)
            preds = sorted(pred_slots.get((view, frame), []), key=lambda d: d.identity)
            gt_t += len(gts)
            pairs: dict[int, int] = {}  # gt identity -> pred identity
            if keep:
                pred_boxes = {d.identity: d.bbox for d in preds}
                for g in gts:
                    p = matched_before.get(g.identity, {}).get(view)
                    if p in pred_boxes and iou(g.bbox, pred_boxes[p]) >= iou_threshold:
                        pairs[g.identity] = p
            kept = set(pairs.values())
            gts_left = [g for g in gts if g.identity not in pairs]
            preds_left = [p for p in preds if p.identity not in kept]
            match = dense_match_frame(gts_left, preds_left, iou_threshold)
            pairs.update((gts_left[gi].identity, preds_left[pj].identity) for gi, pj in match.pairs)
            m_t += len(gts) - len(pairs)
            fp_t += len(preds) - len(pairs)
            for gt_id, pred_id in pairs.items():
                matched_here[gt_id][view] = pred_id
        matched_before = matched_here
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


def oracle_id_ratios(measures: IdMeasures) -> tuple[Fraction, Fraction]:
    """Exact identity precision and recall, each 0 when its denominator is 0.

    With no tally at all, no box to find and none predicted, both are 1, as F1 is.
    """
    idtp, idfp, idfn = measures
    if not any(measures):
        return Fraction(1), Fraction(1)
    predicted, gt = idtp + idfp, idtp + idfn
    return (
        Fraction(idtp, predicted) if predicted else Fraction(0),
        Fraction(idtp, gt) if gt else Fraction(0),
    )


def oracle_cvidf1_exact(measures: IdMeasures) -> Fraction:
    """Harmonic mean of the exact identity precision and recall; 0 when both are 0.

    With no tally at all, no box to find and none predicted, it is 1.
    """
    if not any(measures):
        return Fraction(1)
    p, r = oracle_id_ratios(measures)
    return 2 * p * r / (p + r) if p + r else Fraction(0)


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
    path: Path, key: Sequence[str], widths: Sequence[int] = (), last_frame: float = math.inf
) -> Iterator[tuple[_Row, tuple[int, ...]]]:
    """Yield each non-blank row of a headerless CSV with its integer key, which may not repeat.

    A frame in the key must lie in ``1..last_frame``.
    """
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
                    if name == "frame" and values[i] > last_frame:
                        raise row.error(f"frame must be <= {last_frame}, got {values[i]}")
                earlier = first_line.setdefault(values, line_no)
                if earlier != line_no:
                    where = ", ".join(f"{n} {v}" for n, v in zip(key, values))
                    raise row.error(f"duplicate row for {where} (first at line {earlier})")
                yield row, values
        except UnicodeDecodeError as exc:
            raise ParseError(path, f"not UTF-8 text: {exc}") from None


def oracle_box_rows(
    path: Path, view: int, allow_scores: bool, last_frame: float
) -> tuple[list[Detection], dict[tuple[int, int, int], ScoreRecord]]:
    """Ground-truth (``allow_scores`` false) or prediction rows of one view file."""
    detections: list[Detection] = []
    scores: dict[tuple[int, int, int], ScoreRecord] = {}
    rows = _read_rows(path, ("frame", "id"), (6, 8) if allow_scores else (6,), last_frame)
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
    base = PredictionSet(scene.gt_tracks, {})
    for desc in descriptions:
        scores = score_tracks(
            scene, base, desc.referred_identities, hi=hi, lo=lo, seed=seed, jitter=jitter
        )
        write_predictions(PredictionSet(base.tracks, scores), directory / desc.id,
                          scene.num_views)
