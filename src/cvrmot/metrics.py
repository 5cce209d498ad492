"""Cross-view referring tracking metrics.

Per description: restrict the ground truth to the referred identities (every
prediction of a non-referred object counts as a false positive), match boxes
per (view, frame) by minimum-cost assignment on 1 - IoU, tally misses, false
positives and mismatched pairs for the matching accuracy, and solve a global
identity bijection for the identity F1. Aggregation over descriptions clamps
negative per-description accuracy at zero.

Ratios are computed with exact rational arithmetic and exported as floats.
"""

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import chain, combinations, groupby
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .assignment import FORBIDDEN, CostMatrix, _min_cost_assignment, solve_lap
from .datamodel import Detection, LanguageDescription, Scene, Track, iou
from .datamodel import EvalConfig, check_iou_threshold  # defined there, re-exported here


class MetricCounts(NamedTuple):
    """Per-frame event tallies, index-aligned across the tuples."""

    frames: tuple[int, ...]
    misses: tuple[int, ...]
    false_positives: tuple[int, ...]
    mismatches: tuple[int, ...]
    gt_totals: tuple[int, ...]

    @property
    def miss_total(self) -> int:
        return sum(self.misses)

    @property
    def fp_total(self) -> int:
        return sum(self.false_positives)

    @property
    def mismatch_total(self) -> int:
        return sum(self.mismatches)

    @property
    def gt_total(self) -> int:
        return sum(self.gt_totals)


class IdMeasures(NamedTuple):
    """Global identity-assignment tallies and the derived precision/recall."""

    idtp: int
    idfp: int
    idfn: int

    # An int division is correctly rounded: these are float(Fraction(idtp, idtp + ...)).
    # With no tally at all they are 1, as cvidf1_exact is; otherwise 0 when IDTP is 0.
    @property
    def cvidp(self) -> float:
        return self.idtp / (self.idtp + self.idfp) if self.idtp else float(not any(self))

    @property
    def cvidr(self) -> float:
        return self.idtp / (self.idtp + self.idfn) if self.idtp else float(not any(self))


class FrameMatch(NamedTuple):
    """Result of matching one (view, frame): index pairs into the inputs."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_gt: tuple[int, ...]
    unmatched_pred: tuple[int, ...]


class DescriptionResult(NamedTuple):
    """One description's tallies; its ratios are the module helpers' of those tallies."""

    description_id: str
    counts: MetricCounts
    id_measures: IdMeasures

    @property
    def cvidf1_exact(self) -> Fraction:
        return cvidf1_exact(self.id_measures)

    @property
    def cvma_exact(self) -> Fraction:
        return cvma_exact(self.counts)

    @property
    def cvidf1(self) -> float:
        return float(self.cvidf1_exact)

    @property
    def cvma_raw(self) -> float:
        return float(self.cvma_exact)

    @property
    def cvma_clamped_exact(self) -> Fraction:
        """The matching accuracy that is reported and averaged: negative values are 0."""
        return max(self.cvma_exact, Fraction(0))


class AggregateResult(NamedTuple):
    """Per-description means of identity F1 and clamped matching accuracy; None for none."""

    n_l: int
    cvridf1: Optional[float]
    cvrma: Optional[float]


def restrict_gt(scene: Scene, desc: LanguageDescription) -> tuple[Track, ...]:
    """Ground-truth tracks whose identity the description refers to.

    Everything else is excluded, so any prediction matching a non-referred
    object can only be counted as a false positive.
    """
    return tuple(t for t in scene.gt_tracks if t.identity in desc.referred_identities)


def _sweep(entries: list[tuple], iou_threshold: float) -> list[tuple]:
    """(frame, gt key, pred key, IoU) for every same-frame pair at or above the gate.

    ``entries`` holds ``(x, side, key, frame, box)`` for every box of one
    view, side 0 for ground truth and 1 for predictions, with keys unique per
    (frame, side). Each frame's boxes are swept in order of their left edge,
    and a pair is scored only when both its x extents and its y extents
    overlap: ``iou`` is 0 for every other pair (its right and bottom edges
    are the same sums ``x + w`` and ``y + h`` as here), and the gate is
    positive, so no gated pair is skipped. Edges come out frame by frame.
    """
    # Sorted by (frame, x, side, key) in two stable passes: tuples sort fast
    # while their first items differ, and frames repeat far more than x does.
    entries.sort()
    entries.sort(key=itemgetter(3))
    # per side: (right edge, top edge, bottom edge, key, box)
    open_boxes: list[list[tuple]] = [[], []]
    current = None
    edges = []
    for x, side, key, frame, box in entries:
        if frame != current:
            current = frame
            open_boxes = [[], []]
        _, y, w, h = box
        y2 = y + h
        others = open_boxes[1 - side]
        if others:
            # A box whose right edge is at or left of x overlaps nothing from
            # here on. The list is rebuilt only when an end entry has expired;
            # the loop skips expired entries in between.
            if others[0][0] <= x or others[-1][0] <= x:
                others = open_boxes[1 - side] = [o for o in others if o[0] > x]
            for right, top, bottom, other, other_box in others:
                if right <= x or bottom <= y or y2 <= top:
                    continue
                g, p = (key, other) if side == 0 else (other, key)
                gt_box, pred_box = (box, other_box) if side == 0 else (other_box, box)
                overlap = iou(gt_box, pred_box)
                if overlap >= iou_threshold:
                    edges.append((frame, g, p, overlap))
        open_boxes[side].append((x + w, y, y2, key, box))
    return edges


def _components(pairs: Iterable[tuple[int, int]]) -> Iterator[tuple[list[int], list[int]]]:
    """Connected components of a bipartite graph given as (row, column) pairs.

    Yields each component's rows and columns, both sorted, in order of the
    component's smallest row.
    """
    cols_of: dict[int, list[int]] = defaultdict(list)
    rows_of: dict[int, list[int]] = defaultdict(list)
    for r, c in pairs:
        cols_of[r].append(c)
        rows_of[c].append(r)
    seen: set[int] = set()
    for root in sorted(cols_of):
        if root in seen:
            continue
        seen.add(root)
        rows, cols = [root], set()
        for r in rows:  # breadth-first: rows grows while it is walked
            for c in cols_of[r]:
                if c not in cols:
                    cols.add(c)
                    for r2 in rows_of[c]:
                        if r2 not in seen:
                            seen.add(r2)
                            rows.append(r2)
        yield sorted(rows), sorted(cols)


def _view_pairs(edges: Sequence[tuple[int, int, int, float]]) -> list[tuple[int, int, int]]:
    """Matched (frame, gt key, pred key) of one view's :func:`_sweep` edges.

    An edge whose (frame, gt key) and (frame, pred key) both occur once is a
    1 x 1 component and is matched directly; the other, contested edges are
    matched frame by frame and connected component by ``solve_lap`` on cost
    1 - IoU, with pairs below the gate forbidden and rows and columns in key
    order. The lexicographic tie-break decides each component independently,
    so the union is the optimum ``solve_lap`` returns for the frame's whole
    dense matrix.
    """
    gts, preds = Counter(map(itemgetter(0, 1), edges)), Counter(map(itemgetter(0, 2), edges))
    if len(gts) == len(edges) == len(preds):
        return [edge[:3] for edge in edges]
    pairs, contested = [], []
    for edge in edges:
        frame, g, p, _ = edge
        if gts[frame, g] == 1 and preds[frame, p] == 1:
            pairs.append((frame, g, p))
        else:
            contested.append(edge)
    for frame, slot in groupby(contested, itemgetter(0)):
        costs = {edge[1:3]: 1.0 - edge[3] for edge in slot}
        for rows, cols in _components(costs):
            matrix = [[costs.get((r, c), FORBIDDEN) for c in cols] for r in rows]
            solved = solve_lap(CostMatrix.from_rows(matrix))
            pairs += [(frame, rows[a], cols[b]) for a, b in solved.pairs]
    return pairs


def match_frame(
    gt_dets: Sequence[Detection],
    pred_dets: Sequence[Detection],
    iou_threshold: float = 0.5,
) -> FrameMatch:
    """Minimum-cost matching of one (view, frame) on cost 1 - IoU.

    Pairs below the IoU threshold are forbidden; the matching maximizes the
    number of matches first, then total IoU, with the lexicographic tie-break
    of ``solve_lap``. Indices refer to the input sequences as given. This is
    the one-view, one-frame case of :func:`gated_pass`'s matching.
    """
    check_iou_threshold(iou_threshold)
    sides = enumerate((gt_dets, pred_dets))
    entries = [(d.bbox.x, side, k, 0, d.bbox) for side, dets in sides for k, d in enumerate(dets)]
    pairs = sorted(pair[1:] for pair in _view_pairs(_sweep(entries, iou_threshold)))
    matched_gt = {g for g, _ in pairs}
    matched_pred = {p for _, p in pairs}
    return FrameMatch(
        tuple(pairs),
        tuple(i for i in range(len(gt_dets)) if i not in matched_gt),
        tuple(j for j in range(len(pred_dets)) if j not in matched_pred),
    )


def _view_entries(tracks: Sequence[Track], side: int, name: str) -> dict[int, list[tuple]]:
    """Per view, the :func:`_sweep` entries of ``tracks`` keyed by identity.

    The first (view, frame, identity) to repeat, tracks taken in order, is a ValueError.
    """
    by_view: dict[int, list[tuple]] = defaultdict(list)
    for track in tracks:
        for view, frame, identity, box in track.detections:
            by_view[view].append((box[0], side, identity, frame, box))
    if any(len(set(map(itemgetter(2, 3), e))) < len(e) for e in by_view.values()):
        seen: set[tuple[int, int, int]] = set()
        for view, frame, identity in (det[:3] for track in tracks for det in track.detections):
            if (view, frame, identity) in seen:
                raise ValueError(
                    f"{name} identity {identity} appears twice at view {view}, frame {frame}"
                )
            seen.add((view, frame, identity))
    return by_view


class GatedPass(NamedTuple):
    """One gated pass over a description: CVMA tallies and CVIDF1 overlaps.

    ``overlap`` maps (gt identity, predicted identity) to the number of
    (view, frame) slots where their boxes overlap at or above the IoU gate;
    pairs that never do are absent.
    """

    counts: MetricCounts
    overlap: Mapping[tuple[int, int], int]


def gated_pass(
    referred_gt: Sequence[Track],
    predictions: Sequence[Track],
    iou_threshold: float = 0.5,
) -> GatedPass:
    """Score every (view, frame) once for both CVMA and CVIDF1.

    One sweep per view, over all of its frames, lists the gated (gt, pred)
    pairs of each (view, frame) slot; the pairs are matched per slot and
    connected component, and every gated pair adds one to its overlap count.
    A mismatched pair is either temporal (a ground-truth identity matched in
    some view to a different predicted identity than at its previous matched
    frame in that view) or cross-view (an unordered pair of views where the
    same ground-truth identity is matched to two different predicted
    identities at the same frame). Frames where the referred objects are
    absent still contribute their false positives.

    Raises ``ValueError`` when one identity has two boxes in one slot.
    """
    check_iou_threshold(iou_threshold)
    gt_views = _view_entries(referred_gt, 0, "ground-truth")
    pred_views = _view_entries(predictions, 1, "predicted")
    frame_of = itemgetter(3)
    gt_per_frame = Counter(map(frame_of, chain.from_iterable(gt_views.values())))
    pred_per_frame = Counter(map(frame_of, chain.from_iterable(pred_views.values())))

    overlap: Counter[tuple[int, int]] = Counter()
    # frame -> gt identity -> view -> pred identity
    matched_at: dict[int, dict[int, dict[int, int]]] = {}
    for view in sorted(gt_views.keys() & pred_views.keys()):
        edges = _sweep(gt_views[view] + pred_views[view], iou_threshold)
        overlap.update(map(itemgetter(1, 2), edges))
        for frame, g, p in _view_pairs(edges):
            matched_at.setdefault(frame, {}).setdefault(g, {})[view] = p

    frames = sorted(gt_per_frame.keys() | pred_per_frame.keys())
    last_matched: dict[tuple[int, int], int] = {}  # (gt identity, view) -> pred identity
    out_m, out_fp, out_mme = [], [], []
    for frame in frames:
        matched_here = matched_at.get(frame, {})
        matched = temporal = crossview = 0
        # Each (gt identity, view) switch and each pair of views counts on its
        # own, so the order of identities and views cannot change a count.
        for gt_id, by_view in matched_here.items():
            matched += len(by_view)
            for view, pred_id in by_view.items():
                temporal += last_matched.get((gt_id, view), pred_id) != pred_id
                last_matched[gt_id, view] = pred_id
            crossview += sum(a != b for a, b in combinations(by_view.values(), 2))
        out_m.append(gt_per_frame[frame] - matched)
        out_fp.append(pred_per_frame[frame] - matched)
        out_mme.append(temporal + crossview)
    gt_totals = tuple(gt_per_frame[f] for f in frames)
    counts = MetricCounts(tuple(frames), tuple(out_m), tuple(out_fp), tuple(out_mme), gt_totals)
    return GatedPass(counts, overlap)


def count_events(
    referred_gt: Sequence[Track],
    predictions: Sequence[Track],
    iou_threshold: float = 0.5,
) -> MetricCounts:
    """Per-frame misses, false positives, mismatched pairs, and GT totals.

    See :func:`gated_pass` for the event definitions.
    """
    return gated_pass(referred_gt, predictions, iou_threshold).counts


def cvma_exact(counts: MetricCounts) -> Fraction:
    """Matching accuracy as an exact rational: 1 - (m + fp + 2*mme) / gt.

    May be negative when errors outnumber ground-truth objects. With no GT
    object it is 1 - fp: every prediction is a false positive.
    """
    if counts.gt_total == 0:
        return Fraction(1 - counts.fp_total)
    penalty = counts.miss_total + counts.fp_total + 2 * counts.mismatch_total
    return Fraction(1) - Fraction(penalty, counts.gt_total)


def cvma(counts: MetricCounts) -> float:
    return float(cvma_exact(counts))


def id_measures(
    referred_gt: Sequence[Track],
    predictions: Sequence[Track],
    iou_threshold: float = 0.5,
) -> IdMeasures:
    """Identity tallies under the optimal global GT/prediction bijection.

    Detections are pooled across all views and frames; each candidate
    (gt identity, predicted identity) pair is scored by the number of
    (view, frame) slots where the two boxes overlap at or above the IoU
    threshold, and a bijection maximizing the total overlap is solved exactly,
    one connected component of the positive-overlap pairs at a time.
    """
    return _id_measures_of(gated_pass(referred_gt, predictions, iou_threshold))


def _id_measures_of(shared: GatedPass) -> IdMeasures:
    """The identity tallies of a gated pass.

    IDFN and IDFP are the GT and predicted boxes the bijection leaves
    unmatched. Each predicted box is matched or a false positive in its
    slot, and each GT box matched or missed, so the predicted boxes number
    fp + gt - misses.
    """
    counts, idtp = shared.counts, _identity_bijection(shared.overlap)
    predicted = counts.fp_total + counts.gt_total - counts.miss_total
    return IdMeasures(idtp, predicted - idtp, counts.gt_total - idtp)


def _identity_bijection(overlap: Mapping[tuple[int, int], int]) -> int:
    """IDTP: the total overlap of a maximum-overlap identity bijection.

    Every optimal matching has this value, so no tie-break is needed.
    Zero-overlap pairs add nothing: each connected component of the positive
    pairs is solved on its own by the Kuhn–Munkres core, whose least-cost
    assignment of the shorter side on cost -overlap, with zero pairs at
    cost 0, has the most overlap.
    """
    positive = {pair: n for pair, n in overlap.items() if n > 0}
    idtp = 0
    for rows, cols in _components(positive):
        matrix = [[-positive.get((r, c), 0) for c in cols] for r in rows]
        pairs = _min_cost_assignment(matrix)
        idtp += sum(positive.get((rows[a], cols[b]), 0) for a, b in pairs)
    return idtp


def cvidf1_exact(measures: IdMeasures) -> Fraction:
    """Identity F1, 2 IDTP / (2 IDTP + IDFP + IDFN); 1 with no GT box and no predicted box."""
    idtp, idfp, idfn = measures
    return Fraction(2 * idtp, 2 * idtp + idfp + idfn) if any(measures) else Fraction(1)


def cvidf1(measures: IdMeasures) -> float:
    return float(cvidf1_exact(measures))


def evaluate_description(
    scene: Scene,
    desc: LanguageDescription,
    predictions: Sequence[Track],
    config: EvalConfig = EvalConfig(),
) -> DescriptionResult:
    """Evaluate one description's predictions against the restricted GT."""
    shared = gated_pass(restrict_gt(scene, desc), predictions, config.iou_threshold)
    return DescriptionResult(desc.id, shared.counts, _id_measures_of(shared))


def aggregate(results: Sequence[DescriptionResult]) -> AggregateResult:
    """Means over descriptions of CVIDF1 and clamped CVMA; both None over no description."""
    n = len(results)
    if n == 0:
        return AggregateResult(0, None, None)
    f1_sum = sum(r.cvidf1_exact for r in results)
    ma_sum = sum(r.cvma_clamped_exact for r in results)
    return AggregateResult(n, float(f1_sum / n), float(ma_sum / n))
