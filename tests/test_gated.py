"""The gated per-slot pass against the dense oracles and brute force."""

import math
import random
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import count, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvrmot
from cvrmot import (
    BBox,
    CostMatrix,
    Detection,
    ErrorSpec,
    EvalConfig,
    FORBIDDEN,
    Track,
    count_events,
    evaluate_description,
    generate_scene,
    id_measures,
    match_frame,
    perturb,
)
from cvrmot import metrics
from cvrmot.cli import main
from cvrmot.metrics import (
    _identity_bijection,
    _view_pairs,
    gated_pass,
)

from helpers import crowded_pipeline, desc_for, lane_scene, tracks_copy
from oracles import (
    brute_force_lap,
    continuity_counts,
    dense_count_events,
    dense_id_measures,
    dense_match_frame,
    exact_gate,
    min_cost_max_matching,
)

# Integer boxes in a 56 x 56 image: crowded, and many IoUs tie exactly.
COORDS = st.integers(0, 40)
SIDES = st.integers(4, 16)
SHIFTS = st.sampled_from([-2, 0, 2])  # 0 repeats a box; +-2 mirrors it


@st.composite
def scenes(draw):
    views = draw(st.integers(1, 3))
    frames = draw(st.integers(1, 3))
    slots = list(product(range(views), range(1, frames + 1)))

    def random_box():
        return BBox(draw(COORDS), draw(COORDS), draw(SIDES), draw(SIDES))

    gt_boxes = defaultdict(list)
    gt_tracks = []
    for identity in range(1, draw(st.integers(0, 4)) + 1):
        dets = []
        for view, frame in slots:
            if draw(st.booleans()):
                box = random_box()
                gt_boxes[(view, frame)].append(box)
                dets.append(Detection(view, frame, identity, box))
        if dets:
            gt_tracks.append(Track(identity, tuple(dets)))
    pred_tracks = []
    for identity in range(101, 101 + draw(st.integers(0, 5))):
        dets = []
        for view, frame in slots:
            if not draw(st.booleans()):
                continue
            near = gt_boxes.get((view, frame))
            if near and draw(st.booleans()):
                base = draw(st.sampled_from(near))
                box = BBox(base.x + draw(SHIFTS), base.y + draw(SHIFTS), base.w, base.h)
            else:
                box = random_box()
            dets.append(Detection(view, frame, identity, box))
        if dets:
            pred_tracks.append(Track(identity, tuple(dets)))
    threshold = draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 1.0]))
    return tuple(gt_tracks), tuple(pred_tracks), threshold


def _slots(tracks):
    out = defaultdict(list)
    for track in tracks:
        for det in track.detections:
            out[(det.view_id, det.frame)].append(det)
    return out


@settings(max_examples=300, deadline=None)
@given(scenes(), st.randoms(use_true_random=False))
def test_gated_path_equals_dense_oracles(scene, rng):
    gt_tracks, pred_tracks, threshold = scene
    gt_slots, pred_slots = _slots(gt_tracks), _slots(pred_tracks)
    for slot in set(gt_slots) | set(pred_slots):
        gts, preds = list(gt_slots[slot]), list(pred_slots[slot])
        rng.shuffle(gts)
        rng.shuffle(preds)
        assert match_frame(gts, preds, threshold) == dense_match_frame(gts, preds, threshold)
    counts = count_events(gt_tracks, pred_tracks, threshold)
    measures = id_measures(gt_tracks, pred_tracks, threshold)
    assert counts == dense_count_events(gt_tracks, pred_tracks, threshold)
    assert measures == dense_id_measures(gt_tracks, pred_tracks, threshold)
    shared = gated_pass(gt_tracks, pred_tracks, threshold)
    assert shared.counts == counts
    assert all(v > 0 for v in shared.overlap.values())


def test_exact_tie_frames_match_dense_oracle():
    gt = [Detection(0, 1, 1, BBox(10, 0, 10, 10)), Detection(0, 1, 2, BBox(10, 0, 10, 10))]
    mirrored = [Detection(0, 1, 7, BBox(8, 0, 10, 10)), Detection(0, 1, 8, BBox(12, 0, 10, 10))]
    identical = [Detection(0, 1, 7, BBox(10, 0, 10, 10)), Detection(0, 1, 8, BBox(10, 0, 10, 10))]
    for preds in (mirrored, identical, mirrored[:1], identical[1:]):
        for gts in (gt, gt[:1]):
            assert match_frame(gts, preds, 0.5) == dense_match_frame(gts, preds, 0.5)
    assert match_frame(gt, mirrored, 0.5).pairs == ((0, 0), (1, 1))


def _components(rows):
    """Connected components of the finite cells, as (sorted rows, sorted cols)."""
    parent = {}

    def find(node):
        while parent.setdefault(node, node) != node:
            node = parent[node]
        return node

    for r, row in enumerate(rows):
        for c, cost in enumerate(row):
            if math.isfinite(cost):
                parent[find(("r", r))] = find(("c", c))
    groups = defaultdict(lambda: ([], []))
    for node in parent:
        kind, index = node
        groups[find(node)][0 if kind == "r" else 1].append(index)
    return [(sorted(rs), sorted(cs)) for rs, cs in groups.values()]


# Dyadic costs, so ties stay exact.
CELLS = st.sampled_from([FORBIDDEN, FORBIDDEN, FORBIDDEN, 0.0, 0.25, 0.5, 0.75])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda r: st.integers(1, 5).flatmap(
            lambda c: st.lists(st.lists(CELLS, min_size=c, max_size=c), min_size=r, max_size=r)
        )
    )
)
def test_component_optima_combine_to_global_lexicographic_optimum(rows):
    expected = brute_force_lap(CostMatrix.from_rows(rows)).pairs
    combined = []
    for rs, cs in _components(rows):
        sub = brute_force_lap(CostMatrix.from_rows([[rows[r][c] for c in cs] for r in rs]))
        combined.extend((rs[a], cs[b]) for a, b in sub.pairs)
    assert tuple(sorted(combined)) == expected
    cells = ((r, c, cost) for r, row in enumerate(rows) for c, cost in enumerate(row))
    edges = [(1, r, c, 1 - cost) for r, c, cost in cells if math.isfinite(cost)]
    assert tuple(sorted(pair[1:] for pair in _view_pairs(edges))) == expected


def test_duplicate_identity_in_a_slot_is_rejected():
    scene = lane_scene(num_views=2, num_ids=1, num_frames=2)
    track = scene.gt_tracks[0]
    doubled = Track(track.identity, track.detections + track.detections[:1])
    with pytest.raises(ValueError, match="^predicted identity 1 appears twice at view 0, frame 1$"):
        count_events(scene.gt_tracks, (doubled,))
    with pytest.raises(ValueError, match="^ground-truth identity 1 appears twice at view 0, frame 1$"):
        id_measures((doubled,), tracks_copy(scene))
    with pytest.raises(ValueError, match="appears twice"):
        evaluate_description(scene, desc_for(scene), (doubled,))


@pytest.mark.parametrize("value", [0, 0.0, -0.5, 1.5, math.nan, math.inf, True, "0.5", None])
def test_iou_threshold_outside_unit_interval_is_rejected(value):
    with pytest.raises(ValueError, match="iou_threshold"):
        EvalConfig(iou_threshold=value)
    scene = lane_scene(num_views=2, num_ids=1, num_frames=1)
    with pytest.raises(ValueError, match="iou_threshold"):
        count_events(scene.gt_tracks, tracks_copy(scene), value)
    dets = list(scene.all_detections())
    with pytest.raises(ValueError, match="iou_threshold"):
        match_frame(dets, dets, value)


def test_iou_threshold_one_matches_identical_boxes_only():
    assert EvalConfig(iou_threshold=1).iou_threshold == 1
    gt = [Detection(0, 1, 1, BBox(0, 0, 10, 10))]
    same = [Detection(0, 1, 9, BBox(0, 0, 10, 10))]
    shifted = [Detection(0, 1, 9, BBox(1, 0, 10, 10))]
    assert match_frame(gt, same, 1.0).pairs == ((0, 0),)
    assert match_frame(gt, shifted, 1.0).pairs == ()


def _tracks_with_overlaps(overlap, lone_ids=()):
    """GT (ids < 100) and predicted (ids >= 100) tracks whose gated overlaps are ``overlap``.

    Each counted slot is a frame of its own holding one GT box and an
    identical predicted box; each entry of ``lone_ids`` adds one detection
    alone in its frame.
    """
    dets = defaultdict(list)
    frames = count(1)
    for (g, p), n in overlap.items():
        for _ in range(n):
            frame = next(frames)
            dets[g].append(Detection(0, frame, g, BBox(0, 0, 10, 10)))
            dets[p].append(Detection(0, frame, p, BBox(0, 0, 10, 10)))
    for identity in lone_ids:
        dets[identity].append(Detection(0, next(frames), identity, BBox(0, 0, 10, 10)))
    tracks = [Track(identity, tuple(ds)) for identity, ds in sorted(dets.items())]
    return (
        tuple(t for t in tracks if t.identity < 100),
        tuple(t for t in tracks if t.identity >= 100),
    )


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.tuples(st.integers(1, 5), st.integers(101, 106)), st.integers(0, 6)),
    st.lists(st.sampled_from([1, 2, 3, 4, 5, 101, 102, 103, 104, 105, 106]), max_size=4),
)
def test_per_component_bijection_equals_dense_lap(overlap, lone_ids):
    gt_tracks, pred_tracks = _tracks_with_overlaps(overlap, lone_ids)
    assert gated_pass(gt_tracks, pred_tracks).overlap == {k: n for k, n in overlap.items() if n}
    expected = dense_id_measures(gt_tracks, pred_tracks)
    assert _identity_bijection(overlap) == expected.idtp
    assert id_measures(gt_tracks, pred_tracks) == expected


def test_bijection_maximizes_overlap_not_pair_count():
    overlap = {(1, 101): 10, (1, 102): 1, (2, 101): 1}
    assert _identity_bijection(overlap) == 10
    gt_tracks, pred_tracks = _tracks_with_overlaps(overlap)
    assert id_measures(gt_tracks, pred_tracks) == dense_id_measures(gt_tracks, pred_tracks)


def test_bijection_compares_overlaps_above_two_to_the_53_exactly():
    # As floats, 2**53 + 1 rounds to 2**53 and the two bijections tie.
    overlap = {(1, 11): 2**53 + 1, (1, 10): 2**53, (2, 11): 1, (2, 10): 1}
    assert _identity_bijection(overlap) == 2**53 + 2


def _best_total(overlap):
    """The largest total overlap of any partial bijection, by exhaustive search."""
    gts = sorted({g for g, _ in overlap})

    @lru_cache(maxsize=None)
    def best(index, used):  # over the GT identities from ``index`` on, ``used`` predictions taken
        if index == len(gts):
            return 0
        options = [n + best(index + 1, used | {p})
                   for (g, p), n in overlap.items() if g == gts[index] and p not in used]
        return max([best(index + 1, used), *options])

    return best(0, frozenset())


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(1, 7), st.integers(101, 107)),
                       st.sampled_from([1, 1, 2, 2, 3])))
def test_identity_bijection_equals_exhaustive_search(overlap):
    assert _identity_bijection(overlap) == _best_total(overlap)


def test_identity_bijection_equals_scipy_on_large_graphs():
    """Random graphs of up to 60 x 60, then one tie-heavy 160 x 160 component."""
    optimize = pytest.importorskip("scipy.optimize")
    numpy = pytest.importorskip("numpy")
    rng = random.Random(22)
    shapes = [(rng.randint(1, 60), rng.randint(1, 60), rng.choice([0.03, 0.1, 0.3]), 5)
              for _ in range(20)]
    for rows, cols, density, top in shapes + [(160, 160, 0.3, 2)]:
        weights = numpy.zeros((rows, cols), dtype=numpy.int64)
        for r, c in product(range(rows), range(cols)):
            if rng.random() < density:
                weights[r, c] = rng.randint(1, top)
        overlap = {(r, 1000 + c): int(n) for (r, c), n in numpy.ndenumerate(weights) if n}
        if rows == 160:
            assert len(list(metrics._components(overlap))) == 1
        r, c = optimize.linear_sum_assignment(-weights)
        assert _identity_bijection(overlap) == weights[r, c].sum()


def test_identity_bijection_equals_the_shortest_path_core():
    """The old core's maximum matching of least cost -overlap over every identity pair."""
    rng = random.Random(30)
    for _ in range(60):
        gts, preds, density = rng.randint(1, 30), rng.randint(1, 30), rng.uniform(0.02, 0.5)
        overlap = {(g, 1000 + p): rng.randint(0, 6) for g in range(gts) for p in range(preds)
                   if rng.random() < density}
        gt_ids, pred_ids = sorted({g for g, _ in overlap}), sorted({p for _, p in overlap})
        matrix = [[-overlap.get((g, p), 0) for p in pred_ids] for g in gt_ids]
        pairs = min_cost_max_matching(matrix) if overlap else []
        assert _identity_bijection(overlap) == -sum(matrix[r][c] for r, c in pairs)


def test_identity_bijection_makes_no_solve_lap_call(monkeypatch):
    """Each component takes one Kuhn–Munkres core call; ``solve_lap`` is never called."""
    overlap = {(1, 101): 10, (1, 102): 1, (2, 101): 1, (3, 103): 4, (4, 104): 2}
    laps, sides = [], []
    monkeypatch.setattr(metrics, "solve_lap", lambda m: laps.append(m))
    core = metrics._min_cost_assignment
    monkeypatch.setattr(metrics, "_min_cost_assignment",
                        lambda m: sides.append((len(m), len(m[0]))) or core(m))
    assert _identity_bijection(overlap) == 16
    assert laps == []
    assert sides == [(2, 2), (1, 1), (1, 1)]
    gt_tracks, pred_tracks = _tracks_with_overlaps(overlap)
    assert id_measures(gt_tracks, pred_tracks) == dense_id_measures(gt_tracks, pred_tracks)


# (other box, threshold, gated): the GT box is (0, 0, 10, 10) and every other
# box overlaps it in x. Boxes that only touch it in y or miss it in y get no
# IoU; the float cases touch at 0.1 + 0.2 = 0.30000000000000004 or overlap by
# 4e-17, and a gate of 1e-300 would pass any overlap at all.
Y_CASES = [
    (BBox(2, 10, 10, 10), 0.5, False),  # touches below
    (BBox(2, -10, 10, 10), 0.5, False),  # touches above
    (BBox(2, 15, 10, 10), 0.5, False),  # misses below
    (BBox(2, -25, 10, 10), 0.5, False),  # misses above
    (BBox(-5, 10, 30, 1), 1e-300, False),  # wider, touches below
    (BBox(2, 1, 10, 10), 0.5, True),  # overlaps
    (BBox(2, 9.5, 10, 10), 1e-300, True),  # overlaps by half a pixel
]
FLOAT_GT = BBox(0, 0.1, 10, 0.2)
FLOAT_CASES = [
    (BBox(1, 0.1 + 0.2, 10, 1), 1e-300, False),  # touches at 0.30000000000000004
    (BBox(1, 0.3, 10, 1), 1e-300, True),  # overlaps by 4e-17
]


@pytest.mark.parametrize("crowded", [False, True])  # a 1 x 1 slot, or a 2 x 2 one
@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize(
    "gt_box, other, threshold, gated",
    [(BBox(0, 0, 10, 10), *case) for case in Y_CASES] + [(FLOAT_GT, *case) for case in FLOAT_CASES],
)
def test_y_disjoint_pairs_stay_ungated(monkeypatch, crowded, mirror, gt_box, other, threshold, gated):
    gts = [Detection(0, 1, 1, gt_box)]
    preds = [Detection(0, 1, 101, other)]
    if mirror:
        gts, preds = [Detection(0, 1, 1, other)], [Detection(0, 1, 101, gt_box)]
    if crowded:  # boxes far to the right of the pair, overlapping nothing
        gts.append(Detection(0, 1, 2, BBox(500, 0, 10, 10)))
        preds.append(Detection(0, 1, 102, BBox(600, 0, 10, 10)))
    calls = []
    monkeypatch.setattr("cvrmot.metrics.iou", lambda a, b: calls.append(1) or cvrmot.iou(a, b))
    match = match_frame(gts, preds, threshold)
    assert len(calls) == int(gated)  # a y-disjoint pair never reaches iou
    assert match.pairs == (((0, 0),) if gated else ())
    assert match == dense_match_frame(gts, preds, threshold)
    gt_tracks = tuple(Track(d.identity, (d,)) for d in gts)
    pred_tracks = tuple(Track(d.identity, (d,)) for d in preds)
    counts = count_events(gt_tracks, pred_tracks, threshold)
    assert counts == dense_count_events(gt_tracks, pred_tracks, threshold)
    assert counts.miss_total == counts.fp_total == int(not gated) + int(crowded)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 8).flatmap(
        lambda n: st.tuples(
            st.permutations(range(12)).map(lambda rows: rows[:n]),
            st.permutations(range(12)).map(lambda cols: cols[:n]),
            st.lists(st.floats(0.5, 1.0), min_size=n, max_size=n),
        )
    )
)
def test_direct_one_by_one_pairs_equal_the_component_path(drawn):
    rows, cols, overlaps = drawn
    edges = list(zip(rows, cols, overlaps))
    components = list(metrics._components(zip(rows, cols)))
    assert all(len(r) == len(c) == 1 for r, c in components)
    walked = sorted((r[0], c[0]) for r, c in components)
    dense = [[FORBIDDEN] * 12 for _ in range(12)]
    for r, c, overlap in edges:
        dense[r][c] = 1.0 - overlap
    solved = sorted(cvrmot.solve_lap(CostMatrix.from_rows(dense)).pairs)
    viewed = sorted(pair[1:] for pair in _view_pairs([(1, *edge) for edge in edges]))
    assert viewed == walked == solved == sorted(zip(rows, cols))


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(1, 4), st.integers(0, 4), st.integers(0, 4)),
        # Few dyadic values: equal-IoU ties are common, and exact in every sum.
        st.sampled_from([0.5, 0.625, 0.75, 1.0]),
        max_size=30,
    )
)
def test_view_pairs_equal_per_frame_component_pairs(drawn):
    """Uncontested edges matched directly give each frame's lexicographic optimum."""
    edges = sorted(((*key, overlap) for key, overlap in drawn.items()), key=lambda e: e[0])
    per_frame = []
    for frame in sorted({e[0] for e in edges}):
        dense = [[FORBIDDEN] * 5 for _ in range(5)]
        for _, g, p, iou in (e for e in edges if e[0] == frame):
            dense[g][p] = 1 - iou
        per_frame += [(frame, g, p) for g, p in brute_force_lap(CostMatrix.from_rows(dense)).pairs]
    assert sorted(_view_pairs(edges)) == per_frame


def test_duplicate_identity_names_the_first_repeat_in_track_order():
    """Tracks and their detections are read in order; the first repeat found is named."""
    late = Track(5, (Detection(1, 2, 5, BBox(0, 0, 10, 10)), Detection(1, 2, 5, BBox(9, 0, 10, 10))))
    early = Track(2, (Detection(0, 1, 2, BBox(0, 0, 10, 10)), Detection(0, 1, 2, BBox(50, 0, 10, 10))))
    with pytest.raises(ValueError, match="^predicted identity 5 appears twice at view 1, frame 2$"):
        gated_pass((), (late, early))
    with pytest.raises(ValueError, match="^ground-truth identity 2 appears twice at view 0, frame 1$"):
        gated_pass((early, late), (late,))


def _check_against_dense(gt_tracks, pred_tracks, threshold=0.5):
    shared = gated_pass(gt_tracks, pred_tracks, threshold)
    assert shared.counts == dense_count_events(gt_tracks, pred_tracks, threshold)
    assert metrics._id_measures_of(shared) == dense_id_measures(gt_tracks, pred_tracks, threshold)
    return shared


def test_view_of_one_by_one_frames_next_to_a_two_by_two_frame(monkeypatch):
    """Only the contested edges, those of the 2 x 2 component, reach ``solve_lap``.

    The identity bijection takes its value from the Kuhn–Munkres core alone.
    """
    gt, pred = defaultdict(list), defaultdict(list)
    for view in (0, 1):
        for frame in range(1, 6):
            for g, p, x in ((1, 101, 0), (2, 102, 300)):  # far apart: two 1 x 1 components
                gt[g].append(Detection(view, frame, g, BBox(x, 0, 10, 10)))
                pred[p].append(Detection(view, frame, p, BBox(x + 1, 0, 10, 10)))
    # View 0, frame 6: every GT box overlaps every prediction; the crossed pairs overlap most.
    for g, x in ((1, 100), (2, 102)):
        gt[g].append(Detection(0, 6, g, BBox(x, 0, 10, 10)))
    for p, x in ((101, 103), (102, 100.5)):
        pred[p].append(Detection(0, 6, p, BBox(x, 0, 10, 10)))
    gt_tracks = tuple(Track(i, tuple(ds)) for i, ds in gt.items())
    pred_tracks = tuple(Track(i, tuple(ds)) for i, ds in pred.items())
    sides = []
    original = metrics.solve_lap
    monkeypatch.setattr(metrics, "solve_lap", lambda m: sides.append((m.rows, m.cols)) or original(m))
    shared = _check_against_dense(gt_tracks, pred_tracks)
    # One slot call, view 0 at frame 6: the 1 x 1 pairs are matched directly,
    # and the bijection over the 4 positive pairs makes none.
    assert sides == [(2, 2)]
    assert shared.counts.mismatches[-1] == 2  # 1 -> 102 and 2 -> 101 at frame 6
    assert dict(shared.overlap) == {(1, 101): 11, (2, 102): 11, (1, 102): 1, (2, 101): 1}


@pytest.mark.parametrize("with_same_frame_gt", [False, True])
def test_boxes_of_neighbouring_frames_never_pair(monkeypatch, with_same_frame_gt):
    gt_dets = [Detection(0, 1, 1, BBox(0, 0, 10, 10))]  # frame f
    if with_same_frame_gt:
        gt_dets.append(Detection(0, 2, 1, BBox(2, 0, 10, 10)))
    gt_tracks = (Track(1, tuple(gt_dets)),)
    pred_tracks = (Track(101, (Detection(0, 2, 101, BBox(1, 1, 10, 10)),)),)  # frame f + 1
    calls = []
    monkeypatch.setattr("cvrmot.metrics.iou", lambda a, b: calls.append(1) or cvrmot.iou(a, b))
    shared = _check_against_dense(gt_tracks, pred_tracks)
    assert len(calls) == int(with_same_frame_gt)
    assert dict(shared.overlap) == ({(1, 101): 1} if with_same_frame_gt else {})
    assert shared.counts.misses == (1, 0)
    assert shared.counts.false_positives == ((0, 0) if with_same_frame_gt else (0, 1))


def test_equal_iou_ties_follow_identity_order_not_input_order():
    """All four pairs of frame 1 tie; identity order, not track order, breaks the tie."""
    def tracks(boxes):
        by_id = defaultdict(list)
        for frame, identity, x in boxes:
            by_id[identity].append(Detection(0, frame, identity, BBox(x, 0, 10, 10)))
        return [Track(i, tuple(ds)) for i, ds in by_id.items()]

    # Frame 1: two identical GT boxes, predictions mirrored around them.
    # Frame 2: each GT identity overlaps one prediction only.
    gt = tracks([(1, 9, 10), (1, 3, 10), (2, 9, 100), (2, 3, 200)])
    pred = tracks([(1, 205, 8), (1, 201, 12), (2, 205, 100), (2, 201, 200)])
    results = []
    for gt_order, pred_order in product((gt, gt[::-1]), (pred, pred[::-1])):
        results.append(_check_against_dense(tuple(gt_order), tuple(pred_order)))
    assert all(r == results[0] for r in results)
    # The tie goes 3 -> 201 and 9 -> 205, so frame 2 keeps both: no switch.
    assert results[0].counts.mismatches == (0, 0)
    assert [t.identity for t in gt] == [9, 3] and [t.identity for t in pred] == [205, 201]


def test_min_cost_slot_switches_where_continuity_keeps_the_pairs():
    """No tie: the kept pairs of frame 2 cost 0.4 + 0.4, the swap about 0.1 + 0.1.

    Each slot is matched at minimum cost on its own, so both GT identities
    switch. CLEAR MOT's keep-then-solve continuity keeps 1 -> 10 and
    2 -> 20, whose IoU of 0.6 still passes the gate, and counts 0.
    """
    def tracks(boxes):
        by_id = defaultdict(list)
        for frame, identity, x in boxes:
            by_id[identity].append(Detection(0, frame, identity, BBox(x, 0, 100, 100)))
        return tuple(Track(i, tuple(ds)) for i, ds in by_id.items())

    gt = tracks([(1, 1, 0), (1, 2, 500), (2, 1, 0), (2, 2, -19.75)])
    pred = tracks([(1, 10, 0), (1, 20, 500), (2, 10, -25), (2, 20, 5.25)])
    assert count_events(gt, pred).mismatches == (0, 2)
    assert continuity_counts(gt, pred).mismatches == (0, 0)


def _noisy_scene():
    """A 3 x 30 x 200 scene, its perturbed predictions with noisy boxes, and their ledger.

    Each predicted box's x and y move by Gaussian noise, sigma 10 % of its side.
    """
    scene = generate_scene(3, 30, 200, seed=3)
    predictions, ledger = perturb(scene, ErrorSpec(60, 30, 6, 6), seed=4)
    rng = random.Random(5)
    noisy = []
    for track in predictions.tracks:
        detections = []
        for view, frame, identity, (x, y, w, h) in track.detections:
            x += rng.gauss(0, 0.1 * w)
            y += rng.gauss(0, 0.1 * h)
            detections.append(Detection(view, frame, identity, BBox(x, y, w, h)))
        noisy.append(Track(track.identity, tuple(detections)))
    return scene, tuple(noisy), ledger


def test_continuity_counts_the_ledgers_mismatches_where_min_cost_counts_blips():
    """Noisy boxes (sigma 10 % of a side): per-slot minimum cost swaps close identities.

    Continuity counts exactly the injected 24 mismatches, at the cost of 5
    more misses and 5 more false positives: a kept pair need not be the
    cheapest.
    """
    scene, noisy, ledger = _noisy_scene()

    def totals(counts):
        return counts.miss_total, counts.fp_total, counts.mismatch_total

    assert totals(count_events(scene.gt_tracks, noisy)) == (829, 405, 164)
    assert totals(continuity_counts(scene.gt_tracks, noisy)) == (834, 410, 24)
    assert ledger.totals.mismatches == 24


@pytest.mark.parametrize("mirror", [False, True])
def test_expired_boxes_inside_an_open_list_are_skipped(monkeypatch, mirror):
    """Box 2 (right edge 50) expires between two live boxes; 101 starts exactly at 50.

    The open list is rebuilt only when an end entry has expired (103 starts at
    box 1's right edge, 200); until then the expired middle entry is skipped.
    """
    left = [(1, BBox(0, 0, 200, 10)), (2, BBox(10, 0, 40, 10)), (3, BBox(20, 0, 200, 10))]
    right = [(101, BBox(50, 0, 170, 10)), (102, BBox(60, 0, 10, 10)), (103, BBox(200, 0, 10, 10))]
    if mirror:
        left, right = [(i + 100, b) for i, b in left], [(i - 100, b) for i, b in right]
    gt, pred = (right, left) if mirror else (left, right)
    gt_tracks = tuple(Track(i, (Detection(0, 1, i, b),)) for i, b in gt)
    pred_tracks = tuple(Track(i, (Detection(0, 1, i, b),)) for i, b in pred)
    calls = []
    monkeypatch.setattr("cvrmot.metrics.iou", lambda a, b: calls.append(1) or cvrmot.iou(a, b))
    shared = _check_against_dense(gt_tracks, pred_tracks)
    assert len(calls) == 5  # 101 and 102 with boxes 1 and 3, 103 with box 3
    assert shared.counts.misses == (2,) and shared.counts.false_positives == (2,)  # 3 -> 101 only


@pytest.mark.parametrize("case", ["crowded pipeline", "noisy scene"])
def test_float_gate_agrees_with_the_exact_gate_on_every_scored_pair(
    tmp_path, capsys, monkeypatch, case
):
    """Every pair the sweep scores at the default gate of 0.5 gets the exact verdict."""
    if case == "crowded pipeline":
        argvs, _ = crowded_pipeline(tmp_path)
        for argv in argvs[:-1]:
            assert main(argv) == 0
        score = lambda: main(argvs[-1])  # noqa: E731
    else:
        scene, noisy, _ = _noisy_scene()
        score = lambda: count_events(scene.gt_tracks, noisy)  # noqa: E731
    pairs = []
    monkeypatch.setattr(metrics, "iou", lambda a, b: pairs.append((a, b)) or cvrmot.iou(a, b))
    score()
    capsys.readouterr()
    distinct = set(pairs)
    assert distinct
    floats = [cvrmot.iou(a, b) >= 0.5 for a, b in distinct]
    assert floats == [exact_gate(a, b, 0.5) for a, b in distinct]


def test_float_gate_rejects_a_pair_whose_exact_iou_is_the_gate():
    """A union rounded up puts the float IoU one ulp below an exact 1/2.

    The inner box's width is half the outer's exactly, and it lies inside it,
    so the stored boxes' IoU is 1/2. Edges and areas come out exact in floats,
    but ``area_a + area_b`` rounds up to 316.2, so the union is 210.8 where
    the outer area is 210.79999999999998, and the float gate at 0.5 rejects
    the pair.
    """
    inner, outer = BBox(11.77, 0, 10.54, 10), BBox(5.15, 0, 21.08, 10)
    assert Fraction(outer.w) == 2 * Fraction(inner.w)
    assert exact_gate(inner, outer, 0.5)
    assert cvrmot.iou(inner, outer) == 0.49999999999999994
    match = match_frame([Detection(0, 1, 1, inner)], [Detection(0, 1, 101, outer)], 0.5)
    assert match.pairs == ()
