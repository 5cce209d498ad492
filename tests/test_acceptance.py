"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.
"""

import json
import math
import random
import time
from fractions import Fraction

from cvrmot import (
    CostMatrix,
    Detection,
    ErrorSpec,
    FORBIDDEN,
    LossInputs,
    PredictorConfig,
    Track,
    TrackState,
    aggregate,
    brute_force_lap,
    count_events,
    cvma_exact,
    evaluate_description,
    fuse_features,
    fuse_scores,
    generate_scene,
    grad_loss_cmot,
    id_measures,
    loss_cmot,
    loss_referring,
    oracle_id_measures,
    perturb,
    solve_lap,
    step,
)
from cvrmot.cli import main
from cvrmot.ingest import parse_predictions, parse_scene, read_report
from cvrmot.metrics import cvidf1

from helpers import desc_for, tracks_copy
from test_metrics import lane_scene
from test_synth import ledger_matches_counts


def _report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def test_criterion_01_metric_fixpoint():
    started = time.monotonic()
    rng = random.Random(1)
    checked = 0
    for seed in range(20):
        views = rng.choice([2, 3, 4])
        ids = rng.randint(1, 8)
        frames = rng.randint(5, 50)
        scene = generate_scene(views, ids, frames, seed=seed)
        desc = desc_for(scene, desc_id=f"all-{seed}")
        result = evaluate_description(scene, desc, tracks_copy(scene))
        assert result.cvidf1 == 1.0
        assert result.cvma_raw == 1.0
        agg = aggregate([result])
        assert (agg.cvridf1, agg.cvrma) == (1.0, 1.0)
        checked += 1
    elapsed = time.monotonic() - started
    assert checked >= 20
    assert elapsed < 5.0, f"fixpoint suite took {elapsed:.2f}s"
    _report(1, f"{checked} error-free scenes evaluate to exactly (1.0, 1.0) in {elapsed:.2f}s")


def _feasible_spec(rng: random.Random, views: int, ids: int, frames: int) -> ErrorSpec:
    crossview = rng.randint(0, min(3, (views - 1) * frames)) if ids >= 2 else 0
    temporal = rng.randint(0, 1) if (frames >= 2 and ids >= 2) else 0
    used = (1 if crossview else 0) + temporal
    untouched = ids - used
    miss_cap = max(0, untouched * views * frames)
    return ErrorSpec(
        miss_count=rng.randint(0, min(4, miss_cap)),
        fp_count=rng.randint(0, 4),
        temporal_switch_count=temporal,
        crossview_mismatch_count=crossview,
    )


def test_criterion_02_cvma_ledger_equivalence():
    rng = random.Random(2)
    cases = 0
    negative_seen = 0
    for seed in range(100):
        views = rng.choice([2, 3, 4])
        ids = rng.randint(2, 6)
        frames = rng.randint(2, 10)
        scene = generate_scene(views, ids, frames, seed=seed)
        spec = _feasible_spec(rng, views, ids, frames)
        predictions, ledger = perturb(scene, spec, seed=seed + 1000)
        counts = count_events(scene.gt_tracks, predictions.tracks)
        computed = cvma_exact(counts)
        assert computed == ledger.expected_cvma, (seed, spec)
        assert abs(float(computed) - float(ledger.expected_cvma)) <= 1e-12
        assert ledger_matches_counts(ledger, counts), (seed, spec)
        cases += 1
    # dedicated negative-accuracy case plus the clamp at aggregation
    scene = generate_scene(2, 2, 2, seed=777)  # 8 GT detections
    predictions, ledger = perturb(scene, ErrorSpec(fp_count=20), seed=7)
    counts = count_events(scene.gt_tracks, predictions.tracks)
    computed = cvma_exact(counts)
    assert computed == ledger.expected_cvma == Fraction(1) - Fraction(20, 8)
    assert computed < 0
    negative_seen += 1
    desc = desc_for(scene, desc_id="neg")
    result = evaluate_description(scene, desc, predictions.tracks)
    assert result.cvma_exact == computed
    agg = aggregate([result])
    assert agg.cvrma == 0.0  # clamped at aggregation
    assert agg.cvridf1 == result.cvidf1
    _report(2, f"{cases + negative_seen} ledger cases exact, incl. negative accuracy clamped to 0")


def test_criterion_03_cvidf1_oracle_equivalence():
    rng = random.Random(3)
    cases = 0
    for seed in range(100):
        views = rng.choice([2, 3, 4])
        ids = rng.randint(1, 4)
        frames = rng.randint(1, 6)
        scene = generate_scene(views, ids, frames, seed=seed + 300)
        crossview = rng.randint(0, 1) if (ids >= 2 and views >= 2) else 0
        temporal = rng.randint(0, 1) if (frames >= 2 and ids >= 2 and not crossview) else 0
        used = crossview + temporal
        miss_cap = max(0, (ids - used)) * views * frames
        spec = ErrorSpec(
            miss_count=rng.randint(0, min(3, miss_cap)),
            fp_count=rng.randint(0, 1),
            temporal_switch_count=temporal,
            crossview_mismatch_count=crossview,
        )
        predictions, _ = perturb(scene, spec, seed=seed + 400)
        measured = id_measures(scene.gt_tracks, predictions.tracks)
        oracle = oracle_id_measures(scene, predictions)
        assert measured == oracle, (seed, spec)
        cases += 1
    # ten-slot split: one GT identity over 10 slots, covered 6 + 4
    scene = lane_scene(num_views=2, num_ids=1, num_frames=5)
    dets = scene.gt_tracks[0].detections
    p1 = Track(11, tuple(Detection(d.view_id, d.frame, 11, d.bbox) for d in dets if d.frame <= 3))
    p2 = Track(12, tuple(Detection(d.view_id, d.frame, 12, d.bbox) for d in dets if d.frame > 3))
    measured = id_measures(scene.gt_tracks, (p1, p2))
    oracle = oracle_id_measures(scene, (p1, p2))
    assert measured == oracle
    assert (measured.idtp, measured.idfp, measured.idfn) == (6, 4, 4)
    assert cvidf1(measured) == 0.6
    _report(3, f"{cases} oracle instances exact; ten-slot split gives CVIDF1 = 0.6")


def test_criterion_04_lap_correctness():
    rng = random.Random(4)
    cases = 0
    for _ in range(1000):
        rows_n = rng.randint(1, 7)
        cols_n = rng.randint(1, 7)
        rows = []
        for _r in range(rows_n):
            rows.append(
                [
                    FORBIDDEN if rng.random() < 0.15 else float(rng.randint(0, 9))
                    for _c in range(cols_n)
                ]
            )
        matrix = CostMatrix.from_rows(rows)
        fast = solve_lap(matrix)
        slow = brute_force_lap(matrix)
        assert fast.total_cost == slow.total_cost, rows
        assert fast.pairs == slow.pairs, rows
        cases += 1
    _report(4, f"{cases} random matrices up to 7x7 with exact cost and tie-break equality")


def test_criterion_05_referring_fp_rule():
    scene = generate_scene(3, 5, 8, seed=55)
    referred = {1, 3, 4}
    desc = desc_for(scene, referred)
    clean = tracks_copy(scene, referred)
    before = evaluate_description(scene, desc, clean)
    assert before.cvma_exact == 1
    intruder = tracks_copy(scene, {2})  # GT-visible but not referred
    intruder_dets = sum(len(t.detections) for t in intruder)
    after = evaluate_description(scene, desc, clean + intruder)
    gt_total = before.counts.gt_total
    assert after.counts.fp_total == intruder_dets
    drop = before.cvma_exact - after.cvma_exact
    assert drop == Fraction(intruder_dets, gt_total)
    assert after.cvma_exact < before.cvma_exact
    _report(5, f"injecting a non-referred object dropped accuracy by exactly {drop}")


def test_criterion_06_algorithm_trace_conformance():
    config = PredictorConfig()  # (0.5, 0.75, 30, 3, 3, 1)
    assert (config.t_as, config.t_ss, config.t_hs) == (0.5, 0.75, 30.0)
    assert (config.s1, config.s2, config.s3) == (3.0, 3.0, 1.0)
    state, emit = step(TrackState(1), [0.9, 0.7], config)
    assert emit is True and state.hit_score == 3.0
    state, emit = step(TrackState(1), [1.6], config)
    assert emit is False and state.hit_score == 6.0
    state, emit = step(TrackState(1, hit_score=1.0), [0.3, 0.2], config)
    assert emit is False and state.hit_score == 0.0
    state = TrackState(1)
    first_emit = None
    trace = []
    for frame in range(1, 12):
        state, emit = step(state, [0.8], config)
        trace.append(state.hit_score)
        if emit and first_emit is None:
            first_emit = frame
    assert trace == [3.0 * k for k in range(1, 12)]
    assert first_emit == 11 and state.hit_score == 33.0
    _report(6, "mean, multiplier, clamp, and 11-frame traces reproduce exactly at defaults")


def test_criterion_07_gradient_checks():
    rng = random.Random(7)
    h = 1e-5
    worst = 0.0
    for _ in range(1000):
        inputs = LossInputs(
            l_d=rng.uniform(0.0, 5.0),
            l_s=rng.uniform(0.0, 5.0),
            l_c=rng.uniform(0.0, 5.0),
            w1=rng.uniform(-3.0, 3.0),
            w2=rng.uniform(-3.0, 3.0),
        )
        analytic = grad_loss_cmot(inputs)

        def value(w1, w2):
            return loss_cmot(
                LossInputs(l_d=inputs.l_d, l_s=inputs.l_s, l_c=inputs.l_c, w1=w1, w2=w2)
            )

        fd1 = (value(inputs.w1 + h, inputs.w2) - value(inputs.w1 - h, inputs.w2)) / (2 * h)
        fd2 = (value(inputs.w1, inputs.w2 + h) - value(inputs.w1, inputs.w2 - h)) / (2 * h)
        rel1 = abs(analytic[0] - fd1) / max(1.0, abs(analytic[0]))
        rel2 = abs(analytic[1] - fd2) / max(1.0, abs(analytic[1]))
        worst = max(worst, rel1, rel2)
        assert rel1 <= 1e-6 and rel2 <= 1e-6
    assert abs(loss_referring(((0.5, 0.5),), ((1, 0),)) - 0.69315) < 1e-5
    two_row = loss_referring(((0.5, 0.5), (0.9, 0.1)), ((1, 0), (0, 1)))
    assert abs(two_row - 1.49787) < 1e-5
    _report(7, f"1000 gradient checks within 1e-6 (worst {worst:.2e}); referring-loss values match")


def test_criterion_08_fusion_formulas():
    assert abs(fuse_scores(0.5, 0.0, 0.1) - 0.6) < 1e-9
    assert abs(fuse_scores(0.42, 0.9, 0.1) - (0.42 + 0.1 * math.exp(0.9))) < 1e-9
    assert fuse_scores(0.7, 0.99, 0.0) == 0.7
    assert fuse_features([1.0, 2.0], [100.0, -100.0], 0.01) == [2.0, 1.0]
    rng = random.Random(8)
    for _ in range(1000):
        n = rng.randint(2, 20)
        s_t = [round(rng.random(), 6) for _ in range(n)]
        s_a = [round(rng.random(), 6) for _ in range(n)]
        shift = round(rng.uniform(-5.0, 5.0), 3)
        base = [fuse_scores(t, a, 0.1) for t, a in zip(s_t, s_a)]
        moved = [fuse_scores(t + shift, a, 0.1) for t, a in zip(s_t, s_a)]
        assert max(range(n), key=base.__getitem__) == max(range(n), key=moved.__getitem__)
    _report(8, "fusion worked examples within 1e-9; argmax invariant on 1000 random sets")


def _run_pipeline(root) -> bytes:
    work = root / "work"
    rc = main(
        [
            "synth",
            "--views", "3",
            "--ids", "5",
            "--frames", "20",
            "--descriptions", "3",
            "--seed", "9",
            "--out", str(work),
        ]
    )
    assert rc == 0
    descriptions = json.loads((work / "descriptions.json").read_text())
    for desc in descriptions:
        rc = main(
            [
                "filter",
                "--tracks", str(work / "tracks" / desc["id"]),
                "--out", str(root / "filtered" / desc["id"]),
            ]
        )
        assert rc == 0
    report_path = root / "report.json"
    rc = main(
        [
            "evaluate",
            "--manifest", str(work / "manifest.json"),
            "--gt-dir", str(work / "gt"),
            "--descriptions", str(work / "descriptions.json"),
            "--predictions-root", str(root / "filtered"),
            "--out", str(report_path),
        ]
    )
    assert rc == 0
    # the filter recovered exactly the referred tracks for every description
    scene = parse_scene(work / "manifest.json", work / "gt")
    for desc in descriptions:
        predicted = parse_predictions(root / "filtered" / desc["id"], scene.num_views)
        got = {
            (d.view_id, d.frame, d.identity)
            for t in predicted.tracks
            for d in t.detections
        }
        referred = frozenset(desc["referred_identities"])
        want = {
            (d.view_id, d.frame, d.identity)
            for t in scene.gt_tracks
            if t.identity in referred
            for d in t.detections
        }
        assert got == want, desc["id"]
    report = read_report(report_path)
    assert report["aggregate"]["cvridf1"] == 1.0
    assert report["aggregate"]["cvrma"] == 1.0
    return report_path.read_bytes()


def test_criterion_09_end_to_end_pipeline(tmp_path):
    started = time.monotonic()
    _run_pipeline(tmp_path)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"pipeline took {elapsed:.2f}s"
    _report(9, f"synth -> filter -> evaluate recovered the referred tracks exactly in {elapsed:.2f}s")


def test_criterion_10_pipeline_determinism(tmp_path):
    first = _run_pipeline(tmp_path / "run1")
    second = _run_pipeline(tmp_path / "run2")
    assert first == second
    _report(10, f"two pipeline runs produced byte-identical reports ({len(first)} bytes)")
