"""Fast self-test of the benchmark on tiny inputs.

    python3 -m pytest -q bench/selftest.py

Runs every workload shape at tiny sizes in both modes and checks that each
metric ``BENCHMARK.json`` names is emitted with its unit, then checks that the
correctness gate rejects outputs with one value altered.
"""

from __future__ import annotations

import importlib
import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import gate
import layers
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))

TINY = {
    "ledger-sparse": replace(
        run.WORKLOADS["ledger-sparse"], name="tiny-ledger-sparse", ids=6, frames=6,
        errors={"miss_count": 3, "fp_count": 2, "temporal_switch_count": 1,
                "crossview_mismatch_count": 1}),
    "many-queries": replace(
        run.WORKLOADS["many-queries"], name="tiny-many-queries", frames=10, descriptions=3),
}


@pytest.fixture
def work():
    path = run.WORK / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def ready_bench(workload: run.Workload, work: Path) -> tuple[run.Bench, list[dict]]:
    """A Bench whose scene has been synthesized, filtered and evaluated once."""
    work.mkdir(parents=True)
    bench = run.Bench(run.Pipeline(workload, 5, work / "scene", work / "errors.json"),
                      work / "stderr.log")
    bench.setup()
    descriptions = bench.pipe.descriptions()
    bench.cli_round(descriptions)
    assert bench.failed == 0, bench.log.read_text("utf-8")
    return bench, descriptions


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(TINY) == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("shape", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(shape, trace, work):
    result, info = run.run(TINY[shape], seed=5, seconds=0, trace=trace, work=work)
    assert not work.exists()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    assert set(got) == set(wanted)
    for name, unit in wanted.items():
        assert got[name]["unit"] == unit, name
        assert isinstance(got[name]["value"], (int, float)), name
    assert info["gt_boxes"] > 0 and info["predicted_boxes"] > 0 and info["report_sha256"]
    json.dumps(result, allow_nan=False)


def test_ledger_gate_rejects_one_altered_count(work):
    bench, _ = ready_bench(TINY["ledger-sparse"], work)
    report = json.loads(bench.pipe.report.read_text("utf-8"))
    ledger = json.loads((bench.pipe.scene / "ledger.json").read_text("utf-8"))
    assert gate.check_ledger(report, ledger) == []
    for path in (("counts", "misses"), ("counts", "false_positives"), ("counts", "mismatches")):
        altered = json.loads(json.dumps(report))
        altered["descriptions"][0][path[0]][path[1]] += 1
        assert gate.check_ledger(altered, ledger), path
    altered = json.loads(json.dumps(report))
    altered["descriptions"][0]["counts"]["frames"][0]["fp"] += 1
    assert gate.check_ledger(altered, ledger)
    altered = json.loads(json.dumps(report))
    altered["descriptions"][0]["cvma_raw"] += 1e-12
    assert gate.check_ledger(altered, ledger)


def test_perfect_score_and_filter_gates_reject_alterations(work):
    bench, descriptions = ready_bench(TINY["many-queries"], work)
    report = json.loads(bench.pipe.report.read_text("utf-8"))
    assert gate.check_perfect(report, len(descriptions)) == []
    report["aggregate"]["cvrma"] = 0.9375
    assert gate.check_perfect(report, len(descriptions))
    view_file = bench.pipe.scene / "filtered" / descriptions[0]["id"] / "view_00.csv"
    rows = view_file.read_text("utf-8").splitlines()
    view_file.write_text("\n".join(rows[1:]) + "\n", "utf-8")
    assert bench.pipe.check_filter(descriptions[0])


def test_report_identity_and_failed_steps(work):
    bench, _ = ready_bench(TINY["ledger-sparse"], work)
    assert bench.check_identity(bench.pipe.report) == []
    other = work / "other.json"
    other.write_text(bench.pipe.report.read_text("utf-8") + " ", "utf-8")
    assert bench.check_identity(other)
    attempted, failed = bench.attempted, bench.failed
    assert not bench.step(True, ["altered"]) and not bench.step(False)
    assert (bench.attempted, bench.failed) == (attempted + 2, failed + 2)


def test_missing_function_is_null_and_patches_are_restored():
    sys.path.insert(0, str(run.SRC))
    import cvrmot.cli
    import cvrmot.metrics

    before = {(m, a): getattr(importlib.import_module(m), a)
              for targets in layers.SPANS.values() for m, a in targets}
    saved = cvrmot.metrics.id_measures
    del cvrmot.metrics.id_measures
    tracer = layers.Tracer()
    try:
        tracer.install()
        assert cvrmot.metrics.iou is not before[("cvrmot.metrics", "iou")]
        metrics = tracer.metrics()
    finally:
        tracer.restore()
        cvrmot.metrics.id_measures = saved
    assert metrics["metrics.id_measures_s"][0] is None
    assert metrics["assignment.id_lap_s"][0] is None
    assert metrics["metrics.count_events_s"][0] == 0
    for (module, attr), original in before.items():
        assert getattr(importlib.import_module(module), attr) is original
    assert cvrmot.cli.ProcessPoolExecutor.__module__ == "concurrent.futures.process"


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
