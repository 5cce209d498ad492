"""Per-layer tracing of the cvrmot pipeline, run in one process.

The traced run calls ``cvrmot.cli.main`` in this process, in the CLI's own
order (synth, then filter per description, then evaluate). ``Tracer`` wraps
each layer's public functions at the module attribute the caller looks them
up from: ``cvrmot.cli`` imports its helpers by name and ``cvrmot.metrics``
imports ``iou`` and ``solve_lap`` by name, so those are the names patched.
The defining module is patched too, for callers that go through it.
Every patched name is restored afterwards.

``evaluate`` would fan out over a process pool and lose the counts made in
the workers, so both in-process passes swap ``cvrmot.cli.ProcessPoolExecutor``
for ``SerialExecutor``, which maps in this process in order.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

# Span name -> targets (module, attribute). The first target is the name the
# CLI path looks up; when it is gone the span's metrics are reported as null.
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "synth.generate_scene": (("cvrmot.cli", "generate_scene"), ("cvrmot.synth", "generate_scene")),
    "synth.perturb": (("cvrmot.cli", "perturb"), ("cvrmot.synth", "perturb")),
    "synth.score_tracks": (("cvrmot.cli", "score_tracks"), ("cvrmot.synth", "score_tracks")),
    "ingest.parse_scene": (("cvrmot.cli", "parse_scene"), ("cvrmot.ingest", "parse_scene")),
    "ingest.parse_predictions": (
        ("cvrmot.cli", "parse_predictions"),
        ("cvrmot.ingest", "parse_predictions"),
    ),
    "ingest.write_predictions": (
        ("cvrmot.cli", "write_predictions"),
        ("cvrmot.ingest", "write_predictions"),
    ),
    "ingest.build_report": (("cvrmot.cli", "build_report"), ("cvrmot.ingest", "build_report")),
    "ingest.write_report": (("cvrmot.cli", "write_report"), ("cvrmot.ingest", "write_report")),
    "predictor.filter_tracks": (
        ("cvrmot.cli", "filter_tracks"),
        ("cvrmot.predictor", "filter_tracks"),
    ),
    "metrics.evaluate_description": (
        ("cvrmot.cli", "evaluate_description"),
        ("cvrmot.metrics", "evaluate_description"),
    ),
    "metrics.count_events": (("cvrmot.metrics", "count_events"),),
    "metrics.match_frame": (("cvrmot.metrics", "match_frame"),),
    "metrics.id_measures": (("cvrmot.metrics", "id_measures"),),
    "assignment.solve_lap": (("cvrmot.metrics", "solve_lap"), ("cvrmot.assignment", "solve_lap")),
    "datamodel.iou": (("cvrmot.metrics", "iou"), ("cvrmot.datamodel", "iou")),
}

IOU_HIT = 0.5  # the default IoU gate of EvalConfig


class SerialExecutor:
    """Drop-in for ``ProcessPoolExecutor`` that maps in this process, in order."""

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def map(self, fn: Callable, *iterables: Sequence) -> list:
        return list(map(fn, *iterables))


def _detections(tracks: Sequence) -> int:
    return sum(len(track.detections) for track in tracks)


class Tracer:
    """Span times and counters for one in-process pipeline pass."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: set[str] = set()
        self._stack: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for span, targets in SPANS.items():
            for index, (module_name, attr) in enumerate(targets):
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    if index == 0:
                        self.missing.add(span)
                        print(f"warning: {module_name}.{attr} not found; {span} metrics are null",
                              file=sys.stderr)
                    continue
                if span == "datamodel.iou":
                    wrapper = self._count_iou(original)
                else:
                    wrapper = self._span(span, original)
                setattr(module, attr, wrapper)
                self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _count_iou(self, fn: Callable) -> Callable:
        counts = self.counts

        def iou(a, b):
            value = fn(a, b)
            counts["iou_calls"] += 1
            if value >= IOU_HIT:
                counts["iou_hits"] += 1
            return value

        return iou

    def _span(self, span: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.seconds[span] += elapsed
                self.calls[span] += 1
            self._account(span, parent, elapsed, args, result)
            return result

        return wrapper

    def _account(self, span: str, parent: Optional[str], elapsed: float, args: tuple, result) -> None:
        counts = self.counts
        if span == "assignment.solve_lap":
            costs = args[0].costs
            counts["lap_cells"] += len(costs) * len(costs[0])
            counts["lap_feasible"] += sum(math.isfinite(c) for row in costs for c in row)
            counts["lap_max_side"] = max(counts["lap_max_side"], len(costs), len(costs[0]))
            if parent == "metrics.match_frame":
                self.seconds["assignment.frame_lap"] += elapsed
            elif parent == "metrics.id_measures":
                self.seconds["assignment.id_lap"] += elapsed
        elif span == "ingest.parse_scene":
            counts["rows_parsed"] += _detections(result.gt_tracks)
        elif span == "ingest.parse_predictions":
            counts["rows_parsed"] += _detections(result.tracks)
        elif span == "ingest.write_report":
            counts["report_bytes"] += Path(args[1]).stat().st_size
        elif span == "predictor.filter_tracks":
            counts["detections_in"] += _detections(args[0])
            counts["detections_kept"] += _detections(result)

    def metrics(self) -> dict[str, tuple[Optional[float], str]]:
        """Per-layer metrics as name -> (value, unit); null where a span they need is gone."""
        s, n, c = self.seconds, self.calls, self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        iou = ("datamodel.iou",)
        lap = ("assignment.solve_lap",)
        table = {
            "datamodel.iou_calls": (iou, c["iou_calls"], "count"),
            "datamodel.iou_hit_ratio": (iou, ratio(c["iou_hits"], c["iou_calls"]), "ratio"),
            "metrics.evaluate_description_s": (
                ("metrics.evaluate_description",), s["metrics.evaluate_description"], "s"),
            "metrics.count_events_s": (("metrics.count_events",), s["metrics.count_events"], "s"),
            "metrics.match_frame_calls": (("metrics.match_frame",), n["metrics.match_frame"], "count"),
            "metrics.match_frame_s": (("metrics.match_frame",), s["metrics.match_frame"], "s"),
            "metrics.id_measures_s": (("metrics.id_measures",), s["metrics.id_measures"], "s"),
            "assignment.solve_lap_calls": (lap, n["assignment.solve_lap"], "count"),
            "assignment.frame_lap_s": (
                lap + ("metrics.match_frame",), s["assignment.frame_lap"], "s"),
            "assignment.id_lap_s": (lap + ("metrics.id_measures",), s["assignment.id_lap"], "s"),
            "assignment.lap_cells": (lap, c["lap_cells"], "count"),
            "assignment.lap_feasible_ratio": (
                lap, ratio(c["lap_feasible"], c["lap_cells"]), "ratio"),
            "assignment.lap_max_side": (lap, c["lap_max_side"], "count"),
            "ingest.parse_scene_s": (("ingest.parse_scene",), s["ingest.parse_scene"], "s"),
            "ingest.parse_predictions_s": (
                ("ingest.parse_predictions",), s["ingest.parse_predictions"], "s"),
            "ingest.rows_parsed": (
                ("ingest.parse_scene", "ingest.parse_predictions"), c["rows_parsed"], "count"),
            "ingest.write_predictions_s": (
                ("ingest.write_predictions",), s["ingest.write_predictions"], "s"),
            "ingest.report_s": (
                ("ingest.build_report", "ingest.write_report"),
                s["ingest.build_report"] + s["ingest.write_report"],
                "s",
            ),
            "ingest.report_bytes": (("ingest.write_report",), c["report_bytes"], "bytes"),
            "predictor.filter_tracks_s": (
                ("predictor.filter_tracks",), s["predictor.filter_tracks"], "s"),
            "predictor.detections_in": (("predictor.filter_tracks",), c["detections_in"], "count"),
            "predictor.kept_ratio": (
                ("predictor.filter_tracks",),
                ratio(c["detections_kept"], c["detections_in"]),
                "ratio",
            ),
            "synth.generate_scene_s": (("synth.generate_scene",), s["synth.generate_scene"], "s"),
            "synth.perturb_s": (("synth.perturb",), s["synth.perturb"], "s"),
            "synth.score_tracks_s": (("synth.score_tracks",), s["synth.score_tracks"], "s"),
        }
        return {
            name: (None if self.missing.intersection(spans) else value, unit)
            for name, (spans, value, unit) in table.items()
        }


@contextlib.contextmanager
def _serial_pool() -> Iterator[None]:
    cli = importlib.import_module("cvrmot.cli")
    original = getattr(cli, "ProcessPoolExecutor", None)
    if original is not None:
        cli.ProcessPoolExecutor = SerialExecutor
    try:
        yield
    finally:
        if original is not None:
            cli.ProcessPoolExecutor = original


def run_in_process(
    steps: Sequence[tuple[str, list[str]]], tracer: Optional[Tracer] = None
) -> list[tuple[str, bool, float]]:
    """Run CLI steps through ``cvrmot.cli.main`` in this process.

    Returns (step kind, exited 0, wall seconds) per step. With a tracer its
    wrappers are installed for the whole pass and removed afterwards.
    """
    cli = importlib.import_module("cvrmot.cli")
    results = []
    with _serial_pool():
        if tracer is not None:
            tracer.install()
        try:
            for kind, argv in steps:
                start = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        ok = cli.main(argv) == 0
                except Exception:  # a crashing step is counted as failed, not fatal
                    traceback.print_exc()
                    ok = False
                results.append((kind, ok, time.perf_counter() - start))
        finally:
            if tracer is not None:
                tracer.restore()
    return results
