"""End-to-end and per-layer benchmark of the cvrmot CLI pipeline.

    python3 bench/run.py --workload ledger-sparse --seed 1 --seconds 55 --trace 0

The repository root is the parent of this file's directory; the package is
run from its ``src/``. Each workload makes its inputs from ``--seed`` with
``cvrmot synth`` and then drives ``cvrmot filter`` (once per description) and
``cvrmot evaluate`` as child processes of this one: a closed loop with one
client, each step started when the previous one has ended. Every output is
checked (see ``gate.py``).

With ``--trace 0`` the end-to-end metrics are measured; with ``--trace 1``
the pipeline also runs in this process with its layers wrapped (see
``layers.py``) and the per-layer metrics are printed. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it, ``run_info``, records the
code and machine the numbers come from, the input sizes and the raw samples.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import gate
import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

DEFAULT_SEED = 1  # used while a change is written
HELDOUT_SEED = 2  # confirms a gain claim; not used while the change is tuned
MIN_ROUNDS = 3  # rounds per end-to-end run, at least
FILTER_CALLS = 2  # filter starts per round, at least: passes repeat when descriptions are few
STARTUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    name: str
    views: int
    ids: int
    frames: int
    errors: dict  # synth --errors spec; {} still runs perturb, injecting nothing
    # True: evaluate synth's perturbed predictions and gate them on the ledger.
    # False: evaluate the filter's output and gate it on a perfect score.
    uses_ledger: bool
    descriptions: int = 1
    image: tuple[int, int] = (1920, 1080)
    jitter: float = 0.0

    def synth_args(self) -> list[object]:
        return ["--views", self.views, "--ids", self.ids, "--frames", self.frames,
                "--image-width", self.image[0], "--image-height", self.image[1],
                "--descriptions", self.descriptions, "--jitter", self.jitter]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ledger-sparse", views=4, ids=60, frames=10,
                 errors={"miss_count": 50, "fp_count": 25, "temporal_switch_count": 6,
                         "crossview_mismatch_count": 12},
                 uses_ledger=True),
        Workload("many-queries", views=3, ids=2, frames=100, descriptions=8, jitter=0.2,
                 errors={}, uses_ledger=False),
    )
}


@dataclass
class Child:
    ok: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def cli(*args: object) -> list[str]:
    """Arguments of ``cvrmot <args>`` as passed to ``cvrmot.cli.main``."""
    return [str(a) for a in args]


@dataclass
class Pipeline:
    """The CLI argument lists of one workload, with its files under ``scene``."""

    workload: Workload
    seed: int
    scene: Path
    spec: Path

    def synth(self, out: Optional[Path] = None) -> list[str]:
        return cli("synth", *self.workload.synth_args(), "--seed", self.seed,
                   "--errors", self.spec, "--out", out or self.scene)

    def filter(self, desc_id: str) -> list[str]:
        return cli("filter", "--tracks", self.scene / "tracks" / desc_id,
                   "--out", self.scene / "filtered" / desc_id)

    def evaluate(self) -> list[str]:
        s = self.scene
        return cli("evaluate", "--manifest", s / "manifest.json", "--gt-dir", s / "gt",
                   "--descriptions", s / "descriptions.json",
                   "--predictions-root", self.predictions_root, "--out", self.report)

    def steps(self) -> list[tuple[str, list[str]]]:
        """synth, filter per description, evaluate: the whole CLI pipeline in order."""
        ids = [f"d{i:02d}" for i in range(self.workload.descriptions)]
        return [("synth", self.synth()), *(("filter", self.filter(d)) for d in ids),
                ("evaluate", self.evaluate())]

    @property
    def predictions_root(self) -> Path:
        return self.scene / ("predictions" if self.workload.uses_ledger else "filtered")

    @property
    def report(self) -> Path:
        return self.scene / "report.json"

    def descriptions(self) -> list[dict]:
        return gate.read_descriptions(self.scene / "descriptions.json")

    def check_filter(self, desc: dict) -> list[str]:
        return gate.check_filtered(self.scene / "gt", desc, self.scene / "filtered" / desc["id"])

    def check_report(self, n_descriptions: int) -> list[str]:
        return gate.check_report(self.report, self.scene, self.workload.uses_ledger, n_descriptions)


def fastest_tenth(values: list[float]) -> float:
    """Mean of the smallest tenth of the samples of one run, at least one sample.

    Interference from other tenants of a shared host only ever adds time.
    The host switches between a fast and a slow state that each last
    seconds, and a run may spend most of its time in either; the fastest
    samples track the code's own cost far more steadily than the median or
    the lower quartile do (see README.md, Noise).
    """
    ordered = sorted(values)
    return statistics.fmean(ordered[:max(1, round(len(ordered) / 10))])


def until(deadline: float, minimum: int, round_fn: Callable[[], dict]) -> list[dict]:
    """Repeat ``round_fn`` at least ``minimum`` times, then while another fits before ``deadline``."""
    rows, durations = [], []
    while True:
        start = time.perf_counter()
        rows.append(round_fn())
        durations.append(time.perf_counter() - start)
        if len(rows) >= minimum and time.perf_counter() + statistics.median(durations) > deadline:
            return rows


@dataclass
class Bench:
    """One benchmark run: its pipeline, step tally and report-identity check."""

    pipe: Pipeline
    log: Path
    golden: Optional[str] = None  # known report SHA-256 for this workload and seed
    attempted: int = 0
    failed: int = 0
    report_sha: Optional[str] = None
    synth_sha: Optional[str] = None

    def step(self, ok: bool, problems: list[str] = ()) -> bool:
        """Count one CLI step; it fails on a nonzero exit or any problem found."""
        problems = list(problems) or ([] if ok else ["step exited nonzero"])
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems[:5]:
                print(f"check failed: {problem}", file=sys.stderr)
        return not problems

    def check_identity(self, report: Path) -> list[str]:
        """Every report of one seed has one SHA-256: the golden one when known."""
        digest = gate.sha256_file(report)
        self.report_sha = self.report_sha or digest
        want = self.golden or self.report_sha
        return [] if digest == want else [f"report sha256 {digest[:12]} != {want[:12]}"]

    def child(self, args: list[str]) -> Child:
        """Run ``python3 <args>`` with the checkout's ``src`` first on the path.

        Wall time brackets the whole child. CPU time and peak RSS come from
        ``wait4``, so they cover the child and every process it reaped
        (evaluate's pool workers); peak RSS is that of the largest of them.
        Bytecode is cached under the run's work directory, as an installed
        package would have it, whatever the caller's environment says.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(self.log.parent / "pycache")
        with open(self.log, "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], env=env, cwd=ROOT,
                stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
            )
            killer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode == 0, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0)

    def cvrmot(self, argv: list[str]) -> Child:
        return self.child(["-m", "cvrmot.cli", *argv])

    def synth(self, out: Path) -> list[float]:
        """Run synth into ``out``; its tree must equal the first synth's.

        Returns ``[wall seconds]``, or ``[]`` when the step failed.
        """
        child = self.cvrmot(self.pipe.synth(out))
        problems = []
        if child.ok:
            digest = gate.sha256_tree(out)
            self.synth_sha = self.synth_sha or digest
            if digest != self.synth_sha:
                problems.append(f"synth output in {out.name} differs from the first")
        return [child.wall_s] if self.step(child.ok, problems) else []

    def setup(self) -> None:
        """Write the workload's inputs into the scene directory."""
        self.pipe.spec.write_text(json.dumps(self.pipe.workload.errors), "utf-8")
        if not self.synth(self.pipe.scene):
            raise RuntimeError("cvrmot synth failed")

    def setup_again(self, k: int) -> list[float]:
        """Repeat the set-up into a scratch directory, then remove it."""
        out = self.pipe.scene.with_name(f"setup{k}")
        try:
            return self.synth(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def filter_pass(self, descriptions: list[dict]) -> tuple[list[float], float]:
        """Filter every description once; (wall seconds per description, largest peak RSS)."""
        pipe = self.pipe
        filter_s, filter_rss = [], 0.0
        for desc in descriptions:
            shutil.rmtree(pipe.scene / "filtered" / desc["id"], ignore_errors=True)
            child = self.cvrmot(pipe.filter(desc["id"]))
            self.step(child.ok, pipe.check_filter(desc) if child.ok else [])
            filter_s.append(child.wall_s)
            filter_rss = max(filter_rss, child.peak_rss_mb)
        return filter_s, filter_rss

    def cli_round(self, descriptions: list[dict]) -> dict[str, list]:
        """Filter passes, then evaluate once; gate every output; samples per metric.

        A pass filters every description; passes repeat until the round has
        started ``filter`` FILTER_CALLS times, so that a workload with one
        description still gives ``filter_s`` several samples per round. A
        ``filter_s`` sample is one pass: its wall seconds per description.
        """
        pipe = self.pipe
        passes = [self.filter_pass(descriptions)
                  for _ in range(-(-FILTER_CALLS // len(descriptions)))]
        pipe.report.unlink(missing_ok=True)
        child = self.cvrmot(pipe.evaluate())
        problems = []
        if child.ok:
            problems = pipe.check_report(len(descriptions)) or self.check_identity(pipe.report)
        self.step(child.ok, problems)
        return {
            "evaluate_s": [child.wall_s],
            "evaluate_cpu_s": [child.cpu_s],
            "evaluate_peak_rss_mb": [child.peak_rss_mb],
            "filter_s": [seconds for seconds, _ in passes],
            "filter_peak_rss_mb": [max(rss for _, rss in passes)],
        }

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        """Set up, then run rounds for ``seconds``: the set-up again, then a CLI round.

        Repeating the set-up inside the rounds spreads its samples over the
        whole run, as those of every other metric are. The first set-up also
        compiles the package's bytecode, so it is not a sample.
        """
        self.setup()
        descriptions = self.pipe.descriptions()
        count = itertools.count(1)
        rows = until(time.perf_counter() + seconds, MIN_ROUNDS,
                     lambda: {"setup_s": self.setup_again(next(count)),
                              **self.cli_round(descriptions)})
        samples = {k: [v for r in rows for v in r[k]] for k in rows[0]}
        units = {"setup_s": "s", "evaluate_s": "s", "evaluate_cpu_s": "s",
                 "evaluate_peak_rss_mb": "MB", "filter_peak_rss_mb": "MB"}
        metrics = {name: (fastest_tenth(samples[name]), unit) for name, unit in units.items()}
        # Each description's filter time alone, then their sum: a pass of many
        # short filters straddles the host's fast and slow states.
        per_description = zip(*samples["filter_s"])
        metrics["filter_s"] = (sum(fastest_tenth(list(calls)) for calls in per_description), "s")
        metrics["ok_op_share"] = ((self.attempted - self.failed) / self.attempted, "share")
        return metrics, {"rounds": len(rows), "samples": samples}

    def in_process(self, scene: Path, tracer: Optional[layers.Tracer]) -> dict[str, float]:
        """Run the pipeline through ``cvrmot.cli.main`` here; seconds per step kind."""
        local = Pipeline(self.pipe.workload, self.pipe.seed, scene, self.pipe.spec)
        results = layers.run_in_process(local.steps(), tracer)
        seconds: dict[str, float] = {}
        for kind, _, elapsed in results:
            seconds[kind] = seconds.get(kind, 0.0) + elapsed
        (_, synth_ok, _), *filters, (_, evaluate_ok, _) = results
        if self.step(synth_ok):
            descriptions = local.descriptions()
            for desc, (_, ok, _) in zip(descriptions, filters):
                self.step(ok, local.check_filter(desc) if ok else [])
            problems = []
            if evaluate_ok:
                problems = local.check_report(len(descriptions)) or self.check_identity(local.report)
            self.step(evaluate_ok, problems)
        shutil.rmtree(scene, ignore_errors=True)
        return seconds

    def layer_round(self, descriptions: list[dict], startup: float, k: int) -> dict:
        """One CLI round, then one untraced and one traced in-process pass."""
        [evaluate_s] = self.cli_round(descriptions)["evaluate_s"]
        plain = self.in_process(self.pipe.scene.with_name(f"plain{k}"), None)
        tracer = layers.Tracer()
        traced = self.in_process(self.pipe.scene.with_name(f"traced{k}"), tracer)
        row = tracer.metrics()
        row["cli.startup_s"] = (startup, "s")
        row["cli.pool_overhead_s"] = (evaluate_s - startup - plain["evaluate"], "s")
        row["trace.overhead_ratio"] = (sum(traced.values()) / sum(plain.values()), "ratio")
        return row

    def per_layer(self, seconds: float) -> tuple[dict, dict]:
        """Per-layer metrics, medians over rounds of ``layer_round``.

        ``cli.pool_overhead_s`` is the CLI evaluate's wall time minus the
        interpreter start-up and minus the same evaluate run in this process,
        serially and untraced.
        """
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        self.setup()
        descriptions = self.pipe.descriptions()
        startup = statistics.median(
            self.child(["-c", "import cvrmot.cli"]).wall_s for _ in range(STARTUP_REPEATS))
        count = itertools.count()
        rows = until(time.perf_counter() + seconds, 1,
                     lambda: self.layer_round(descriptions, startup, next(count)))
        metrics = {}
        for name, (value, unit) in rows[0].items():
            if value is not None:
                value = statistics.median(row[name][0] for row in rows)
            metrics[name] = (value, unit)
        return metrics, {"rounds": len(rows), "startup_samples": STARTUP_REPEATS}

    def run_info(self) -> dict:
        git_sha = None
        if (ROOT / ".git").exists():
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, check=False)
            git_sha = done.stdout.strip() or None
        sources = sorted((SRC / "cvrmot").glob("*.py"))
        descriptions = self.pipe.descriptions()
        predicted = sum(gate.count_rows(self.pipe.predictions_root / d["id"]) for d in descriptions)
        return {
            "git_sha": git_sha,
            "src_sha256": gate.sha256_tree(SRC / "cvrmot", "*.py"),
            "src_lines": sum(len(p.read_text("utf-8").splitlines()) for p in sources),
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
            "gt_boxes": gate.count_rows(self.pipe.scene / "gt"),
            "predicted_boxes": predicted,
            "descriptions": len(descriptions),
            "report_sha256": self.report_sha,
        }


def golden_sha(workload: str, seed: int) -> Optional[str]:
    if not GOLDEN.exists():
        return None
    return json.loads(GOLDEN.read_text("utf-8")).get(workload, {}).get(str(seed))


def run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    """Measure one workload in ``work`` (created, then removed); returns (result, run_info)."""
    work.mkdir(parents=True)
    try:
        bench = Bench(Pipeline(workload, seed, work / "scene", work / "errors.json"),
                      work / "stderr.log", golden_sha(workload.name, seed))
        try:
            metrics, extra = bench.per_layer(seconds) if trace else bench.end_to_end(seconds)
        except (RuntimeError, OSError, ValueError, KeyError):
            if bench.log.exists():
                sys.stderr.write(bench.log.read_text("utf-8", errors="replace")[-4000:])
            raise
        info = {"workload": workload.name, "seed": seed, "trace": int(trace),
                **bench.run_info(), **extra}
        result = {
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }
        return result, info
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cvrmot" / "cli.py").is_file():
        print(f"error: no cvrmot sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    try:
        result, info = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1
    print(json.dumps({"run_info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
