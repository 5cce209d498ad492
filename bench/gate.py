"""Correctness gate of the benchmark.

Every check reads the files the CLI wrote with plain ``csv``/``json`` code and
never imports ``cvrmot``, so the gate stays an independent oracle. Each check
returns a list of problems; an empty list means the step passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

Slot = tuple[int, int, int]  # (view, frame, identity)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_tree(root: Path, pattern: str = "*") -> str:
    """Digest of the files under ``root`` matching ``pattern``: relative names plus contents."""
    digest = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob(pattern) if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def read_boxes(directory: Path) -> dict[Slot, tuple[float, float, float, float]]:
    """All ``view_XX.csv`` rows under ``directory`` as slot -> (x, y, w, h)."""
    boxes = {}
    for path in sorted(Path(directory).glob("view_*.csv")):
        view = int(path.stem.split("_")[1])
        with open(path, newline="", encoding="utf-8") as handle:
            for row in csv.reader(handle):
                if row:
                    key = (view, int(row[0]), int(row[1]))
                    boxes[key] = tuple(float(v) for v in row[2:6])
    return boxes


def count_rows(directory: Path) -> int:
    return sum(
        sum(1 for line in path.read_text("utf-8").splitlines() if line.strip())
        for path in Path(directory).glob("view_*.csv")
    )


def read_descriptions(path: Path) -> list[dict]:
    return json.loads(Path(path).read_text("utf-8"))


def check_filtered(gt_dir: Path, description: dict, filtered_dir: Path) -> list[str]:
    """The filter must keep exactly the referred identities' GT boxes."""
    referred = set(description["referred_identities"])
    try:
        expected = {k: v for k, v in read_boxes(gt_dir).items() if k[2] in referred}
        got = read_boxes(filtered_dir)
    except (OSError, ValueError, IndexError) as exc:
        return [f"filter {description['id']}: unreadable boxes: {exc!r}"]
    if got == expected:
        return []
    missing = len(expected.keys() - got.keys())
    extra = len(got.keys() - expected.keys())
    moved = sum(1 for k in expected.keys() & got.keys() if expected[k] != got[k])
    return [
        f"filter {description['id']}: {missing} referred slots missing, "
        f"{extra} extra slots, {moved} boxes changed"
    ]


def check_ledger(report: dict, ledger: dict) -> list[str]:
    """The single description's counts must reproduce the injected ledger.

    Totals, per-frame counts and the raw matching accuracy must all be equal,
    the accuracy as an exact float.
    """
    problems = []
    entry = report["descriptions"][0]
    counts = entry["counts"]
    totals = ledger["totals"]
    expected_totals = {
        "misses": totals["misses"],
        "false_positives": totals["false_positives"],
        "mismatches": totals["temporal"] + totals["crossview"],
        "gt_total": ledger["gt_total"],
    }
    for key, want in expected_totals.items():
        if counts[key] != want:
            problems.append(f"report {key} {counts[key]} != ledger {want}")
    zero = {"misses": 0, "false_positives": 0, "temporal": 0, "crossview": 0}
    seen = set()
    for row in counts["frames"]:
        frame = str(row["frame"])
        seen.add(frame)
        errs = ledger["per_frame"].get(frame, zero)
        want = (errs["misses"], errs["false_positives"], errs["temporal"] + errs["crossview"])
        if (row["m"], row["fp"], row["mme"]) != want:
            problems.append(f"frame {frame}: (m, fp, mme) {(row['m'], row['fp'], row['mme'])} != {want}")
    for frame, errs in ledger["per_frame"].items():
        if frame not in seen and any(errs.values()):
            problems.append(f"ledger frame {frame} has errors the report never saw")
    if entry["cvma_raw"] != ledger["expected_cvma"]["value"]:
        problems.append(
            f"cvma_raw {entry['cvma_raw']!r} != ledger {ledger['expected_cvma']['value']!r}"
        )
    return problems


def check_perfect(report: dict, n_descriptions: int) -> list[str]:
    """Filtered ground truth must score CVRIDF1 = CVRMA = 1 over every query."""
    agg = report["aggregate"]
    problems = []
    if agg["n_l"] != n_descriptions:
        problems.append(f"aggregate n_l {agg['n_l']} != {n_descriptions}")
    if agg["cvridf1"] != 1.0 or agg["cvrma"] != 1.0:
        problems.append(f"aggregate CVRIDF1 {agg['cvridf1']!r}, CVRMA {agg['cvrma']!r}, want 1.0")
    return problems


def check_report(report_path: Path, scene_dir: Path, uses_ledger: bool, n_descriptions: int) -> list[str]:
    """Gate one evaluate report: ledger equality or the perfect-score rule."""
    try:
        report = json.loads(Path(report_path).read_text("utf-8"))
        if uses_ledger:
            ledger = json.loads((Path(scene_dir) / "ledger.json").read_text("utf-8"))
            return check_ledger(report, ledger)
        return check_perfect(report, n_descriptions)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable report {report_path}: {exc!r}"]
