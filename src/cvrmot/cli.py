"""Command-line entry point.

Subcommands: ``evaluate`` (score predictions against ground truth and write a
report), ``filter`` (run the score-driven track filter), ``synth`` (generate
a synthetic scene, scored tracks, and optionally perturbed predictions with
their ledger), and ``validate`` (check files).

The configuration keys are the fields of ``EvalConfig``, ``FusionWeights``,
``PredictorConfig`` and ``RunConfig``, whose defaults and checks are the only
ones; each field is also a flag. Effective configuration is resolved as: the
config class defaults, overridden by flags, overridden by a ``--config`` JSON
file. Every subcommand that takes them builds all four config classes, and the
effective values are echoed into every report.

``synth`` and ``metrics`` are imported through this module's attributes on
first use, by ``synth`` and ``evaluate`` (``synth`` itself uses ``metrics``),
so ``filter`` loads neither.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import random
import sys
from importlib import import_module
from operator import getitem, itemgetter
from pathlib import Path
from typing import Collection, Iterable, NamedTuple, Optional, Sequence

from .datamodel import (
    AttributeSet,
    Checked,
    DEFAULT_VOCABULARY,
    EvalConfig,
    LanguageDescription,
    check_type,
    field_types,
)
from .fusion_losses import FusionWeights
from .ingest import (
    ParseError,
    PredictionSet,
    build_report,
    line_keys,
    parse_descriptions,
    parse_predictions,
    parse_scene,
    parse_scores,
    read_json,
    record_text,
    render_description,
    view_count,
    view_lines,
    write_descriptions,
    write_json,
    write_lines,
    write_manifest,
    write_predictions,
    write_report,
)
from .predictor import MissingScoreError, PredictorConfig, filter_tracks

_LAZY_NAMES = {
    "synth": {"ErrorSpec", "generate_scene", "ledger_to_dict", "perturb", "score_tracks"},
    "metrics": {"aggregate", "evaluate_description"},
}


class _RunConfig(NamedTuple):
    seed: int = 0


class RunConfig(Checked, _RunConfig):
    """CLI-level settings: ``seed`` seeds ``synth``."""

    __slots__ = ()


def __getattr__(name: str) -> object:
    """``synth`` and ``metrics`` are imported on first use: only their users load them."""
    for module, names in _LAZY_NAMES.items():
        if name in names:
            return getattr(import_module(f"{__package__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_CONFIG_CLASSES = (EvalConfig, FusionWeights, PredictorConfig, RunConfig)
_CONFIG_KEYS = frozenset(name for cls in _CONFIG_CLASSES for name in field_types(cls))


def _read_keys(path: str, names: Collection[str], what: str) -> dict:
    """The JSON object in ``path``; a key outside ``names`` is a ValueError naming it."""
    raw = read_json(path)
    unknown = set(raw) - set(names)
    if unknown:
        raise ValueError(f"{path}: unknown {what} keys: {sorted(unknown)}")
    return raw


def _configs(values: dict) -> tuple[EvalConfig, FusionWeights, PredictorConfig, RunConfig]:
    """The four config classes from ``values``; each checks its own keys."""
    return tuple(
        cls(**{name: values[name] for name in field_types(cls) if name in values})
        for cls in _CONFIG_CLASSES
    )


def _effective_config(
    args: argparse.Namespace,
) -> tuple[EvalConfig, FusionWeights, PredictorConfig, RunConfig]:
    """Defaults, overridden by flags, overridden by ``--config``, whose own errors name it."""
    values = {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS and v is not None}
    if args.config:
        from_file = _read_keys(args.config, _CONFIG_KEYS, "config")
        try:
            _configs(from_file)
        except ValueError as exc:
            raise ValueError(f"{args.config}: {exc}") from None
        values.update(from_file)
    return _configs(values)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """``--config`` plus one flag per config field: ``--`` + name with ``_`` as ``-``."""
    parser.add_argument("--config", help="JSON config file; overrides flags")
    for cls in _CONFIG_CLASSES:
        for name, kind in field_types(cls).items():
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                parser.add_argument(flag, dest=name, action="store_const", const=True)
            else:
                parser.add_argument(flag, dest=name, type=kind)


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Parse and score one description at a time; only its ``DescriptionResult`` is kept."""
    cli = sys.modules[__name__]
    configs = _effective_config(args)
    scene = parse_scene(args.manifest, args.gt_dir)
    descriptions = parse_descriptions(args.descriptions, scene)
    root = Path(args.predictions_root)
    if root.exists() and not root.is_dir():
        raise ParseError(root, "not a directory")
    results = []
    for desc in descriptions:
        pred_dir = root / desc.id
        if pred_dir.is_dir():
            tracks = parse_predictions(pred_dir, scene.num_views).tracks
        elif pred_dir.exists():
            raise ParseError(pred_dir, "not a directory")
        else:
            print(
                f"warning: no predictions for description {desc.id!r}; scoring as empty",
                file=sys.stderr,
            )
            tracks = ()
        results.append(cli.evaluate_description(scene, desc, tracks, configs[0]))
    aggregate_result = cli.aggregate(results) if results else None
    echo = {key: value for config in configs for key, value in config._asdict().items()}
    report = build_report(results, aggregate_result, echo)
    if args.out:
        write_report(report, args.out)
    name_width = max([len(r.description_id) for r in results], default=11)
    name_width = max(name_width, len("description"))
    print(f"{'description':<{name_width}}  {'CVIDF1':>8}  {'CVMA':>8}")
    for result in results:
        print(
            f"{result.description_id:<{name_width}}  "
            f"{100.0 * result.cvidf1:>8.2f}  "
            f"{100.0 * max(result.cvma_raw, 0.0):>8.2f}"
        )
    if aggregate_result is not None:
        print(
            f"{'aggregate':<{name_width}}  "
            f"{100.0 * aggregate_result.cvridf1:>8.2f}  "
            f"{100.0 * aggregate_result.cvrma:>8.2f}  (n_l={aggregate_result.n_l})"
        )
    else:
        print("aggregate undefined (n_l=0)")
    return 0


def cmd_filter(args: argparse.Namespace) -> int:
    _, weights, predictor_config, _ = _effective_config(args)
    tracks_dir = Path(args.tracks)
    num_views = view_count(tracks_dir)
    predictions = parse_predictions(tracks_dir, num_views)
    if args.scores:  # PredictionSet rejects a score row without a detection
        predictions = PredictionSet(predictions.tracks, parse_scores(args.scores, num_views))
    scores = predictions.scores
    kept = filter_tracks(predictions.tracks, scores, predictor_config, weights)
    kept_scores = {  # a detection's key is its (view, frame, identity)
        key: scores[key] for t in kept for d in t.detections if (key := d[:3]) in scores
    }
    out = PredictionSet(kept, kept_scores)
    write_predictions(out, args.out, num_views)
    total = sum(len(t.detections) for t in kept)
    print(f"kept {len(kept)} tracks / {total} detections -> {args.out}")
    return 0


def _sample_description(
    rng: random.Random, index: int, referred: frozenset[int]
) -> LanguageDescription:
    values = {}
    for category, words in DEFAULT_VOCABULARY.items():
        real_words = [w for w in words if w != "null"]
        if rng.random() < 0.5:
            values[category] = rng.choice(real_words)
    attrs = AttributeSet(**values)
    return LanguageDescription(
        id=f"d{index:02d}",
        text=render_description(attrs),
        attributes=attrs,
        referred_identities=referred,
    )


def _text_rows(detections: Iterable[Sequence], texts: dict) -> list[tuple]:
    """Each detection as ``(view, frame, identity, text of its box)``."""
    return [
        (view, frame, identity, record_text(box, texts))
        for view, frame, identity, box in detections
    ]


def cmd_synth(args: argparse.Namespace) -> int:
    """Compute the scene, descriptions, scores and perturbation, then write them all.

    Every input error is raised before the first write, so a rejected run
    leaves no output behind. Each step draws from its own ``random.Random``.
    """
    if args.descriptions < 1:
        raise ValueError("--descriptions must be at least 1")
    for flag in ("hi", "lo", "jitter"):
        check_type(f"--{flag}", getattr(args, flag), float)
    if args.jitter < 0:
        raise ValueError(f"--jitter must be non-negative, got {args.jitter}")
    seed = _effective_config(args)[-1].seed
    cli = sys.modules[__name__]
    scene = cli.generate_scene(
        args.views,
        args.ids,
        args.frames,
        image_size=(args.image_width, args.image_height),
        seed=seed,
    )
    identities = sorted(scene.identities())
    rng = random.Random(seed + 1)
    descriptions = [_sample_description(rng, 0, frozenset(identities))]
    for index in range(1, args.descriptions):
        size = rng.randint(1, max(1, len(identities) - 1))
        referred = frozenset(rng.sample(identities, size))
        descriptions.append(_sample_description(rng, index, referred))
    everyone = frozenset(identities)
    # Each box and score record is printed once: a gt/ row holds its box's text,
    # a tracks/ line is the gt/ line of its detection plus its scores' text, and a
    # predictions/ row copies a ground-truth box object, whose text it reuses.
    texts: dict = {}
    gt_lines = view_lines(_text_rows(scene.all_detections(), texts), scene.num_views)
    keys = line_keys(scene.gt_tracks, scene.num_views)
    # score_tracks draws one jitter stream whatever is referred, so a detection's
    # record is one of two: its hi-level one when its identity is referred and its
    # lo-level one when not. Each level a description needs is scored and formatted
    # once; a description's row takes the line of its identity's level.
    levels = [everyone]  # d00 refers to every identity
    if any(desc.referred_identities != everyone for desc in descriptions):
        levels.append(frozenset())
    lines = []
    for referred in levels:
        scores = cli.score_tracks(
            scene, scene.gt_tracks, referred,
            hi=args.hi, lo=args.lo, seed=seed + 2, jitter=args.jitter,
        )
        lines.append([
            [f"{line},{record_text(scores[key], texts)}" for line, key in zip(*view)]
            for view in zip(gt_lines, keys)
        ])
    if args.errors:
        spec = cli.ErrorSpec(**_read_keys(args.errors, field_types(cli.ErrorSpec), "error spec"))
        perturbed, ledger = cli.perturb(scene, spec, seed=seed + 3)
        detections = (d for track in perturbed.tracks for d in track.detections)
        pred_lines = view_lines(_text_rows(detections, texts), scene.num_views)

    out = Path(args.out)
    write_manifest(scene, out / "manifest.json")
    write_lines(out / "gt", gt_lines)
    write_descriptions(descriptions, out / "descriptions.json")
    if len(lines) == 2:
        choices = [list(zip(lo, hi)) for hi, lo in zip(*lines)]  # indexed by "is referred"
        row_ids = [list(map(itemgetter(2), view_keys)) for view_keys in keys]
    for desc in descriptions:
        desc_lines = lines[0]
        if desc.referred_identities != everyone:
            is_referred = desc.referred_identities.__contains__
            desc_lines = [
                list(map(getitem, pairs, map(is_referred, ids)))
                for pairs, ids in zip(choices, row_ids)
            ]
        write_lines(out / "tracks" / desc.id, desc_lines)
    if args.errors:
        write_lines(out / "predictions" / descriptions[0].id, pred_lines)
        write_json(cli.ledger_to_dict(ledger), out / "ledger.json")
    print(f"wrote synthetic scene {scene.name!r} to {out}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """Parse the scene and descriptions, whose parsers raise on the first violation."""
    scene = parse_scene(args.manifest, args.gt_dir)
    if args.descriptions:
        parse_descriptions(args.descriptions, scene)
    print("OK")
    return 0


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``cvrmot`` parser; given a ``command``, only that subcommand gets its flags.

    Every subcommand is listed either way, so top-level help and errors are the same.
    """
    parser = argparse.ArgumentParser(
        prog="cvrmot",
        description="Cross-view referring multi-object tracking evaluation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, func) -> Optional[argparse.ArgumentParser]:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p if command in (None, name) else None

    if p := add("evaluate", "evaluate predictions against ground truth", cmd_evaluate):
        p.add_argument("--manifest", required=True)
        p.add_argument("--gt-dir", dest="gt_dir", required=True)
        p.add_argument("--descriptions", required=True)
        p.add_argument("--predictions-root", dest="predictions_root", required=True)
        p.add_argument("--out", help="report JSON path")
        _add_config_flags(p)
    if p := add("filter", "filter tracks by fused scores", cmd_filter):
        p.add_argument("--tracks", required=True, help="directory of per-view track CSVs")
        p.add_argument("--scores", help="directory of per-view score CSVs (frame,id,s_t,s_a)")
        p.add_argument("--out", required=True)
        _add_config_flags(p)
    if p := add("synth", "generate a synthetic scene and fixtures", cmd_synth):
        p.add_argument("--views", type=int, default=3)
        p.add_argument("--ids", type=int, default=5)
        p.add_argument("--frames", type=int, default=30)
        p.add_argument("--image-width", dest="image_width", type=int, default=1920)
        p.add_argument("--image-height", dest="image_height", type=int, default=1080)
        p.add_argument("--descriptions", type=int, default=1)
        p.add_argument("--errors", help="JSON file with the error spec")
        p.add_argument("--hi", type=float, default=0.95)
        p.add_argument("--lo", type=float, default=0.05)
        p.add_argument("--jitter", type=float, default=0.0)
        p.add_argument("--out", required=True)
        _add_config_flags(p)
    if p := add("validate", "validate ground truth and descriptions", cmd_validate):
        p.add_argument("--manifest", required=True)
        p.add_argument("--gt-dir", dest="gt_dir", required=True)
        p.add_argument("--descriptions")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse runs a subcommand's parser only when argv[0] names it.
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (MissingScoreError, ValueError, OSError) as exc:  # InfeasibleSpecError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    """Run ``main`` as a process: no cyclic collections, no interpreter teardown.

    A run makes few reference cycles, so the collector stays off until
    ``main`` returns. Then the ``atexit`` handlers run, stdout and stderr are
    flushed, and the process ends at once with ``main``'s status. If a flush
    fails (say, stdout is a closed pipe), ``sys.exit`` ends it the normal way,
    which reports that failure as it always has.
    """
    gc.disable()
    status = main()
    gc.freeze()  # a handler's or the fallback's collections then skip every live object
    gc.enable()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a write error, or a closed stream
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    console_main()
