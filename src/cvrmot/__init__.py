"""Cross-view referring multi-object tracking evaluation toolkit.

Every name below is imported from its module on first use (PEP 562), so
``import cvrmot`` loads no submodule and a CLI subcommand loads only the
modules it runs.
"""

from importlib import import_module

_EXPORTS = {  # module -> the names it defines
    "assignment": "Assignment CostMatrix FORBIDDEN solve_lap",
    "datamodel": (
        "ATTRIBUTE_CATEGORIES AttributeSet BBox DEFAULT_VOCABULARY Detection EvalConfig "
        "LanguageDescription Scene Track iou validate_attributes validate_scene"
    ),
    "fusion_losses": (
        "FusionWeights LossInputs ScoreRecord fuse_features fuse_scores grad_loss_cmot "
        "loss_cmot loss_referring loss_total"
    ),
    "ingest": (
        "ParseError PredictionSet build_report parse_descriptions parse_predictions "
        "parse_scene parse_scores read_report render_description write_descriptions "
        "write_predictions write_report write_scene write_scores"
    ),
    "metrics": (
        "AggregateResult DescriptionResult FrameMatch IdMeasures MetricCounts aggregate "
        "count_events cvidf1 cvidf1_exact cvma cvma_exact evaluate_description "
        "id_measures match_frame restrict_gt"
    ),
    "predictor": "MissingScoreError PredictorConfig TrackState filter_tracks step",
    "synth": (
        "ErrorSpec FrameErrors InfeasibleSpecError Ledger generate_scene ledger_to_dict "
        "perturb score_tracks"
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value
