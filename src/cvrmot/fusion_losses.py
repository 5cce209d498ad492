"""Score fusion, feature fusion, and the tracking loss family.

Everything here is a plain numeric function with no model attached, so each
formula can be verified directly (worked examples, finite differences).
"""

import math
from typing import NamedTuple, Sequence

from .datamodel import Checked

_LOG_FLOOR = 1e-12


class _FusionWeights(NamedTuple):
    alpha: float = 0.01
    beta: float = 0.1


class FusionWeights(Checked, _FusionWeights):
    """Feature fusion weight (alpha) and score fusion weight (beta)."""

    __slots__ = ()


class _ScoreRecord(NamedTuple):
    s_t: float
    s_a: float


class ScoreRecord(_ScoreRecord):
    """Per-detection text score and attribute score, both in [0, 1].

    No fused score is stored: consumers recompute it from (s_t, s_a), so beta
    sweeps never require re-export.
    """

    __slots__ = ()

    def __new__(cls, s_t: float, s_a: float) -> "ScoreRecord":
        if not (0.0 <= s_t <= 1.0 and 0.0 <= s_a <= 1.0):  # false for nan
            for name, value in zip(cls._fields, (s_t, s_a)):
                if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                    raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        return tuple.__new__(cls, (s_t, s_a))


def fuse_scores(s_t: float, s_a: float, beta: float) -> float:
    """Fused confidence: s_t + beta * exp(s_a).

    Accepts any finite reals so threshold and beta sweeps are unconstrained;
    the [0, 1] range of stored scores is enforced at ingestion instead.
    """
    return s_t + beta * math.exp(s_a)


def fuse_features(
    f_f: Sequence[float], f_ai: Sequence[float], alpha: float
) -> list[float]:
    """Elementwise feature merge: f_f + alpha * f_ai."""
    if len(f_f) != len(f_ai):
        raise ValueError(f"feature length mismatch: {len(f_f)} vs {len(f_ai)}")
    return [a + alpha * b for a, b in zip(f_f, f_ai)]


class _LossInputs(NamedTuple):
    l_d: float
    l_s: float
    l_c: float
    w1: float = 0.0
    w2: float = 0.0
    probs: tuple[tuple[float, ...], ...] = ()
    labels: tuple[tuple[float, ...], ...] = ()


class LossInputs(Checked, _LossInputs):
    """Inputs to the combined tracking loss.

    l_d is the detection loss, l_s and l_c the single-view and cross-view
    re-identification losses; w1 and w2 are the learnable balance weights.
    ``probs`` is a row-stochastic N x K matrix and ``labels`` the matching
    one-hot matrix for the referring term.
    """

    __slots__ = ()

    def _check(self) -> None:
        for name in ("l_d", "l_s", "l_c"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be a finite non-negative loss, got {value!r}")
        for name in ("w1", "w2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        _check_prob_matrices(self.probs, self.labels)


def _check_prob_matrices(
    probs: Sequence[Sequence[float]], labels: Sequence[Sequence[float]]
) -> None:
    if len(probs) != len(labels):
        raise ValueError(f"probs has {len(probs)} rows but labels has {len(labels)}")
    for i, (p_row, y_row) in enumerate(zip(probs, labels)):
        if len(p_row) != len(y_row):
            raise ValueError(f"row {i}: probs width {len(p_row)} != labels width {len(y_row)}")
        if abs(sum(p_row) - 1.0) > 1e-9:
            raise ValueError(f"probs row {i} must sum to 1, got {sum(p_row)!r}")
        if any(y not in (0, 1, 0.0, 1.0) for y in y_row) or sum(y_row) != 1:
            raise ValueError(f"labels row {i} must be one-hot")


def loss_cmot(inputs: LossInputs) -> float:
    """Uncertainty-weighted tracking loss.

    0.5 * (exp(-w1) * l_d + exp(-w2) * (l_s + l_c) + w1 + w2)
    """
    return 0.5 * (
        math.exp(-inputs.w1) * inputs.l_d
        + math.exp(-inputs.w2) * (inputs.l_s + inputs.l_c)
        + inputs.w1
        + inputs.w2
    )


def grad_loss_cmot(inputs: LossInputs) -> tuple[float, float]:
    """Analytic gradient of :func:`loss_cmot` in (w1, w2).

    d/dw1 = 0.5 * (1 - exp(-w1) * l_d); stationary at w1 = ln(l_d) when
    l_d > 0, and constant 0.5 when l_d == 0. Same shape in w2 with l_s + l_c.
    """
    d_w1 = 0.5 * (1.0 - math.exp(-inputs.w1) * inputs.l_d)
    d_w2 = 0.5 * (1.0 - math.exp(-inputs.w2) * (inputs.l_s + inputs.l_c))
    return d_w1, d_w2


def loss_referring(
    probs: Sequence[Sequence[float]], labels: Sequence[Sequence[float]]
) -> float:
    """Mean cross-entropy between one-hot labels and predicted probabilities.

    The log argument is floored at 1e-12 so boundary inputs stay finite.
    """
    _check_prob_matrices(probs, labels)
    n = len(probs)
    if n == 0:
        raise ValueError("probs must have at least one row")
    total = 0.0
    for p_row, y_row in zip(probs, labels):
        for p, y in zip(p_row, y_row):
            if y:
                total += math.log(max(p, _LOG_FLOOR))
    return -total / n


def loss_total(inputs: LossInputs) -> float:
    """Combined objective: tracking loss plus referring loss."""
    return loss_cmot(inputs) + loss_referring(inputs.probs, inputs.labels)
