import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cvrmot import (
    FusionWeights,
    LossInputs,
    ScoreRecord,
    fuse_features,
    fuse_scores,
    grad_loss_cmot,
    loss_cmot,
    loss_referring,
    loss_total,
)


def test_fuse_features_worked_example():
    assert fuse_features([1.0, 2.0], [100.0, -100.0], 0.01) == [2.0, 1.0]


def test_fuse_features_alpha_zero_and_zero_vector():
    assert fuse_features([1.0, 2.0], [3.0, 4.0], 0.0) == [1.0, 2.0]
    assert fuse_features([1.0, 2.0], [0.0, 0.0], 0.7) == [1.0, 2.0]


def test_fuse_features_length_mismatch():
    with pytest.raises(ValueError):
        fuse_features([1.0], [1.0, 2.0], 0.1)


def test_fuse_scores_worked_examples():
    assert math.isclose(fuse_scores(0.5, 0.0, 0.1), 0.6, rel_tol=0, abs_tol=1e-12)
    value = fuse_scores(0.42, 0.9, 0.1)
    assert abs(value - (0.42 + 0.1 * math.exp(0.9))) < 1e-15
    assert abs(value - 0.66596) < 1e-5


def test_fuse_scores_beta_zero_identity():
    assert fuse_scores(0.37, 0.99, 0.0) == 0.37


def test_fuse_scores_strictly_increasing():
    rng = random.Random(3)
    for _ in range(200):
        s_t, s_a = rng.random(), rng.random()
        eps = 1e-6
        assert fuse_scores(s_t + eps, s_a, 0.1) > fuse_scores(s_t, s_a, 0.1)
        assert fuse_scores(s_t, s_a + eps, 0.1) > fuse_scores(s_t, s_a, 0.1)


def test_score_record_range_and_fused():
    with pytest.raises(ValueError):
        ScoreRecord(1.2, 0.5)
    with pytest.raises(ValueError):
        ScoreRecord(0.5, -0.1)


def test_fusion_weights_defaults():
    weights = FusionWeights()
    assert weights.alpha == 0.01
    assert weights.beta == 0.1
    with pytest.raises(ValueError):
        FusionWeights(alpha=math.inf)


def test_loss_cmot_worked_examples():
    assert loss_cmot(LossInputs(l_d=1.0, l_s=0.5, l_c=0.5)) == 1.0
    value = loss_cmot(LossInputs(l_d=1.0, l_s=0.5, l_c=0.5, w1=math.log(2.0)))
    assert abs(value - 0.5 * (0.5 + 1.0 + math.log(2.0))) < 1e-15
    assert abs(value - 1.09657) < 1e-5
    assert loss_cmot(LossInputs(l_d=0.0, l_s=0.0, l_c=0.0)) == 0.0


def test_grad_loss_cmot_stationary_points():
    g1, _ = grad_loss_cmot(LossInputs(l_d=1.0, l_s=0.0, l_c=0.0))
    assert g1 == 0.0
    _, g2 = grad_loss_cmot(LossInputs(l_d=0.0, l_s=0.4, l_c=0.6))
    assert g2 == 0.0
    g1_zero_ld, _ = grad_loss_cmot(LossInputs(l_d=0.0, l_s=1.0, l_c=1.0, w1=-2.5))
    assert g1_zero_ld == 0.5


def test_grad_matches_finite_differences():
    rng = random.Random(17)
    h = 1e-5
    for _ in range(300):
        inputs = LossInputs(
            l_d=rng.uniform(0, 5),
            l_s=rng.uniform(0, 5),
            l_c=rng.uniform(0, 5),
            w1=rng.uniform(-3, 3),
            w2=rng.uniform(-3, 3),
        )
        a1, a2 = grad_loss_cmot(inputs)

        def at(w1, w2):
            return loss_cmot(
                LossInputs(l_d=inputs.l_d, l_s=inputs.l_s, l_c=inputs.l_c, w1=w1, w2=w2)
            )

        fd1 = (at(inputs.w1 + h, inputs.w2) - at(inputs.w1 - h, inputs.w2)) / (2 * h)
        fd2 = (at(inputs.w1, inputs.w2 + h) - at(inputs.w1, inputs.w2 - h)) / (2 * h)
        assert abs(a1 - fd1) <= 1e-6 * max(1.0, abs(a1))
        assert abs(a2 - fd2) <= 1e-6 * max(1.0, abs(a2))


def test_loss_cmot_convex_in_w1():
    rng = random.Random(23)
    h = 1e-4
    for _ in range(100):
        l_d = rng.uniform(0.1, 5)
        w1 = rng.uniform(-3, 3)

        def at(w):
            return loss_cmot(LossInputs(l_d=l_d, l_s=0.0, l_c=0.0, w1=w))

        second = (at(w1 + h) - 2 * at(w1) + at(w1 - h)) / (h * h)
        assert second >= -1e-6
        # minimizer sits at w1 = ln(l_d)
        g_at_min, _ = grad_loss_cmot(LossInputs(l_d=l_d, l_s=0.0, l_c=0.0, w1=math.log(l_d)))
        assert abs(g_at_min) < 1e-12


def test_loss_referring_worked_examples():
    assert loss_referring(((1.0, 0.0),), ((1, 0),)) == 0.0
    assert abs(loss_referring(((0.5, 0.5),), ((1, 0),)) - 0.69315) < 1e-5
    value = loss_referring(((0.5, 0.5), (0.9, 0.1)), ((1, 0), (0, 1)))
    assert abs(value - 1.49787) < 1e-5


def test_loss_referring_validation():
    with pytest.raises(ValueError):
        loss_referring(((0.5, 0.5),), ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        loss_referring(((0.5, 0.4),), ((1, 0),))
    with pytest.raises(ValueError):
        loss_referring(((0.5, 0.5),), ((1, 1),))
    with pytest.raises(ValueError):
        loss_referring((), ())


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.001, max_value=0.999), st.integers(0, 1)),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=100)
def test_loss_referring_nonnegative(rows):
    probs = tuple((p, 1.0 - p) for p, _ in rows)
    labels = tuple((1, 0) if hot == 0 else (0, 1) for _, hot in rows)
    value = loss_referring(probs, labels)
    assert value >= 0.0
    labelled = [p if hot == 0 else 1.0 - p for (p, hot) in rows]
    if all(p == 1.0 for p in labelled):
        assert value == 0.0
    else:
        assert value > 0.0


def test_loss_total_composition():
    inputs = LossInputs(
        l_d=1.0,
        l_s=0.5,
        l_c=0.5,
        probs=((0.5, 0.5), (0.9, 0.1)),
        labels=((1, 0), (0, 1)),
    )
    total = loss_total(inputs)
    assert total == loss_cmot(inputs) + loss_referring(inputs.probs, inputs.labels)
    assert abs(total - 2.49787) < 1e-4


def test_loss_inputs_validation():
    with pytest.raises(ValueError):
        LossInputs(l_d=-0.5, l_s=0.0, l_c=0.0)
    with pytest.raises(ValueError):
        LossInputs(l_d=0.0, l_s=0.0, l_c=0.0, w1=math.nan)


def test_argmax_invariance_under_common_shift():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(2, 15)
        s_t = [round(rng.random(), 6) for _ in range(n)]
        s_a = [round(rng.random(), 6) for _ in range(n)]
        shift = round(rng.uniform(-5, 5), 3)
        base = [fuse_scores(t, a, 0.1) for t, a in zip(s_t, s_a)]
        moved = [fuse_scores(t + shift, a, 0.1) for t, a in zip(s_t, s_a)]
        assert max(range(n), key=base.__getitem__) == max(range(n), key=moved.__getitem__)
