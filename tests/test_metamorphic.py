"""Metamorphic invariance: transformations that keep every IoU and the order of
identities leave a description's result unchanged.

Boxes are rounded to integers, so translating by an integer offset or scaling
by 2 changes no IoU, not even in its last bit. Relabelling keeps identity
order, because slot ties follow identity order (README); view permutation is
pinned by ``test_view_relabeling_invariance`` in ``tests/test_metrics.py``.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cvrmot import (
    AttributeSet,
    BBox,
    Detection,
    ErrorSpec,
    InfeasibleSpecError,
    LanguageDescription,
    Track,
    evaluate_description,
    generate_scene,
    perturb,
)


def _mapped(tracks, box=lambda b: b, identity=lambda i: i):
    return tuple(
        Track(identity(t.identity), tuple(
            Detection(d.view_id, d.frame, identity(d.identity), box(d.bbox)) for d in t.detections
        ))
        for t in tracks
    )


def _rounded(b):
    return BBox(*(float(round(v)) for v in b))


@st.composite
def cases(draw):
    """(scene, description, predictions): integer boxes, predictions perturbed.

    The small image crowds the boxes, and each predicted box is moved by up
    to ``jitter`` pixels, so slots are contested and pairs fall below the gate.
    """
    synthetic = generate_scene(
        draw(st.integers(2, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 6)),
        image_size=draw(st.sampled_from([(400, 300), (1920, 1080)])),
        seed=draw(st.integers(0, 1000)),
    )
    scene = synthetic._replace(gt_tracks=_mapped(synthetic.gt_tracks, _rounded))
    spec = ErrorSpec(*(draw(st.integers(0, top)) for top in (3, 2, 1, 2)))
    try:
        predictions, _ = perturb(scene, spec, seed=draw(st.integers(0, 1000)))
    except InfeasibleSpecError:
        assume(False)
    rng, jitter = random.Random(draw(st.integers(0, 1000))), draw(st.integers(0, 20))

    def moved(b):
        x, y, w, h = _rounded(b)
        return BBox(x + rng.randint(-jitter, jitter), y + rng.randint(-jitter, jitter), w, h)

    referred = draw(st.sets(st.sampled_from(sorted(scene.identities()))))
    desc = LanguageDescription("d", "Someone.", AttributeSet(), frozenset(referred))
    return scene, desc, _mapped(predictions.tracks, moved)


def _scale(scene, desc, preds):
    def double(b):
        return BBox(*(2 * v for v in b))

    width, height = scene.image_size
    scaled = scene._replace(image_size=(2 * width, 2 * height), gt_tracks=_mapped(scene.gt_tracks, double))
    return scaled, desc, _mapped(preds, double)


def _relabel_gt(scene, desc, preds):
    def relabel(identity):
        return 3 * identity + 5

    referred = frozenset(map(relabel, desc.referred_identities))
    relabeled = scene._replace(gt_tracks=_mapped(scene.gt_tracks, identity=relabel))
    return relabeled, desc._replace(referred_identities=referred), preds


def _relabel_predictions(scene, desc, preds):
    return scene, desc, _mapped(preds, identity=lambda identity: 2 * identity + 1000)


@settings(max_examples=150, deadline=None)
@given(case=cases(), dx=st.integers(-300, 300), dy=st.integers(-300, 300))
def test_translation_is_invariant(case, dx, dy):
    scene, desc, preds = case

    def shift(b):
        return BBox(b.x + dx, b.y + dy, b.w, b.h)

    shifted = scene._replace(gt_tracks=_mapped(scene.gt_tracks, shift))
    assert evaluate_description(shifted, desc, _mapped(preds, shift)) == evaluate_description(*case)


@pytest.mark.parametrize("transform", [_scale, _relabel_gt, _relabel_predictions])
@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_result_is_invariant(transform, case):
    scene, desc, preds = case
    assert evaluate_description(*transform(scene, desc, preds)) == evaluate_description(*case)
