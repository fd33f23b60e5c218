"""Each standalone noise kind shows up as the TIDE error it models.

The clean ground truth of :func:`conftest.disjoint_instance`, scored as
detections with distinct scores against its noisy copy, gets TIDE counts
that the public injection log predicts exactly, since no two boxes of an
image overlap before or after the noise:

- a category flip is a Cls error: the detection keeps the box, IoU 1;
- a dropped annotation leaves its detection a Bkg error;
- a fabricated box is a Miss: every detection keeps its own gt at IoU 1;
- a jitter is a true positive, a Loc error, or a Bkg error plus a Miss, by
  the IoU of the logged ``old_bbox`` with the new box against ``tf``/``tb``;
- a flip and then a jitter of one box is a Cls error, a Both error plus a
  Miss, or a Bkg error plus a Miss, by the same IoU.
"""

from functools import lru_cache

import numpy as np
import pytest

from unabench import Detection, ErrorKind, NoiseConfig, classify_errors, inject, iou, tide_report
from unabench.tide import ERROR_ORDER

from conftest import disjoint_instance

CLS, LOC, BOTH, BKG, MISS = (ErrorKind.CLS, ErrorKind.LOC, ErrorKind.BOTH, ErrorKind.BKG, ErrorKind.MISS)
THRESHOLDS = [(0.5, 0.1), (0.6, 0.2)]
RATIO = 0.2


@lru_cache(maxsize=None)
def _instance():
    """50 images of 4 x 3 cells (600 boxes) and the clean boxes as detections, distinct scores."""
    rng = np.random.default_rng(20)
    ds = disjoint_instance(rng)
    scores = (rng.permutation(len(ds.annotations)) + 1) / (len(ds.annotations) + 1)
    return ds, tuple(Detection(a.image_id, a.category_id, a.bbox, float(s)) for a, s in zip(ds.annotations, scores))


def _predicted(noisy, logs, tf: float, tb: float) -> tuple[dict, dict]:
    """The TIDE counts the logs predict, and how each edited box came out."""
    flipped = {e.id for log in logs for e in log.corrupted if e.old_category_id is not None}
    old_boxes = {e.id: e.old_bbox for log in logs for e in log.corrupted if e.old_bbox is not None}
    counts = dict.fromkeys(ERROR_ORDER, 0)
    counts[BKG] = sum(len(log.removed) for log in logs)
    counts[MISS] = sum(len(log.added) for log in logs)
    outcomes = dict.fromkeys(("tp", CLS, LOC, BOTH, BKG), 0)
    for i in flipped | old_boxes.keys():
        overlap = iou(old_boxes[i], noisy.annotations_by_id[i].bbox) if i in old_boxes else 1.0
        if overlap >= tf:
            outcome = CLS if i in flipped else "tp"
        elif overlap >= tb:
            outcome = BOTH if i in flipped else LOC
        else:
            outcome = BKG
        outcomes[outcome] += 1
        if outcome != "tp":
            counts[outcome] += 1
        counts[MISS] += outcome in (BOTH, BKG)  # a Cls or Loc detection covers its gt; the others do not
    return counts, outcomes


def _counts(noisy, tf: float, tb: float) -> dict:
    dets = _instance()[1]
    counts = tide_report(noisy, dets, tf, tb).counts
    labels = classify_errors(noisy, dets, tf, tb)
    assert {kind: labels.count(kind) for kind in ERROR_ORDER} == counts
    return counts


@pytest.mark.parametrize("tf, tb", THRESHOLDS)
@pytest.mark.parametrize("kind, policy, modelled", [
    ("categorization", "sample_existing", CLS),
    ("missing", "sample_existing", BKG),
    ("bogus", "sample_existing", MISS),
    ("bogus", "uniform_fraction", MISS),
])
def test_flips_drops_and_fabrications_are_cls_bkg_and_miss(kind, policy, modelled, tf, tb):
    ds = _instance()[0]
    noisy, log = inject(ds, NoiseConfig(kind, RATIO, seed=7, bogus_size_policy=policy))
    want, _ = _predicted(noisy, [log], tf, tb)
    assert want == {k: 120 if k is modelled else 0 for k in ERROR_ORDER}  # 20% of 600 boxes
    assert _counts(noisy, tf, tb) == want


@pytest.mark.parametrize("tf, tb", THRESHOLDS)
@pytest.mark.parametrize("delta", [0.4, 0.7])
def test_a_jitter_is_a_tp_loc_or_bkg_and_miss_by_its_iou(delta, tf, tb):
    ds = _instance()[0]
    noisy, log = inject(ds, NoiseConfig("localization", RATIO, seed=11, loc_delta=delta))
    want, outcomes = _predicted(noisy, [log], tf, tb)
    assert _counts(noisy, tf, tb) == want
    assert outcomes["tp"] > 0 and outcomes[LOC] > 0 and sum(outcomes.values()) == 120
    assert (outcomes[BKG] > 0) == (delta == 0.7 or tb == 0.2), outcomes


@pytest.mark.parametrize("tf, tb", THRESHOLDS)
def test_a_flipped_and_jittered_box_is_cls_both_or_bkg_by_its_iou(tf, tb):
    """Categorization, then localization of its output: boxes both kinds pick are Cls, or
    Both or Bkg, each with a Miss, by the IoU of the jitter."""
    ds = _instance()[0]
    flipped, flips = inject(ds, NoiseConfig("categorization", 0.5, seed=3))
    noisy, moves = inject(flipped, NoiseConfig("localization", 0.5, seed=5, loc_delta=0.7))
    want, outcomes = _predicted(noisy, [flips, moves], tf, tb)
    assert _counts(noisy, tf, tb) == want
    assert all(outcomes[k] > 0 for k in ("tp", CLS, LOC, BOTH, BKG)), outcomes
