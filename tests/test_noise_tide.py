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

``una`` applies all four at once, and its fabricated boxes land anywhere, so
one can meet a clean detection at ``tb`` or more and change how that
detection, its own ground truth and the fabricated box are counted. Its test
checks every other detection's label and every other ground truth's Miss
against the log, counts the ones it leaves out, and pins how many it checks.
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


def _outcome(i: int, noisy, flipped: set, old_boxes: dict, tf: float, tb: float):
    """How the detection of surviving annotation ``i`` comes out: "tp", Cls, Loc, Both or Bkg,
    by whether it was flipped and the IoU of its jitter (1.0 for none)."""
    overlap = iou(old_boxes[i], noisy.annotations_by_id[i].bbox) if i in old_boxes else 1.0
    if overlap >= tf:
        return CLS if i in flipped else "tp"
    if overlap >= tb:
        return BOTH if i in flipped else LOC
    return BKG


def _predicted(noisy, logs, tf: float, tb: float) -> tuple[dict, dict]:
    """The TIDE counts the logs predict, and how each edited box came out."""
    flipped = {e.id for log in logs for e in log.corrupted if e.old_category_id is not None}
    old_boxes = {e.id: e.old_bbox for log in logs for e in log.corrupted if e.old_bbox is not None}
    counts = dict.fromkeys(ERROR_ORDER, 0)
    counts[BKG] = sum(len(log.removed) for log in logs)
    counts[MISS] = sum(len(log.added) for log in logs)
    outcomes = dict.fromkeys(("tp", CLS, LOC, BOTH, BKG), 0)
    for i in flipped | old_boxes.keys():
        outcome = _outcome(i, noisy, flipped, old_boxes, tf, tb)
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


@pytest.mark.parametrize("tf, tb", THRESHOLDS)
@pytest.mark.parametrize("policy", ["sample_existing", "uniform_fraction"])
def test_una_noise_is_the_errors_its_log_predicts_away_from_fabricated_boxes(policy, tf, tb):
    """All four kinds at once: a dropped box's detection is Bkg, whatever else happened to
    it, and a fabricated box is a Miss. A detection that a fabricated box meets at ``tb`` or
    more, its own ground truth and that fabricated box are left out and counted; every other
    label and Miss must be the predicted one, with every outcome among them."""
    ds, dets = _instance()
    noisy, log = inject(ds, NoiseConfig("una", RATIO, seed=13, loc_delta=0.7, bogus_size_policy=policy))
    flipped = {e.id for e in log.corrupted if e.old_category_id is not None}
    old_boxes = {e.id: e.old_bbox for e in log.corrupted if e.old_bbox is not None}
    removed, added = set(log.removed), set(log.added)
    fabricated = [noisy.annotations_by_id[i] for i in log.added]
    met = {(d, f.id) for d, det in enumerate(dets) for f in fabricated
           if f.image_id == det.image_id and iou(det.bbox, f.bbox) >= tb}
    left_dets = {d for d, _ in met}
    left_gts = {f for _, f in met} | {ds.annotations[d].id for d in left_dets}

    want_labels, want_miss = {}, added - left_gts
    for d, a in enumerate(ds.annotations):
        if d in left_dets:
            continue
        outcome = BKG if a.id in removed else _outcome(a.id, noisy, flipped, old_boxes, tf, tb)
        want_labels[d] = None if outcome == "tp" else outcome
        if a.id not in removed and outcome in (BOTH, BKG):
            want_miss.add(a.id)
    got = classify_errors(noisy, dets, tf, tb)
    assert {d: got.labels[d] for d in want_labels} == want_labels
    assert got.miss_ids - left_gts == want_miss
    # what the check covers: at most 20 of the 600 detections left out, every outcome checked
    checked = list(want_labels.values())
    assert len(checked) >= 580 and len(want_miss & added) >= 110, (len(left_dets), len(left_gts))
    assert all(checked.count(kind) > 0 for kind in (None, CLS, LOC, BOTH, BKG)), checked
    assert want_miss - added
