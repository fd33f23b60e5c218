"""Error classification, oracle fixes, and the per-component report."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from unabench import (
    Annotation,
    BoundingBox,
    Category,
    Dataset,
    Detection,
    ErrorKind,
    ImageRecord,
    apply_oracle,
    classify_errors,
    evaluate,
    parse_dataset,
    parse_detections,
    tide_report,
)
from unabench.tide import ERROR_ORDER

from conftest import build_dataset, dets_from_gt, micro_instance


def _scene(gt_rows, det_rows, n_cat=3):
    """One 100x100 image; rows are (x, y, w, h, category)."""
    images = (ImageRecord(1, 100, 100, "a.jpg"),)
    cats = tuple(Category(c + 1, f"c{c + 1}") for c in range(n_cat))
    anns = tuple(
        Annotation(i + 1, 1, int(r[4]), BoundingBox(*map(float, r[:4])))
        for i, r in enumerate(gt_rows)
    )
    dets = [
        Detection(1, int(r[4]), BoundingBox(*map(float, r[:4])), float(r[5]))
        for r in det_rows
    ]
    return Dataset(images, anns, cats), dets


# --- threshold validation ------------------------------------------------------

def test_thresholds_validated():
    ds, dets = _scene([(0, 0, 10, 10, 1)], [])
    with pytest.raises(ValueError):
        classify_errors(ds, dets, tf=0.5, tb=0.5)
    with pytest.raises(ValueError):
        tide_report(ds, dets, tf=0.5, tb=0.6)


# --- hand-traced fixtures ------------------------------------------------------

def test_wrong_class_same_box_is_cls_and_gt_not_miss():
    ds, dets = _scene([(0, 0, 10, 10, 1)], [(0, 0, 10, 10, 2, 0.9)])
    a = classify_errors(ds, dets)
    assert a.labels == (ErrorKind.CLS,)
    assert a.cls_targets == {0: 1}
    assert a.miss_ids == frozenset()


def test_cls_oracle_fix_reaches_full_score():
    ds, dets = _scene([(0, 0, 10, 10, 1)], [(0, 0, 10, 10, 2, 0.9)])
    a = classify_errors(ds, dets)
    gt2, dets2 = apply_oracle(ds, dets, a, ErrorKind.CLS)
    assert gt2 is ds
    assert dets2[0].category_id == 1
    assert evaluate(gt2, dets2).ap50 == 1.0


def test_single_cls_report():
    ds, dets = _scene([(0, 0, 10, 10, 1)], [(0, 0, 10, 10, 2, 0.9)])
    r = tide_report(ds, dets)
    assert r.baseline_ap50 == 0.0
    assert r.oracle_ap[ErrorKind.CLS] == 1.0
    assert r.delta_ap[ErrorKind.CLS] == 1.0
    for kind in ERROR_ORDER:
        if kind is not ErrorKind.CLS:
            assert r.delta_ap[kind] == 0.0
    assert r.counts[ErrorKind.CLS] == 1
    assert sum(r.counts.values()) == 1


def test_disjoint_detection_is_bkg_and_gt_is_miss():
    ds, dets = _scene([(0, 0, 10, 10, 1)], [(20, 20, 5, 5, 1, 0.9)])
    a = classify_errors(ds, dets)
    assert a.labels == (ErrorKind.BKG,)
    assert a.miss_ids == frozenset({1})


def test_miss_oracle_empties_gt_but_keeps_detection():
    ds, dets = _scene([(0, 0, 10, 10, 1)], [(20, 20, 5, 5, 1, 0.9)])
    a = classify_errors(ds, dets)
    gt2, dets2 = apply_oracle(ds, dets, a, ErrorKind.MISS)
    assert gt2.annotations == ()
    assert dets2 == dets


def test_second_same_class_hit_is_dupe():
    ds, dets = _scene(
        [(0, 0, 10, 10, 1)],
        [(0, 0, 10, 10, 1, 0.9), (0, 0, 10, 10, 1, 0.8)],
    )
    a = classify_errors(ds, dets)
    assert a.labels == (None, ErrorKind.DUPE)
    assert a.matched_gt == (1, None)


def test_loc_band_and_oracle_snap():
    # nested box, IoU 0.3: same class, inside [tb, tf)
    ds, dets = _scene([(0, 0, 10, 10, 1)], [(0, 0, 10, 3, 1, 0.9)])
    a = classify_errors(ds, dets)
    assert a.labels == (ErrorKind.LOC,)
    assert a.loc_targets == {0: 1}
    assert a.miss_ids == frozenset()  # covered by its own Loc detection
    gt2, dets2 = apply_oracle(ds, dets, a, ErrorKind.LOC)
    assert dets2[0].bbox == ds.annotations[0].bbox
    assert evaluate(gt2, dets2).ap50 == 1.0


def test_both_band():
    # different class, IoU 0.3, no same-class gt anywhere near
    ds, dets = _scene([(0, 0, 10, 10, 2)], [(0, 0, 10, 3, 3, 0.9)])
    a = classify_errors(ds, dets)
    assert a.labels == (ErrorKind.BOTH,)
    # Both detections do not shield the gt from Miss
    assert a.miss_ids == frozenset({1})


def test_cls_rule_beats_loc_band():
    # diff-class overlap at 1.0 wins over a same-class 0.3 overlap
    ds, dets = _scene(
        [(0, 0, 10, 10, 2), (0, 0, 10, 3, 1)],
        [(0, 0, 10, 10, 1, 0.9)],
    )
    a = classify_errors(ds, dets)
    assert a.labels == (ErrorKind.CLS,)
    assert a.cls_targets == {0: 1}
    # both gts overlap the Cls detection at >= tb, so neither is Miss
    assert a.miss_ids == frozenset()


def test_crowd_gt_invisible_to_classification():
    images = (ImageRecord(1, 100, 100, "a.jpg"),)
    cats = (Category(1, "c1"),)
    anns = (Annotation(1, 1, 1, BoundingBox(0, 0, 10, 10), crowd_flag=True),)
    ds = Dataset(images, anns, cats)
    dets = [Detection(1, 1, BoundingBox(0, 0, 10, 10), 0.9)]
    a = classify_errors(ds, dets)
    assert a.labels == (ErrorKind.BKG,)
    assert a.miss_ids == frozenset()


def test_oracles_leave_capped_out_detections_out():
    # one TP, 100 background detections ranked below it, and a Cls error on
    # the free cat-2 gt ranked last, so the per-image cap drops it
    gt_rows = [(10, 10, 20, 20, 1), (60, 60, 20, 20, 2)]
    det_rows = [(10, 10, 20, 20, 1, 0.9)]
    det_rows += [(0.5 * k % 90, 85, 5, 5, 3, 0.5) for k in range(100)]
    det_rows += [(60, 60, 20, 20, 1, 0.1)]
    ds, dets = _scene(gt_rows, det_rows)
    labels = classify_errors(ds, dets)
    assert labels.labels[-1] is ErrorKind.CLS
    r = tide_report(ds, dets)
    assert r.baseline_ap50 == pytest.approx(0.5)
    fixed_ds, fixed_dets = apply_oracle(ds, dets, labels, ErrorKind.CLS)
    assert evaluate(fixed_ds, fixed_dets).ap50 == pytest.approx(0.5)
    assert r.oracle_ap[ErrorKind.CLS] == pytest.approx(0.5)


def test_perfect_detections_all_zero():
    ds = build_dataset(n_annotations=30, n_categories=3, seed=41)
    r = tide_report(ds, dets_from_gt(ds, score=0.9))
    assert r.baseline_ap50 == 1.0
    for kind in ERROR_ORDER:
        assert r.delta_ap[kind] == 0.0
        assert r.oracle_ap[kind] == 1.0
        assert r.counts[kind] == 0


def test_apply_oracle_identity_when_kind_absent():
    ds, dets = _scene([(0, 0, 10, 10, 1)], [(0, 0, 10, 10, 2, 0.9)])
    a = classify_errors(ds, dets)
    for kind in (ErrorKind.LOC, ErrorKind.BOTH, ErrorKind.DUPE, ErrorKind.BKG,
                 ErrorKind.MISS):
        gt2, dets2 = apply_oracle(ds, dets, a, kind)
        assert gt2.annotations == ds.annotations
        assert dets2 == dets


def test_report_thresholds_echoed():
    ds, dets = _scene([(0, 0, 10, 10, 1)], [(0, 0, 10, 10, 1, 0.9)])
    r = tide_report(ds, dets, tf=0.6, tb=0.2)
    assert r.tf == 0.6 and r.tb == 0.2


# --- property sweeps -----------------------------------------------------------

def test_labels_exhaustive_and_exclusive():
    rng = np.random.default_rng(42)
    kinds_fp = {ErrorKind.CLS, ErrorKind.LOC, ErrorKind.BOTH, ErrorKind.DUPE,
                ErrorKind.BKG}
    for _ in range(300):
        ds, dets = micro_instance(rng)
        a = classify_errors(ds, dets)
        assert len(a.labels) == len(dets)
        for lab, matched in zip(a.labels, a.matched_gt):
            if matched is not None:
                assert lab is None
            else:
                assert lab in kinds_fp
        gt_ids = {g.id for g in ds.non_crowd}
        assert a.miss_ids <= gt_ids
        matched_ids = {g for g in a.matched_gt if g is not None}
        assert not (a.miss_ids & matched_ids)
        for kind in kinds_fp:
            assert a.count(kind) == sum(1 for lab in a.labels if lab is kind)
        assert a.count(ErrorKind.MISS) == len(a.miss_ids)


def test_deltas_nonnegative_and_baseline_matches_evaluate():
    rng = np.random.default_rng(43)
    for i in range(300):
        ds, dets = micro_instance(rng)
        tf, tb = (0.5, 0.1) if i % 3 else (0.7, 0.2)
        r = tide_report(ds, dets, tf=tf, tb=tb)
        assert r.baseline_ap50 == evaluate(ds, dets).ap50
        for kind in ERROR_ORDER:
            assert r.delta_ap[kind] >= 0.0, (i, kind)
            assert 0.0 <= r.oracle_ap[kind] <= 1.0


def test_deleting_oracles_equal_plain_reevaluation():
    rng = np.random.default_rng(44)
    for _ in range(150):
        ds, dets = micro_instance(rng)
        a = classify_errors(ds, dets)
        r = tide_report(ds, dets)
        for kind in (ErrorKind.BOTH, ErrorKind.DUPE, ErrorKind.BKG, ErrorKind.MISS):
            gt2, dets2 = apply_oracle(ds, dets, a, kind)
            assert r.oracle_ap[kind] == evaluate(gt2, dets2).ap50, kind


def test_fix_oracles_never_below_reevaluation_baseline():
    # the Cls/Loc oracles fix detections in place; their score can only move
    # up from the baseline, and the fixed data re-evaluated stays within reach
    rng = np.random.default_rng(45)
    for _ in range(150):
        ds, dets = micro_instance(rng)
        r = tide_report(ds, dets)
        for kind in (ErrorKind.CLS, ErrorKind.LOC):
            assert r.oracle_ap[kind] >= r.baseline_ap50


def test_error_order_is_fixed():
    assert tuple(k.value for k in ERROR_ORDER) == (
        "cls", "loc", "both", "dupe", "bkg", "miss")


# --- detection ids --------------------------------------------------------------

def _micro():
    data = Path(__file__).parent / "data"
    ds = parse_dataset((data / "micro_gt.json").read_bytes())
    return ds, parse_detections((data / "micro_dt.json").read_bytes(), ds)


@pytest.mark.parametrize("odd", [lambda i: i + 0.7, str], ids=["float", "string"])
def test_scoring_refuses_a_detection_id_that_is_no_integer(odd):
    """A float or string image id is no integer: evaluate, classify_errors and tide_report
    raise, as they do for such a ground-truth id, instead of reading it as an int."""
    ds, dets = _micro()
    shifted = [replace(d, image_id=odd(d.image_id)) for d in dets]
    for score in (evaluate, classify_errors, tide_report):
        with pytest.raises(TypeError, match="not an integer column"):
            score(ds, shifted)
        with pytest.raises(TypeError, match="not an integer column"):
            score(ds, [replace(d, category_id=odd(d.category_id)) for d in dets])


def test_numpy_integer_detection_ids_score_as_python_ints():
    ds, dets = _micro()
    numpy_ids = [replace(d, image_id=np.int64(d.image_id), category_id=np.int32(d.category_id)) for d in dets]
    for score in (evaluate, classify_errors, tide_report):
        assert score(ds, numpy_ids) == score(ds, dets)
