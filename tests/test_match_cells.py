"""Matching and error labels on hand-built cells, against the scalar reference.

IoUs exactly at a threshold (every floor is inclusive), tied IoUs, a ground
truth taken at 0.5 but free at 0.75, and one image x category cell with more
(detection, ground truth) pairs than a classification chunk holds.
"""

from dataclasses import replace

import numpy as np
import pytest

from unabench import (
    Annotation,
    BoundingBox,
    Category,
    Dataset,
    Detection,
    ImageRecord,
    IOU_THRESHOLDS,
    classify_errors,
    evaluate,
    match_greedy,
    tide,
    tide_report,
)

from conftest import capped_tie_instance
from reference import ap_from_points, classify_ref, evaluate_ref, greedy_ref, iou_ref


def _dataset(gt_rows, n_images=1, n_cat=2, size=(100, 100)):
    """``gt_rows`` are (image, category, (x, y, w, h)); annotation ids count from 1."""
    images = tuple(ImageRecord(i + 1, *size, f"{i + 1}.jpg") for i in range(n_images))
    anns = tuple(Annotation(k + 1, img, cat, BoundingBox(*map(float, box)))
                 for k, (img, cat, box) in enumerate(gt_rows))
    return Dataset(images, anns, tuple(Category(c + 1, f"c{c + 1}") for c in range(n_cat)))


def _dets(rows):
    """``rows`` are (image, category, (x, y, w, h), score)."""
    return [Detection(img, cat, BoundingBox(*map(float, box)), score) for img, cat, box, score in rows]


def _assert_matches_reference(ds, dets, tfs=(0.5, 0.75), tb=0.1):
    mine, ref = evaluate(ds, dets), evaluate_ref(ds, dets)
    for key in ("ap", "ap50", "ap75"):
        assert getattr(mine, key) == pytest.approx(ref["overall"][key], abs=1e-12)
    assert mine.per_category.keys() == ref["per_category"].keys()
    for cat, triple in mine.per_category.items():
        for key in ("ap", "ap50", "ap75"):
            assert getattr(triple, key) == pytest.approx(ref["per_category"][cat][key], abs=1e-12)
    for tf in tfs:
        got = classify_errors(ds, dets, tf, tb)
        labels, targets, miss = classify_ref(ds, dets, got.matched_gt, tf, tb)
        assert [kind and kind.value for kind in got.labels] == labels
        assert {**got.cls_targets, **got.loc_targets} == targets
        assert got.miss_ids == miss


# IoU against the ground truth (0, 0, 10, 10) of a box (0, 0, 10, h) is exactly h / 10
_EXACT = {0.1: 1.0, 0.5: 5.0, 0.75: 7.5, 0.95: 9.5}


def test_iou_exactly_at_a_threshold_matches():
    assert all(iou_ref((0, 0, 10, 10), (0, 0, 10, h)) == v for v, h in _EXACT.items())
    ds = _dataset([(i + 1, 1, (0, 0, 10, 10)) for i in range(len(_EXACT))], n_images=len(_EXACT))
    dets = _dets([(i + 1, 1, (0, 0, 10, h), 0.9) for i, h in enumerate(_EXACT.values())])
    for i, v in enumerate(_EXACT):
        one = evaluate(_dataset([(1, 1, (0, 0, 10, 10))]), _dets([(1, 1, (0, 0, 10, _EXACT[v]), 0.9)]))
        assert one.ap == sum(t <= v for t in IOU_THRESHOLDS) / len(IOU_THRESHOLDS)
        assert (one.ap50, one.ap75) == (float(v >= 0.5), float(v >= 0.75))
        for t in IOU_THRESHOLDS:
            assert (match_greedy(dets[i:i + 1], [ds.annotations[i]], t).matched_gt[0] is not None) == (v >= t)
    _assert_matches_reference(ds, dets)


def test_iou_exactly_at_tf_and_tb_labels():
    # gt 1 (class 1) and gt 2 (class 2) sit on separate images
    ds = _dataset([(1, 1, (0, 0, 10, 10)), (2, 2, (0, 0, 10, 10))], n_images=2)
    dets = _dets([
        (1, 1, (0, 0, 10, 1.0), 0.9),    # same class at exactly tb: Loc
        (1, 1, (0, 0, 10, 0.99), 0.8),   # same class just under tb: Bkg
        (2, 1, (0, 0, 10, 5.0), 0.7),    # other class at exactly tf: Cls
        (2, 1, (0, 0, 10, 1.0), 0.6),    # other class at exactly tb: Both
    ])
    got = classify_errors(ds, dets, 0.5, 0.1)
    assert [kind.value for kind in got.labels] == ["loc", "bkg", "cls", "both"]
    assert got.loc_targets == {0: 1} and got.cls_targets == {2: 2}
    assert got.miss_ids == frozenset()  # each gt is covered at >= tb by its Loc or Cls detection
    assert tide_report(ds, dets).counts[tide.ErrorKind.MISS] == 0
    _assert_matches_reference(ds, dets, tfs=(0.5,))


@pytest.mark.parametrize("flip", [False, True])
def test_tied_ious_take_the_first_ground_truth(flip):
    # the detection box overlaps both ground truths at the same IoU, 97.5 / 102.5
    a, b = (1, 1, (0, 0, 10, 10)), (1, 1, (0, 0.5, 10, 10))
    ds = _dataset([b, a] if flip else [a, b])
    box = (0, 0.25, 10, 10)
    assert iou_ref(box, a[2]) == iou_ref(box, b[2]) > 0.95
    dets = _dets([(1, 1, box, 0.9), (1, 1, box, 0.9), (1, 1, box, 0.8)])
    for t in IOU_THRESHOLDS:
        assert match_greedy(dets, list(ds.annotations), t).matched_gt == (1, 2, None)
    assert classify_errors(ds, dets).matched_gt == (1, 2, None)
    _assert_matches_reference(ds, dets)


def test_ground_truth_taken_at_half_is_free_at_three_quarters():
    ds = _dataset([(1, 1, (0, 0, 10, 10))])
    dets = _dets([(1, 1, (0, 0, 10, 6), 0.9), (1, 1, (0, 0, 10, 8), 0.8)])  # IoU 0.6, then 0.8
    got = evaluate(ds, dets)
    # AP 1 at 0.5-0.6, 0.5 at 0.65-0.8 (the second detection takes the gt), 0 above
    assert (got.ap, got.ap50, got.ap75) == (pytest.approx(0.5, abs=1e-12), 1.0, 0.5)
    assert classify_errors(ds, dets, 0.5).matched_gt == (1, None)
    assert classify_errors(ds, dets, 0.75).matched_gt == (None, 1)
    _assert_matches_reference(ds, dets)


def _crowded_cell():
    """One 640x480 image: 660 class-1 ground truths on a 21 px grid, 130 jittered class-1
    copies scored in tenths (ties) and 20 class-2 copies scored 0. Its class-1 cell
    holds 66,000 pairs under the cap of 100, more than one classification chunk."""
    rng = np.random.default_rng(660)
    grid = [(21.0 * i, 21.0 * j, 20.0, 20.0) for j in range(22) for i in range(30)]
    ds = _dataset([(1, 1, box) for box in grid], size=(640, 480))
    rows = []
    for k, g in enumerate(rng.integers(0, len(grid), 150).tolist()):
        x, y, w, h = grid[g]
        dx, dy = rng.uniform(-6, 6, 2).tolist()
        sw, sh = rng.uniform(0.8, 1.25, 2).tolist()
        score = round(float(rng.uniform(0.1, 1.0)), 1) if k < 130 else 0.0
        rows.append((1, 1 if k < 130 else 2, (x + dx, y + dy, w * sw, h * sh), score))
    return ds, _dets(rows)


def test_cell_larger_than_a_pair_chunk():
    ds, dets = _crowded_cell()
    assert 100 * len(ds.annotations) > tide._PAIR_CHUNK
    assert classify_errors(ds, dets, 0.75).matched_gt.count(None) * len(ds.annotations) > tide._PAIR_CHUNK
    gt_boxes = [a.bbox.as_list() for a in ds.annotations]
    ranked = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    same = [i for i in ranked if dets[i].category_id == 1]
    for tf in (0.5, 0.75):
        got = classify_errors(ds, dets, tf, 0.1)
        want = [None] * len(dets)
        for i, m in zip(same, greedy_ref([dets[i].bbox.as_list() for i in same], gt_boxes, tf)):
            want[i] = None if m is None else ds.annotations[m].id
        assert list(got.matched_gt) == want
        labels, targets, miss = classify_ref(ds, dets, got.matched_gt, tf, 0.1)
        assert [kind and kind.value for kind in got.labels] == labels
        assert {**got.cls_targets, **got.loc_targets} == targets
        assert got.miss_ids == miss
    # AP of the class-1 cell: the capped detections' greedy flags give every PR point
    capped = [i for i in ranked[:100] if dets[i].category_id == 1]
    aps = []
    for t in IOU_THRESHOLDS:
        flags = [m is not None for m in greedy_ref([dets[i].bbox.as_list() for i in capped], gt_boxes, t)]
        tp = np.cumsum(flags).tolist()
        aps.append(ap_from_points([(n / k, n / len(gt_boxes)) for k, n in enumerate(tp, 1)]))
    got = evaluate(ds, dets).per_category[1]
    assert got.ap == pytest.approx(sum(aps) / len(aps), abs=1e-12)
    assert (got.ap50, got.ap75) == (pytest.approx(aps[0], abs=1e-12), pytest.approx(aps[5], abs=1e-12))
    assert 0 < aps[5] < aps[0]


def test_ids_far_apart_score_as_compact_ids():
    """Image and category ids spread over the int64 range make the cell keys number the
    ids first; the scores are those of the same data with small ids."""
    ds, dets = capped_tie_instance()
    images = {1: -2 ** 62, 2: 7, 3: 2 ** 40, 4: 2 ** 62}
    cats = {1: -5, 2: 2 ** 61, 3: 2 ** 62 + 3}
    far = Dataset(tuple(replace(im, id=images[im.id]) for im in ds.images),
                  tuple(replace(a, image_id=images[a.image_id], category_id=cats[a.category_id])
                        for a in ds.annotations),
                  tuple(replace(c, id=cats[c.id]) for c in ds.categories))
    far_dets = [replace(d, image_id=images[d.image_id], category_id=cats[d.category_id]) for d in dets]
    near, got = evaluate(ds, dets), evaluate(far, far_dets)
    assert (got.ap, got.ap50, got.ap75) == (near.ap, near.ap50, near.ap75)
    assert got.per_category == {cats[c]: t for c, t in near.per_category.items()}
    for tf in (0.5, 0.75):
        assert classify_errors(far, far_dets, tf) == classify_errors(ds, dets, tf)
        assert tide_report(far, far_dets, tf, 0.1) == tide_report(ds, dets, tf, 0.1)
