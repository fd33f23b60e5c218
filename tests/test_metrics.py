"""IoU, greedy matching, and interpolated AP against hand-computed cases
and the independent brute-force reference."""

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
    average_precision,
    evaluate,
    iou,
    match_greedy,
)

from unabench.metrics import RECALL_GRID, _columns, _first_reaching, _match, _ranked

from conftest import build_dataset, dets_from_gt, micro_instance, tied_crowd_instance
from reference import evaluate_ref


def _one_image_problem(gt_boxes, det_rows, n_cat=1):
    """One 100x100 image; det_rows are (box, score) or (box, score, cat)."""
    images = (ImageRecord(1, 100, 100, "a.jpg"),)
    categories = tuple(Category(c + 1, f"c{c + 1}") for c in range(n_cat))
    anns = tuple(
        Annotation(i + 1, 1, g[4] if len(g) > 4 else 1, BoundingBox(*g[:4]))
        for i, g in enumerate(gt_boxes)
    )
    dets = [
        Detection(1, row[2] if len(row) > 2 else 1, BoundingBox(*row[0]), row[1])
        for row in det_rows
    ]
    return Dataset(images, anns, categories), dets


# --- iou --------------------------------------------------------------------

def test_iou_identity():
    b = BoundingBox(3.0, 4.0, 17.0, 23.0)
    assert iou(b, b) == 1.0


def test_iou_disjoint():
    assert iou(BoundingBox(0, 0, 10, 10), BoundingBox(20, 20, 5, 5)) == 0.0


def test_iou_analytic_third():
    a = BoundingBox(0.0, 0.0, 10.0, 10.0)
    b = BoundingBox(5.0, 0.0, 10.0, 10.0)
    assert iou(a, b) == pytest.approx(1 / 3, abs=1e-12)


def test_iou_touching_edges_is_zero():
    a = BoundingBox(0.0, 0.0, 10.0, 10.0)
    b = BoundingBox(10.0, 0.0, 10.0, 10.0)
    assert iou(a, b) == 0.0


# --- greedy matching ---------------------------------------------------------

def test_match_simple_hit():
    ds, dets = _one_image_problem([(10, 10, 20, 20)], [((11, 11, 20, 20), 0.9)])
    m = match_greedy(dets, list(ds.annotations), 0.5)
    assert m.matched_gt == (1,)
    assert m.gt_matched_det == (0,)


def test_match_greedy_by_score_not_by_iou():
    # d1 (higher score, IoU .6) takes the gt; d2 (IoU .9) goes unmatched
    gt = [(10.0, 10.0, 20.0, 20.0)]
    d1 = ((10.0, 10.0, 20.0, 33.3), 0.9)   # IoU 0.6 with gt
    d2 = ((10.0, 10.0, 20.0, 22.2), 0.8)   # IoU 0.9 with gt
    ds, dets = _one_image_problem(gt, [d1, d2])
    assert iou(ds.annotations[0].bbox, dets[0].bbox) == pytest.approx(0.6, abs=0.01)
    assert iou(ds.annotations[0].bbox, dets[1].bbox) == pytest.approx(0.9, abs=0.01)
    m = match_greedy(dets, list(ds.annotations), 0.5)
    assert m.matched_gt == (1, None)


def test_match_equal_scores_follow_input_order():
    gt = [(10.0, 10.0, 20.0, 20.0)]
    rows = [((10.0, 10.0, 20.0, 20.0), 0.5), ((10.0, 10.0, 20.0, 21.0), 0.5)]
    ds, dets = _one_image_problem(gt, rows)
    m = match_greedy(dets, list(ds.annotations), 0.5)
    assert m.matched_gt == (1, None)


def test_match_prefers_highest_iou_free_gt():
    gt = [(0.0, 0.0, 10.0, 10.0), (0.0, 0.0, 10.0, 12.0)]
    rows = [((0.0, 0.0, 10.0, 12.1), 0.9)]
    ds, dets = _one_image_problem(gt, rows)
    m = match_greedy(dets, list(ds.annotations), 0.5)
    assert m.matched_gt == (2,)  # the second gt overlaps more


def test_match_injective_both_ways():
    rng = np.random.default_rng(5)
    for _ in range(100):
        ds, dets = micro_instance(rng)
        anns = [a for a in ds.annotations if a.image_id == 1 and a.category_id == 1]
        sub = sorted(
            (d for d in dets if d.image_id == 1 and d.category_id == 1),
            key=lambda d: -d.score,
        )
        m = match_greedy(sub, anns, 0.5)
        hit_gts = [g for g in m.matched_gt if g is not None]
        assert len(hit_gts) == len(set(hit_gts))
        hit_dets = [d for d in m.gt_matched_det if d is not None]
        assert len(hit_dets) == len(set(hit_dets))


def test_match_threshold_validated():
    with pytest.raises(ValueError, match="threshold"):
        match_greedy([], [], 0.0)


@pytest.mark.parametrize("box, error", [
    (BoundingBox("10", "10", "20", "20"), TypeError),
    (BoundingBox(10.0, 10.0, float("nan"), 20.0), ValueError),
], ids=["string", "nan"])
def test_match_reads_detection_boxes_as_evaluate_does(box, error):
    """A detection box of strings or with a NaN coordinate raises, as in ``evaluate``; it
    neither matches as numbers nor silently misses."""
    ds, _ = _one_image_problem([(10, 10, 20, 20)], [])
    dets = [Detection(1, 1, box, 0.9)]
    for run in (lambda: match_greedy(dets, list(ds.annotations), 0.5), lambda: evaluate(ds, dets)):
        with pytest.raises(error):
            run()


def test_match_reads_ground_truth_boxes_as_evaluate_does():
    gt = [Annotation(1, 1, 1, BoundingBox("10", "10", "20", "20"), area=400.0)]
    with pytest.raises(TypeError):
        match_greedy([Detection(1, 1, BoundingBox(10, 10, 20, 20), 0.9)], gt, 0.5)


# --- average precision fixtures ----------------------------------------------

def test_ap_perfect_single_detection():
    ds, dets = _one_image_problem([(10, 10, 20, 20)], [((10, 10, 20, 20), 1.0)])
    m = match_greedy(dets, list(ds.annotations), 0.5)
    assert average_precision([m], n_gt=1) == 1.0


def test_ap_two_gt_one_tp_is_51_over_101():
    ds, dets = _one_image_problem(
        [(10, 10, 20, 20), (60, 60, 20, 20)],
        [((10, 10, 20, 20), 0.9)],
    )
    m = match_greedy(dets, list(ds.annotations), 0.5)
    assert average_precision([m], n_gt=2) == pytest.approx(51 / 101, abs=1e-12)


def test_ap_fp_above_tp_is_half():
    ds, dets = _one_image_problem(
        [(10, 10, 20, 20)],
        [((60, 60, 20, 20), 0.9), ((10, 10, 20, 20), 0.8)],
    )
    m = match_greedy(dets, list(ds.annotations), 0.5)
    assert average_precision([m], n_gt=1) == pytest.approx(0.5, abs=1e-12)


def test_ap_zero_gt_is_zero():
    ds, dets = _one_image_problem([], [((10, 10, 20, 20), 0.9)])
    m = match_greedy(dets, [], 0.5)
    assert average_precision([m], n_gt=0) == 0.0
    assert average_precision([], n_gt=0) == 0.0


def test_ap_pools_across_images_by_score():
    # one TP per image; scores interleave with one FP between them
    images = (ImageRecord(1, 100, 100, "a.jpg"), ImageRecord(2, 100, 100, "b.jpg"))
    cats = (Category(1, "c"),)
    anns = (
        Annotation(1, 1, 1, BoundingBox(10, 10, 20, 20)),
        Annotation(2, 2, 1, BoundingBox(10, 10, 20, 20)),
    )
    ds = Dataset(images, anns, cats)
    m1 = match_greedy([Detection(1, 1, BoundingBox(10, 10, 20, 20), 0.9),
                       Detection(1, 1, BoundingBox(70, 70, 10, 10), 0.5)],
                      [anns[0]], 0.5)
    m2 = match_greedy([Detection(2, 1, BoundingBox(10, 10, 20, 20), 0.7)], [anns[1]], 0.5)
    # ranking: TP(.9), TP(.7), FP(.5) -> precision 1.0 up to full recall
    assert average_precision([m1, m2], n_gt=2) == 1.0


# --- evaluate ----------------------------------------------------------------

def test_evaluate_perfect_detector():
    ds = build_dataset(n_annotations=40, n_categories=4, seed=31, crowd_every=0)
    s = evaluate(ds, dets_from_gt(ds, score=1.0))
    assert s.ap == s.ap50 == s.ap75 == 1.0
    assert set(s.per_category) == {a.category_id for a in ds.annotations}
    for t in s.per_category.values():
        assert t.ap == t.ap50 == t.ap75 == 1.0


def test_evaluate_empty_detections():
    ds = build_dataset(n_annotations=10, seed=32)
    s = evaluate(ds, [])
    assert s.ap == s.ap50 == s.ap75 == 0.0
    assert s.n_detections == 0
    assert s.n_ground_truths == 10


def test_evaluate_no_ground_truth_at_all():
    images = (ImageRecord(1, 100, 100, "a.jpg"),)
    ds = Dataset(images, (), (Category(1, "c"),))
    s = evaluate(ds, [Detection(1, 1, BoundingBox(1, 1, 5, 5), 0.9)])
    assert s.ap == s.ap50 == s.ap75 == 0.0
    assert s.per_category == {}


def test_evaluate_crowd_excluded_from_gt_and_counts():
    ds = build_dataset(n_annotations=20, crowd_every=2, seed=33)
    s = evaluate(ds, dets_from_gt(ds, score=1.0))
    assert s.n_ground_truths == 10
    assert s.ap == 1.0


def test_evaluate_detection_on_crowd_only_category_is_fp():
    # category 2 has only a crowd gt; detections there count as FPs and the
    # category is skipped in the mean (no eligible gt)
    images = (ImageRecord(1, 100, 100, "a.jpg"),)
    cats = (Category(1, "c1"), Category(2, "c2"))
    anns = (
        Annotation(1, 1, 1, BoundingBox(10, 10, 20, 20)),
        Annotation(2, 1, 2, BoundingBox(50, 50, 20, 20), crowd_flag=True),
    )
    ds = Dataset(images, anns, cats)
    dets = [
        Detection(1, 1, BoundingBox(10, 10, 20, 20), 0.9),
        Detection(1, 2, BoundingBox(50, 50, 20, 20), 0.8),
    ]
    s = evaluate(ds, dets)
    assert s.ap == 1.0
    assert 2 not in s.per_category


def test_evaluate_order_invariant_for_distinct_scores():
    rng = np.random.default_rng(34)
    ds, dets = micro_instance(rng)
    while len(dets) < 4:
        ds, dets = micro_instance(rng)
    s1 = evaluate(ds, dets)
    s2 = evaluate(ds, list(reversed(dets)))
    assert s1.ap == s2.ap and s1.ap50 == s2.ap50 and s1.ap75 == s2.ap75


def test_evaluate_ap50_at_least_ap75():
    rng = np.random.default_rng(35)
    for _ in range(200):
        ds, dets = micro_instance(rng)
        s = evaluate(ds, dets)
        assert s.ap50 >= s.ap75
        assert 0.0 <= s.ap <= 1.0
        assert s.ap <= s.ap50  # the mean over thresholds can't beat the loosest one


def test_evaluate_top100_per_image_cap():
    # 100 high-scoring far-off FPs push the low-scoring TP out of the image budget
    gt = [(10.0, 10.0, 20.0, 20.0)]
    rows = [((60.0, 60.0, 5.0, 5.0), 0.9 - i * 1e-4) for i in range(100)]
    rows.append(((10.0, 10.0, 20.0, 20.0), 0.01))
    ds, dets = _one_image_problem(gt, rows)
    s = evaluate(ds, dets)
    assert s.n_detections == 100
    assert s.ap50 == 0.0
    # without the tail FP pressure the TP is kept
    s2 = evaluate(ds, dets[:50] + [dets[-1]])
    assert s2.ap50 > 0.0


def test_evaluate_matches_reference_oracle_quick():
    rng = np.random.default_rng(36)
    for _ in range(150):
        ds, dets = micro_instance(rng)
        mine = evaluate(ds, dets)
        ref = evaluate_ref(ds, dets)
        assert mine.ap == pytest.approx(ref["overall"]["ap"], abs=1e-9)
        assert mine.ap50 == pytest.approx(ref["overall"]["ap50"], abs=1e-9)
        assert mine.ap75 == pytest.approx(ref["overall"]["ap75"], abs=1e-9)
        for cat, triple in mine.per_category.items():
            assert triple.ap == pytest.approx(ref["per_category"][cat]["ap"], abs=1e-9)


@pytest.mark.parametrize("max_dets", [100, 3])
def test_evaluate_matches_reference_with_ties_crowd_and_cap(max_dets):
    rng = np.random.default_rng(57)
    for _ in range(150):
        ds, dets = tied_crowd_instance(rng)
        mine = evaluate(ds, dets, max_dets=max_dets)
        ref = evaluate_ref(ds, dets, max_dets=max_dets)
        for key in ("ap", "ap50", "ap75"):
            assert getattr(mine, key) == pytest.approx(ref["overall"][key], abs=1e-9)
        assert mine.per_category.keys() == ref["per_category"].keys()
        for cat, triple in mine.per_category.items():
            for key in ("ap", "ap50", "ap75"):
                assert getattr(triple, key) == pytest.approx(ref["per_category"][cat][key], abs=1e-9)


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_capped_matching_is_a_prefix_of_uncapped_matching(cap):
    # TIDE reads its capped AP50 baseline off one uncapped match
    rng = np.random.default_rng(101 + cap)
    cut = 0
    for _ in range(300):
        ds, dets = tied_crowd_instance(rng)
        g, d = ds._table.non_crowd(), _columns(dets)
        kept = _ranked(d, cap)
        full = _match(g, d, _ranked(d, None), IOU_THRESHOLDS)
        np.testing.assert_array_equal(full[kept], _match(g, d, kept, IOU_THRESHOLDS)[kept])
        cut += len(dets) - len(kept)
    assert cut > 0


@pytest.mark.parametrize("cap", [1, 2, 3, None])
def test_ranked_is_score_then_input_order_capped_per_image(cap):
    rng = np.random.default_rng(211 + (cap or 0))
    cut = 0
    for _ in range(300):
        _, dets = tied_crowd_instance(rng)
        order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
        seen: dict[int, int] = {}
        expected = []
        for i in order:
            seen[dets[i].image_id] = seen.get(dets[i].image_id, 0) + 1
            if cap is None or seen[dets[i].image_id] <= cap:
                expected.append(i)
        assert _ranked(_columns(dets), cap).tolist() == expected
        cut += len(dets) - len(expected)
    assert (cut > 0) == (cap is not None)


def test_threshold_grids_are_exact():
    assert IOU_THRESHOLDS == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)


def test_first_reaching_is_the_least_count_whose_recall_reaches_the_grid():
    """AP reads each grid recall at the first TP whose float recall k / n reaches it."""
    for n, reach in zip(range(1, 3001), _first_reaching(np.arange(1, 3001))):
        assert reach.tolist() == np.searchsorted(np.arange(n + 1) / n, RECALL_GRID, side="left").tolist()
    grid = np.array(RECALL_GRID)
    large = np.array([2 ** 40 + 7, 10 ** 12, 2 ** 51 - 1])
    for n, k in zip(large.tolist(), _first_reaching(large)):
        assert ((k / n >= grid) & ((k - 1) / n < grid)).all()
