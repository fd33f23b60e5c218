"""Independent reference implementations used only as test oracles.

Nothing here imports from the package's internals beyond the public data
types. The evaluator re-derives AP the slow way (re-matching every ranked
prefix from scratch and taking maxima over explicit PR points) so that it
shares no code path, no cumulative-sum trick, and no envelope logic with
the fast implementation it checks.
"""

from __future__ import annotations

import random

IOU_GRID = [round(0.50 + 0.05 * i, 2) for i in range(10)]
RECALL_GRID = [round(0.01 * i, 2) for i in range(101)]


def iou_ref(a, b) -> float:
    """IoU from corner arithmetic; ``a``/``b`` are (x, y, w, h) tuples."""
    ax1, ay1, ax2, ay2 = a[0], a[1], a[0] + a[2], a[1] + a[3]
    bx1, by1, bx2, by2 = b[0], b[1], b[0] + b[2], b[1] + b[3]
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a[2] * a[3] + b[2] * b[3] - inter
    return inter / union


def greedy_ref(order, gt_boxes, threshold) -> list:
    """Greedy-match the given detection boxes in order: each takes the free ground
    truth of highest IoU >= ``threshold``, the first one on ties. Returns each
    detection's matched ``gt_boxes`` index, or None."""
    taken = [False] * len(gt_boxes)
    matched = []
    for box in order:
        best, best_iou = None, threshold
        for j, g in enumerate(gt_boxes):
            if taken[j]:
                continue
            v = iou_ref(box, g)
            if v > best_iou or (best is None and v >= threshold):
                best, best_iou = j, v
        if best is not None:
            taken[best] = True
        matched.append(best)
    return matched


def _match_count(order, gt_boxes, threshold) -> int:
    """Greedy-match the given detection boxes in order; count matches."""
    return sum(m is not None for m in greedy_ref(order, gt_boxes, threshold))


def ap_from_points(points) -> float:
    """Mean over the 101 recall grid of the best precision among the explicit
    (precision, recall) ``points`` at or beyond each recall; 0 where none is."""
    ap = 0.0
    for r in RECALL_GRID:
        feasible = [p for p, q in points if q >= r]
        ap += max(feasible) if feasible else 0.0
    return ap / len(RECALL_GRID)


def evaluate_ref(gt, dets, max_dets: int = 100) -> dict:
    """Reference AP: per category, per threshold, via full PR enumeration.

    For every prefix of the category's score-ranked detections the matching
    is recomputed from scratch, yielding one explicit (precision, recall)
    point; AP is the mean over the 101 recall grid of the best precision at
    or beyond each recall. Returns overall and per-category (ap, ap50, ap75).
    """
    rows = list(enumerate(dets))
    by_image: dict = {}
    for i, d in rows:
        by_image.setdefault(d.image_id, []).append((i, d))
    kept = []
    for img in by_image:
        cell = sorted(by_image[img], key=lambda r: (-r[1].score, r[0]))[:max_dets]
        kept.extend(cell)

    gt_pool = [a for a in gt.annotations if not a.crowd_flag]
    cats = sorted({a.category_id for a in gt_pool})

    per_category = {}
    for cat in cats:
        cat_dets = sorted(
            ((i, d) for i, d in kept if d.category_id == cat),
            key=lambda r: (-r[1].score, r[0]),
        )
        cat_gts: dict = {}
        for a in gt_pool:
            if a.category_id == cat:
                cat_gts.setdefault(a.image_id, []).append(
                    (a.bbox.x, a.bbox.y, a.bbox.w, a.bbox.h)
                )
        n_gt = sum(len(v) for v in cat_gts.values())
        aps = []
        for t in IOU_GRID:
            points = []
            for k in range(1, len(cat_dets) + 1):
                prefix = cat_dets[:k]
                tp = 0
                for img in {d.image_id for _, d in prefix}:
                    boxes = [
                        (d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h)
                        for _, d in prefix
                        if d.image_id == img
                    ]
                    tp += _match_count(boxes, cat_gts.get(img, []), t)
                points.append((tp / k, tp / n_gt))
            aps.append(ap_from_points(points))
        per_category[cat] = {
            "ap": sum(aps) / len(aps),
            "ap50": aps[0],
            "ap75": aps[5],
        }

    if per_category:
        overall = {
            key: sum(v[key] for v in per_category.values()) / len(per_category)
            for key in ("ap", "ap50", "ap75")
        }
    else:
        overall = {"ap": 0.0, "ap50": 0.0, "ap75": 0.0}
    return {"overall": overall, "per_category": per_category}


def simulate_mean_iou(
    delta: float,
    box: tuple[float, float, float, float] = (100.0, 100.0, 50.0, 50.0),
    img_w: float = 640.0,
    img_h: float = 480.0,
    n_draws: int = 10_000,
    seed: int = 1,
    max_attempts: int = 32,
) -> float:
    """Monte-Carlo mean IoU of the documented box-jitter scheme.

    This is the pre-build oracle that generated the frozen calibration band:
    with the defaults above and delta 0.4, 400,000 draws at seeds 1, 2, 3
    gave means 0.44764, 0.44780, 0.44780. It deliberately uses the stdlib
    generator, not the package's streams.
    """
    rnd = random.Random(seed)
    x, y, w, h = box
    cx0, cy0 = x + w / 2.0, y + h / 2.0
    total = 0.0
    for _ in range(n_draws):
        result = None
        cand = (cx0, cy0, w, h)
        for _ in range(max_attempts):
            u1 = rnd.uniform(-1.0, 1.0)
            u2 = rnd.uniform(-1.0, 1.0)
            u3 = rnd.uniform(-1.0, 1.0)
            u4 = rnd.uniform(-1.0, 1.0)
            cx = cx0 + u1 * delta * w
            cy = cy0 + u2 * delta * h
            nw = w * (1.0 + u3 * delta)
            nh = h * (1.0 + u4 * delta)
            cand = (cx, cy, nw, nh)
            x1, y1 = max(0.0, cx - nw / 2.0), max(0.0, cy - nh / 2.0)
            x2, y2 = min(img_w, cx + nw / 2.0), min(img_h, cy + nh / 2.0)
            if x2 - x1 < 1.0 or y2 - y1 < 1.0:
                continue
            v = iou_ref(box, (x1, y1, x2 - x1, y2 - y1))
            if 0.0 < v < 1.0:
                result = (x1, y1, x2 - x1, y2 - y1)
                break
        if result is None:
            cx, cy, nw, nh = cand
            nw = min(max(nw, 1.0), img_w)
            nh = min(max(nh, 1.0), img_h)
            fx = min(max(cx - nw / 2.0, 0.0), img_w - nw)
            fy = min(max(cy - nh / 2.0, 0.0), img_h - nh)
            result = (fx, fy, nw, nh)
        total += iou_ref(box, result)
    return total / n_draws


_ERROR_RULES = ("cls", "loc", "both", "dupe", "bkg")


def classify_ref(gt, dets, matched_gt, tf: float, tb: float):
    """The error rules of ``classify_errors``, one detection and one ground truth at a time.

    ``matched_gt`` gives each detection's matched annotation id at ``tf`` (None for
    none). Returns each detection's label (an error kind's value, None when matched),
    the Cls/Loc targets by detection index (the first ground truth, in record order,
    with the best IoU among those of another class for Cls, of the same class for Loc)
    and the ids of the missed ground truths.
    """
    pool = [a for a in gt.annotations if not a.crowd_flag]
    taken = {m for m in matched_gt if m is not None}
    labels, targets, covered = [], {}, set()
    for i, (d, m) in enumerate(zip(dets, matched_gt)):
        if m is not None:
            labels.append(None)
            continue
        best, first, dupe, near = {True: 0.0, False: 0.0}, {True: None, False: None}, 0.0, []
        for a in pool:
            if a.image_id != d.image_id:
                continue
            v = iou_ref(d.bbox.as_list(), a.bbox.as_list())
            same = a.category_id == d.category_id
            if first[same] is None or v > best[same]:
                best[same], first[same] = v, a.id
            if same and a.id in taken:
                dupe = max(dupe, v)
            if v >= tb:
                near.append(a.id)
        s, o = best[True], best[False]
        k = [o >= tf, tb <= s < tf, tb <= o < tf, dupe >= tf, s < tb and o < tb].index(True)
        labels.append(_ERROR_RULES[k])
        if k <= 1:
            targets[i] = first[k == 1]
            covered.update(near)
    return labels, targets, {a.id for a in pool if a.id not in taken | covered}
