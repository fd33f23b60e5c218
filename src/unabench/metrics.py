"""IoU, greedy score-ordered matching, and 101-point interpolated AP.

The protocol is the standard COCO one: detections are capped at 100 per
image, matched greedily in descending score order against same-category
ground truth of the same image, and AP is the mean over the 10-threshold
IoU grid and over all categories that have at least one ground truth.

Each entry point gets its arrays (image, category, (n, 4) boxes, score) once,
the ground truth's from its dataset's annotation table and the detections'
from :func:`model._columns` (a results table passes as is), and passes only
arrays down.
:func:`_ranked` holds the one rank policy: detection indices ordered by
(-score, input index), optionally capped per image. :func:`_match`, the one
matching engine, takes detection rows already in that order and groups
them and the ground truth into image x category cells; :func:`_greedy` then
steps rank k over every cell at once and settles all IoU thresholds in the
same step. Because the cap keeps each image's best-ranked detections and a
cell ranks the same way, capped matching is a per-cell prefix of uncapped
matching, so ``tide.tide_report`` reads its capped AP50 baseline off one
uncapped match. :func:`_category_ap` pools AP for ``evaluate`` and for every
TIDE baseline and oracle.

All ties (equal scores, equal IoUs) break by input order, so a given pair
of input files always gives the same matches and the same AP.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import Annotation, BoundingBox, Dataset, Detection, _boxes, _Columns, _columns

IOU_THRESHOLDS: tuple[float, ...] = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))
RECALL_GRID: tuple[float, ...] = tuple(round(0.01 * i, 2) for i in range(101))
MAX_DETECTIONS_PER_IMAGE = 100

_AP50_INDEX = IOU_THRESHOLDS.index(0.5)
_AP75_INDEX = IOU_THRESHOLDS.index(0.75)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0.0 when they do not overlap."""
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    if ix <= 0:
        return 0.0
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def _ranked(d: _Columns, limit: int | None) -> np.ndarray:
    """Detection indices in rank order, (-score, input index), keeping only the
    first ``limit`` of each image (all of them when ``limit`` is None)."""
    order = np.argsort(-d.scores, kind="stable")
    if limit is None:
        return order
    img = d.images[order]
    by_image = np.argsort(img, kind="stable")  # rank order within each image
    first = np.searchsorted(img[by_image], img[by_image], side="left")
    keep = np.zeros(len(order), dtype=bool)
    keep[by_image[np.arange(len(order)) - first < limit]] = True
    return order[keep]


def _pair_iou(d: np.ndarray, g: np.ndarray) -> np.ndarray:
    """IoU of (x, y, w, h) boxes on the last axis of ``d`` and ``g``, broadcast."""
    ix = np.minimum(d[..., 0] + d[..., 2], g[..., 0] + g[..., 2]) - np.maximum(d[..., 0], g[..., 0])
    iy = np.minimum(d[..., 1] + d[..., 3], g[..., 1] + g[..., 3]) - np.maximum(d[..., 1], g[..., 1])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    return inter / (d[..., 2] * d[..., 3] + g[..., 2] * g[..., 3] - inter)


def _greedy(d_box: np.ndarray, g_box: np.ndarray, d_order: np.ndarray, g_order: np.ndarray,
            d_count: np.ndarray, g_count: np.ndarray, thresholds: Sequence[float]) -> np.ndarray:
    """Greedy matching of every cell at every threshold; the only matching loop.

    ``d_order`` lists the rows of ``d_box`` cell after cell, each cell in
    rank order; ``g_order`` lists the rows of ``g_box`` cell after cell, in
    input order; ``d_count``/``g_count`` give the cell sizes. Step k takes
    the rank-k detection of every cell at once and computes its IoU with its
    cell's ground truth; at each threshold it then takes the highest-IoU gt
    still free if that IoU is >= the threshold (first gt on ties). Returns
    (len(thresholds), len(d_box)) matched ``g_box`` rows, -1 for none.
    """
    out = np.full((len(thresholds), len(d_box)), -1, dtype=np.int32)
    d_start = np.cumsum(d_count) - d_count
    g_start = np.cumsum(g_count) - g_count
    # cells that can match, longest first: at step k the live cells are a prefix
    live = np.flatnonzero((d_count > 0) & (g_count > 0))
    live = live[np.argsort(-d_count[live], kind="stable")]
    if live.size == 0:
        return out
    d_start, d_count, g_start, g_count = d_start[live], d_count[live], g_start[live], g_count[live]
    # one pair per (live cell, gt), cell by cell; step k uses a prefix of them
    pair_start = np.concatenate(([0], np.cumsum(g_count)))
    pair_cell = np.repeat(np.arange(live.size), g_count)
    pos = np.arange(pair_start[-1])
    pair_gt = g_order[g_start[pair_cell] + pos - pair_start[pair_cell]]
    taken = np.zeros((len(thresholds), len(g_box)), dtype=bool)
    for k in range(int(d_count[0])):
        n_cells = int(np.searchsorted(-d_count, -k, side="left"))
        n_pairs = int(pair_start[n_cells])
        cell, gt, starts = pair_cell[:n_pairs], pair_gt[:n_pairs], pair_start[:n_cells]
        det = d_order[d_start[:n_cells] + k]
        ious = _pair_iou(d_box[det[cell]], g_box[gt])
        for t, threshold in enumerate(thresholds):
            v = np.where(taken[t, gt], -1.0, ious)
            best = np.maximum.reduceat(v, starts)
            first = np.minimum.reduceat(np.where(v == best[cell], pos[:n_pairs], n_pairs), starts)
            hit = np.flatnonzero(best >= threshold)
            g = gt[first[hit]]
            out[t, det[hit]] = g
            taken[t, g] = True
    return out


def _match(g: _Columns, d: _Columns, rows: np.ndarray, thresholds: Sequence[float]) -> np.ndarray:
    """Match detections ``rows`` against ground truth ``g`` per image x category cell.

    ``rows`` must be in rank order (see :func:`_ranked`): each cell takes its
    detections in that order and its ground truth in ``g`` order. Returns a
    (len(d), len(thresholds)) array of matched ``g`` rows, indexed by
    detection; -1 where a detection is unmatched or not in ``rows``.
    """
    _, img = np.unique(np.concatenate((d.images[rows], g.images)), return_inverse=True)
    cat_ids, cat = np.unique(np.concatenate((d.categories[rows], g.categories)), return_inverse=True)
    cells, cell = np.unique(img * len(cat_ids) + cat, return_inverse=True)
    d_cell, g_cell = cell[:len(rows)], cell[len(rows):]
    return _greedy(d.boxes, g.boxes, rows[np.argsort(d_cell, kind="stable")], np.argsort(g_cell, kind="stable"),
                   np.bincount(d_cell, minlength=len(cells)), np.bincount(g_cell, minlength=len(cells)),
                   thresholds).T


@dataclass(frozen=True)
class MatchResult:
    """Greedy matching outcome for one image/category cell at one threshold.

    ``matched_gt[i]`` is the matched annotation id for ``detections[i]`` or
    None; ``gt_matched_det[j]`` is the matching detection index for
    ``gt_ids[j]`` or None.
    """

    detections: tuple[Detection, ...]
    matched_gt: tuple[int | None, ...]
    gt_ids: tuple[int, ...]
    gt_matched_det: tuple[int | None, ...]
    iou_threshold: float


def match_greedy(dets: Sequence[Detection], gts: Sequence[Annotation], threshold: float) -> MatchResult:
    """Match score-sorted detections against ground truth at one threshold.

    ``dets`` must already be sorted by descending score (stable). Each gt is
    matched at most once; a det matches the highest-IoU free gt at or above
    the threshold.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    rows = _greedy(_boxes(dets), _boxes(gts), np.arange(len(dets)), np.arange(len(gts)),
                   np.array([len(dets)]), np.array([len(gts)]), (threshold,))[0].tolist()
    gt_matched: list[int | None] = [None] * len(gts)
    for d, g in enumerate(rows):
        if g >= 0:
            gt_matched[g] = d
    return MatchResult(
        detections=tuple(dets),
        matched_gt=tuple(gts[g].id if g >= 0 else None for g in rows),
        gt_ids=tuple(g.id for g in gts),
        gt_matched_det=tuple(gt_matched),
        iou_threshold=threshold,
    )


def _interpolated_ap(tp_sorted: np.ndarray, n_gt: int) -> float:
    """AP from score-ordered TP flags: 101-point interpolated precision mean.

    Precision at recall r is the maximum precision over all operating points
    whose recall is >= r; points past the last detection contribute zero.
    """
    if n_gt == 0 or tp_sorted.size == 0:
        return 0.0
    tp = np.cumsum(tp_sorted.astype(np.float64))
    ranks = np.arange(1, tp_sorted.size + 1, dtype=np.float64)
    precision = tp / ranks
    recall = tp / n_gt
    # running max from the right = best precision at this recall or beyond
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, RECALL_GRID, side="left")
    valid = idx < recall.size
    return float(envelope[idx[valid]].sum() / len(RECALL_GRID))


def average_precision(matches: Iterable[MatchResult], n_gt: int) -> float:
    """Pool per-image match results for one category into a single AP.

    Detections from all results are globally re-ranked by (-score, input
    order); a detection counts as TP when its ``matched_gt`` entry is set.
    ``n_gt`` is the category's total ground-truth count. Returns 0.0 when
    ``n_gt`` is 0.
    """
    dets = [det for m in matches for det in m.detections]
    flags = np.array([gt_id is not None for m in matches for gt_id in m.matched_gt], dtype=bool)
    tp_sorted = flags[_ranked(_columns(dets), None)]
    return _interpolated_ap(tp_sorted, n_gt)


@dataclass(frozen=True)
class ApTriple:
    ap: float
    ap50: float
    ap75: float


@dataclass(frozen=True)
class EvalSummary:
    """Dataset-level AP plus the per-category breakdown.

    ``ap`` averages over the full IoU grid; ``ap50``/``ap75`` are the single
    thresholds 0.50 and 0.75. ``per_category`` maps category id to its
    triple, only for categories with at least one ground truth; the overall
    numbers are plain means over those categories.
    """

    ap: float
    ap50: float
    ap75: float
    per_category: dict[int, ApTriple]
    n_detections: int
    n_ground_truths: int


def _category_ap(cat: np.ndarray, tp: np.ndarray, n_gt: dict[int, int]) -> tuple[list[int], np.ndarray]:
    """Per-category AP of rows given in global rank order.

    ``cat`` holds each row's category and ``tp`` its TP flags, one column per
    IoU threshold. Returns the categories with ``n_gt`` > 0, ascending, and
    their APs, shape (len(categories), tp.shape[1]).
    """
    cats = sorted(c for c, n in n_gt.items() if n > 0)
    order = np.argsort(cat, kind="stable")
    lo, hi = np.searchsorted(cat[order], cats, "left"), np.searchsorted(cat[order], cats, "right")
    return cats, np.array([
        [_interpolated_ap(tp[order[a:b], t], n_gt[c]) for t in range(tp.shape[1])]
        for c, a, b in zip(cats, lo, hi)
    ]).reshape(len(cats), tp.shape[1])


def evaluate(gt: Dataset, dets: Sequence[Detection], *, max_dets: int = MAX_DETECTIONS_PER_IMAGE) -> EvalSummary:
    """Score detections against a dataset under the full IoU grid.

    Crowd annotations are excluded from evaluation entirely. Detections for
    images or categories absent from ``gt`` simply never match (they still
    count as false positives for their category if it has ground truth
    elsewhere). Categories without any ground truth are skipped.
    """
    (_, g), d = gt._table.non_crowd(), _columns(dets)
    rows = _ranked(d, max_dets)
    tp = _match(g, d, rows, IOU_THRESHOLDS)[rows] >= 0
    cats, grid = _category_ap(d.categories[rows], tp, Counter(g.categories.tolist()))
    per_category = {
        c: ApTriple(ap=float(aps.mean()), ap50=float(aps[_AP50_INDEX]), ap75=float(aps[_AP75_INDEX]))
        for c, aps in zip(cats, grid)
    }
    return EvalSummary(
        ap=float(grid.mean()) if cats else 0.0,
        ap50=float(grid[:, _AP50_INDEX].mean()) if cats else 0.0,
        ap75=float(grid[:, _AP75_INDEX].mean()) if cats else 0.0,
        per_category=per_category,
        n_detections=len(rows),
        n_ground_truths=len(g.images),
    )
