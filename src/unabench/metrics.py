"""IoU, greedy score-ordered matching, and 101-point interpolated AP.

The protocol is the standard COCO one: detections are capped at 100 per
image, matched greedily in descending score order against same-category
ground truth of the same image, and AP is the mean over the 10-threshold
IoU grid and over all categories that have at least one ground truth.

Each entry point gets its arrays (image, category, (n, 4) boxes, score) once,
the ground truth's from its dataset's annotation table and the detections'
from :func:`model._columns` (a results table passes as is), and passes only
arrays down. :func:`_edge_iou` is the one IoU formula, over boxes as right
edge, bottom edge and area rows (:func:`_edges`) computed once per call.
:func:`_ranked` holds the one rank policy: detection indices ordered by
(-score, input index) from one sort, optionally capped per image.
:func:`_match`, the one matching engine, takes detection rows already in
that order and groups them and the ground truth into image x category cells
with one grouping sort; :func:`_greedy` then steps rank k over every cell at
once and keeps only the candidate pairs, those at or above the lowest IoU
threshold, since no other pair can match. It settles each step's
candidates before the next step, every threshold at once: a step holds one
detection per cell and cells share no gt, so settling rank by rank is
greedy order. Because the cap keeps each image's best-ranked detections and
a cell ranks the same way, capped matching is a per-cell prefix of uncapped
matching, so ``tide.tide_report`` reads its capped AP50 baseline off one
uncapped match. :func:`_category_ap` pools AP for
``evaluate`` (one variant per IoU threshold) and for every TIDE baseline
and oracle (one variant each), scoring only each category's TPs.

All ties (equal scores, equal IoUs) break by input order, so a given pair
of input files always gives the same matches and the same AP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import Annotation, BoundingBox, Dataset, Detection, _AnnotationTable, _boxes, _Columns, _columns

IOU_THRESHOLDS: tuple[float, ...] = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))
RECALL_GRID: tuple[float, ...] = tuple(round(0.01 * i, 2) for i in range(101))
MAX_DETECTIONS_PER_IMAGE = 100

_RECALL = np.array(RECALL_GRID)

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


def _grouped(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows grouped by integer key: the ascending distinct keys, each row's group, the
    rows group after group (each group in row order) and the group sizes.

    The grouping sort is stable on the group number, which numpy does as a radix
    sort while the number fits in 16 bits.
    """
    distinct, group = np.unique(keys, return_inverse=True)
    order = np.argsort(group.astype(np.min_scalar_type(len(distinct))), kind="stable")
    return distinct, group, order, np.bincount(group, minlength=len(distinct))


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Runs of equal neighbours in ``keys``: each run's first index and each element's run."""
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return np.flatnonzero(first), np.cumsum(first) - 1


def _ranked(d: _Columns, limit: int | None) -> np.ndarray:
    """Detection indices in rank order, (-score, input index), keeping only the
    first ``limit`` of each image (all of them when ``limit`` is None)."""
    order = np.argsort(-d.scores, kind="stable")
    return order if limit is None else _capped(d.images, order, limit)


def _capped(images: np.ndarray, order: np.ndarray, limit: int) -> np.ndarray:
    """The rows of rank-ordered ``order`` that are among the first ``limit`` of their image."""
    _, _, by_image, count = _grouped(images[order])
    keep = np.zeros(len(order), dtype=bool)
    keep[by_image[np.arange(len(order)) - np.repeat(np.cumsum(count) - count, count) < limit]] = True
    return order[keep]


def _edges(boxes: np.ndarray) -> tuple[np.ndarray, ...]:
    """(x, y, w, h) boxes on the last axis as five terms: x, y, right, bottom, area."""
    x, y, w, h = boxes[..., 0], boxes[..., 1], boxes[..., 2], boxes[..., 3]
    return x, y, x + w, y + h, w * h


def _edge_iou(a, b) -> np.ndarray:
    """IoU of boxes given as :func:`_edges` terms (or rows of their stack), broadcast;
    the one IoU formula."""
    ix = np.minimum(a[2], b[2]) - np.maximum(a[0], b[0])
    iy = np.minimum(a[3], b[3]) - np.maximum(a[1], b[1])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    return inter / (a[4] + b[4] - inter)


def _pair_iou(d: np.ndarray, g: np.ndarray) -> np.ndarray:
    """IoU of (x, y, w, h) boxes on the last axis of ``d`` and ``g``, broadcast."""
    return _edge_iou(_edges(d), _edges(g))


def _greedy(d_box: np.ndarray, g_box: np.ndarray, d_order: np.ndarray, g_order: np.ndarray,
            d_count: np.ndarray, g_count: np.ndarray, thresholds: Sequence[float]) -> np.ndarray:
    """Greedy matching of every cell at every threshold; the only matching loop.

    ``d_order`` lists the rows of ``d_box`` cell after cell, each cell in
    rank order; ``g_order`` lists the rows of ``g_box`` cell after cell, in
    input order; ``d_count``/``g_count`` give the cell sizes. At each
    threshold a detection, in rank order within its cell, takes the
    highest-IoU gt still free if that IoU is >= the threshold (first gt on
    ties).

    Each box's edges and area are computed once (:func:`_edges`). Step k
    takes the rank-k detection of every cell at once and computes its IoU
    with its cell's ground truth. Only the pairs at or above the lowest
    threshold (and NaN ones, which spoil their detection as they would among
    all pairs) can match; they are the candidates. A step holds one
    detection per cell and no two cells share a gt, so its detections never
    compete: each step's candidates are settled before the next step, every
    threshold at once, which is greedy matching in rank order. Returns
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
    pair_gt = g_order[g_start[pair_cell] + np.arange(pair_start[-1]) - pair_start[pair_cell]]
    d_edges, pair_edges = np.stack(_edges(d_box)), np.stack(_edges(g_box[pair_gt]))
    floor, bars = min(thresholds), np.array(thresholds)[:, None]
    taken = np.zeros((len(thresholds), len(g_box)), dtype=bool)
    longest_first = -d_count
    for k in range(int(d_count[0])):
        n_cells = int(np.searchsorted(longest_first, -k, side="left"))
        n_pairs = int(pair_start[n_cells])
        det = d_order[d_start[:n_cells] + k]
        ious = _edge_iou(np.repeat(d_edges.take(det, axis=1), g_count[:n_cells], axis=1), pair_edges[:, :n_pairs])
        near = np.flatnonzero(~(ious < floor))
        if near.size == 0:
            continue
        # each cell's rank-k detection takes the highest IoU still free, the first on ties
        cell, gt = pair_cell[near], pair_gt[near]
        head, run = _runs(cell)
        v = np.where(taken[:, gt], -1.0, ious[near])
        best = np.maximum.reduceat(v, head, axis=1)
        first = np.minimum.reduceat(np.where(v == best[:, run], np.arange(near.size), near.size), head, axis=1)
        t, c = np.nonzero(best >= bars)
        c = first[t, c]
        out[t, det[cell[c]]] = gt[c]
        taken[t, gt[c]] = True
    return out


def _match(g: _AnnotationTable, d: _Columns, rows: np.ndarray, thresholds: Sequence[float]) -> np.ndarray:
    """Match detections ``rows`` against ground truth ``g`` per image x category cell.

    ``rows`` must be in rank order (see :func:`_ranked`): each cell takes its
    detections in that order and its ground truth in ``g`` order. Returns a
    (len(d), len(thresholds)) array of matched ``g`` rows, indexed by
    detection; -1 where a detection is unmatched or not in ``rows``.
    """
    n = len(rows)
    # one grouping of detections and ground truth: each cell's detections (rank order), then its gts
    _, cell, by_cell, count = _grouped(_cell_keys(np.concatenate((d.images[rows], g.images)),
                                                  np.concatenate((d.categories[rows], g.categories))))
    d_count = np.bincount(cell[:n], minlength=len(count))
    is_det = by_cell < n
    return _greedy(d.boxes, g.boxes, rows[by_cell[is_det]], by_cell[~is_det] - n,
                   d_count, count - d_count, thresholds).T


def _cell_keys(images: np.ndarray, categories: np.ndarray) -> np.ndarray:
    """One int64 key per (image, category) pair, equal where the pairs are; the ids are
    numbered first where they lie too far apart for one key."""
    if not len(images):
        return images
    if (int(images.max()) - int(images.min()) + 1) * (int(categories.max()) - int(categories.min()) + 1) >= 2 ** 63:
        images, categories = (np.unique(ids, return_inverse=True)[1] for ids in (images, categories))
    span = int(categories.max()) - int(categories.min()) + 1
    return (images - images.min()) * span + (categories - categories.min())


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
    return float(_category_ap(np.zeros(len(tp_sorted), dtype=np.int64), tp_sorted[None], np.zeros(1, dtype=np.int64),
                              np.array([[n_gt]]))[0, 0])


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


def _first_reaching(n: np.ndarray) -> np.ndarray:
    """For each count ``n`` of ground truth and each recall r of the grid, the
    least TP count k with k / n >= r, as the float division computes it.

    ceil(r * n) is off by at most one from it while n < 2**52, so one step each
    way settles it."""
    n = n[:, None].astype(np.float64)
    k = np.ceil(_RECALL * n)
    k -= (k - 1) / n >= _RECALL
    k += k / n < _RECALL
    return k.astype(np.int64)


def _category_ap(cat: np.ndarray, tp: np.ndarray, cats: np.ndarray, n_gt: np.ndarray,
                 keep: np.ndarray | None = None) -> np.ndarray:
    """101-point interpolated AP per category of rows given in global rank order,
    for several variants at once.

    ``cat`` holds each row's category, ``tp`` (V, n) each variant's TP flags
    and ``keep`` (V, n) the rows it keeps (all when None); a dropped row adds
    no operating point. ``cats`` lists categories ascending and ``n_gt`` (V,
    len(cats)) their ground-truth counts per variant. Precision at recall r
    is the maximum precision over all operating points whose recall is >= r;
    points past the last detection contribute zero. Recall only rises at a
    TP and a false positive only lowers precision, so that maximum is taken
    at a TP at or after the first one reaching r (the first TP for r = 0):
    only the TPs are scored, after one grouping of the rows by category.
    Returns the (V, len(cats)) APs, 0.0 where a count is 0.
    """
    aps = np.zeros(n_gt.shape)
    distinct, _, by_cat, count = _grouped(cat)
    start = np.cumsum(count) - count  # each category's first row
    hits = tp.take(by_cat, axis=1)
    if keep is not None:
        kept = keep.take(by_cat, axis=1)
        hits &= kept
        kept = np.cumsum(kept, axis=1)
    # every TP, variant after variant, category after category, in rank order
    variant, pos = np.divmod(np.flatnonzero(hits), hits.shape[1])
    block = np.repeat(np.arange(len(distinct)), count)[pos]
    head, run = _runs(variant * len(distinct) + block)  # the TPs of each (variant, category)
    n_tp = np.bincount(run, minlength=len(head))
    tps = np.arange(1, len(pos) + 1) - head[run]  # TPs so far in the run, this one included
    if keep is None:
        ranks = pos - start[block] + 1
    else:  # rows kept so far in the category; a TP row is kept
        ranks = kept[variant, pos] - np.pad(kept, ((0, 0), (1, 0)))[variant, start[block]]
    column = np.minimum(np.searchsorted(cats, distinct), len(cats) - 1)[block[head]]
    n = np.where(cats[column] == distinct[block[head]], n_gt[variant[head], column], 0)
    # the TPs reaching each recall of the grid, at or after the first one reaching it
    reach = _first_reaching(np.maximum(n, 1))
    valid = reach <= n_tp[:, None]
    # their best precisions: block maxima between those TPs (a run that scores no
    # category still ends the run before it), then a running max from the right
    envelope = np.zeros(valid.shape)
    envelope[valid] = np.maximum.reduceat(tps / ranks, (head[:, None] + np.maximum(reach, 1) - 1)[valid])
    envelope = np.maximum.accumulate(envelope[:, ::-1], axis=1)[:, ::-1].copy()
    for r, v, c, size in zip(np.flatnonzero(n).tolist(), variant[head][n > 0].tolist(), column[n > 0].tolist(),
                             valid.sum(axis=1)[n > 0].tolist()):
        aps[v, c] = envelope[r, :size].sum() / len(RECALL_GRID)
    return aps


def evaluate(gt: Dataset, dets: Sequence[Detection], *, max_dets: int = MAX_DETECTIONS_PER_IMAGE) -> EvalSummary:
    """Score detections against a dataset under the full IoU grid.

    Crowd annotations are excluded from evaluation entirely. Detections for
    images or categories absent from ``gt`` simply never match (they still
    count as false positives for their category if it has ground truth
    elsewhere). Categories without any ground truth are skipped.
    """
    g, d = gt._table.non_crowd(), _columns(dets)
    rows = _ranked(d, max_dets)
    tp = _match(g, d, rows, IOU_THRESHOLDS).T[:, rows] >= 0
    cats, n_gt = np.unique(g.categories, return_counts=True)
    grid = np.ascontiguousarray(_category_ap(d.categories[rows], tp, cats, np.tile(n_gt, (len(tp), 1))).T)
    per_category = {
        c: ApTriple(ap=float(aps.mean()), ap50=float(aps[_AP50_INDEX]), ap75=float(aps[_AP75_INDEX]))
        for c, aps in zip(cats.tolist(), grid)
    }
    return EvalSummary(
        ap=float(grid.mean()) if len(cats) else 0.0,
        ap50=float(grid[:, _AP50_INDEX].mean()) if len(cats) else 0.0,
        ap75=float(grid[:, _AP75_INDEX].mean()) if len(cats) else 0.0,
        per_category=per_category,
        n_detections=len(rows),
        n_ground_truths=len(g.images),
    )
