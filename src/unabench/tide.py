"""Detection-error decomposition: six error components and their oracle APs.

Each false positive gets exactly one label (Cls, Loc, Both, Dupe, Bkg);
missed ground truths form the sixth component. For each component an
oracle "perfectly fixes" just that mistake class and AP50 is re-measured;
the gap to the baseline is that component's cost. :func:`tide_report`
does all of it from one match, with the oracles as edits of rank-ordered
arrays (the ground truth's annotation table, the detections' columns),
ranked by one sort. Labeling (:func:`_classify`) runs its rules only over
the (unmatched detection, ground truth) pairs at IoU >= ``tb``; the others
cannot change a label. The baseline and the five oracles that keep each
row's category are scored by ``metrics._category_ap`` in one pass, each a
variant with its own TP flags, kept rows and gt counts; Cls, which moves
rows to another category, in a second.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .metrics import (MAX_DETECTIONS_PER_IMAGE, _capped, _category_ap, _edge_iou, _edges, _grouped, _match, _ranked,
                      _runs)
from .model import Dataset, Detection, _Columns, _columns

DEFAULT_TF = 0.5
DEFAULT_TB = 0.1


class ErrorKind(str, Enum):
    CLS = "cls"
    LOC = "loc"
    BOTH = "both"
    DUPE = "dupe"
    BKG = "bkg"
    MISS = "miss"


ERROR_ORDER: tuple[ErrorKind, ...] = (
    ErrorKind.CLS, ErrorKind.LOC, ErrorKind.BOTH,
    ErrorKind.DUPE, ErrorKind.BKG, ErrorKind.MISS,
)


@dataclass(frozen=True)
class ErrorAssignment:
    """Per-detection error labels plus the missed ground truths.

    ``labels[i]`` is the error of the i-th input detection, or None when it
    matched (true positive at ``tf``). ``cls_targets``/``loc_targets`` map
    labeled detection indices to the annotation id of their best-overlapping
    (different-class / same-class) ground truth, which the oracles fix
    against.
    """

    labels: tuple[ErrorKind | None, ...]
    matched_gt: tuple[int | None, ...]
    miss_ids: frozenset[int]
    cls_targets: dict[int, int]
    loc_targets: dict[int, int]
    tf: float
    tb: float

    def count(self, kind: ErrorKind) -> int:
        if kind is ErrorKind.MISS:
            return len(self.miss_ids)
        return sum(1 for lab in self.labels if lab is kind)


def _check_thresholds(tf: float, tb: float) -> None:
    if not 0.0 < tf <= 1.0:
        raise ValueError(f"tf must be in (0, 1], got {tf}")
    if not 0.0 < tb < tf:
        raise ValueError(f"tb must satisfy 0 < tb < tf, got tb={tb}, tf={tf}")


def classify_errors(
    gt: Dataset, dets: Sequence[Detection], tf: float = DEFAULT_TF, tb: float = DEFAULT_TB,
) -> ErrorAssignment:
    """Label every unmatched detection with one error kind.

    Detections are first matched greedily at ``tf`` per image and category
    (crowd ground truth excluded), in one :func:`metrics._match` call. Each
    leftover detection is labeled by the first applicable rule against the
    ground truth of its image:

    1. Cls:  best different-class IoU >= tf
    2. Loc:  best same-class IoU in [tb, tf)
    3. Both: best different-class IoU in [tb, tf)
    4. Dupe: best IoU with an already-matched same-class gt >= tf
    5. Bkg:  everything overlaps below tb

    A ground truth is Miss when unmatched and not overlapped at >= tb by any
    Cls- or Loc-labeled detection of its image. The rules are exhaustive, so
    every false positive gets exactly one label.
    """
    _check_thresholds(tf, tb)
    (ids, g), d = gt._table.non_crowd(), _columns(dets)
    match = _match(g, d, _ranked(d, None), (tf,))[:, 0]
    rule, target, miss = _classify(g, d, match, tf, tb)
    ids = ids.tolist()
    return ErrorAssignment(
        labels=tuple(ERROR_ORDER[r] if r >= 0 else None for r in rule.tolist()),
        matched_gt=tuple(ids[m] if m >= 0 else None for m in match.tolist()),
        miss_ids=frozenset(ids[j] for j in np.flatnonzero(miss).tolist()),
        cls_targets={i: ids[target[i]] for i in np.flatnonzero(rule == 0).tolist()},
        loc_targets={i: ids[target[i]] for i in np.flatnonzero(rule == 1).tolist()},
        tf=tf,
        tb=tb,
    )


# the most (unmatched detection, ground truth) pairs :func:`_classify` holds at once
_PAIR_CHUNK = 65_536


def _classify(
    g: _Columns, d: _Columns, match: np.ndarray, tf: float, tb: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply the :func:`classify_errors` rules given the match at ``tf``.

    ``match`` holds each detection's matched ``g`` row, -1 for none. Every
    unmatched detection is paired with each ground truth of its image, the
    pairs of one detection side by side in ``g`` row order, a chunk of
    detections at a time, at most ``_PAIR_CHUNK`` pairs (or one detection's)
    each. Every rule compares a best IoU with ``tb`` or ``tf`` (>= ``tb``), so
    only the pairs at IoU >= ``tb`` (and NaN ones, which spoil a best IoU) go
    on; a detection with none is Bkg. Its best IoUs are maxima over its run of
    those pairs, every rule is a mask of them and its target is the first pair
    reaching the maximum. Returns, per detection, its label as an
    ``ERROR_ORDER`` index (-1 when matched) and the ``g`` row of its Cls/Loc
    target (-1 when it has none), and per ground truth whether it is Miss.
    """
    rule = np.full(len(d.images), -1, dtype=np.int64)
    target = np.full(len(d.images), -1, dtype=np.int64)
    taken = np.zeros(len(g.images), dtype=bool)
    taken[match[match >= 0]] = True
    miss = ~taken
    free = np.flatnonzero(match < 0)
    rule[free] = ERROR_ORDER.index(ErrorKind.BKG)
    # the ground truth and the free detections image after image, each in row order
    n_g = len(g.images)
    images, image, by_image, _ = _grouped(np.concatenate((g.images, d.images[free])))
    g_order, by_image = by_image[by_image < n_g], by_image[by_image >= n_g]
    g_count = np.bincount(image[:n_g], minlength=len(images))
    free, image = free[by_image - n_g], image[by_image]
    lo, count = (np.cumsum(g_count) - g_count)[image], g_count[image]
    free, lo, count = free[count > 0], lo[count > 0], count[count > 0]
    ends = np.cumsum(count)
    d_edges, d_cat = np.stack(_edges(d.boxes[free])), d.categories[free]
    g_edges, g_cat, g_taken = np.stack(_edges(g.boxes)).take(g_order, axis=1), g.categories[g_order], taken[g_order]

    start = 0
    while start < len(free):
        stop = max(start + 1, int(np.searchsorted(ends, ends[start] - count[start] + _PAIR_CHUNK, "right")))
        c = count[start:stop]
        seg = np.cumsum(c) - c  # each detection's first pair
        pos = np.arange(seg[-1] + c[-1])
        pg = np.repeat(lo[start:stop] - seg, c) + pos  # columns of the image-ordered ground truth
        ious = _edge_iou(np.repeat(d_edges[:, start:stop], c, axis=1), g_edges.take(pg, axis=1))
        near = np.flatnonzero(~(ious < tb))
        start, offset = stop, start
        if near.size == 0:
            continue
        pd = np.searchsorted(seg, near, "right") - 1  # each near pair's detection, in the chunk
        head, owner = _runs(pd)  # each detection's near pairs
        di, ious, pg = pd[head] + offset, ious[near], pg[near]
        same = d_cat[pd + offset] == g_cat[pg]
        best_same, best_diff, best_dupe = (np.maximum.reduceat(np.where(mask, ious, 0.0), head)
                                           for mask in (same, ~same, same & g_taken[pg]))
        rules = np.stack([                                    # in ERROR_ORDER
            best_diff >= tf,                                  # Cls
            (tb <= best_same) & (best_same < tf),             # Loc
            (tb <= best_diff) & (best_diff < tf),             # Both
            best_dupe >= tf,                                  # Dupe
            (best_same < tb) & (best_diff < tb),              # Bkg
        ])
        if not rules.any(axis=0).all():  # a same-class gt at IoU >= tf must be taken
            raise RuntimeError("error rules failed to cover a detection; matching is inconsistent")
        rule[free[di]] = kind = rules.argmax(axis=0)
        fix = kind <= 1  # Cls targets another class, Loc its own
        value = np.where(np.where((kind == 0)[owner], ~same, same), ious, -1.0)
        first = np.minimum.reduceat(
            np.where(value == np.maximum.reduceat(value, head)[owner], np.arange(near.size), near.size), head)
        target[free[di[fix]]] = g_order[pg[first[fix]]]
        miss[g_order[pg[fix[owner] & (ious >= tb)]]] = False

    return rule, target, miss


def apply_oracle(
    gt: Dataset, dets: Sequence[Detection], labels: ErrorAssignment, kind: ErrorKind,
) -> tuple[Dataset, list[Detection]]:
    """Perfectly fix one error component, leaving everything else alone.

    Cls relabels each Cls detection to its target gt's category; Loc moves
    each Loc detection onto its target gt's box; Both/Dupe/Bkg delete those
    detections; Miss deletes the missed ground truths.
    """
    kind = ErrorKind(kind)
    if kind is ErrorKind.MISS:
        kept = tuple(a for a in gt.annotations if a.id not in labels.miss_ids)
        return replace(gt, annotations=kept), list(dets)
    out: list[Detection] = []
    for i, d in enumerate(dets):
        if labels.labels[i] is not kind:
            out.append(d)
        elif kind is ErrorKind.CLS:
            target = gt.annotations_by_id[labels.cls_targets[i]]
            out.append(replace(d, category_id=target.category_id))
        elif kind is ErrorKind.LOC:
            target = gt.annotations_by_id[labels.loc_targets[i]]
            out.append(replace(d, bbox=target.bbox))
        # Both/Dupe/Bkg: drop
    return gt, out


@dataclass(frozen=True)
class TideReport:
    """Baseline AP50, one oracle AP per error kind, and the gaps.

    All values are on the [0, 1] scale; display multiplies by 100.
    """

    baseline_ap50: float
    oracle_ap: dict[ErrorKind, float]
    delta_ap: dict[ErrorKind, float]
    counts: dict[ErrorKind, int]
    tf: float
    tb: float


def tide_report(
    gt: Dataset, dets: Sequence[Detection], tf: float = DEFAULT_TF, tb: float = DEFAULT_TB,
) -> TideReport:
    """Classify errors, then measure each oracle independently, from one match.

    One :func:`metrics._match` call over all detections at 0.5 and ``tf``
    (0.5 alone when ``tf`` == 0.5) gives the labels (tf column) and the
    baseline, the plain AP50 of (gt, dets): the 0.5 column on the rows
    :func:`metrics._capped` keeps under the per-image cap, in rank order. Each
    oracle edits these rank-ordered (category, TP, keep) arrays instead of
    re-matching: Both/Dupe/Bkg drop their rows that are not TPs at 0.5;
    Miss lowers the per-category gt counts; Cls/Loc fix, in rank order, the
    first claim on each target no TP holds and drop the other claims (a Cls
    fix only changes the row's category, as ranking is global).

    So a fix can only remove a false positive, turn one into a true positive
    on a free gt, or shrink a category's gt count; each moves AP up, never
    down, so every delta is non-negative. Re-matching the data-level fix
    lacks that guarantee: a re-classed detection can steal a gt inside its
    new category and push the old match down the ranking. For Both, Dupe,
    Bkg and Miss the result equals re-evaluating :func:`apply_oracle`'s
    output, because removing unmatched detections or ground truths changes
    no other match. Only detections inside the cap are ranked or fixed.
    """
    _check_thresholds(tf, tb)
    (_, g), d = gt._table.non_crowd(), _columns(dets)
    order = _ranked(d, None)
    match = _match(g, d, order, (0.5,) if tf == 0.5 else (0.5, tf))
    rule, target, miss = _classify(g, d, match[:, -1], tf, tb)
    counts = np.bincount(rule[rule >= 0], minlength=len(ERROR_ORDER) - 1).tolist() + [int(miss.sum())]

    rows = _capped(d.images, order, MAX_DETECTIONS_PER_IMAGE)
    g50, rule, target = match[rows, 0], rule[rows], target[rows]
    tp = g50 >= 0
    taken = np.zeros(len(g.images), dtype=bool)
    taken[g50[tp]] = True
    cat = d.categories[rows]
    cats, n_gt = np.unique(g.categories, return_counts=True)

    # row 0 the baseline, row 1 + k the oracle of ERROR_ORDER[k]: TP flags, kept rows, gt counts
    o_tp, keep = np.tile(tp, (len(ERROR_ORDER) + 1, 1)), np.ones((len(ERROR_ORDER) + 1, len(tp)), dtype=bool)
    n_gts = np.tile(n_gt, (len(ERROR_ORDER) + 1, 1))
    n_gts[-1] = np.bincount(np.searchsorted(cats, g.categories[~miss]), minlength=len(cats))
    o_cat = cat.copy()
    for k, kind in enumerate(ERROR_ORDER[:-1]):
        # when tf differs from 0.5, a labeled detection can still be a TP
        # here; those rows stay put
        edit = (rule == k) & ~tp
        keep[k + 1] = ~edit
        if kind in (ErrorKind.CLS, ErrorKind.LOC):
            fixed = np.flatnonzero(edit)
            first = np.zeros(fixed.size, dtype=bool)
            first[np.unique(target[fixed], return_index=True)[1]] = True
            fixed = fixed[first & ~taken[target[fixed]]]
            keep[k + 1, fixed] = o_tp[k + 1, fixed] = True
            if kind is ErrorKind.CLS:  # a Loc target has the row's own class
                o_cat[fixed] = g.categories[target[fixed]]
    # every variant but Cls keeps each row's category, so they are scored in one pass
    pooled = np.arange(len(ERROR_ORDER) + 1) != ERROR_ORDER.index(ErrorKind.CLS) + 1
    aps = np.empty(n_gts.shape)
    aps[pooled] = _category_ap(cat, o_tp[pooled], cats, n_gts[pooled], keep[pooled])
    aps[~pooled] = _category_ap(o_cat, o_tp[~pooled], cats, n_gts[~pooled], keep[~pooled])
    # each mean runs over the categories that keep ground truth
    baseline, *oracle = (float(a[n > 0].mean()) if (n > 0).any() else 0.0 for a, n in zip(aps, n_gts))
    oracle_ap = dict(zip(ERROR_ORDER, oracle))

    return TideReport(
        baseline_ap50=baseline,
        oracle_ap=oracle_ap,
        delta_ap={kind: ap - baseline for kind, ap in oracle_ap.items()},
        counts=dict(zip(ERROR_ORDER, counts)),
        tf=tf,
        tb=tb,
    )
