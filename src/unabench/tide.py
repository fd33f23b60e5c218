"""Detection-error decomposition: six error components and their oracle APs.

Each false positive gets exactly one label (Cls, Loc, Both, Dupe, Bkg);
missed ground truths form the sixth component. For each component an
oracle "perfectly fixes" just that mistake class and AP50 is re-measured;
the gap to the baseline is that component's cost. :func:`tide_report`
does all of it from one match, with the oracles as edits of rank-ordered
arrays (the ground truth's annotation table, the detections' columns) scored
by the AP helper ``evaluate`` uses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .metrics import MAX_DETECTIONS_PER_IMAGE, _category_ap, _match, _pair_iou, _ranked
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


def _classify(
    g: _Columns, d: _Columns, match: np.ndarray, tf: float, tb: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply the :func:`classify_errors` rules given the match at ``tf``.

    ``match`` holds each detection's matched ``g`` row, -1 for none. Each
    image gets one IoU matrix, its unmatched detections against its ground
    truth; every rule is a row mask of it and targets are the first-max
    column. Returns, per detection, its label as an ``ERROR_ORDER`` index
    (-1 when matched) and the ``g`` row of its Cls/Loc target (-1 when it
    has none), and per ground truth whether it is Miss.
    """
    n = len(d.images)
    rule = np.full(n, -1, dtype=np.int64)
    target = np.full(n, -1, dtype=np.int64)
    taken = np.zeros(len(g.images), dtype=bool)
    taken[match[match >= 0]] = True
    miss = ~taken
    # detections are rows 0..n-1 and ground truths n.. of one index space
    img = np.concatenate((d.images, g.images))
    order = np.argsort(img, kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(img[order])) + 1):
        di, gi = rows[rows < n], rows[rows >= n] - n
        di = di[match[di] < 0]
        if gi.size == 0:
            rule[di] = ERROR_ORDER.index(ErrorKind.BKG)
            continue
        ious = _pair_iou(d.boxes[di, None], g.boxes[None, gi])
        same = d.categories[di, None] == g.categories[None, gi]
        best_same = np.where(same, ious, 0.0).max(axis=1)
        best_diff = np.where(same, 0.0, ious).max(axis=1)
        best_dupe = np.where(same & taken[gi], ious, 0.0).max(axis=1)
        rules = np.stack([                                    # in ERROR_ORDER
            best_diff >= tf,                                  # Cls
            (tb <= best_same) & (best_same < tf),             # Loc
            (tb <= best_diff) & (best_diff < tf),             # Both
            best_dupe >= tf,                                  # Dupe
            (best_same < tb) & (best_diff < tb),              # Bkg
        ])
        if not rules.any(axis=0).all():  # a same-class gt at IoU >= tf must be taken
            raise RuntimeError("error rules failed to cover a detection; matching is inconsistent")
        rule[di] = kind = rules.argmax(axis=0)
        fix = kind <= 1  # Cls targets another class, Loc its own
        best = np.where(np.where(kind[:, None] == 0, ~same, same), ious, -1.0).argmax(axis=1)
        target[di[fix]] = gi[best[fix]]
        miss[gi] &= ~(ious[fix] >= tb).any(axis=0)

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


def _ap50(cat: np.ndarray, tp: np.ndarray, n_gt: dict[int, int]) -> float:
    """Mean AP over the categories with ground truth of rank-ordered rows."""
    cats, aps = _category_ap(cat, tp[:, None], n_gt)
    return float(aps.mean()) if cats else 0.0


def tide_report(
    gt: Dataset, dets: Sequence[Detection], tf: float = DEFAULT_TF, tb: float = DEFAULT_TB,
) -> TideReport:
    """Classify errors, then measure each oracle independently, from one match.

    One :func:`metrics._match` call over all detections at 0.5 and ``tf``
    (0.5 alone when ``tf`` == 0.5) gives the labels (tf column) and the
    baseline, the plain AP50 of (gt, dets): the 0.5 column on the rows
    :func:`metrics._ranked` keeps under the per-image cap, in rank order. Each
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
    match = _match(g, d, _ranked(d, None), (0.5,) if tf == 0.5 else (0.5, tf))
    rule, target, miss = _classify(g, d, match[:, -1], tf, tb)
    counts = np.bincount(rule[rule >= 0], minlength=len(ERROR_ORDER) - 1).tolist() + [int(miss.sum())]

    rows = _ranked(d, MAX_DETECTIONS_PER_IMAGE)
    g50, rule, target = match[rows, 0], rule[rows], target[rows]
    tp = g50 >= 0
    taken = np.zeros(len(g.images), dtype=bool)
    taken[g50[tp]] = True
    cat = d.categories[rows]
    n_gt = Counter(g.categories.tolist())
    baseline = _ap50(cat, tp, n_gt)

    oracle_ap: dict[ErrorKind, float] = {}
    for k, kind in enumerate(ERROR_ORDER):
        if kind is ErrorKind.MISS:
            oracle_ap[kind] = _ap50(cat, tp, Counter(g.categories[~miss].tolist()))
            continue
        # when tf differs from 0.5, a labeled detection can still be a TP
        # here; those rows stay put
        edit = (rule == k) & ~tp
        keep, o_cat, o_tp = ~edit, cat.copy(), tp.copy()
        if kind in (ErrorKind.CLS, ErrorKind.LOC):
            fixed = np.flatnonzero(edit)
            first = np.zeros(fixed.size, dtype=bool)
            first[np.unique(target[fixed], return_index=True)[1]] = True
            fixed = fixed[first & ~taken[target[fixed]]]
            keep[fixed] = o_tp[fixed] = True
            o_cat[fixed] = g.categories[target[fixed]]  # a Loc target has the row's own class
        oracle_ap[kind] = _ap50(o_cat[keep], o_tp[keep], n_gt)

    return TideReport(
        baseline_ap50=baseline,
        oracle_ap=oracle_ap,
        delta_ap={kind: ap - baseline for kind, ap in oracle_ap.items()},
        counts=dict(zip(ERROR_ORDER, counts)),
        tf=tf,
        tb=tb,
    )
