"""Detection-error decomposition: six error components and their oracle APs.

Each false positive gets exactly one label (Cls, Loc, Both, Dupe, Bkg);
missed ground truths form the sixth component. For each component an
oracle "perfectly fixes" just that mistake class and AP50 is re-measured;
the gap to the baseline is that component's cost.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .metrics import MAX_DETECTIONS_PER_IMAGE, _cap_per_image, _interpolated_ap, _iou_matrix, _match
from .model import Annotation, Dataset, Detection

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
    (crowd ground truth excluded). Each leftover detection is labeled by the
    first applicable rule against the ground truth of its image:

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

    pool = gt.non_crowd
    match = _match(pool, dets, np.arange(len(dets)), (tf,))[:, 0]
    taken = np.zeros(len(pool), dtype=bool)
    taken[match[match >= 0]] = True
    matched = [pool[g].id if g >= 0 else None for g in match.tolist()]

    by_image_gt: dict[int, list[int]] = {}
    for j, a in enumerate(pool):
        by_image_gt.setdefault(a.image_id, []).append(j)
    by_image_det: dict[int, list[int]] = {}
    for i, d in enumerate(dets):
        by_image_det.setdefault(d.image_id, []).append(i)

    labels: list[ErrorKind | None] = [None] * len(dets)
    cls_targets: dict[int, int] = {}
    loc_targets: dict[int, int] = {}
    miss_ids: set[int] = set()

    for img, det_idx in by_image_det.items():
        cols = by_image_gt.get(img, [])
        unmatched = [i for i in det_idx if matched[i] is None]
        _classify_image(dets, unmatched, [pool[j] for j in cols], taken[cols], tf, tb,
                        labels, cls_targets, loc_targets)
    for img, cols in by_image_gt.items():
        covering = [i for i in by_image_det.get(img, []) if labels[i] in (ErrorKind.CLS, ErrorKind.LOC)]
        cov_ious = _iou_matrix([dets[i].bbox for i in covering], [pool[j].bbox for j in cols])
        for c, j in enumerate(cols):
            if not taken[j] and not (cov_ious[:, c] >= tb).any():
                miss_ids.add(pool[j].id)

    return ErrorAssignment(
        labels=tuple(labels),
        matched_gt=tuple(matched),
        miss_ids=frozenset(miss_ids),
        cls_targets=cls_targets,
        loc_targets=loc_targets,
        tf=tf,
        tb=tb,
    )


def _classify_image(
    dets: Sequence[Detection],
    det_idx: list[int],
    gts: list[Annotation],
    gt_taken: np.ndarray,
    tf: float,
    tb: float,
    labels: list[ErrorKind | None],
    cls_targets: dict[int, int],
    loc_targets: dict[int, int],
) -> None:
    """Label the unmatched detections ``det_idx`` of one image, in place.

    ``gts`` is the image's non-crowd ground truth and ``gt_taken`` flags the
    ones matched at ``tf``.
    """
    ious = _iou_matrix([dets[i].bbox for i in det_idx], [g.bbox for g in gts])
    gt_cat = np.array([g.category_id for g in gts], dtype=np.int64)
    for r, i in enumerate(det_idx):
        same = gt_cat == dets[i].category_id
        row = ious[r]
        mx_same = float(row[same].max()) if same.any() else 0.0
        mx_diff = float(row[~same].max()) if (~same).any() else 0.0
        if mx_diff >= tf:
            labels[i] = ErrorKind.CLS
            cls_targets[i] = gts[int(np.flatnonzero(~same)[row[~same].argmax()])].id
        elif tb <= mx_same < tf:
            labels[i] = ErrorKind.LOC
            loc_targets[i] = gts[int(np.flatnonzero(same)[row[same].argmax()])].id
        elif tb <= mx_diff < tf:
            labels[i] = ErrorKind.BOTH
        elif (same & gt_taken).any() and float(row[same & gt_taken].max()) >= tf:
            labels[i] = ErrorKind.DUPE
        elif mx_same < tb and mx_diff < tb:
            labels[i] = ErrorKind.BKG
        else:  # a same-class gt at IoU >= tf must be taken after greedy matching
            raise RuntimeError("error rules failed to cover a detection; matching is inconsistent")


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


class _Ap50Rankings:
    """Baseline AP50 match structure with per-detection identity kept.

    ``rows[cat]`` holds (score, det index, is-tp, matched gt id) in ranking
    order for every category that has ground truth; oracles edit these rows
    instead of re-running matching, so a fix can only remove a false
    positive, turn one into a true positive on a free gt, or shrink a
    category's gt count. Each of those moves AP up, never down, which is
    what makes every reported gap non-negative. Plain re-matching after the
    data-level fix does not have that guarantee: a re-classed detection can
    steal a gt inside its new category and push the old match down the
    ranking. ``kept`` holds the detections that survive the per-image cap;
    only those are in the ranking, so only those can be fixed.
    """

    def __init__(self, gt: Dataset, dets: Sequence[Detection]):
        pool = gt.non_crowd
        kept = _cap_per_image(dets, MAX_DETECTIONS_PER_IMAGE)
        match = _match(pool, dets, kept, (0.5,))[:, 0].tolist()
        self.kept = set(kept.tolist())
        self.n_gt: dict[int, int] = Counter(a.category_id for a in pool)
        self.rows: dict[int, list[tuple[float, int, bool, int | None]]] = {
            cat: [] for cat in self.n_gt
        }
        self.matched_gt_ids = {pool[g].id for g in match if g >= 0}
        for i, g in sorted(zip(kept.tolist(), match), key=lambda r: (-dets[r[0]].score, r[0])):
            cell = self.rows.get(dets[i].category_id)
            if cell is not None:
                cell.append((dets[i].score, i, g >= 0, pool[g].id if g >= 0 else None))

    def mean_ap(self, rows=None, n_gt=None) -> float:
        rows = self.rows if rows is None else rows
        n_gt = self.n_gt if n_gt is None else n_gt
        cats = sorted(c for c in n_gt if n_gt[c] > 0)
        if not cats:
            return 0.0
        aps = [
            _interpolated_ap(np.array([r[2] for r in rows[c]], dtype=bool), n_gt[c])
            for c in cats
        ]
        return float(np.array(aps).mean())

    def oracle_ap(self, gt: Dataset, dets: Sequence[Detection],
                  labels: ErrorAssignment, kind: ErrorKind) -> float:
        if kind is ErrorKind.MISS:
            n_gt = dict(self.n_gt)
            for gt_id in labels.miss_ids:
                n_gt[gt.annotations_by_id[gt_id].category_id] -= 1
            return self.mean_ap(n_gt=n_gt)

        # when the classification threshold differs from 0.50, a labeled
        # detection can still be a true positive here; those rows stay put
        tp_at_50 = {i for cell in self.rows.values() for (_, i, tp, _) in cell if tp}

        if kind in (ErrorKind.BOTH, ErrorKind.DUPE, ErrorKind.BKG):
            rows = {
                cat: [r for r in cell if labels.labels[r[1]] is not kind or r[2]]
                for cat, cell in self.rows.items()
            }
            return self.mean_ap(rows=rows)

        # cls/loc: fix each labeled, ranked detection onto its target gt when
        # that gt is still free, else suppress it; best-ranked claim wins
        targets = labels.cls_targets if kind is ErrorKind.CLS else labels.loc_targets
        fixed = sorted((i for i in targets if i in self.kept and i not in tp_at_50),
                       key=lambda i: (-dets[i].score, i))
        claimed = set(self.matched_gt_ids)
        drop: set[int] = set()
        insert: dict[int, list[tuple[float, int, bool, int | None]]] = {}
        flip: set[int] = set()
        for i in fixed:
            gt_id = targets[i]
            if gt_id in claimed:
                drop.add(i)
                continue
            claimed.add(gt_id)
            if kind is ErrorKind.CLS:
                drop.add(i)  # leaves its old category's ranking
                cat = gt.annotations_by_id[gt_id].category_id
                insert.setdefault(cat, []).append((dets[i].score, i, True, gt_id))
            else:
                flip.add(i)
        rows = {}
        for cat, cell in self.rows.items():
            cell = [
                (s, i, True if i in flip else tp, g)
                for (s, i, tp, g) in cell
                if i not in drop
            ]
            if cat in insert:
                cell = sorted(cell + insert[cat], key=lambda r: (-r[0], r[1]))
            rows[cat] = cell
        return self.mean_ap(rows=rows)


def tide_report(
    gt: Dataset, dets: Sequence[Detection], tf: float = DEFAULT_TF, tb: float = DEFAULT_TB,
) -> TideReport:
    """Classify errors once, then measure each oracle independently.

    The baseline is the plain AP50 of (gt, dets). Oracle APs are measured on
    the frozen baseline match structure (fix-or-suppress per detection), so
    every delta is non-negative by construction; for the deleting oracles
    (Both, Dupe, Bkg, Miss) this coincides exactly with re-evaluating the
    :func:`apply_oracle` output, because removing unmatched detections or
    unmatched ground truths never changes anyone else's match.
    """
    assignment = classify_errors(gt, dets, tf, tb)
    rankings = _Ap50Rankings(gt, dets)
    baseline = rankings.mean_ap()
    oracle_ap: dict[ErrorKind, float] = {}
    delta_ap: dict[ErrorKind, float] = {}
    counts: dict[ErrorKind, int] = {}
    for kind in ERROR_ORDER:
        ap = rankings.oracle_ap(gt, dets, assignment, kind)
        oracle_ap[kind] = ap
        delta_ap[kind] = ap - baseline
        counts[kind] = assignment.count(kind)
    return TideReport(
        baseline_ap50=baseline,
        oracle_ap=oracle_ap,
        delta_ap=delta_ap,
        counts=counts,
        tf=tf,
        tb=tb,
    )
