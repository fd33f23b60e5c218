"""Seeded annotation-noise injection: flips, box jitter, drops, fabrications.

Every random decision draws from its own counter-based stream (Philox4x64)
keyed by ``(seed, purpose, item)``, so a given annotation is corrupted the
same way no matter what else runs or in what order. The composite
injector therefore produces exactly the union of what the four standalone
injectors would do to the same input at the same seed. Planning runs on one
thread; the injectors' ``workers`` keyword is accepted for compatibility and
has no effect.

Stream purposes (second key word, high 6 bits):

===========================  ====
select targets: category flips  1
select targets: box jitter      2
select targets: drops           3
category flip draws (batched)   4
box jitter, per annotation id   5
fabricated boxes, per draw      6
===========================  ====

Streams are consumed in one of two equivalent ways. Library entry points
such as :func:`perturb_box` take a ``Generator`` from ``_stream``. The
planners instead compute the first Philox block of every item's stream in
one vectorized pass (``_blocks``) and decode the draws from its raw words
exactly as numpy would; an item those words do not settle (a rejected
jitter attempt, a possible rejection in a bounded integer draw, a
fabricated box whose draws run past the first block) is redone in full
from its own ``_stream``. Either way the bytes are the same; the golden
digests in the test suite pin them.

Corrupted-entity counts use half-up rounding, ``floor(ratio * n + 0.5)``,
over the eligible (non-crowd) pool of the input dataset.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .metrics import _pair_iou, iou
from .model import Annotation, BoundingBox, Dataset, ImageRecord

_SELECT_PURPOSE = {"categorization": 1, "localization": 2, "missing": 3}
_EDIT_KINDS = {(True, False): ("categorization",), (False, True): ("localization",),
               (True, True): ("categorization", "localization")}
_CATEGORY_DRAWS = 4
_LOCALIZATION_ITEM = 5
_BOGUS_ITEM = 6

_ITEM_BITS = 58
_MAX_ITEM = 1 << _ITEM_BITS
_MAX_SEED = 1 << 64

# Philox4x64-10 (Random123): round multipliers, key (Weyl) increments, rounds.
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
_MASK64 = (1 << 64) - 1
_LANE_ONE = b"\x01" + bytes(15)  # the value 1 in one little-endian 128-bit lane
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

DEFAULT_LOC_DELTA = 0.4
PERTURB_MAX_ATTEMPTS = 32


class NoiseType(str, Enum):
    CATEGORIZATION = "categorization"
    LOCALIZATION = "localization"
    MISSING = "missing"
    BOGUS = "bogus"
    UNA = "una"


class BogusSizePolicy(str, Enum):
    SAMPLE_EXISTING = "sample_existing"
    UNIFORM_FRACTION = "uniform_fraction"


def _check_stream_key(seed: int, item: int) -> None:
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if not 0 <= item < _MAX_ITEM:
        raise ValueError(f"stream item must be in [0, 2**{_ITEM_BITS}), got {item}")


def _stream(seed: int, purpose: int, item: int = 0) -> np.random.Generator:
    """Independent generator for one (seed, purpose, item) triple."""
    _check_stream_key(seed, item)
    key = ((purpose << _ITEM_BITS | item) << 64) | seed
    return np.random.Generator(np.random.Philox(key=key))


def _blocks(seed: int, purpose: int, items: list[int]) -> np.ndarray:
    """The first output block of ``_stream(seed, purpose, item)`` for every item.

    Returns a (4, n) uint64 array, row j holding the j-th raw word each
    stream emits first: Philox4x64-10 (Salmon et al., SC'11) at counter
    (1, 0, 0, 0), bit-equal to numpy's. Keys are range-checked before they
    are packed.

    Each counter word of all items is one Python int holding a 128-bit lane
    per item, so a 64x64-bit product never carries into the next lane and
    a round is a dozen whole-int operations, however many items there are.
    """
    _check_stream_key(seed, min(items))
    _check_stream_key(seed, max(items))
    n = len(items)
    lanes = np.zeros((n, 2), dtype=np.uint64)
    lanes[:, 0] = np.asarray(items, dtype=np.uint64) | np.uint64(purpose << _ITEM_BITS)
    k1 = int.from_bytes(lanes.tobytes(), "little")
    ones = int.from_bytes(_LANE_ONE * n, "little")
    low = ones * _MASK64
    k0 = seed
    c0, c1, c2, c3 = ones, 0, 0, 0
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = (k0 + _PHILOX_W0) & _MASK64
            k1 = (k1 + _PHILOX_W1 * ones) & low
        p0, p1 = c0 * _PHILOX_M0, c2 * _PHILOX_M1
        c0, c1, c2, c3 = (p1 >> 64) & low ^ c1 ^ k0 * ones, p1 & low, (p0 >> 64) & low ^ c3 ^ k1, p0 & low
    out = np.empty((4, n), dtype=np.uint64)
    for row, word in zip(out, (c0, c1, c2, c3)):
        row[:] = np.frombuffer(word.to_bytes(16 * n, "little"), dtype=np.uint64)[0::2]
    return out


def _doubles(words: np.ndarray) -> np.ndarray:
    """numpy's ``random()`` from raw 64-bit words: the top 53 bits over 2**53."""
    return (words >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def _bounded(words: np.ndarray, n) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``integers(0, n)`` from 32-bit words, by Lemire's method.

    ``n`` (a scalar or one per word) is a list length, so below 2**32.
    Returns the draws and a mask of the settled ones: where the low half of
    the product is below ``n`` numpy may reject the word and draw again, so
    those draws are left unsettled. For ``n == 1`` numpy draws nothing;
    the value, 0, is still right, but the word is not consumed.
    """
    n = np.asarray(n, dtype=np.uint64)
    m = words * n
    return (m >> _SHIFT32).astype(np.intp), (m & _LOW32) >= n


def exact_count(ratio: float, n: int) -> int:
    """Number of entities to corrupt: half-up rounding of ``ratio * n``."""
    _check_ratio(ratio)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return min(n, math.floor(ratio * n + 0.5))


def _check_ratio(ratio: float) -> None:
    if not (isinstance(ratio, (int, float)) and math.isfinite(ratio) and 0.0 <= ratio <= 1.0):
        raise ValueError(f"ratio must be in [0, 1], got {ratio!r}")


def _check_delta(delta: float) -> None:
    if not (isinstance(delta, (int, float)) and 0.0 < delta < 1.0):
        raise ValueError(f"loc_delta must be in (0, 1), got {delta!r}")


@dataclass(frozen=True)
class NoiseConfig:
    """One injection run: what to corrupt, how much, and from which seed."""

    noise_type: NoiseType
    ratio: float
    seed: int = 0
    loc_delta: float = DEFAULT_LOC_DELTA
    bogus_size_policy: BogusSizePolicy = BogusSizePolicy.SAMPLE_EXISTING

    def __post_init__(self):
        object.__setattr__(self, "noise_type", NoiseType(self.noise_type))
        object.__setattr__(self, "bogus_size_policy", BogusSizePolicy(self.bogus_size_policy))
        _check_ratio(self.ratio)
        _check_delta(self.loc_delta)
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")

    def to_dict(self) -> dict:
        return {
            "noise_type": self.noise_type.value,
            "ratio": self.ratio,
            "seed": self.seed,
            "loc_delta": self.loc_delta,
            "bogus_size_policy": self.bogus_size_policy.value,
        }


@dataclass(frozen=True)
class CorruptionEntry:
    """What happened to one surviving-or-not original annotation."""

    id: int
    kinds: tuple[str, ...]
    old_category_id: int | None = None
    old_bbox: BoundingBox | None = None

    def to_dict(self) -> dict:
        d: dict = {"id": self.id, "kinds": list(self.kinds)}
        if self.old_category_id is not None:
            d["old_category_id"] = self.old_category_id
        if self.old_bbox is not None:
            d["old_bbox"] = [float(v) for v in self.old_bbox.as_list()]
        return d


@dataclass(frozen=True)
class InjectionLog:
    """Complete record of one injection: every touched id and its old values.

    ``corrupted`` lists in-place edits (category and/or box) sorted by id;
    ``removed`` and ``added`` are sorted id lists. An id can appear in both
    ``corrupted`` and ``removed`` under composite noise; the edit happened,
    then the annotation was dropped.
    """

    config: NoiseConfig
    corrupted: tuple[CorruptionEntry, ...]
    removed: tuple[int, ...]
    added: tuple[int, ...]

    def counts(self) -> dict[str, int]:
        return {
            "categorization": sum(1 for e in self.corrupted if "categorization" in e.kinds),
            "localization": sum(1 for e in self.corrupted if "localization" in e.kinds),
            "missing": len(self.removed),
            "bogus": len(self.added),
        }

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "counts": self.counts(),
            "corrupted": [e.to_dict() for e in self.corrupted],
            "removed": list(self.removed),
            "added": list(self.added),
        }


def select_targets(ds: Dataset, ratio: float, seed: int, kind: str) -> frozenset[int]:
    """Choose which non-crowd annotation ids a noise kind will touch.

    Selection is a uniform without-replacement draw over the id-sorted
    eligible pool from the (seed, kind) stream; it does not depend on input
    record order, and different kinds select independently.
    """
    try:
        purpose = _SELECT_PURPOSE[kind]
    except KeyError:
        raise ValueError(f"unknown selection kind {kind!r}") from None
    pool = ds._non_crowd_ids
    k = exact_count(ratio, len(pool))
    if k == 0:
        return frozenset()
    rng = _stream(seed, purpose)
    picked = rng.choice(len(pool), size=k, replace=False)
    return frozenset(map(pool.__getitem__, picked.tolist()))


def _sorted_category_ids(ds: Dataset) -> list[int]:
    return sorted(c.id for c in ds.categories)


def _plan_categorization(ds: Dataset, ratio: float, seed: int) -> dict[int, int]:
    """Map selected annotation ids to their new (different) category ids.

    For each target the replacement is uniform over the other categories:
    one batched draw in [0, C-1) per target, skipped past the original's
    slot in the sorted category list.
    """
    cats = _sorted_category_ids(ds)
    if len(cats) < 2:
        raise ValueError("categorization noise needs at least two categories")
    targets = sorted(select_targets(ds, ratio, seed, "categorization"))
    if not targets:
        return {}
    slot = {c: i for i, c in enumerate(cats)}
    draws = _stream(seed, _CATEGORY_DRAWS).integers(0, len(cats) - 1, size=len(targets))
    flips: dict[int, int] = {}
    for ann_id, j in zip(targets, draws):
        orig = slot[ds.annotations_by_id[ann_id].category_id]
        flips[ann_id] = cats[j if j < orig else j + 1]
    return flips


def perturb_box(
    box: BoundingBox,
    image: ImageRecord,
    delta: float,
    rng: np.random.Generator,
    max_attempts: int = PERTURB_MAX_ATTEMPTS,
) -> BoundingBox:
    """Jitter a box: shift its center and rescale each side, then clip.

    Per attempt, four independent draws u ~ U[-1, 1]: the center moves by
    (u1*delta*w, u2*delta*h) and the sides scale by (1 + u3*delta) and
    (1 + u4*delta). The clipped candidate is accepted when both sides are
    at least one pixel and its IoU with the original lies strictly between
    0 and 1. After ``max_attempts`` rejections the last candidate is forced
    valid: sides floored to one pixel (capped at the image) and the box
    clamped inside; that last resort may coincide with the original box.
    """
    _check_delta(delta)
    w_img, h_img = float(image.width), float(image.height)
    cx0 = box.x + box.w / 2.0
    cy0 = box.y + box.h / 2.0
    cand = (cx0, cy0, box.w, box.h)
    for _ in range(max_attempts):
        u1, u2, u3, u4 = rng.uniform(-1.0, 1.0, size=4)
        cx = cx0 + u1 * delta * box.w
        cy = cy0 + u2 * delta * box.h
        w = box.w * (1.0 + u3 * delta)
        h = box.h * (1.0 + u4 * delta)
        cand = (cx, cy, w, h)
        x1 = max(0.0, cx - w / 2.0)
        y1 = max(0.0, cy - h / 2.0)
        x2 = min(w_img, cx + w / 2.0)
        y2 = min(h_img, cy + h / 2.0)
        if x2 - x1 < 1.0 or y2 - y1 < 1.0:
            continue
        new = BoundingBox(x1, y1, x2 - x1, y2 - y1)
        overlap = iou(box, new)
        if 0.0 < overlap < 1.0:
            return new
    cx, cy, w, h = cand
    w = min(max(w, 1.0), w_img)
    h = min(max(h, 1.0), h_img)
    x = min(max(cx - w / 2.0, 0.0), w_img - w)
    y = min(max(cy - h / 2.0, 0.0), h_img - h)
    return BoundingBox(x, y, w, h)


def _jitter(boxes: np.ndarray, sizes: np.ndarray, u: np.ndarray, delta: float):
    """One :func:`perturb_box` attempt per column, all columns at once.

    ``boxes`` is (4, n) rows ``x, y, w, h``, ``sizes`` (2, n) image width
    and height, ``u`` (4, n) uniforms in [-1, 1]. Returns the unclipped
    candidates (4, n: cx, cy, w, h), the clipped boxes (4, n) and whether
    each is accepted. The float operations are perturb_box's scalar ones,
    in the same order; ``np.where`` keeps Python's ``max(0.0, v)`` and
    ``min(side, v)``, signed zeros included. perturb_box keeps its scalar
    copy: on one box, numpy's per-call cost would make it several times
    slower.
    """
    xy, wh = boxes[:2], boxes[2:]
    center = xy + wh / 2.0 + u[:2] * delta * wh
    wh = wh * (1.0 + u[2:] * delta)
    lo, hi = center - wh / 2.0, center + wh / 2.0
    lo = np.where(lo > 0.0, lo, 0.0)
    hi = np.where(hi < sizes, hi, sizes)
    new = np.concatenate((lo, hi - lo))
    with np.errstate(divide="ignore", invalid="ignore"):  # degenerate zero-area boxes
        overlap = _pair_iou(boxes.T, new.T)
    accepted = (new[2:] >= 1.0).all(axis=0) & (overlap > 0.0) & (overlap < 1.0)
    return np.concatenate((center, wh)), new, accepted


def _plan_localization(ds: Dataset, ratio: float, delta: float, seed: int) -> dict[int, BoundingBox]:
    """Map selected annotation ids to their jittered boxes.

    The first attempt of every target comes from its stream's first block,
    all targets at once; a target whose first attempt is rejected is redone
    in full from its own stream.
    """
    _check_delta(delta)
    targets = sorted(select_targets(ds, ratio, seed, "localization"))
    if not targets:
        return {}
    anns = [ds.annotations_by_id[i] for i in targets]
    images = [ds.images_by_id[a.image_id] for a in anns]
    boxes = np.array([a.bbox.as_list() for a in anns], dtype=np.float64).T
    sizes = np.array([(im.width, im.height) for im in images], dtype=np.float64).T
    u = -1.0 + 2.0 * _doubles(_blocks(seed, _LOCALIZATION_ITEM, targets))
    _, new, accepted = _jitter(boxes, sizes, u, delta)
    moves: dict[int, BoundingBox] = {}
    for ann_id, a, image, ok, row in zip(targets, anns, images, accepted.tolist(), new.T.tolist()):
        if ok:
            moves[ann_id] = BoundingBox(*row)
        else:
            moves[ann_id] = perturb_box(a.bbox, image, delta, _stream(seed, _LOCALIZATION_ITEM, ann_id))
    return moves


def make_bogus_box(
    image: ImageRecord,
    ds: Dataset,
    policy: BogusSizePolicy,
    rng: np.random.Generator,
    new_id: int | None = None,
) -> Annotation:
    """Fabricate one annotation on ``image``: random class, random position.

    Draw order on ``rng`` is fixed (category, center x, center y, size).
    Size policy ``sample_existing`` copies (w, h) from a uniformly chosen
    non-crowd annotation of the same image, falling back to the whole
    dataset and then to ``uniform_fraction`` (each side uniform in 5..50%
    of the image side). The box is clipped to the image with a one-pixel
    minimum per side.
    """
    policy = BogusSizePolicy(policy)
    cats = _sorted_category_ids(ds)
    if not cats:
        raise ValueError("bogus noise needs at least one category")
    if new_id is None:
        new_id = ds.max_annotation_id() + 1
    w_img, h_img = float(image.width), float(image.height)
    cat = cats[int(rng.integers(0, len(cats)))]
    cx = rng.uniform(0.0, w_img)
    cy = rng.uniform(0.0, h_img)
    pool = _size_pool(ds, image) if policy is BogusSizePolicy.SAMPLE_EXISTING else ()
    if pool:
        src = pool[int(rng.integers(0, len(pool)))]
        w, h = src.bbox.w, src.bbox.h
    else:
        w = rng.uniform(0.05, 0.5) * w_img
        h = rng.uniform(0.05, 0.5) * h_img

    rx1, ry1 = cx - w / 2.0, cy - h / 2.0
    rx2, ry2 = rx1 + w, ry1 + h
    x1, y1 = max(0.0, rx1), max(0.0, ry1)
    # keep the sampled size bit-exact when the box is not cut by an edge
    bw = w if rx1 >= 0.0 and rx2 <= w_img else min(w_img, rx2) - x1
    bh = h if ry1 >= 0.0 and ry2 <= h_img else min(h_img, ry2) - y1
    if bw < 1.0:
        bw = min(1.0, w_img)
        x1 = min(max(cx - bw / 2.0, 0.0), w_img - bw)
    if bh < 1.0:
        bh = min(1.0, h_img)
        y1 = min(max(cy - bh / 2.0, 0.0), h_img - bh)
    return Annotation(id=new_id, image_id=image.id, category_id=cat,
                      bbox=BoundingBox(x1, y1, bw, bh))


def _size_pool(ds: Dataset, image: ImageRecord) -> Sequence[Annotation]:
    """Where ``sample_existing`` copies sizes from: the image's non-crowd
    annotations, or every non-crowd annotation when it has none."""
    return [a for a in ds.annotations_by_image.get(image.id, ()) if not a.crowd_flag] or ds.non_crowd


def _clip_span(center: np.ndarray, size: np.ndarray, side: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`make_bogus_box`'s clipping of spans along an axis, elementwise.

    The span of ``size`` centered at ``center`` is clipped to [0, side]; a
    span left under one pixel becomes one pixel (at most the side), moved
    inside. An uncut span keeps the sampled size bit-exact. ``np.where``
    spells out Python's ``max``/``min`` so that ties and signed zeros come
    out as the scalar rules give them.
    """
    r1 = center - size / 2.0
    r2 = r1 + size
    start = np.where(r1 > 0.0, r1, 0.0)
    length = np.where((r1 >= 0.0) & (r2 <= side), size, np.where(r2 < side, r2, side) - start)
    one = np.where(side < 1.0, side, 1.0)
    moved = center - one / 2.0
    moved = np.where(0.0 > moved, 0.0, moved)
    moved = np.where(side - one < moved, side - one, moved)
    thin = length < 1.0
    return np.where(thin, moved, start), np.where(thin, one, length)


def _plan_bogus(ds: Dataset, ratio: float, seed: int, policy: BogusSizePolicy) -> list[Annotation]:
    """Fabricate ``exact_count`` annotations with fresh sequential ids.

    Draw i comes from stream (seed, 6, i): an image index, then
    :func:`make_bogus_box`'s draws. Under ``sample_existing`` with at least
    two images and two categories, those draws fit in the stream's first
    block, computed for all draws at once: image and category from the low
    and high half of word 0, the center from words 1 and 2, the size
    source from the low half of word 3. A draw those words do not settle (a
    possible Lemire rejection) is redone in full from its own stream, and
    so is every draw under ``uniform_fraction`` (its sizes run into the
    next block) or with a range of one (numpy draws nothing for it, so the
    later draws shift).
    """
    k = exact_count(ratio, len(ds.non_crowd))
    if k == 0:
        return []
    images = sorted(ds.images, key=lambda im: im.id)
    if not images:
        raise ValueError("bogus noise needs at least one image")
    cats = _sorted_category_ids(ds)
    if not cats:
        raise ValueError("bogus noise needs at least one category")
    base = ds.max_annotation_id()

    def one(i: int) -> Annotation:
        rng = _stream(seed, _BOGUS_ITEM, i)
        image = images[int(rng.integers(0, len(images)))]
        return make_bogus_box(image, ds, policy, rng, new_id=base + 1 + i)

    if policy is not BogusSizePolicy.SAMPLE_EXISTING or len(images) == 1 or len(cats) == 1:
        return [one(i) for i in range(k)]
    block = _blocks(seed, _BOGUS_ITEM, list(range(k)))
    img_idx, settled = _bounded(block[0] & _LOW32, len(images))
    cat_idx, cat_settled = _bounded(block[0] >> _SHIFT32, len(cats))
    pools = [_size_pool(ds, im) for im in images]
    src_idx, src_settled = _bounded(block[3] & _LOW32, np.array([len(p) for p in pools])[img_idx])
    settled &= cat_settled & src_settled
    sides = np.array([(im.width, im.height) for im in images], dtype=np.float64)[img_idx].T
    # numpy's uniform(lo, hi) is lo + (hi - lo) * random(): rows are x, y
    center = 0.0 + sides * _doubles(block[1:3])
    src = [pools[j][i].bbox for j, i in zip(img_idx.tolist(), src_idx.tolist())]
    size = np.array([[b.w for b in src], [b.h for b in src]], dtype=np.float64)
    start, length = _clip_span(center, size, sides)

    bogus: list[Annotation] = []
    rows = zip(settled.tolist(), img_idx.tolist(), cat_idx.tolist(), *start.tolist(), *length.tolist())
    for i, (ok, j, c, *box) in enumerate(rows):
        if ok:
            bbox = BoundingBox(*box)
            bogus.append(Annotation(base + 1 + i, images[j].id, cats[c], bbox, False, bbox.area))
        else:
            bogus.append(one(i))
    return bogus


def _assemble(
    ds: Dataset,
    config: NoiseConfig,
    flips: dict[int, int],
    moves: dict[int, BoundingBox],
    removed: frozenset[int],
    bogus: list[Annotation],
) -> tuple[Dataset, InjectionLog]:
    """Apply planned edits in one pass, preserving input annotation order.

    Only the edited records are rebuilt; fabricated annotations are
    appended after the survivors. Crowd annotations are never planned
    against, so they pass through untouched.
    """
    changed = flips.keys() | moves.keys()
    entries: list[CorruptionEntry] = []
    anns: list[Annotation] = []
    for a in ds.annotations:
        if a.id in changed:
            flipped, moved = a.id in flips, a.id in moves
            entries.append(CorruptionEntry(a.id, _EDIT_KINDS[flipped, moved],
                                           a.category_id if flipped else None, a.bbox if moved else None))
            box = moves[a.id] if moved else a.bbox
            b = Annotation(a.id, a.image_id, flips.get(a.id, a.category_id), box,
                           a.crowd_flag, box.area if moved else a.area)
        else:
            b = a
        if a.id not in removed:
            anns.append(b)
    anns.extend(bogus)
    log = InjectionLog(
        config=config,
        corrupted=tuple(sorted(entries, key=lambda e: e.id)),
        removed=tuple(sorted(removed)),
        added=tuple(a.id for a in bogus),
    )
    return replace(ds, annotations=tuple(anns)), log


def inject_categorization(ds: Dataset, ratio: float, seed: int = 0) -> tuple[Dataset, InjectionLog]:
    """Flip the category of an exact-count subset, uniformly to another class."""
    return inject(ds, NoiseConfig(NoiseType.CATEGORIZATION, ratio, seed))


def inject_localization(
    ds: Dataset, ratio: float, delta: float = DEFAULT_LOC_DELTA, seed: int = 0, *, workers: int = 1,
) -> tuple[Dataset, InjectionLog]:
    """Jitter the boxes of an exact-count subset; areas are recomputed."""
    return inject(ds, NoiseConfig(NoiseType.LOCALIZATION, ratio, seed, loc_delta=delta))


def inject_missing(ds: Dataset, ratio: float, seed: int = 0) -> tuple[Dataset, InjectionLog]:
    """Drop an exact-count subset of non-crowd annotations."""
    return inject(ds, NoiseConfig(NoiseType.MISSING, ratio, seed))


def inject_bogus(
    ds: Dataset,
    ratio: float,
    seed: int = 0,
    policy: BogusSizePolicy = BogusSizePolicy.SAMPLE_EXISTING,
    *,
    workers: int = 1,
) -> tuple[Dataset, InjectionLog]:
    """Add an exact-count batch of fabricated annotations on random images."""
    return inject(ds, NoiseConfig(NoiseType.BOGUS, ratio, seed, bogus_size_policy=policy))


def inject_una(
    ds: Dataset,
    ratio: float,
    delta: float = DEFAULT_LOC_DELTA,
    seed: int = 0,
    policy: BogusSizePolicy = BogusSizePolicy.SAMPLE_EXISTING,
    *,
    workers: int = 1,
) -> tuple[Dataset, InjectionLog]:
    """Apply all four noise kinds at the same ratio in one pass.

    Each kind plans exactly as its standalone injector would on the input
    dataset (same streams, same counts); the plans are then merged. An
    annotation can be flipped and jittered and still dropped; drops win.
    Fabricated sizes under ``sample_existing`` draw from the original
    annotations, not the edited ones.
    """
    return inject(ds, NoiseConfig(NoiseType.UNA, ratio, seed, loc_delta=delta, bogus_size_policy=policy))


def inject(ds: Dataset, config: NoiseConfig, *, workers: int = 1) -> tuple[Dataset, InjectionLog]:
    """Plan the kinds ``config.noise_type`` names, then apply them in one pass.

    ``una`` plans all four kinds, in the order below. A single kind logs
    the defaults of the settings it does not use. ``workers`` is accepted
    for compatibility and has no effect.
    """
    t, ratio, seed = config.noise_type, config.ratio, config.seed
    una = t is NoiseType.UNA
    if not una:
        config = NoiseConfig(t, ratio, seed,
                             config.loc_delta if t is NoiseType.LOCALIZATION else DEFAULT_LOC_DELTA,
                             config.bogus_size_policy if t is NoiseType.BOGUS else BogusSizePolicy.SAMPLE_EXISTING)
    flips = _plan_categorization(ds, ratio, seed) if una or t is NoiseType.CATEGORIZATION else {}
    moves = _plan_localization(ds, ratio, config.loc_delta, seed) if una or t is NoiseType.LOCALIZATION else {}
    removed = select_targets(ds, ratio, seed, "missing") if una or t is NoiseType.MISSING else frozenset()
    bogus = _plan_bogus(ds, ratio, seed, config.bogus_size_policy) if una or t is NoiseType.BOGUS else []
    return _assemble(ds, config, flips, moves, removed, bogus)
