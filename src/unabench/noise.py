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

Corrupted-entity counts use half-up rounding, ``floor(ratio * n + 0.5)``,
over the eligible (non-crowd) pool of the input dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .metrics import iou
from .model import Annotation, BoundingBox, Dataset, ImageRecord

_SELECT_PURPOSE = {"categorization": 1, "localization": 2, "missing": 3}
_CATEGORY_DRAWS = 4
_LOCALIZATION_ITEM = 5
_BOGUS_ITEM = 6

_ITEM_BITS = 58
_MAX_ITEM = 1 << _ITEM_BITS
_MAX_SEED = 1 << 64

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


def _stream(seed: int, purpose: int, item: int = 0) -> np.random.Generator:
    """Independent generator for one (seed, purpose, item) triple."""
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if not 0 <= item < _MAX_ITEM:
        raise ValueError(f"stream item must be in [0, 2**{_ITEM_BITS}), got {item}")
    key = ((purpose << _ITEM_BITS | item) << 64) | seed
    return np.random.Generator(np.random.Philox(key=key))


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
    pool = sorted(a.id for a in ds.non_crowd)
    k = exact_count(ratio, len(pool))
    if k == 0:
        return frozenset()
    rng = _stream(seed, purpose)
    picked = rng.choice(len(pool), size=k, replace=False)
    return frozenset(pool[i] for i in picked)


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


def _plan_localization(ds: Dataset, ratio: float, delta: float, seed: int) -> dict[int, BoundingBox]:
    """Map selected annotation ids to their jittered boxes."""
    _check_delta(delta)
    moves: dict[int, BoundingBox] = {}
    for ann_id in sorted(select_targets(ds, ratio, seed, "localization")):
        a = ds.annotations_by_id[ann_id]
        rng = _stream(seed, _LOCALIZATION_ITEM, ann_id)
        moves[ann_id] = perturb_box(a.bbox, ds.images_by_id[a.image_id], delta, rng)
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

    w = h = None
    if policy is BogusSizePolicy.SAMPLE_EXISTING:
        pool = [a for a in ds.annotations_by_image.get(image.id, ()) if not a.crowd_flag]
        if not pool:
            pool = list(ds.non_crowd)
        if pool:
            src = pool[int(rng.integers(0, len(pool)))]
            w, h = src.bbox.w, src.bbox.h
    if w is None or h is None:
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


def _plan_bogus(ds: Dataset, ratio: float, seed: int, policy: BogusSizePolicy) -> list[Annotation]:
    """Fabricate ``exact_count`` annotations with fresh sequential ids."""
    k = exact_count(ratio, len(ds.non_crowd))
    if k == 0:
        return []
    images = sorted(ds.images, key=lambda im: im.id)
    if not images:
        raise ValueError("bogus noise needs at least one image")
    base = ds.max_annotation_id()

    def one(i: int) -> Annotation:
        rng = _stream(seed, _BOGUS_ITEM, i)
        img = images[int(rng.integers(0, len(images)))]
        return make_bogus_box(img, ds, policy, rng, new_id=base + 1 + i)
    return [one(i) for i in range(k)]


def _assemble(
    ds: Dataset,
    config: NoiseConfig,
    flips: dict[int, int],
    moves: dict[int, BoundingBox],
    removed: frozenset[int],
    bogus: list[Annotation],
) -> tuple[Dataset, InjectionLog]:
    """Apply planned edits in one pass, preserving input annotation order.

    Fabricated annotations are appended after the survivors. Crowd
    annotations are never planned against, so they pass through untouched.
    """
    entries: list[CorruptionEntry] = []
    new_anns: list[Annotation] = []
    for a in ds.annotations:
        kinds: list[str] = []
        old_cat = old_box = None
        b = a
        if a.id in flips:
            kinds.append("categorization")
            old_cat = a.category_id
            b = replace(b, category_id=flips[a.id])
        if a.id in moves:
            kinds.append("localization")
            old_box = a.bbox
            nb = moves[a.id]
            b = replace(b, bbox=nb, area=nb.area)
        if kinds:
            entries.append(CorruptionEntry(a.id, tuple(kinds), old_cat, old_box))
        if a.id not in removed:
            new_anns.append(b)
    new_anns.extend(bogus)
    log = InjectionLog(
        config=config,
        corrupted=tuple(sorted(entries, key=lambda e: e.id)),
        removed=tuple(sorted(removed)),
        added=tuple(a.id for a in bogus),
    )
    return replace(ds, annotations=tuple(new_anns)), log


def inject_categorization(ds: Dataset, ratio: float, seed: int = 0) -> tuple[Dataset, InjectionLog]:
    """Flip the category of an exact-count subset, uniformly to another class."""
    config = NoiseConfig(NoiseType.CATEGORIZATION, ratio, seed)
    return _assemble(ds, config, _plan_categorization(ds, ratio, seed), {}, frozenset(), [])


def inject_localization(
    ds: Dataset, ratio: float, delta: float = DEFAULT_LOC_DELTA, seed: int = 0, *, workers: int = 1,
) -> tuple[Dataset, InjectionLog]:
    """Jitter the boxes of an exact-count subset; areas are recomputed."""
    config = NoiseConfig(NoiseType.LOCALIZATION, ratio, seed, loc_delta=delta)
    return _assemble(ds, config, {}, _plan_localization(ds, ratio, delta, seed), frozenset(), [])


def inject_missing(ds: Dataset, ratio: float, seed: int = 0) -> tuple[Dataset, InjectionLog]:
    """Drop an exact-count subset of non-crowd annotations."""
    config = NoiseConfig(NoiseType.MISSING, ratio, seed)
    return _assemble(ds, config, {}, {}, select_targets(ds, ratio, seed, "missing"), [])


def inject_bogus(
    ds: Dataset,
    ratio: float,
    seed: int = 0,
    policy: BogusSizePolicy = BogusSizePolicy.SAMPLE_EXISTING,
    *,
    workers: int = 1,
) -> tuple[Dataset, InjectionLog]:
    """Add an exact-count batch of fabricated annotations on random images."""
    config = NoiseConfig(NoiseType.BOGUS, ratio, seed, bogus_size_policy=policy)
    return _assemble(ds, config, {}, {}, frozenset(), _plan_bogus(ds, ratio, seed, BogusSizePolicy(policy)))


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
    config = NoiseConfig(NoiseType.UNA, ratio, seed, loc_delta=delta, bogus_size_policy=policy)
    flips = _plan_categorization(ds, ratio, seed)
    moves = _plan_localization(ds, ratio, delta, seed)
    removed = select_targets(ds, ratio, seed, "missing")
    bogus = _plan_bogus(ds, ratio, seed, BogusSizePolicy(policy))
    return _assemble(ds, config, flips, moves, removed, bogus)


def inject(ds: Dataset, config: NoiseConfig, *, workers: int = 1) -> tuple[Dataset, InjectionLog]:
    """Dispatch on ``config.noise_type``; returns the noisy dataset and log.

    ``workers`` is accepted for compatibility and has no effect.
    """
    t = config.noise_type
    if t is NoiseType.CATEGORIZATION:
        return inject_categorization(ds, config.ratio, config.seed)
    if t is NoiseType.LOCALIZATION:
        return inject_localization(ds, config.ratio, config.loc_delta, config.seed)
    if t is NoiseType.MISSING:
        return inject_missing(ds, config.ratio, config.seed)
    if t is NoiseType.BOGUS:
        return inject_bogus(ds, config.ratio, config.seed, config.bogus_size_policy)
    return inject_una(ds, config.ratio, config.loc_delta, config.seed, config.bogus_size_policy)
