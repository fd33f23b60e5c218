"""Independent reference for seeded noise injection, used only as a test oracle.

Written from the spec in the README and the ``unabench.noise`` docstrings,
not from the implementation, and importing only public names. Every random
decision comes from its own ``np.random.Generator(np.random.Philox(key=...))``
built for one (seed, purpose, item) triple, the injection is a plain walk
over the records, counts round half up, and bytes come from the public
``serialize_dataset``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from unabench import (
    Annotation,
    BogusSizePolicy,
    BoundingBox,
    CorruptionEntry,
    Dataset,
    InjectionLog,
    NoiseConfig,
    NoiseType,
    serialize_dataset,
)

SELECT = {"categorization": 1, "localization": 2, "missing": 3}
CATEGORY_DRAWS, JITTER, BOGUS = 4, 5, 6
MAX_ATTEMPTS = 32


def stream(seed: int, purpose: int, item: int = 0) -> np.random.Generator:
    """Key word 0 is the seed; key word 1 holds the purpose in its top 6 bits, the item below."""
    return np.random.Generator(np.random.Philox(key=seed | (purpose << 58 | item) << 64))


def count(ratio: float, n: int) -> int:
    return min(n, math.floor(ratio * n + 0.5))


def eligible(ds: Dataset) -> list[Annotation]:
    return [a for a in ds.annotations if not a.crowd_flag]


def select(ds: Dataset, ratio: float, seed: int, kind: str) -> list[int]:
    """Target ids, sorted: ``choice(n, k, replace=False)`` over the id-sorted eligible ids."""
    ids = sorted(a.id for a in eligible(ds))
    k = count(ratio, len(ids))
    if k == 0:
        return []
    picked = stream(seed, SELECT[kind]).choice(len(ids), size=k, replace=False)
    return sorted(ids[i] for i in picked.tolist())


def flip_plan(ds: Dataset, ratio: float, seed: int) -> dict[int, int]:
    cats = sorted(c.id for c in ds.categories)
    if len(cats) < 2:
        raise ValueError("categorization noise needs at least two categories")
    targets = select(ds, ratio, seed, "categorization")
    if not targets:
        return {}
    by_id = {a.id: a for a in ds.annotations}
    draws = stream(seed, CATEGORY_DRAWS).integers(0, len(cats) - 1, size=len(targets)).tolist()
    out = {}
    for t, j in zip(targets, draws):
        orig = cats.index(by_id[t].category_id)
        out[t] = cats[j if j < orig else j + 1]
    return out


def box_iou(a: tuple, b: tuple) -> float:
    iw = min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0])
    if iw <= 0:
        return 0.0
    ih = min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1])
    if ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def jitter(box: BoundingBox, width: float, height: float, delta: float, rng) -> BoundingBox:
    x, y, w, h = box.x, box.y, box.w, box.h
    cx0, cy0 = x + w / 2.0, y + h / 2.0
    last = None
    for _ in range(MAX_ATTEMPTS):
        u1, u2, u3, u4 = rng.uniform(-1.0, 1.0, size=4).tolist()
        cx, cy = cx0 + u1 * delta * w, cy0 + u2 * delta * h
        nw, nh = w * (1.0 + u3 * delta), h * (1.0 + u4 * delta)
        last = (cx, cy, nw, nh)
        x1, y1 = max(0.0, cx - nw / 2.0), max(0.0, cy - nh / 2.0)
        x2, y2 = min(width, cx + nw / 2.0), min(height, cy + nh / 2.0)
        if x2 - x1 >= 1.0 and y2 - y1 >= 1.0 and 0.0 < box_iou((x, y, w, h), (x1, y1, x2 - x1, y2 - y1)) < 1.0:
            return BoundingBox(x1, y1, x2 - x1, y2 - y1)
    cx, cy, nw, nh = last
    nw, nh = min(max(nw, 1.0), width), min(max(nh, 1.0), height)
    return BoundingBox(min(max(cx - nw / 2.0, 0.0), width - nw), min(max(cy - nh / 2.0, 0.0), height - nh), nw, nh)


def move_plan(ds: Dataset, ratio: float, delta: float, seed: int) -> dict[int, BoundingBox]:
    by_id = {a.id: a for a in ds.annotations}
    images = {im.id: im for im in ds.images}
    out = {}
    for t in select(ds, ratio, seed, "localization"):
        a = by_id[t]
        im = images[a.image_id]
        out[t] = jitter(a.bbox, float(im.width), float(im.height), delta, stream(seed, JITTER, t))
    return out


def span(center: float, size: float, side: float) -> tuple[float, float]:
    """Clip a sampled span to [0, side]; an uncut span keeps its size, one under a pixel
    becomes min(1, side) long, centred where it can be and moved inside."""
    r1 = center - size / 2.0
    r2 = r1 + size
    start = max(0.0, r1)
    length = size if r1 >= 0.0 and r2 <= side else min(side, r2) - start
    if length < 1.0:
        length = min(1.0, side)
        start = min(max(center - length / 2.0, 0.0), side - length)
    return start, length


def bogus_plan(ds: Dataset, ratio: float, seed: int, policy: BogusSizePolicy) -> list[Annotation]:
    pool = sorted(eligible(ds), key=lambda a: a.id)
    k = count(ratio, len(pool))
    if k == 0:
        return []
    images = sorted(ds.images, key=lambda im: im.id)
    cats = sorted(c.id for c in ds.categories)
    if not images or not cats:
        raise ValueError("bogus noise needs an image and a category")
    base = max((a.id for a in ds.annotations), default=0)
    out = []
    for i in range(k):
        rng = stream(seed, BOGUS, i)
        im = images[int(rng.integers(0, len(images)))]
        cat = cats[int(rng.integers(0, len(cats)))]
        width, height = float(im.width), float(im.height)
        cx, cy = rng.uniform(0.0, width), rng.uniform(0.0, height)
        sizes = []
        if policy is BogusSizePolicy.SAMPLE_EXISTING:
            sizes = [a for a in pool if a.image_id == im.id] or pool
        if sizes:
            src = sizes[int(rng.integers(0, len(sizes)))].bbox
            w, h = src.w, src.h
        else:
            w = rng.uniform(0.05, 0.5) * width
            h = rng.uniform(0.05, 0.5) * height
        x, bw = span(cx, w, width)
        y, bh = span(cy, h, height)
        out.append(Annotation(base + 1 + i, im.id, cat, BoundingBox(x, y, bw, bh)))
    return out


def inject_ref(ds: Dataset, config: NoiseConfig) -> tuple[Dataset, InjectionLog]:
    """``una`` plans every kind on the input; a single kind logs the defaults of the
    settings it does not use. Survivors keep input order; fabricated records follow."""
    t, ratio, seed = config.noise_type, config.ratio, config.seed
    una = t is NoiseType.UNA
    if not una:
        config = NoiseConfig(t, ratio, seed, config.loc_delta if t is NoiseType.LOCALIZATION else 0.4,
                             config.bogus_size_policy if t is NoiseType.BOGUS else "sample_existing")
    flips = flip_plan(ds, ratio, seed) if una or t is NoiseType.CATEGORIZATION else {}
    moves = move_plan(ds, ratio, config.loc_delta, seed) if una or t is NoiseType.LOCALIZATION else {}
    removed = set(select(ds, ratio, seed, "missing")) if una or t is NoiseType.MISSING else set()
    bogus = bogus_plan(ds, ratio, seed, config.bogus_size_policy) if una or t is NoiseType.BOGUS else []

    records, entries = [], []
    for a in ds.annotations:
        cat, box, area = a.category_id, a.bbox, a.area
        if a.id in flips or a.id in moves:
            kinds = tuple(k for k, plan in (("categorization", flips), ("localization", moves)) if a.id in plan)
            entries.append(CorruptionEntry(a.id, kinds, cat if a.id in flips else None,
                                           box if a.id in moves else None))
            cat = flips.get(a.id, cat)
            if a.id in moves:
                box = moves[a.id]
                area = box.w * box.h
        if a.id not in removed:
            records.append(Annotation(a.id, a.image_id, cat, box, a.crowd_flag, area))
    records += bogus
    log = InjectionLog(config, tuple(sorted(entries, key=lambda e: e.id)), tuple(sorted(removed)),
                       tuple(a.id for a in bogus))
    return Dataset(ds.images, records, ds.categories), log


def outputs_ref(ds: Dataset, config: NoiseConfig) -> tuple[tuple[Annotation, ...], bytes, bytes, InjectionLog]:
    """The injected records, the dataset bytes, the sidecar bytes and the log."""
    noisy, log = inject_ref(ds, config)
    sidecar = json.dumps(log.to_dict(), indent=2, allow_nan=False).encode("utf-8")
    return noisy.annotations, serialize_dataset(noisy), sidecar, log
