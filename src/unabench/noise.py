"""Seeded annotation-noise injection: flips, box jitter, drops, fabrications.

Every random decision draws from its own counter-based stream (Philox4x64)
keyed by ``(seed, purpose, item)``, so a given annotation is corrupted the
same way no matter what else runs or in what order. The composite
injector therefore produces exactly the union of what the four standalone
injectors would do to the same input at the same seed. Planning runs on one
thread; :func:`inject`'s ``workers`` keyword is accepted for compatibility
and has no effect.

A stream is ``np.random.Generator(np.random.Philox(key=...))`` with the
128-bit key ``seed | (purpose << 58 | item) << 64``: key word 0 is the seed,
key word 1 holds the purpose in its high 6 bits and the item below. Purposes:

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
planners instead compute Philox blocks of every item's stream in one
vectorized pass (``_blocks``) and decode the draws from their raw words
exactly as numpy would, reading later blocks of the same streams where the
draws run past the first (jitter retries, ``uniform_fraction`` heights).
Jitter runs one attempt loop (``_perturb``) for both. A fabricated box whose
bounded integer draw numpy would not settle from its word (a rejected word,
or a range of one, for which numpy reads no word: so every box on a
one-image or one-category dataset) is redone in full from its own
``_stream``. Either way the bytes are the same; the golden
digests in the test suite pin them, and ``tests/reference_noise.py``
re-derives every output from this spec.

Corrupted-entity counts use half-up rounding, ``floor(ratio * n + 0.5)``,
over the eligible (non-crowd) pool of the input dataset.

Injection reads and edits the dataset's annotation table, never its records:
planners return table rows with their new values, and assembly edits copies
of the columns. The result builds records only when ``annotations`` is
read, reusing the input's own records for untouched rows. Likewise the log
holds its edits as arrays and builds its ``CorruptionEntry`` records only
when ``corrupted`` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import index
from typing import NamedTuple

import numpy as np

from .metrics import _pair_iou
from .model import Annotation, BoundingBox, Dataset, ImageRecord, _AnnotationTable

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


def _seed(seed) -> int:
    """``seed`` as a Python int in [0, 2**64); ValueError for a bool, a float, a string or
    another value that is no integer, or one out of range. Numpy integers are integers."""
    try:
        value = index(seed)
    except TypeError:
        value = -1
    if isinstance(seed, (bool, np.bool_)) or not 0 <= value < _MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return value


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


def _blocks(seed: int, purpose: int, items: list[int], counter: int = 1) -> np.ndarray:
    """Output block ``counter`` (1 for the first) of ``_stream(seed, purpose, item)`` for every item.

    Returns a (4, n) uint64 array, row j holding the j-th raw word of each
    stream's block: Philox4x64-10 (Salmon et al., SC'11) at counter
    (counter, 0, 0, 0), bit-equal to numpy's. Keys are range-checked before
    they are packed.

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
    c0, c1, c2, c3 = counter * ones, 0, 0, 0
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
    Returns the draws and a mask of the settled ones, where numpy takes the
    word and returns the draw: the low half of the product is at least
    ``2**32 mod n`` (numpy rejects the word below that and reads another)
    and ``n > 1`` (for ``n == 1`` numpy reads no word, so later draws move).
    """
    n = np.asarray(n, dtype=np.uint64)
    m = words * n
    return (m >> _SHIFT32).astype(np.intp), (n > 1) & ((m & _LOW32) >= np.uint64(1 << 32) % n)


def exact_count(ratio: float, n: int) -> int:
    """Number of entities to corrupt: half-up rounding of ``ratio * n``."""
    _check_ratio(ratio)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return min(n, math.floor(ratio * n + 0.5))


def _check_ratio(ratio: float) -> None:
    if not (isinstance(ratio, (int, float)) and not isinstance(ratio, bool) and math.isfinite(ratio)
            and 0.0 <= ratio <= 1.0):
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
        object.__setattr__(self, "seed", _seed(self.seed))

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


class _EditTable(NamedTuple):
    """A log's in-place edits as arrays, row i for the i-th edited id in id order:
    ids, flipped and moved masks, old category ids and (n, 4) float64 old boxes; an
    old value is meaningful only where its mask is set. Ids and old category ids
    are int64, or the records' own values (an object array) in a log built from
    records."""

    ids: np.ndarray
    flipped: np.ndarray
    moved: np.ndarray
    old_categories: np.ndarray
    old_boxes: np.ndarray

    @classmethod
    def of(cls, entries: tuple[CorruptionEntry, ...]) -> _EditTable:
        """The table of records. Raises ``ValueError`` on an entry unlike :func:`inject`'s
        (kinds in order, each with its old value and no other), which it cannot hold."""
        flipped = [e.old_category_id is not None for e in entries]
        moved = [e.old_bbox is not None for e in entries]
        for e, marks in zip(entries, zip(flipped, moved)):
            if _EDIT_KINDS.get(marks) != tuple(e.kinds):
                raise ValueError(f"corrupted entry {e.id}: kinds {tuple(e.kinds)} do not match its old values")
        return cls(np.array([e.id for e in entries], dtype=object), np.array(flipped, dtype=bool),
                   np.array(moved, dtype=bool), np.array([e.old_category_id for e in entries], dtype=object),
                   np.array([(0.0,) * 4 if e.old_bbox is None else e.old_bbox.as_list() for e in entries],
                            dtype=np.float64).reshape(-1, 4))

    def entries(self) -> tuple[CorruptionEntry, ...]:
        flipped, moved = self.flipped.tolist(), self.moved.tolist()
        old_categories = [c if f else None for c, f in zip(self.old_categories.tolist(), flipped)]
        old_boxes = [BoundingBox(*b) if m else None for b, m in zip(self.old_boxes.tolist(), moved)]
        return tuple(map(CorruptionEntry, self.ids.tolist(), map(_EDIT_KINDS.__getitem__, zip(flipped, moved)),
                         old_categories, old_boxes))


@dataclass(frozen=True)
class InjectionLog:
    """Complete record of one injection: every touched id and its old values.

    ``corrupted`` lists in-place edits (category and/or box) sorted by id;
    ``removed`` and ``added`` are sorted id lists. An id can appear in both
    ``corrupted`` and ``removed`` under composite noise; the edit happened,
    then the annotation was dropped.

    A log from :func:`inject` holds its edits as a table and builds the
    ``corrupted`` records on first read; one built from records makes its
    table on first use, and refuses an entry whose kinds do not name, in
    :func:`inject`'s order, exactly the old values it holds. Either way its
    value, hash, repr and pickle are those of its records. :meth:`counts`
    and the CLI's sidecar writer read the table.
    """

    config: NoiseConfig
    corrupted: tuple[CorruptionEntry, ...]
    removed: tuple[int, ...]
    added: tuple[int, ...]

    @classmethod
    def _of_table(cls, config: NoiseConfig, edits: _EditTable, removed, added) -> InjectionLog:
        """A log whose ``corrupted`` records are built from ``edits`` when first read."""
        log = object.__new__(cls)
        vars(log).update(config=config, _edits=edits, removed=tuple(removed), added=tuple(added))
        return log

    def __getattr__(self, name: str):
        # reached only while a log made by _of_table has no corrupted records yet
        edits = self.__dict__.get("_edits")
        if name != "corrupted" or edits is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        entries = edits.entries()
        object.__setattr__(self, "corrupted", entries)
        return entries

    @cached_property
    def _edits(self) -> _EditTable:
        return _EditTable.of(self.corrupted)

    def counts(self) -> dict[str, int]:
        edits = self._edits
        return {
            "categorization": int(np.count_nonzero(edits.flipped)),
            "localization": int(np.count_nonzero(edits.moved)),
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

    Selection is ``choice(n, k, replace=False)`` on the (seed, kind) stream
    over the id-sorted eligible pool of ``n`` ids, ``k`` by
    :func:`exact_count`; it does not depend on input record order, and
    different kinds select independently.
    """
    return frozenset(ds._table.ids[_select(ds, ratio, _seed(seed), kind)].tolist())


def _eligible(ds: Dataset) -> np.ndarray:
    """Table rows of the non-crowd annotations in id order; raises on a duplicated id."""
    order = ds._id_order
    return order[~ds._table.crowd[order]]


def _select(ds: Dataset, ratio: float, seed: int, kind: str) -> np.ndarray:
    """Table rows of :func:`select_targets`' ids, in id order."""
    try:
        purpose = _SELECT_PURPOSE[kind]
    except KeyError:
        raise ValueError(f"unknown selection kind {kind!r}") from None
    pool = _eligible(ds)
    k = exact_count(ratio, len(pool))
    if k == 0:
        return pool[:0]
    return pool[np.sort(_stream(seed, purpose).choice(len(pool), size=k, replace=False))]


def _plan_categorization(ds: Dataset, ratio: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the selected annotations and their new (different) category ids.

    For each target the replacement is uniform over the other categories:
    one batched draw in [0, C-1) per target, skipped past the original's
    slot in the sorted category list.
    """
    cats = ds._category_ids
    if len(cats) < 2:
        raise ValueError("categorization noise needs at least two categories")
    rows = _select(ds, ratio, seed, "categorization")
    if not len(rows):
        return rows, cats[:0]
    draws = _stream(seed, _CATEGORY_DRAWS).integers(0, len(cats) - 1, size=len(rows))
    slot = np.searchsorted(cats, ds._table.categories[rows], side="right") - 1
    return rows, cats[draws + (draws >= slot)]


def perturb_box(
    box: BoundingBox,
    image: ImageRecord,
    delta: float,
    rng: np.random.Generator,
    max_attempts: int = PERTURB_MAX_ATTEMPTS,
) -> BoundingBox:
    """Jitter a box: shift its center and rescale each side, then clip.

    Per attempt, four independent draws ``u = rng.uniform(-1, 1, size=4)``:
    the center ``(x + w/2, y + h/2)`` moves by ``(u1*delta*w, u2*delta*h)``
    and the sides become ``w*(1 + u3*delta)`` and ``h*(1 + u4*delta)``. The
    candidate is clipped to the image (``max(0, lo)``, ``min(side, hi)``) and
    accepted when both clipped sides are at least one pixel and its IoU with
    the original lies strictly between 0 and 1. After ``max_attempts``
    rejections the last unclipped candidate is forced valid: each side
    ``min(max(side, 1), image side)``, each corner
    ``min(max(center - side/2, 0), image side - side)``; that last resort may
    coincide with the original box.
    """
    _check_delta(delta)
    old = np.array(box.as_list(), dtype=np.float64).reshape(4, 1)
    size = np.array([[image.width], [image.height]], dtype=np.float64)
    new = _perturb(old, size, delta, lambda attempt, todo: rng.uniform(-1.0, 1.0, size=(4, len(todo))), max_attempts)
    return BoundingBox(*new[:, 0].tolist())


def _perturb(old: np.ndarray, sizes: np.ndarray, delta: float, draw, max_attempts: int) -> np.ndarray:
    """:func:`perturb_box` on every column of (4, n) boxes ``old`` within (2, n) ``sizes``.

    ``draw(a, todo)`` gives attempt a's (4, len(todo)) uniforms in [-1, 1]
    for the columns ``todo`` still rejected, a counting from 1. With no
    attempt the last resort starts from the unjittered box. Returns the
    (4, n) new boxes.
    """
    new, todo = np.empty_like(old), np.arange(old.shape[1])
    cand = np.concatenate((old[:2] + old[2:] / 2.0, old[2:]))
    for attempt in range(1, max_attempts + 1):
        cand, moved, accepted = _jitter(old[:, todo], sizes[:, todo], draw(attempt, todo), delta)
        new[:, todo[accepted]] = moved[:, accepted]
        todo, cand = todo[~accepted], cand[:, ~accepted]
        if not len(todo):
            return new
    new[:, todo] = _last_resort(cand, sizes[:, todo])
    return new


def _jitter(boxes: np.ndarray, sizes: np.ndarray, u: np.ndarray, delta: float):
    """One :func:`perturb_box` attempt per column, all columns at once.

    ``boxes`` is (4, n) rows ``x, y, w, h``, ``sizes`` (2, n) image width
    and height, ``u`` (4, n) uniforms in [-1, 1]. Returns the unclipped
    candidates (4, n: cx, cy, w, h), the clipped boxes (4, n) and whether
    each is accepted. ``np.where`` keeps Python's ``max(0.0, v)`` and
    ``min(side, v)``, signed zeros included.
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


def _last_resort(cand: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """:func:`perturb_box`'s forced box from (4, n) unclipped candidates, as (4, n) boxes."""
    wh = np.where(1.0 > cand[2:], 1.0, cand[2:])
    wh = np.where(sizes < wh, sizes, wh)
    return np.concatenate((_place(cand[:2], wh, sizes), wh))


def _place(center: np.ndarray, length: np.ndarray, side: np.ndarray) -> np.ndarray:
    """``min(max(center - length/2, 0), side - length)`` elementwise, as Python's min and max give it."""
    start = center - length / 2.0
    start = np.where(0.0 > start, 0.0, start)
    return np.where(side - length < start, side - length, start)


def _plan_localization(ds: Dataset, ratio: float, delta: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the selected annotations and their jittered (n, 4) boxes.

    Attempt a of every target still rejected comes from block a of its
    stream (one attempt's four uniforms are one block), all targets at once.
    """
    _check_delta(delta)
    rows = _select(ds, ratio, seed, "localization")
    t, images = ds._table, ds._image_table
    if not len(rows):
        return rows, t.boxes[:0]
    ids, sizes = t.ids[rows], images.sizes[np.searchsorted(images.ids, t.images[rows])].T

    def draw(attempt: int, todo: np.ndarray) -> np.ndarray:
        return -1.0 + 2.0 * _doubles(_blocks(seed, _LOCALIZATION_ITEM, ids[todo].tolist(), attempt))

    return rows, _perturb(t.boxes[rows].T, sizes, delta, draw, PERTURB_MAX_ATTEMPTS).T


def make_bogus_box(
    image: ImageRecord,
    ds: Dataset,
    policy: BogusSizePolicy,
    rng: np.random.Generator,
    new_id: int | None = None,
) -> Annotation:
    """Fabricate one annotation on ``image``: random class, random position.

    Draws on ``rng``, in order: the category, ``integers(0, C)`` over the
    sorted category ids; the center, ``uniform(0, W)`` then
    ``uniform(0, H)``; the size. Size policy ``sample_existing`` copies
    (w, h) from the ``integers(0, n)``-th of the image's ``n`` non-crowd
    annotations in record order, falling back to every non-crowd annotation
    of the dataset in record order and then to ``uniform_fraction``:
    ``uniform(0.05, 0.5) * W``, then the same times ``H``. Along each axis
    the span is clipped to the image; a span the image does not cut keeps
    the sampled size bit-exact, and one left under a pixel becomes
    ``min(1, side)`` long at ``min(max(center - length/2, 0), side - length)``.
    """
    policy = BogusSizePolicy(policy)
    cats = ds._category_ids
    if not len(cats):
        raise ValueError("bogus noise needs at least one category")
    if new_id is None:
        new_id = ds.max_annotation_id() + 1
    side = [float(image.width), float(image.height)]
    ids = ds._image_table.ids
    j = int(np.searchsorted(ids, image.id))
    if ids[j:j + 1].tolist() != [image.id]:  # an image of another dataset
        j = len(ids)
    c, *center_and_size = _bogus_draws(rng, ds, j, side, policy)
    center, size = np.reshape(center_and_size, (2, 2))
    (x, y), (w, h) = (v.tolist() for v in _clip_span(center, size, np.array(side)))
    return Annotation(new_id, image.id, int(cats[c]), BoundingBox(x, y, w, h))


def _bogus_draws(rng: np.random.Generator, ds: Dataset, j: int, side: list[float],
                 policy: BogusSizePolicy) -> tuple[int, float, float, float, float]:
    """:func:`make_bogus_box`'s draws on row j of the image table, of size ``side``:
    category index, center x and y, then width and height."""
    w_img, h_img = side
    c = int(rng.integers(0, len(ds._category_ids)))
    cx = rng.uniform(0.0, w_img)
    cy = rng.uniform(0.0, h_img)
    rows, starts, counts = ds._size_sources
    pool = rows[starts[j]:starts[j] + counts[j]] if policy is BogusSizePolicy.SAMPLE_EXISTING else ()
    if len(pool):
        w, h = ds._table.boxes[pool[int(rng.integers(0, len(pool)))], 2:].tolist()
    else:
        w = rng.uniform(0.05, 0.5) * w_img
        h = rng.uniform(0.05, 0.5) * h_img
    return c, cx, cy, w, h


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
    thin = length < 1.0
    return np.where(thin, _place(center, one, side), start), np.where(thin, one, length)


def _plan_bogus(ds: Dataset, ratio: float, seed: int, policy: BogusSizePolicy) -> _AnnotationTable:
    """Fabricate ``exact_count`` annotations with fresh sequential ids, as table rows.

    Draw i comes from stream (seed, 6, i): an image index, ``integers(0, I)``
    over the images sorted by id, then :func:`make_bogus_box`'s draws. They
    are decoded from the stream's words, computed for all draws at once:
    image and category from the low and high half of word 0 of the first
    block, the center from words 1 and 2. The size source under
    ``sample_existing`` is the low half of word 3; under ``uniform_fraction``
    the width comes from word 3 and the height from word 0 of the second
    block. A draw with a bounded integer that :func:`_bounded` leaves
    unsettled is redone in full from its own stream: where numpy rejects the
    word, or where the range is one (numpy reads no word for it, so the
    later draws shift; every draw on a one-image or one-category dataset).
    Every box is then clipped at once.
    """
    t = ds._table
    k = exact_count(ratio, len(_eligible(ds)))
    if k == 0:
        return _AnnotationTable(*(col[:0] for col in t))
    images = ds._image_table
    if not len(images.ids):
        raise ValueError("bogus noise needs at least one image")
    cats = ds._category_ids
    if not len(cats):
        raise ValueError("bogus noise needs at least one category")
    base = ds.max_annotation_id()
    block = _blocks(seed, _BOGUS_ITEM, list(range(k)))
    img_idx, settled = _bounded(block[0] & _LOW32, len(images.ids))
    cat_idx, cat_settled = _bounded(block[0] >> _SHIFT32, len(cats))
    settled &= cat_settled
    # numpy's uniform(lo, hi) is lo + (hi - lo) * random(): rows are x, y
    sides = images.sizes[img_idx].T
    center = 0.0 + sides * _doubles(block[1:3])
    if policy is BogusSizePolicy.SAMPLE_EXISTING:
        rows, starts, counts = ds._size_sources
        src_idx, src_settled = _bounded(block[3] & _LOW32, counts[img_idx])
        settled &= src_settled
        size = t.boxes[rows[starts[img_idx] + src_idx], 2:].T
    else:
        words = np.stack((block[3], _blocks(seed, _BOGUS_ITEM, list(range(k)), 2)[0]))
        size = (0.05 + (0.5 - 0.05) * _doubles(words)) * sides
    for i in np.flatnonzero(~settled).tolist():
        rng = _stream(seed, _BOGUS_ITEM, i)
        j = img_idx[i] = int(rng.integers(0, len(images.ids)))
        cat_idx[i], *draws = _bogus_draws(rng, ds, j, images.sizes[j].tolist(), policy)
        center[:, i], size[:, i] = draws[:2], draws[2:]
    sides = images.sizes[img_idx].T
    start, length = _clip_span(center, size, sides)
    boxes = np.concatenate((start, length)).T
    return _AnnotationTable(np.arange(base + 1, base + 1 + k, dtype=np.int64), images.ids[img_idx],
                            cats[cat_idx], boxes, length[0] * length[1], np.zeros(k, dtype=bool))


def _assemble(
    ds: Dataset,
    config: NoiseConfig,
    flips: tuple[np.ndarray, np.ndarray],
    moves: tuple[np.ndarray, np.ndarray],
    removed: np.ndarray,
    bogus: _AnnotationTable,
) -> tuple[Dataset, InjectionLog]:
    """Apply the planned edits to copies of the table's columns; no record is built.

    ``flips`` and ``moves`` are table rows with their new categories and
    boxes, ``removed`` the rows to drop, all in id order. Survivors keep
    input order, moved boxes get their areas recomputed, and fabricated rows
    follow. Crowd annotations are never planned against. When ``ds`` holds
    records, the output's untouched records will be those same objects. The
    log holds the edits as a table too.
    """
    t = ds._table
    (flip_rows, new_categories), (move_rows, new_boxes) = flips, moves
    cached = {"_image_table": ds._image_table, "_category_ids": ds._category_ids}
    if not (len(flip_rows) or len(move_rows) or len(removed) or len(bogus.ids)):  # nothing planned
        if "annotations" in vars(ds):
            cached["annotations"] = ds.annotations
        log = InjectionLog._of_table(config, _EditTable.of(()), (), ())
        return Dataset._of_table(ds.images, t, ds.categories, **cached), log
    categories, boxes, areas = t.categories.copy(), t.boxes.copy(), t.areas.copy()
    categories[flip_rows] = new_categories
    boxes[move_rows] = new_boxes
    areas[move_rows] = new_boxes[:, 2] * new_boxes[:, 3]
    n = len(t.ids)
    keep, flipped, moved = np.ones(n, dtype=bool), np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    keep[removed], flipped[flip_rows], moved[move_rows] = False, True, True
    edited = (t.ids, t.images, categories, boxes, areas, t.crowd)
    table = _AnnotationTable(*(np.concatenate((col[keep], extra)) for col, extra in zip(edited, bogus)))

    changed = np.flatnonzero(flipped | moved)
    changed = changed[np.argsort(t.ids[changed], kind="stable")]
    edits = _EditTable(t.ids[changed], flipped[changed], moved[changed], t.categories[changed], t.boxes[changed])
    log = InjectionLog._of_table(config, edits, t.ids[removed].tolist(), bogus.ids.tolist())
    if "annotations" in vars(ds):  # untouched rows will be the input's own records
        source = np.arange(n)
        source[changed] = -1
        cached["_reused"] = ds.annotations, np.concatenate((source[keep], np.full(len(bogus.ids), -1)))
    return Dataset._of_table(ds.images, table, ds.categories, **cached), log


def inject_categorization(ds: Dataset, ratio: float, seed: int = 0) -> tuple[Dataset, InjectionLog]:
    """Flip the category of an exact-count subset, uniformly to another class."""
    return inject(ds, NoiseConfig(NoiseType.CATEGORIZATION, ratio, seed))


def inject_localization(
    ds: Dataset, ratio: float, delta: float = DEFAULT_LOC_DELTA, seed: int = 0,
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
) -> tuple[Dataset, InjectionLog]:
    """Add an exact-count batch of fabricated annotations on random images."""
    return inject(ds, NoiseConfig(NoiseType.BOGUS, ratio, seed, bogus_size_policy=policy))


def inject_una(
    ds: Dataset,
    ratio: float,
    delta: float = DEFAULT_LOC_DELTA,
    seed: int = 0,
    policy: BogusSizePolicy = BogusSizePolicy.SAMPLE_EXISTING,
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
    none = np.zeros(0, dtype=np.intp)
    flips = _plan_categorization(ds, ratio, seed) if una or t is NoiseType.CATEGORIZATION else (none, none)
    moves = (_plan_localization(ds, ratio, config.loc_delta, seed) if una or t is NoiseType.LOCALIZATION
             else (none, ds._table.boxes[:0]))
    removed = _select(ds, ratio, seed, "missing") if una or t is NoiseType.MISSING else none
    bogus = (_plan_bogus(ds, ratio, seed, config.bogus_size_policy) if una or t is NoiseType.BOGUS
             else _AnnotationTable(*(col[:0] for col in ds._table)))
    return _assemble(ds, config, flips, moves, removed, bogus)
