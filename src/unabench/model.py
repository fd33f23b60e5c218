"""Dataset and detection types plus canonical COCO-format JSON I/O.

Datasets are immutable value objects. Parsing collects every problem it can
find and reports them together; serialization is canonical (id-sorted arrays,
fixed key order, compact separators) so equal datasets always produce
byte-identical output regardless of construction order.
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import NamedTuple, Sequence

import numpy as np

logger = logging.getLogger(__name__)


class ValidationError(ValueError):
    """A dataset or results document violates the format contract.

    ``errors`` holds one message per problem, each prefixed with the path of
    the offending record, e.g. ``annotations[3] (id=17): missing field 'bbox'``.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        shown = "; ".join(self.errors[:8])
        extra = f"; ... ({len(self.errors) - 8} more)" if len(self.errors) > 8 else ""
        super().__init__(f"{len(self.errors)} validation error(s): {shown}{extra}")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in COCO ``[x, y, w, h]`` convention, origin top-left.

    Width/height positivity is enforced at dataset validation, not here, so
    that a malformed file can be reported as a whole instead of failing on
    the first bad record.
    """

    x: float
    y: float
    w: float
    h: float

    @property
    def area(self) -> float:
        return self.w * self.h

    def as_list(self) -> list[float]:
        return [self.x, self.y, self.w, self.h]


@dataclass(frozen=True)
class ImageRecord:
    id: int
    width: int
    height: int
    file_name: str


@dataclass(frozen=True)
class Category:
    id: int
    name: str


@dataclass(frozen=True)
class Annotation:
    """One ground-truth box. ``area`` is derived from the box when not given."""

    id: int
    image_id: int
    category_id: int
    bbox: BoundingBox
    crowd_flag: bool = False
    area: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.area is None:
            object.__setattr__(self, "area", self.bbox.area)


@dataclass(frozen=True)
class Detection:
    """One scored predicted box."""

    image_id: int
    category_id: int
    bbox: BoundingBox
    score: float


@dataclass(frozen=True)
class Dataset:
    """An immutable collection of images, annotations and categories.

    Record order is preserved as given; lookups and the eligible (non-crowd)
    pool are built lazily and cached.
    """

    images: tuple[ImageRecord, ...]
    annotations: tuple[Annotation, ...]
    categories: tuple[Category, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        object.__setattr__(self, "annotations", tuple(self.annotations))
        object.__setattr__(self, "categories", tuple(self.categories))

    @cached_property
    def images_by_id(self) -> dict[int, ImageRecord]:
        return {im.id: im for im in self.images}

    @cached_property
    def annotations_by_id(self) -> dict[int, Annotation]:
        """Raises ``ValueError`` naming a duplicated id: no caller may merge two records."""
        by_id = {a.id: a for a in self.annotations}
        if len(by_id) < len(self.annotations):
            dup = next(i for i, n in Counter(a.id for a in self.annotations).items() if n > 1)
            raise ValueError(f"duplicate annotation id {dup}")
        return by_id

    @cached_property
    def categories_by_id(self) -> dict[int, Category]:
        return {c.id: c for c in self.categories}

    @cached_property
    def annotations_by_image(self) -> dict[int, tuple[Annotation, ...]]:
        grouped: dict[int, list[Annotation]] = {im.id: [] for im in self.images}
        for a in self.annotations:
            grouped.setdefault(a.image_id, []).append(a)
        return {k: tuple(v) for k, v in grouped.items()}

    @cached_property
    def non_crowd(self) -> tuple[Annotation, ...]:
        """Annotations eligible for noise injection and evaluation."""
        return tuple(a for a in self.annotations if not a.crowd_flag)

    @cached_property
    def _non_crowd_ids(self) -> tuple[int, ...]:
        """Ids of :attr:`non_crowd`, sorted: the pool noise targets are drawn from."""
        return tuple(sorted(i for i, a in self.annotations_by_id.items() if not a.crowd_flag))

    def max_annotation_id(self) -> int:
        return max(self.annotations_by_id, default=0)


# Checks on decoded JSON go by exact type: a literal true/false, a bool, is
# neither an id nor a number.
_NUMBERS = frozenset((int, float))


def _is_num(v) -> bool:
    return type(v) in _NUMBERS and math.isfinite(v)


def _check_refs_and_box(path: str, rec, image_ids, category_ids, errors: list[str]) -> bool:
    """Reference and box rules for annotations and detections; True if the box is usable."""
    if rec.image_id is not _UNREAD and rec.image_id not in image_ids:
        errors.append(f"{path}: unknown image_id {rec.image_id}")
    if rec.category_id is not _UNREAD and rec.category_id not in category_ids:
        errors.append(f"{path}: unknown category_id {rec.category_id}")
    b = rec.bbox
    if not all(map(math.isfinite, (b.x, b.y, b.w, b.h))):
        errors.append(f"{path}: non-finite bbox {b.as_list()}")
        return False
    if b.w <= 0 or b.h <= 0:
        errors.append(f"{path}: non-positive box width/height (w={b.w}, h={b.h})")
        return False
    return True


def validate_dataset(ds: Dataset) -> None:
    """Check referential integrity and value ranges; raise on any violation.

    Boxes that stick out of their image are common in real exports and are
    only warned about. Everything else (duplicate ids, dangling references,
    non-positive box sizes, non-finite values) raises :class:`ValidationError`
    listing every offending record.
    """
    errors: list[str] = []

    seen_img: set[int] = set()
    for i, im in enumerate(ds.images):
        path = f"images[{i}] (id={im.id})"
        if im.id in seen_img:
            errors.append(f"{path}: duplicate image id")
        seen_img.add(im.id)
        if im.width <= 0 or im.height <= 0:
            errors.append(f"{path}: non-positive size {im.width}x{im.height}")

    seen_cat: set[int] = set()
    for i, c in enumerate(ds.categories):
        path = f"categories[{i}] (id={c.id})"
        if c.id in seen_cat:
            errors.append(f"{path}: duplicate category id")
        seen_cat.add(c.id)

    seen_ann: set[int] = set()
    out_of_bounds: list[int] = []
    for i, a in enumerate(ds.annotations):
        path = f"annotations[{i}] (id={a.id})"
        if a.id in seen_ann:
            errors.append(f"{path}: duplicate annotation id")
        seen_ann.add(a.id)
        if not _check_refs_and_box(path, a, seen_img, seen_cat, errors):
            continue
        if not math.isfinite(a.area) or a.area < 0:
            errors.append(f"{path}: bad area {a.area}")
        b, im = a.bbox, ds.images_by_id.get(a.image_id)
        if im is not None and (b.x < 0 or b.y < 0 or b.x + b.w > im.width or b.y + b.h > im.height):
            out_of_bounds.append(a.id)

    if out_of_bounds:
        sample = ", ".join(str(v) for v in out_of_bounds[:10])
        extra = ", ..." if len(out_of_bounds) > 10 else ""
        logger.warning(
            "%d annotation box(es) extend beyond image bounds (ids %s%s); kept as-is",
            len(out_of_bounds), sample, extra,
        )

    if errors:
        raise ValidationError(errors)


def _box(v):
    if type(v) is list and len(v) == 4 and _NUMBERS.issuperset(map(type, v)) and all(map(math.isfinite, v)):
        return BoundingBox(*map(float, v))
    return _UNREAD


# Field types: (reader, problem, fallback). A reader returns the field's value,
# or _UNREAD to reject it; an absent key reads as _UNREAD, which every reader
# rejects. A missing or rejected field is reported, a rejected value with
# ``problem``, and reads as ``fallback`` so later checks run; they skip an _UNREAD id.
_UNREAD = object()
_INT = (lambda v: v if type(v) is int else _UNREAD, "field {key!r} must be an integer, got {value!r}", _UNREAD)
_STR = (lambda v: v if isinstance(v, str) else _UNREAD, "{key} must be a string", "")
_NUM = (lambda v: float(v) if _is_num(v) else _UNREAD, "{key} must be a finite number, got {value!r}", 0.0)
_BOX = (_box, "{key} must be four finite numbers, got {value!r}", BoundingBox(0.0, 0.0, 1.0, 1.0))
# Record kinds: (section name, label paths with the record's id, field types by
# key, in the order their problems are reported). _DEFAULTS holds the optional keys and
# what an absent one reads as; a null area is derived from the box too.
_IMAGES = ("images", False, {"file_name": _STR, "id": _INT, "width": _INT, "height": _INT})
_ANNOTATIONS = ("annotations", True, {
    "iscrowd": (lambda v: bool(v) if v in (0, 1) else _UNREAD, "{key} must be 0 or 1, got {value!r}", False),
    "area": (lambda v: None if v is None else float(v) if _is_num(v) else _UNREAD, _NUM[1], None),
    "id": _INT, "image_id": _INT, "category_id": _INT, "bbox": _BOX})
_CATEGORIES = ("categories", False, {"name": _STR, "id": _INT})
_RESULTS = ("results", False, {"image_id": _INT, "category_id": _INT, "bbox": _BOX, "score": _NUM})
_DEFAULTS = {"iscrowd": 0, "area": None}


def _read_records(section: list, kind: tuple, errors: list[str]):
    """Yield ``(path, fields)`` for each object record of a document section, ``fields``
    mapping each key of the kind to its value or fallback: the only reader of JSON records."""
    name, labelled, types = kind
    fields = [(key, *field_type, _DEFAULTS.get(key, _UNREAD)) for key, field_type in types.items()]
    for i, rec in enumerate(section):
        path = f"{name}[{i}]"
        if not isinstance(rec, dict):
            errors.append(f"{path}: record must be an object")
            continue
        if labelled and type(rec.get("id")) is int:
            path = f"{path} (id={rec['id']})"
        values = {}
        for key, read, problem, fallback, absent in fields:
            raw = rec.get(key, absent)
            try:
                value = read(raw)
            except OverflowError:  # an int too large for a float is not a finite number
                value = _UNREAD
            if value is _UNREAD:
                if raw is None and "{value" not in problem:
                    problem += ", got {value!r}"  # a null shows even where a wrong value does not
                text = f"missing field {key!r}" if raw is _UNREAD else problem.format(key=key, value=raw)
                errors.append(f"{path}: {text}")
                value = fallback
            values[key] = value
        yield path, values


def _load_json(data: bytes | str, top: type, shape: str):
    """Decode a whole document whose top level must be a ``top``."""
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ValidationError([f"document: not valid JSON ({e})"]) from e
    if not isinstance(doc, top):
        raise ValidationError([f"document: {shape}"])
    return doc


def parse_dataset(data: bytes | str) -> Dataset:
    """Parse a COCO-format annotation document and validate it.

    Accepts raw bytes or text. Raises :class:`ValidationError` with a message
    per malformed record; the document is never partially accepted. A
    required field that is absent or ``null`` is an error; ``iscrowd`` may
    be absent (0) and ``area`` absent or ``null`` (derived from the box).
    """
    doc = _load_json(data, dict, "top level must be an object")
    errors = [f"document: missing or non-array {key!r} section"
              for key in ("images", "annotations", "categories") if not isinstance(doc.get(key), list)]
    if errors:
        raise ValidationError(errors)

    images = [ImageRecord(**v) for _, v in _read_records(doc["images"], _IMAGES, errors)]
    annotations = [Annotation(crowd_flag=v.pop("iscrowd"), **v)
                   for _, v in _read_records(doc["annotations"], _ANNOTATIONS, errors)]
    categories = [Category(**v) for _, v in _read_records(doc["categories"], _CATEGORIES, errors)]
    if errors:
        raise ValidationError(errors)

    ds = Dataset(images=tuple(images), annotations=tuple(annotations), categories=tuple(categories))
    validate_dataset(ds)
    return ds


def serialize_dataset(ds: Dataset) -> bytes:
    """Serialize to canonical COCO JSON: id-sorted arrays, fixed key order.

    The output is a pure function of the dataset's value, so two equal
    datasets built in different orders serialize to identical bytes. Floats
    use Python's shortest round-trip repr; NaN/Inf are rejected.
    """
    doc = {
        "images": [
            {"id": im.id, "width": im.width, "height": im.height, "file_name": im.file_name}
            for im in sorted(ds.images, key=lambda im: im.id)
        ],
        "annotations": [
            {
                "id": a.id,
                "image_id": a.image_id,
                "category_id": a.category_id,
                "bbox": [float(v) for v in a.bbox.as_list()],
                "area": float(a.area),
                "iscrowd": int(a.crowd_flag),
            }
            for a in sorted(ds.annotations, key=lambda a: a.id)
        ],
        "categories": [
            {"id": c.id, "name": c.name}
            for c in sorted(ds.categories, key=lambda c: c.id)
        ],
    }
    text = json.dumps(doc, ensure_ascii=False, allow_nan=False, separators=(",", ":"))
    return text.encode("utf-8")


class _Columns(NamedTuple):
    """Records as arrays, row i for record i; ``scores`` is None for ground truth."""

    images: np.ndarray
    categories: np.ndarray
    boxes: np.ndarray
    scores: np.ndarray | None


def _columns(records: Sequence[Annotation | Detection] | _Columns) -> _Columns:
    """The only place records become arrays, boxes as (n, 4) (x, y, w, h) rows; a table passes as is."""
    if isinstance(records, _Columns):
        return records
    bb = [r.bbox for r in records]
    scored = not records or isinstance(records[0], Detection)
    return _Columns(
        np.array([r.image_id for r in records], dtype=np.int64),
        np.array([r.category_id for r in records], dtype=np.int64),
        np.array([[b.x for b in bb], [b.y for b in bb], [b.w for b in bb], [b.h for b in bb]],
                 dtype=np.float64).T,
        np.array([r.score for r in records], dtype=np.float64) if scored else None,
    )


def _detection_table(data: bytes | str, ds: Dataset) -> _Columns:
    """:func:`parse_detections` into columns. Whole-column checks pass valid input; on any
    failure :func:`_walk_detections` judges the input and words its errors, so it alone decides."""
    doc = _load_json(data, list, "results must be a JSON array")
    try:  # a non-object record, a missing key, a number beyond int64 or float64: to the walk
        img, cat, box, score = (list(map(itemgetter(key), doc)) for key in _RESULTS[2])
        flat = list(chain.from_iterable(box))
        if (set(map(type, img)) | set(map(type, cat)) <= {int} and set(map(type, box)) <= {list}
                and set(map(len, box)) <= {4} and set(map(type, flat)) | set(map(type, score)) <= _NUMBERS):
            t = _Columns(np.array(img, dtype=np.int64), np.array(cat, dtype=np.int64),
                         np.array(flat, dtype=np.float64).reshape(-1, 4), np.array(score, dtype=np.float64))
            if (np.isfinite(t.boxes).all() and np.isfinite(t.scores).all() and (t.boxes[:, 2:] > 0).all()
                    and np.isin(t.images, np.fromiter(ds.images_by_id, np.int64)).all()
                    and np.isin(t.categories, np.fromiter(ds.categories_by_id, np.int64)).all()):
                return t
    except (KeyError, TypeError, OverflowError):
        pass
    return _columns(_walk_detections(doc, ds))


def _walk_detections(doc: list, ds: Dataset) -> list[Detection]:
    """Check a decoded results array record by record; raise listing every problem."""
    errors: list[str] = []
    out: list[Detection] = []
    for path, v in _read_records(doc, _RESULTS, errors):
        out.append(Detection(**v))
        _check_refs_and_box(path, out[-1], ds.images_by_id, ds.categories_by_id, errors)
    if errors:
        raise ValidationError(errors)
    return out


def parse_detections(data: bytes | str, ds: Dataset) -> list[Detection]:
    """Parse a COCO results array against ``ds``; input order is preserved.

    Each record needs ``image_id``, ``category_id``, ``bbox`` and a finite
    ``score``, none of them ``null``; ids must resolve against ``ds``. All
    problems are collected into a single :class:`ValidationError`.
    """
    t = _detection_table(data, ds)
    return [Detection(i, c, BoundingBox(*b), s)
            for i, c, b, s in zip(t.images.tolist(), t.categories.tolist(), t.boxes.tolist(), t.scores.tolist())]
