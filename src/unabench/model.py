"""Dataset and detection types plus canonical COCO-format JSON I/O.

Datasets are immutable value objects. Parsing collects every problem it can
find and reports them together; serialization is canonical (id-sorted arrays,
fixed key order, compact separators) so equal datasets always produce
byte-identical output regardless of construction order.

Decoded JSON becomes arrays in one place, the column pull (:func:`_pull` and
the ``_*_column`` builders): each field of a section is taken as one list,
checked by exact type at C speed and built into a numpy array. It fills the
annotation table of :func:`parse_dataset` (:class:`_AnnotationTable`) and
the results table of :func:`_detection_table` (:class:`_Columns`), and reads
the image and category records (:func:`_records`), so valid input builds no
annotation or detection record. Where a column check fails, the record walk
(:func:`_read_records`, then :func:`validate_dataset`'s checks per record)
judges the input: it alone words errors and decides what is rejected.
Annotations only the walk takes become a table too, so every parsed dataset
holds one, builds its annotation records from it on first access of
``annotations`` and is written from it by :func:`serialize_dataset`.

Records become arrays in one builder per table: :meth:`_AnnotationTable.of`
(annotations of a dataset built in code, or walked), :func:`_columns`
(detections) and ``Dataset._image_table`` (images, parsed or not). Scoring
reads the ground truth as its table's non-crowd rows
(:meth:`_AnnotationTable.non_crowd`) and the detections as a results table.

Decoding is kept apart from judging, so it can run in another process:
:func:`parse_dataset` is :func:`_decode_dataset` then :func:`validate_dataset`,
and :func:`_detection_table` is :func:`_result_columns` then
:func:`_results_known`. The decode steps log nothing.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property, partial
from itertools import chain, repeat
from operator import attrgetter, index, itemgetter
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
    pool are built lazily and cached. A parsed or injected dataset holds its
    annotations as a table and builds the records on first access of
    ``annotations``; one built from records makes its table on first use.
    Either way its value, hash and repr are those of its records.
    """

    images: tuple[ImageRecord, ...]
    annotations: tuple[Annotation, ...]
    categories: tuple[Category, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        object.__setattr__(self, "annotations", tuple(self.annotations))
        object.__setattr__(self, "categories", tuple(self.categories))

    @classmethod
    def _of_table(cls, images, table: _AnnotationTable, categories, **cached) -> Dataset:
        """A dataset whose annotation records are built from ``table`` when first read;
        ``cached`` presets lazily built lookups of the same images and categories, and
        ``_reused=(records, source)`` lends the records that rows ``source >= 0`` copy."""
        ds = object.__new__(cls)
        for name, value in (("images", tuple(images)), ("categories", tuple(categories)), ("_table", table),
                            *cached.items()):
            object.__setattr__(ds, name, value)
        return ds

    def __getattr__(self, name: str):
        # reached only while a dataset made by _of_table has no annotation records yet
        table = self.__dict__.get("_table")
        if name != "annotations" or table is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        records = table.records(*self.__dict__.pop("_reused", ()))
        object.__setattr__(self, "annotations", records)
        return records

    @cached_property
    def _table(self) -> _AnnotationTable:
        return _AnnotationTable.of(self.annotations)

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
    def non_crowd(self) -> tuple[Annotation, ...]:
        """Annotations eligible for noise injection and evaluation."""
        return tuple(a for a in self.annotations if not a.crowd_flag)

    @cached_property
    def _image_table(self) -> _ImageTable:
        ids, w, h = (_int_array([getattr(im, key) for im in self.images]) for key in ("id", "width", "height"))
        order = np.argsort(ids, kind="stable")
        return _ImageTable(ids[order], np.stack((w, h), axis=1)[order].astype(np.float64))

    @cached_property
    def _category_ids(self) -> np.ndarray:
        """The category ids, sorted, as int64."""
        return np.sort(_int_array([c.id for c in self.categories]))

    @cached_property
    def _id_order(self) -> np.ndarray:
        """Table rows in id order; raises ``ValueError`` naming a duplicated id."""
        ids = self._table.ids
        order = np.argsort(ids, kind="stable")
        if (ids[order[1:]] == ids[order[:-1]]).any():
            self.annotations_by_id  # raises, naming the duplicated id
        return order

    @cached_property
    def _size_sources(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, starts, counts)``: row j of the image table owns the non-crowd table rows
        ``rows[starts[j]:starts[j] + counts[j]]``, those on its image in record order, or all
        of them in record order when its image has none, as j = len(images) does. Images
        sharing an id share a group."""
        t, image_ids = self._table, self._image_table.ids
        rows = np.flatnonzero(~t.crowd)
        images = t.images[rows]
        slot = np.searchsorted(image_ids, images)
        known = slot < len(image_ids)
        known[known] = image_ids[slot[known]] == images[known]
        slot[~known] = len(image_ids)
        counts = np.bincount(slot, minlength=len(image_ids) + 1)
        counts[-1] = 0
        first = np.append(np.searchsorted(image_ids, image_ids), len(image_ids))
        starts, counts = (np.cumsum(counts) - counts)[first], counts[first]
        starts[counts == 0], counts[counts == 0] = len(rows), len(rows)
        return np.concatenate((rows[np.argsort(slot, kind="stable")], rows)), starts, counts

    def max_annotation_id(self) -> int:
        order = self._id_order
        return int(self._table.ids[order[-1]]) if len(order) else 0


# Checks on decoded JSON go by exact type: a literal true/false, a bool, is
# neither an id nor a number.
_NUMBERS = frozenset((int, float))


def _is_num(v) -> bool:
    return type(v) in _NUMBERS and math.isfinite(v)


# IoU needs finite edges and a union a + b - inter that stays finite: two areas of at
# most half the largest float add up to a finite sum.
_MAX_AREA = sys.float_info.max / 2
_OUT_OF_RANGE = ("out of float range: its right and bottom edges must be finite and its area "
                 "positive and at most half the largest float")


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
    if not (math.isfinite(b.x + b.w) and math.isfinite(b.y + b.h) and 0 < b.w * b.h <= _MAX_AREA):
        errors.append(f"{path}: bbox {b.as_list()} {_OUT_OF_RANGE}")
        return False
    return True


def validate_dataset(ds: Dataset) -> None:
    """Check referential integrity and value ranges; raise on any violation.

    Boxes that stick out of their image are common in real exports and are
    only warned about. Everything else (duplicate ids, dangling references,
    non-positive box sizes, non-finite values) raises :class:`ValidationError`
    listing every offending record. A record built in code whose id, size,
    area or box no table column takes, or whose name, box, area or crowd
    flag a column would cast to another value, is rejected first, alone, as
    decoding its document would reject it (:func:`_untabled_fields`). The
    annotations are checked as columns of the dataset's table; when a check
    fails, or an image or category is at fault, :func:`_walk_annotations`
    judges them record by record.
    """
    errors = _untabled_fields(ds)
    if errors:
        raise ValidationError(errors)

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

    out_of_bounds = None if errors else _table_out_of_bounds(ds)
    if out_of_bounds is None:
        out_of_bounds = _walk_annotations(ds, seen_img, seen_cat, errors)
    if out_of_bounds:
        sample = ", ".join(str(v) for v in out_of_bounds[:10])
        extra = ", ..." if len(out_of_bounds) > 10 else ""
        logger.warning(
            "%d annotation box(es) extend beyond image bounds (ids %s%s); kept as-is",
            len(out_of_bounds), sample, extra,
        )

    if errors:
        raise ValidationError(errors)


def _untabled_fields(ds: Dataset) -> list[str]:
    """Where a record holds an id, size, area or box that no table column takes, or a value
    its document would hold as another (:func:`_plain_records`), the errors the record walk
    gives for the records' document, one per bad field; none where the tables build from
    plain records, as a parsed dataset's always do, so only a dataset built in code is read
    again."""
    try:
        ds._image_table, ds._category_ids, ds._table
        if _plain_records(ds):
            return []
    except _TO_WALK:  # a table column refused a value, or a crowd flag is unhashable
        pass
    errors: list[str] = []
    for kind, records in ((_IMAGES, ds.images), (_ANNOTATIONS, ds.annotations), (_CATEGORIES, ds.categories)):
        docs = [{key: _as_decoded(getattr(rec, "crowd_flag" if key == "iscrowd" else key)) for key in kind[2]}
                for rec in records]
        list(_read_records(docs, kind, errors))
    return errors


# The types of a box coordinate or an area that a table holds and a document writes as the
# same value; a record holding another is read again by the walk, which decides.
_PLAIN_NUMBERS = frozenset((int, float, np.float64, np.float32, np.int64, np.int32))


def _plain_records(ds: Dataset) -> bool:
    """Whether every file and category name is a string and, where the annotation records
    exist, every box coordinate and area a number and every crowd flag 0 or 1: the values a
    table column would cast instead of refusing. A parsed dataset builds no record for it."""
    names = chain(map(attrgetter("file_name"), ds.images), map(attrgetter("name"), ds.categories))
    if not set(map(type, names)) <= {str}:
        return False
    if "annotations" not in vars(ds):  # read from a table, so its records hold the table's values
        return True
    anns = ds.annotations
    boxes = list(map(attrgetter("bbox"), anns))
    numbers = chain(map(attrgetter("area"), anns), *(map(attrgetter(key), boxes) for key in "xywh"))
    return set(map(type, numbers)) <= _PLAIN_NUMBERS and set(map(attrgetter("crowd_flag"), anns)) <= {0, 1}


def _as_decoded(v):
    """A record's field as JSON decodes it: numpy numbers as Python ones, a box as its list."""
    if isinstance(v, BoundingBox):
        return list(map(_as_decoded, v.as_list()))
    return v.item() if isinstance(v, (np.signedinteger, np.floating)) else v


def _table_out_of_bounds(ds: Dataset) -> list[int] | None:
    """Ids of the annotations whose box sticks out of its image, in record order, read
    off the table; None when a column check fails and the record walk must judge."""
    try:
        t, (image_ids, sizes), category_ids = ds._table, ds._image_table, ds._category_ids
        ds._id_order  # raises on a duplicated id
    except _TO_WALK:  # records holding values no table column takes, or a duplicated id
        return None
    if not (_refs_and_sizes_ok(t, image_ids, category_ids)
            and np.isfinite(t.boxes).all() and np.isfinite(t.areas).all() and (t.areas >= 0).all()
            and (np.abs(sizes) <= 2 ** 53).all()):  # sizes beyond 2**53 would compare inexactly
        return None
    w, h = sizes[np.searchsorted(image_ids, t.images)].T
    b = t.boxes
    with np.errstate(over="ignore"):
        out = (b[:, 0] < 0) | (b[:, 1] < 0) | (b[:, 0] + b[:, 2] > w) | (b[:, 1] + b[:, 3] > h)
    return t.ids[out].tolist()


def _walk_annotations(ds: Dataset, image_ids, category_ids, errors: list[str]) -> list[int]:
    """:func:`validate_dataset`'s annotation checks record by record, appending every
    problem to ``errors``; returns the ids of boxes that stick out of their image."""
    seen_ann: set[int] = set()
    out_of_bounds: list[int] = []
    for i, a in enumerate(ds.annotations):
        path = f"annotations[{i}] (id={a.id})"
        if a.id in seen_ann:
            errors.append(f"{path}: duplicate annotation id")
        seen_ann.add(a.id)
        if not _check_refs_and_box(path, a, image_ids, category_ids, errors):
            continue
        if not math.isfinite(a.area) or a.area < 0:
            errors.append(f"{path}: bad area {a.area}")
        b, im = a.bbox, ds.images_by_id.get(a.image_id)
        if im is not None and (b.x < 0 or b.y < 0 or b.x + b.w > im.width or b.y + b.h > im.height):
            out_of_bounds.append(a.id)
    return out_of_bounds


def _int(v):
    if type(v) is not int:
        return _UNREAD
    if not -2 ** 63 <= v < 2 ** 63:  # integer fields become int64 columns
        raise ValueError("field {key!r} must be an integer from -2**63 to 2**63 - 1, got {value!r}")
    return v


def _box(v):
    if type(v) is list and len(v) == 4 and _NUMBERS.issuperset(map(type, v)) and all(map(math.isfinite, v)):
        return BoundingBox(*map(float, v))
    return _UNREAD


# Field types: (reader, problem, fallback). A reader returns the field's value,
# or _UNREAD to reject it, or raises ValueError whose text is the problem instead;
# an absent key reads as _UNREAD, which every reader rejects. A missing or
# rejected field is reported, a rejected value with ``problem``, and reads as
# ``fallback`` so later checks run; they skip an _UNREAD id.
_UNREAD = object()
_INT = (_int, "field {key!r} must be an integer, got {value!r}", _UNREAD)
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
            except ValueError as e:
                value, problem = _UNREAD, e.args[0]
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
    Valid annotations are read as a table; their records are built when
    ``annotations`` is first read.
    """
    ds = _decode_dataset(data)
    validate_dataset(ds)
    return ds


def _decode_dataset(data: bytes | str) -> Dataset:
    """:func:`parse_dataset` without :func:`validate_dataset`: the document decoded and its
    sections read into a dataset, raising on what no dataset can hold. It logs nothing."""
    doc = _load_json(data, dict, "top level must be an object")
    errors = [f"document: missing or non-array {key!r} section"
              for key in ("images", "annotations", "categories") if not isinstance(doc.get(key), list)]
    if errors:
        raise ValidationError(errors)

    images = _records(doc["images"], _IMAGES, ImageRecord, errors)
    table = _annotation_table(doc["annotations"])
    if table is None:
        annotations = [Annotation(crowd_flag=v.pop("iscrowd"), **v)
                       for _, v in _read_records(doc["annotations"], _ANNOTATIONS, errors)]
    categories = _records(doc["categories"], _CATEGORIES, Category, errors)
    if errors:
        raise ValidationError(errors)
    if table is None:  # annotations only the walk takes, as an iscrowd of true
        table = _AnnotationTable.of(annotations)
    return Dataset._of_table(images, table, categories)


def serialize_dataset(ds: Dataset) -> bytes:
    """Serialize to canonical COCO JSON: id-sorted arrays, fixed key order.

    The output is a pure function of the dataset's value, so two equal
    datasets built in different orders serialize to identical bytes. Floats
    use Python's shortest round-trip repr; NaN/Inf are rejected, and so is an
    image or category id or size that is no integer (a numpy one is written
    as a Python one). Annotations are written from the table, one row string
    each, as ``json.dumps`` with compact separators would write them.
    """
    t = ds._table
    if not (np.isfinite(t.boxes).all() and np.isfinite(t.areas).all()):
        raise ValueError("Out of range float values are not JSON compliant")
    order = np.argsort(t.ids, kind="stable")
    columns = (t.ids[order].tolist(), t.images[order].tolist(), t.categories[order].tolist(),
               *t.boxes[order].T.tolist(), t.areas[order].tolist(), t.crowd[order].astype(np.int64).tolist())
    rows = [f'{{"id":{i},"image_id":{im},"category_id":{c},"bbox":[{x!r},{y!r},{w!r},{h!r}],"area":{a!r},'
            f'"iscrowd":{crowd}}}' for i, im, c, x, y, w, h, a, crowd in zip(*columns)]
    images = [{"id": index(im.id), "width": index(im.width), "height": index(im.height),
               "file_name": im.file_name} for im in sorted(ds.images, key=lambda im: im.id)]
    categories = [{"id": index(c.id), "name": c.name} for c in sorted(ds.categories, key=lambda c: c.id)]
    dump = partial(json.dumps, ensure_ascii=False, allow_nan=False, separators=(",", ":"))
    text = f'{{"images":{dump(images)},"annotations":[{",".join(rows)}],"categories":{dump(categories)}}}'
    return text.encode("utf-8")


class _Columns(NamedTuple):
    """A results table: detections as arrays, row i for detection i, int64 image and
    category ids, (n, 4) (x, y, w, h) boxes and scores (float64)."""

    images: np.ndarray
    categories: np.ndarray
    boxes: np.ndarray
    scores: np.ndarray


def _int_array(values: list) -> np.ndarray:
    """Python or numpy integers (a bool counts as 0 or 1, as in a set) as int64; TypeError otherwise."""
    col = np.array(values)
    if col.size and col.dtype.kind not in "bi":
        raise TypeError("not an integer column")
    return col.astype(np.int64)


class _ImageTable(NamedTuple):
    """A dataset's images in id order (a stable sort): int64 ids and (n, 2) float64 (width, height)."""

    ids: np.ndarray
    sizes: np.ndarray


class _AnnotationTable(NamedTuple):
    """A dataset's annotations as arrays, row i for annotation i: ids, image and
    category ids (int64), (n, 4) (x, y, w, h) boxes and areas (float64), crowd flags."""

    ids: np.ndarray
    images: np.ndarray
    categories: np.ndarray
    boxes: np.ndarray
    areas: np.ndarray
    crowd: np.ndarray

    @classmethod
    def of(cls, annotations: Sequence[Annotation]) -> _AnnotationTable:
        """The table of records; TypeError where an id is not an integer, as no cast of it is exact."""
        ids, images, categories = ([getattr(a, key) for a in annotations]
                                   for key in ("id", "image_id", "category_id"))
        return cls(_int_array(ids), _int_array(images), _int_array(categories), _boxes(annotations),
                   np.array([a.area for a in annotations], dtype=np.float64),
                   np.array([a.crowd_flag for a in annotations], dtype=bool))

    def records(self, reused: Sequence[Annotation] = (), source: np.ndarray | None = None) -> tuple[Annotation, ...]:
        """The rows as records; row i is ``reused[source[i]]`` itself where ``source[i] >= 0``."""
        if source is None:
            return tuple(map(Annotation, self.ids.tolist(), self.images.tolist(), self.categories.tolist(),
                             map(BoundingBox, *self.boxes.T.tolist()), self.crowd.tolist(), self.areas.tolist()))
        records = list(map(reused.__getitem__, source.tolist()))
        built = np.flatnonzero(source < 0)
        for i, a in zip(built.tolist(), _AnnotationTable(*(col[built] for col in self)).records()):
            records[i] = a
        return tuple(records)

    def non_crowd(self) -> _AnnotationTable:
        """The rows scoring reads, as a table: every annotation but crowd regions."""
        keep = ~self.crowd
        return _AnnotationTable(*(col[keep] for col in self))


def _boxes(records: Sequence[Annotation | Detection]) -> np.ndarray:
    """The records' boxes as (n, 4) float64 (x, y, w, h) rows."""
    bb = [r.bbox for r in records]
    return np.array([[b.x for b in bb], [b.y for b in bb], [b.w for b in bb], [b.h for b in bb]],
                    dtype=np.float64).T


def _columns(detections: Sequence[Detection] | _Columns) -> _Columns:
    """Detection records as a results table; a table passes as is. TypeError where an id
    is not an integer, as no cast of it is exact. (A dataset's own annotations become
    arrays in :meth:`_AnnotationTable.of`.)"""
    if isinstance(detections, _Columns):
        return detections
    return _Columns(
        _int_array([d.image_id for d in detections]),
        _int_array([d.category_id for d in detections]),
        _boxes(detections),
        np.array([d.score for d in detections], dtype=np.float64),
    )


# The column pull. A record or value the walk must judge raises one of _TO_WALK:
# a non-object record or a missing key, a value of another exact type (a bool is
# no int), a non-finite number, an int beyond int64 or float64.
_TO_WALK = (KeyError, TypeError, ValueError, OverflowError)


def _pull(section: list, keys) -> list[list]:
    """Each key of a decoded section as one list, an absent optional key read as its default."""
    return [list(map(itemgetter(key), section)) if key not in _DEFAULTS
            else list(map(dict.get, section, repeat(key), repeat(_DEFAULTS[key]))) for key in keys]


def _int_column(values: list) -> np.ndarray:
    if not set(map(type, values)) <= {int}:
        raise TypeError("not an int column")
    return np.array(values, dtype=np.int64)


def _num_column(values: list) -> np.ndarray:
    if not set(map(type, values)) <= _NUMBERS:
        raise TypeError("not a number column")
    col = np.array(values, dtype=np.float64)
    if not np.isfinite(col).all():
        raise ValueError("non-finite number")
    return col


def _box_column(values: list) -> np.ndarray:
    if not (set(map(type, values)) <= {list} and set(map(len, values)) <= {4}):
        raise TypeError("not a box column")
    return _num_column(list(chain.from_iterable(values))).reshape(-1, 4)


def _refs_and_sizes_ok(t: _Columns | _AnnotationTable, image_ids: np.ndarray, category_ids: np.ndarray) -> bool:
    """Every row names a known image and category and its box has w > 0 and h > 0,
    finite right and bottom edges and an area in (0, ``_MAX_AREA``] (IoU needs all three)."""
    b = t.boxes
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        area = b[:, 2] * b[:, 3]
        in_range = np.isfinite(b[:, :2] + b[:, 2:]).all() and ((area > 0) & (area <= _MAX_AREA)).all()
    return bool((b[:, 2:] > 0).all() and in_range and np.isin(t.images, image_ids).all()
                and np.isin(t.categories, category_ids).all())


def _records(section: list, kind: tuple, record: type, errors: list[str]) -> list:
    """An images or categories section as records, by the column pull where its integer
    fields are int64 columns and the others string columns; else the record walk reads
    it, and words its errors."""
    types = kind[2]
    try:
        columns = dict(zip(types, _pull(section, types)))
        for key, field_type in types.items():
            if field_type is _INT:
                _int_column(columns[key])  # raises on a value no int64 column takes
            elif not set(map(type, columns[key])) <= {str}:
                raise TypeError("not a string column")
    except _TO_WALK:
        return [record(**v) for _, v in _read_records(section, kind, errors)]
    return list(map(record, *(columns[f.name] for f in fields(record))))


def _annotation_table(section: list) -> _AnnotationTable | None:
    """The annotations section by the column pull; None where the record walk must read it.
    An absent or null area is derived from the box, as :class:`Annotation` does."""
    try:
        crowd, area, ids, img, cat, box = _pull(section, _ANNOTATIONS[2])
        flags, boxes = _int_column(crowd), _box_column(box)
        if not set(crowd) <= {0, 1}:
            raise ValueError("iscrowd beyond 0 and 1")
        nulls = [i for i, a in enumerate(area) if a is None] if None in area else []
        for i in nulls:
            area[i] = 0
        areas = _num_column(area)
        with np.errstate(over="ignore"):  # an area too large for a float is inf, as in Python
            areas[nulls] = boxes[nulls, 2] * boxes[nulls, 3]
        return _AnnotationTable(_int_column(ids), _int_column(img), _int_column(cat), boxes, areas,
                                flags.astype(bool))
    except _TO_WALK:
        return None


def _load_results(data: bytes | str) -> list:
    return _load_json(data, list, "results must be a JSON array")


def _result_columns(doc: list) -> _Columns:
    """A decoded results array by the column pull, not yet checked against a dataset;
    raises one of ``_TO_WALK`` where the record walk must judge it."""
    img, cat, box, score = _pull(doc, _RESULTS[2])
    return _Columns(_int_column(img), _int_column(cat), _box_column(box), _num_column(score))


def _results_known(t: _Columns, ds: Dataset) -> bool:
    """Every result row names an image and a category of ``ds`` and has w > 0 and h > 0."""
    return _refs_and_sizes_ok(t, ds._image_table.ids, ds._category_ids)


def _detection_table(data: bytes | str, ds: Dataset) -> _Columns:
    """:func:`parse_detections` into columns. Whole-column checks pass valid input; on any
    failure :func:`_walk_detections` judges the input and words its errors, so it alone decides."""
    doc = _load_results(data)
    try:
        t = _result_columns(doc)
        if _results_known(t, ds):
            return t
    except _TO_WALK:
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
