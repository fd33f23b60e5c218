"""Dataset and detection types plus canonical COCO-format JSON I/O.

Datasets are immutable value objects. Parsing collects every problem it can
find and reports them together; serialization is canonical (id-sorted arrays,
fixed key order, compact separators) so equal datasets always produce
byte-identical output regardless of construction order.

Input becomes arrays through one column check per field type (``_int_column``,
``_box_column``, ...), each with the problem that words a value it refuses: a
field is taken as one list, checked by exact type at C speed and built into a
numpy array. A decoded document's sections have one reader,
:func:`_read_section`, which takes each field once and checks it once; only a
column the check refuses is searched for the values it refuses
(:func:`_refusals`), and those are worded with what no column can hold (a
record that is no object, a missing key, a value of another type) and read as
the field's fallback. Records built in code go through the same checks in
:func:`_typed_records`. Together they fill the annotation table of
:func:`parse_dataset` (:class:`_AnnotationTable`), the results table of
:func:`_detection_table` (:class:`_Columns`) and the image and category
records, so valid input builds no annotation or detection record.

Each value rule is then written once, as a row mask over the columns (unknown
references, the box rules, bad areas, duplicate ids, non-positive image
sizes, the out-of-image warning); annotations and results share the rules
they have in common (:func:`_row_rules`). Only the rows a mask flags are
worded (:func:`_worded`), in record order.

Records become arrays in one builder per table: :meth:`_AnnotationTable.of`
(annotations of a dataset built in code), :func:`_columns` (detections) and
``Dataset._image_table`` (images, parsed or not). Scoring reads the ground
truth as its table's non-crowd rows (:meth:`_AnnotationTable.non_crowd`) and
the detections as a results table.

Decoding is kept apart from judging, so it can run in another process:
:func:`parse_dataset` is :func:`_decode_dataset` then :func:`validate_dataset`,
and :func:`_detection_table` is :func:`_decode_results` then
:func:`_check_results`. A decode takes the bytes alone, logs nothing and
raises only on what no table can hold; a results decode hands the reader's
errors on with the table.

Output has one writer, :func:`_dataset_chunks`: the canonical document as
UTF-8 chunks, the annotations written from the table at most ``_CHUNK_ROWS``
rows a chunk. :func:`serialize_dataset` joins them; CLI ``inject`` streams
them to disk, so no whole copy of the document is ever held.
"""

from __future__ import annotations

import io
import json
import logging
import sys
from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property, partial
from itertools import chain, repeat
from operator import attrgetter, index, itemgetter
from typing import Iterator, NamedTuple, Sequence

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
    def _image_columns(self) -> dict:
        """The images as typed columns, in record order (:func:`_typed_records`)."""
        return _typed_records(self.images, _IMAGES)

    @cached_property
    def _image_table(self) -> _ImageTable:
        c = self._image_columns
        order = np.argsort(c["id"], kind="stable")
        return _ImageTable(c["id"][order], np.stack((c["width"], c["height"]), axis=1)[order].astype(np.float64))

    @cached_property
    def _category_ids(self) -> np.ndarray:
        """The category ids, sorted, as int64."""
        return np.sort(_typed_records(self.categories, _CATEGORIES)["id"])

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
        ``rows[starts[j]:starts[j] + counts[j]]``, those on its image in id order, or all of
        them in id order when its image has none, as j = len(images) does. Images sharing an
        id share a group. Raises ``ValueError`` naming a duplicated annotation id."""
        t, image_ids = self._table, self._image_table.ids
        rows = self._id_order[~t.crowd[self._id_order]]
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


# IoU needs finite edges and a union a + b - inter that stays finite: two areas of at
# most half the largest float add up to a finite sum.
_MAX_AREA = sys.float_info.max / 2
_OUT_OF_RANGE = ("out of float range: its right and bottom edges must be finite and its area "
                 "positive and at most half the largest float")


def validate_dataset(ds: Dataset) -> None:
    """Check referential integrity and value ranges; raise on any violation.

    Boxes that stick out of their image are common in real exports and are
    only warned about. Everything else (duplicate ids, dangling references,
    non-positive box sizes, non-finite values) raises :class:`ValidationError`
    listing every offending record. A record built in code whose field no
    table column takes (an id that is no integer, a name that is no string,
    a box coordinate or area that is no number, a crowd flag other than 0
    or 1) is rejected first, alone, worded by the section reader as
    decoding its document would word it. Each value rule is a row mask over the
    table columns; only the rows a mask flags are worded.
    """
    try:
        images, t = ds._image_columns, ds._table
        category_ids = _typed_records(ds.categories, _CATEGORIES)["id"]
    except _REFUSED:  # a record built in code holds a value no column takes
        errors: list = []
        for kind, records in ((_IMAGES, ds.images), (_ANNOTATIONS, ds.annotations), (_CATEGORIES, ds.categories)):
            _read_section([{key: _as_decoded(getattr(rec, _ATTRIBUTES.get(key, key))) for key in kind[2]}
                           for rec in records], kind, errors)
        raise ValidationError([e for _, e in errors])

    ids, widths, heights = images["id"], images["width"], images["height"]
    errors = _worded("images[{i}] (id={id})", [
        (_earlier(ids), "duplicate image id"), ((widths <= 0) | (heights <= 0), "non-positive size {width}x{height}"),
    ], {"id": ids, "width": widths, "height": heights})
    errors += _worded("categories[{i}] (id={id})", [(_earlier(category_ids), "duplicate category id")],
                      {"id": category_ids})

    # an annotation is sized by the last listed image of its id: its sorted position, or -1
    order = np.argsort(ids, kind="stable")
    at = np.searchsorted(ids[order], t.images, side="right") - 1
    known = at >= 0
    known[known] = ids[order[at[known]]] == t.images[known]
    rules, box_ok = _row_rules(t, known, np.isin(t.categories, category_ids))
    bad_area = box_ok & ~(np.isfinite(t.areas) & (t.areas >= 0))
    errors += _worded("annotations[{i}] (id={id})", [
        (_earlier(t.ids), "duplicate annotation id"), *rules, (bad_area, "bad area {area}"),
    ], {"id": t.ids, "image_id": t.images, "category_id": t.categories, "bbox": t.boxes, "area": t.areas})

    rows = np.flatnonzero(known & box_ok)
    image = order[at[rows]]
    x, y, w, h = t.boxes[rows].T
    out = (x < 0) | (y < 0) | _beyond(x + w, widths[image]) | _beyond(y + h, heights[image])
    out_of_bounds = t.ids[rows[out]].tolist()
    if out_of_bounds:
        sample = ", ".join(str(v) for v in out_of_bounds[:10])
        extra = ", ..." if len(out_of_bounds) > 10 else ""
        logger.warning(
            "%d annotation box(es) extend beyond image bounds (ids %s%s); kept as-is",
            len(out_of_bounds), sample, extra,
        )

    if errors:
        raise ValidationError([e for _, e in errors])


def _earlier(ids: np.ndarray) -> np.ndarray:
    """The rows whose id an earlier row holds."""
    order = np.argsort(ids, kind="stable")
    dup = np.zeros(len(ids), dtype=bool)
    dup[order[1:]] = ids[order[1:]] == ids[order[:-1]]
    return dup


def _beyond(edges: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``edges > sizes`` for float edges and int64 sizes, exact as Python compares them: a
    float holds every integer up to 2**53, so only larger sizes are compared one by one."""
    out = edges > sizes
    inexact = np.flatnonzero(np.abs(sizes) > 2 ** 53)
    out[inexact] = [e > s for e, s in zip(edges[inexact].tolist(), sizes[inexact].tolist())]
    return out


def _row_rules(t: _Columns | _AnnotationTable, known_images: np.ndarray,
               known_categories: np.ndarray) -> tuple[list, np.ndarray]:
    """The rules annotations and results share, as ``(failing rows, problem)`` in the order
    they are worded, and the rows whose box passes. A row fails one box rule at most: a
    failing one leaves the row's later rules unchecked. IoU needs finite edges and an area
    in (0, ``_MAX_AREA``]."""
    x, y, w, h = t.boxes.T
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        non_finite = ~(np.isfinite(x) & np.isfinite(y) & np.isfinite(w) & np.isfinite(h))
        flat = ~non_finite & ((w <= 0) | (h <= 0))
        area = w * h
        fits = np.isfinite(x + w) & np.isfinite(y + h) & (area > 0) & (area <= _MAX_AREA)
    return [
        (~known_images, "unknown image_id {image_id}"), (~known_categories, "unknown category_id {category_id}"),
        (non_finite, "non-finite bbox {bbox}"), (flat, "non-positive box width/height (w={bbox[2]}, h={bbox[3]})"),
        (~(non_finite | flat | fits), "bbox {bbox} " + _OUT_OF_RANGE),
    ], fits & ~flat  # a non-finite box never fits


def _worded(label: str, rules: list, columns: dict[str, np.ndarray]) -> list[tuple[int, str]]:
    """``(row, error)`` for each rule a row fails: rows in record order, a row's rules in the
    order given, ``label`` and the problem formatted with the row's ``columns`` and ``i``."""
    errors = []
    for i in np.flatnonzero(np.logical_or.reduce([mask for mask, _ in rules])).tolist():
        row = {key: col[i].tolist() for key, col in columns.items()}
        errors += [(i, f"{label}: {problem}".format(i=i, **row)) for mask, problem in rules if mask[i]]
    return errors


def _as_decoded(v):
    """A record's field as JSON decodes it: numpy numbers as Python ones, a box as its list."""
    if isinstance(v, BoundingBox):
        return list(map(_as_decoded, v.as_list()))
    return v.item() if isinstance(v, (np.signedinteger, np.floating)) else v


# The column checks: each field of a section, as decoded JSON or as records built in code
# (_typed_records), taken as one list, checked by exact type at C speed and built into
# a numpy array. Numpy numbers, which only a record built in code holds, read as Python
# ones. With ``finite`` a non-finite number is refused too, as a document's is; a
# record's is left to the rules. A refused column raises one of _REFUSED: a value of
# another exact type (a bool is no int, a missing key's _UNREAD no value), a non-finite
# number (an int too large for a float among them) or a crowd flag other than 0 or 1,
# and an int beyond int64, whose OverflowError words its own problem.
_REFUSED = (TypeError, ValueError, OverflowError)


def _plain(values: list, types: set | frozenset, column: str) -> list:
    kinds = set(map(type, values))
    if not kinds <= types and any(issubclass(k, np.number) for k in kinds):
        values = list(map(_as_decoded, values))
        kinds = set(map(type, values))
    if not kinds <= types:
        raise TypeError(f"not {column} column")
    return values


def _int_column(values: list, finite: bool = True) -> np.ndarray:
    try:
        return np.array(_plain(values, {int}, "an integer"), dtype=np.int64)
    except OverflowError:
        raise OverflowError("field {key!r} must be an integer from -2**63 to 2**63 - 1, got {value!r}") from None


def _num_column(values: list, finite: bool = True) -> np.ndarray:
    try:
        col = np.array(_plain(values, _NUMBERS, "a number"), dtype=np.float64)
    except OverflowError:
        raise ValueError("non-finite number") from None
    if finite and not np.isfinite(col).all():
        raise ValueError("non-finite number")
    return col


def _box_column(values: list, finite: bool = True) -> np.ndarray:
    if not (set(map(type, values)) <= {list} and set(map(len, values)) <= {4}):
        raise TypeError("not a box column")
    return _num_column(list(chain.from_iterable(values)), finite).reshape(-1, 4)


def _str_column(values: list, finite: bool = True) -> list:
    if not all(map(isinstance, values, repeat(str))):
        raise TypeError("not a string column")
    return values


def _flag_column(values: list, finite: bool = True) -> np.ndarray:
    if not set(values) <= {0, 1}:
        raise ValueError("a crowd flag other than 0 or 1")
    return np.array(values, dtype=bool)


def _area_column(values: list, finite: bool = True) -> tuple[np.ndarray, list[int]]:
    """The areas, and the rows whose area is absent or null, left to the box (:meth:`_AnnotationTable._of`)."""
    nulls = [i for i, a in enumerate(values) if a is None] if None in values else []
    return _num_column([0 if a is None else a for a in values] if nulls else values, finite), nulls


# Field types: (problem, fallback, column). ``column`` is the field's column check; it is
# given ``finite``, which only a number column reads. The reader (:func:`_read_section`)
# words a value the column refuses with ``problem`` (or the OverflowError's own), and a
# missing or refused field reads as ``fallback``; the rules skip an id read so. A missing
# key is taken as _UNREAD, which no column holds.
_UNREAD = object()
_INT = ("field {key!r} must be an integer, got {value!r}", 0, _int_column)
_STR = ("{key} must be a string", "", _str_column)
_NUM = ("{key} must be a finite number, got {value!r}", 0.0, _num_column)
_BOX = ("{key} must be four finite numbers, got {value!r}", [0.0, 0.0, 1.0, 1.0], _box_column)
# Record kinds: (section name, label paths with the record's id, field types by
# key, in the order their problems are reported). _DEFAULTS holds the optional keys and
# what an absent one reads as; a null area is derived from the box too.
_IMAGES = ("images", False, {"file_name": _STR, "id": _INT, "width": _INT, "height": _INT})
_ANNOTATIONS = ("annotations", True, {"iscrowd": ("{key} must be 0 or 1, got {value!r}", False, _flag_column),
                                      "area": (_NUM[0], None, _area_column), "id": _INT, "image_id": _INT,
                                      "category_id": _INT, "bbox": _BOX})
_CATEGORIES = ("categories", False, {"name": _STR, "id": _INT})
_RESULTS = ("results", False, {"image_id": _INT, "category_id": _INT, "bbox": _BOX, "score": _NUM})
_DEFAULTS = {"iscrowd": 0, "area": None}
_ATTRIBUTES = {"iscrowd": "crowd_flag"}  # a record's attribute, where its key is another


def _typed_records(records: Sequence, kind: tuple, finite: bool = True) -> dict:
    """The typed columns of records built in code: their fields taken as a section's columns (a
    box as its list) and run through the kind's column checks, by key in the kind's order. An
    int beyond int64 raises the OverflowError the reader words, filled in with the key and the
    first such value."""
    columns = {key: list(map(attrgetter(_ATTRIBUTES.get(key, key)), records)) for key in kind[2]}
    if "bbox" in columns:
        columns["bbox"] = list(map(BoundingBox.as_list, columns["bbox"]))
    try:
        return {key: column(columns[key], finite) for key, (_, _, column) in kind[2].items()}
    except OverflowError as e:  # the id columns before the one refused hold no such int
        key, value = next((k, v) for k, t in kind[2].items() if t is _INT for v in columns[k] if not -2**63 <= v < 2**63)
        raise OverflowError(e.args[0].format(key=key, value=value)) from None


def _refusals(column, values: list) -> list[tuple[int, Exception]]:
    """``(position, refusal)`` for each of ``values`` that ``column`` refuses, in no set order:
    the whole list is checked once, and a refused run is halved down to runs of at most 32,
    checked value by value."""
    found, runs = [], [(0, len(values))]
    while runs:
        lo, hi = runs.pop()
        try:
            column(values[lo:hi])
        except _REFUSED as refusal:
            if hi - lo == 1:
                found.append((lo, refusal))
            else:
                step = 1 if hi - lo <= 32 else (hi - lo + 1) // 2
                runs += [(j, min(j + step, hi)) for j in range(lo, hi, step)]
    return found


def _read_section(section: list, kind: tuple, errors: list) -> tuple[dict, dict[str, np.ndarray]]:
    """A decoded section as typed columns, by key in the kind's order, one pass per field: the
    key's values taken once, an absent optional key read as its default, and checked once by
    the field's column check. Only a column the check refuses is searched for the values it
    refuses (:func:`_refusals`); each is worded, read as the field's fallback, and the filled
    column checked. Returns the columns and, for each refused field, the mask of the rows read
    as its fallback. Appends ``(row, error)`` for each problem, a record's in the kind's field
    order: the only wording of what no column can hold (a record that is no object, a missing
    key, a value of another type)."""
    name, labelled, types = kind
    records, found, columns, unread = section, [], {}, {}
    for f, (key, (problem, fallback, column)) in enumerate(types.items()):
        default = repeat(_DEFAULTS.get(key, _UNREAD))
        try:
            values = list(map(dict.get, records, repeat(key), default))
        except TypeError:  # a record that is no object: worded once, its fields read as absent
            found = [(i, -1, "record must be an object") for i, rec in enumerate(section) if not isinstance(rec, dict)]
            records = [rec if isinstance(rec, dict) else {} for rec in section]
            values = list(map(dict.get, records, repeat(key), default))
        try:
            columns[key] = column(values)
            continue
        except _REFUSED:
            refused = _refusals(column, values)
        for i, refusal in refused:
            raw, values[i] = values[i], fallback
            text = refusal.args[0] if isinstance(refusal, OverflowError) else problem
            if raw is None and "{value" not in text:
                text += ", got {value!r}"  # a null shows even where a wrong value does not
            if records[i] is section[i]:  # a record that is no object is worded once, above
                found.append((i, f, f"missing field {key!r}" if raw is _UNREAD else text.format(key=key, value=raw)))
        unread[key] = np.isin(np.arange(len(values)), [i for i, _ in refused])
        columns[key] = column(values)
    for i, _, text in sorted(found):  # record order; a record's fields in the kind's order
        label = f" (id={records[i]['id']})" if labelled and type(records[i].get("id")) is int else ""
        errors.append((i, f"{name}[{i}]{label}: {text}"))
    return columns, unread


def _load_json(data: bytes | str, top: type, shape: str):
    """Decode a whole document whose top level must be a ``top``."""
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:  # too deeply nested for the decoder
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
    sections read into a dataset, raising on what no column can hold. It logs nothing."""
    doc = _load_json(data, dict, "top level must be an object")
    errors = [f"document: missing or non-array {key!r} section"
              for key in ("images", "annotations", "categories") if not isinstance(doc.get(key), list)]
    if errors:
        raise ValidationError(errors)
    images, annotations, categories = (_read_section(doc[kind[0]], kind, errors)[0]
                                       for kind in (_IMAGES, _ANNOTATIONS, _CATEGORIES))
    if errors:
        raise ValidationError([e for _, e in errors])
    return Dataset._of_table(_as_records(ImageRecord, images), _AnnotationTable._of(annotations),
                             _as_records(Category, categories))


def _as_records(record: type, columns: dict) -> list:
    """An images or categories section's typed columns as records."""
    return list(map(record, *(c.tolist() if isinstance(c, np.ndarray) else c
                              for c in (columns[f.name] for f in fields(record)))))


def serialize_dataset(ds: Dataset) -> bytes:
    """Serialize to canonical COCO JSON: id-sorted arrays, fixed key order.

    The output is a pure function of the dataset's value, so two equal
    datasets built in different orders serialize to identical bytes. Floats
    use Python's shortest round-trip repr; NaN/Inf are rejected, and so is an
    image or category id or size that is no integer (a numpy one is written
    as a Python one). The bytes are those of :func:`_dataset_chunks` joined.
    """
    out = io.BytesIO()
    out.writelines(_dataset_chunks(ds))
    return out.getvalue()


# Annotation rows (or sidecar entries) per chunk of a streamed document: a chunk's row strings and
# bytes stay a few MB, whatever the dataset's size.
_CHUNK_ROWS = 4096


def _dataset_chunks(ds: Dataset) -> Iterator[bytes]:
    """The canonical document of :func:`serialize_dataset` as UTF-8 chunks: the images section,
    then the annotations at most ``_CHUNK_ROWS`` rows a chunk, then the categories. The first
    chunk checks every value, so a dataset that cannot be written raises before anything is
    yielded. Annotations are written from the table, one row string each, as ``json.dumps``
    with compact separators would write them."""
    t = ds._table
    if not (np.isfinite(t.boxes).all() and np.isfinite(t.areas).all()):
        raise ValueError("Out of range float values are not JSON compliant")
    images = [{"id": index(im.id), "width": index(im.width), "height": index(im.height),
               "file_name": im.file_name} for im in sorted(ds.images, key=lambda im: im.id)]
    categories = [{"id": index(c.id), "name": c.name} for c in sorted(ds.categories, key=lambda c: c.id)]
    dump = partial(json.dumps, ensure_ascii=False, allow_nan=False, separators=(",", ":"))
    yield f'{{"images":{dump(images)},"annotations":['.encode("utf-8")
    order = np.argsort(t.ids, kind="stable")
    for start in range(0, len(order), _CHUNK_ROWS):
        rows = order[start:start + _CHUNK_ROWS]
        columns = (t.ids[rows].tolist(), t.images[rows].tolist(), t.categories[rows].tolist(),
                   *t.boxes[rows].T.tolist(), t.areas[rows].tolist(), t.crowd[rows].astype(np.int64).tolist())
        yield ("," * (start > 0) + ",".join(
            f'{{"id":{i},"image_id":{im},"category_id":{c},"bbox":[{x!r},{y!r},{w!r},{h!r}],"area":{a!r},'
            f'"iscrowd":{crowd}}}' for i, im, c, x, y, w, h, a, crowd in zip(*columns))).encode("utf-8")
    yield f'],"categories":{dump(categories)}}}'.encode("utf-8")


class _Columns(NamedTuple):
    """A results table: detections as arrays, row i for detection i, int64 image and
    category ids, (n, 4) (x, y, w, h) boxes and scores (float64)."""

    images: np.ndarray
    categories: np.ndarray
    boxes: np.ndarray
    scores: np.ndarray


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
        """The table of records built in code, by their column checks; one of ``_REFUSED`` where a
        field holds a value no column takes. A non-finite box or area is left to the rules."""
        return cls._of(_typed_records(annotations, _ANNOTATIONS, finite=False))

    @classmethod
    def _of(cls, c: dict) -> _AnnotationTable:
        """The table of an annotations section's typed columns; an absent or null area is the
        box's, as :class:`Annotation` derives it."""
        areas, nulls = c["area"]
        with np.errstate(over="ignore"):  # an area too large for a float is inf, as in Python
            areas[nulls] = c["bbox"][nulls, 2] * c["bbox"][nulls, 3]
        return cls(c["id"], c["image_id"], c["category_id"], c["bbox"], areas, c["iscrowd"])

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


def _columns(detections: Sequence[Detection] | _Columns) -> _Columns:
    """Detection records as a results table, by their column checks; a table passes as is.
    TypeError where an id is no integer or a score or box coordinate no number, ValueError
    where a score or coordinate is not finite. (A dataset's own annotations become arrays
    in :meth:`_AnnotationTable.of`.)"""
    if isinstance(detections, _Columns):
        return detections
    return _Columns(*_typed_records(detections, _RESULTS).values())


def _decode_results(data: bytes | str) -> tuple[_Columns, list, dict]:
    """A results document as a table, not yet checked against a dataset, read by
    :func:`_read_section`: a refused field read as its fallback. With the table come the
    reader's ``(row, error)`` and its masks of the rows read so, for :func:`_check_results`.
    Raises only where the document is no JSON array; logs nothing."""
    errors: list = []
    columns, unread = _read_section(_load_json(data, list, "results must be a JSON array"), _RESULTS, errors)
    return _Columns(*columns.values()), errors, unread


def _check_results(decoded: tuple[_Columns, list, dict], ds: Dataset) -> _Columns:
    """The table of :func:`_decode_results` once its rows pass against ``ds``; else raise
    listing every problem, the reader's errors of a row ahead of its value problems. No rule
    reads an id the reader left unread."""
    t, errors, unread = decoded
    rules, _ = _row_rules(t, np.isin(t.images, ds._image_table.ids) | unread.get("image_id", False),
                          np.isin(t.categories, ds._category_ids) | unread.get("category_id", False))
    problems = _worded("results[{i}]", rules, {"image_id": t.images, "category_id": t.categories, "bbox": t.boxes})
    if errors or problems:
        raise ValidationError([e for _, e in sorted([*errors, *problems], key=itemgetter(0))])
    return t


def _detection_table(data: bytes | str, ds: Dataset) -> _Columns:
    """:func:`parse_detections` into columns: the document decoded, then judged."""
    return _check_results(_decode_results(data), ds)


def parse_detections(data: bytes | str, ds: Dataset) -> list[Detection]:
    """Parse a COCO results array against ``ds``; input order is preserved.

    Each record needs ``image_id``, ``category_id``, ``bbox`` and a finite
    ``score``, none of them ``null``; ids must resolve against ``ds``. All
    problems are collected into a single :class:`ValidationError`.
    """
    t = _detection_table(data, ds)
    return [Detection(i, c, BoundingBox(*b), s)
            for i, c, b, s in zip(t.images.tolist(), t.categories.tolist(), t.boxes.tolist(), t.scores.tolist())]
