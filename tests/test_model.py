"""Dataset parsing, validation, and canonical serialization."""

import json
import logging
import hashlib
import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from unabench import (
    Annotation,
    BoundingBox,
    Category,
    Dataset,
    Detection,
    ImageRecord,
    NoiseConfig,
    ValidationError,
    parse_dataset,
    parse_detections,
    evaluate,
    inject,
    serialize_dataset,
    tide_report,
    validate_dataset,
)
from unabench import model
from unabench.model import _columns, _detection_table

from conftest import VAL2017_PATH, build_dataset, capped_tie_instance, requires_val2017


MINIMAL = {
    "images": [{"id": 1, "width": 100, "height": 80, "file_name": "a.jpg"}],
    "annotations": [
        {"id": 1, "image_id": 1, "category_id": 1, "bbox": [10, 10, 20, 20], "area": 400, "iscrowd": 0},
        {"id": 2, "image_id": 1, "category_id": 2, "bbox": [5.5, 6.5, 30, 40], "iscrowd": 1},
    ],
    "categories": [{"id": 1, "name": "cat"}, {"id": 2, "name": "dog"}],
}


def test_parse_minimal_document():
    ds = parse_dataset(json.dumps(MINIMAL))
    assert len(ds.images) == 1
    assert len(ds.annotations) == 2
    assert len(ds.categories) == 2
    assert ds.annotations[0].bbox == BoundingBox(10.0, 10.0, 20.0, 20.0)
    assert ds.annotations[0].area == 400.0
    assert not ds.annotations[0].crowd_flag
    assert ds.annotations[1].crowd_flag


def test_parse_accepts_bytes_and_str():
    text = json.dumps(MINIMAL)
    assert parse_dataset(text) == parse_dataset(text.encode("utf-8"))


def test_area_derived_when_absent():
    ds = parse_dataset(json.dumps(MINIMAL))
    assert ds.annotations[1].area == pytest.approx(30 * 40)


def test_round_trip_is_identity():
    ds = build_dataset(n_images=4, n_categories=5, n_annotations=30, seed=3, crowd_every=7)
    assert parse_dataset(serialize_dataset(ds)) == ds


def test_serialization_is_canonical_across_construction_order():
    ds = build_dataset(n_images=3, n_categories=3, n_annotations=12, seed=1)
    shuffled = Dataset(
        images=tuple(reversed(ds.images)),
        annotations=ds.annotations[::-1],
        categories=tuple(reversed(ds.categories)),
    )
    assert ds != shuffled  # different record order, same content
    assert serialize_dataset(ds) == serialize_dataset(shuffled)


def test_serialization_idempotent_at_byte_level():
    ds = build_dataset(seed=9)
    once = serialize_dataset(parse_dataset(serialize_dataset(ds)))
    assert once == serialize_dataset(ds)


def _canonical_document(ds: Dataset) -> bytes:
    """The canonical bytes by the standard encoder, from the records: the oracle for the chunk writer."""
    doc = {
        "images": [{"id": im.id, "width": im.width, "height": im.height, "file_name": im.file_name}
                   for im in sorted(ds.images, key=lambda im: im.id)],
        "annotations": [{"id": a.id, "image_id": a.image_id, "category_id": a.category_id, "bbox": a.bbox.as_list(),
                         "area": a.area, "iscrowd": int(a.crowd_flag)} for a in sorted(ds.annotations, key=lambda a: a.id)],
        "categories": [{"id": c.id, "name": c.name} for c in sorted(ds.categories, key=lambda c: c.id)],
    }
    return json.dumps(doc, ensure_ascii=False, allow_nan=False, separators=(",", ":")).encode("utf-8")


@pytest.mark.parametrize("n", [0, 1, model._CHUNK_ROWS, model._CHUNK_ROWS + 1, 3 * model._CHUNK_ROWS + 5])
def test_serialized_bytes_equal_the_standard_encoder_at_chunk_edges(n):
    ds = build_dataset(n_images=7, n_categories=4, n_annotations=n, seed=n, crowd_every=9)
    ds = replace(ds, annotations=ds.annotations[::-1])  # the writer sorts by id
    chunks = list(model._dataset_chunks(ds))
    assert b"".join(chunks) == serialize_dataset(ds) == _canonical_document(ds)
    assert len(chunks) == 2 + -(-n // model._CHUNK_ROWS)  # images, each run of rows, categories
    assert max(chunk.count(b'"image_id"') for chunk in chunks) <= model._CHUNK_ROWS


def test_serialized_bytes_equal_the_standard_encoder_with_non_ascii_names():
    ds = build_dataset(n_images=3, n_categories=3, n_annotations=model._CHUNK_ROWS + 2, seed=4)
    ds = replace(ds, images=(replace(ds.images[0], file_name="straße/ß_ü.jpg"), *ds.images[1:]),
                 categories=(Category(3, "猫"), Category(1, "ñandú"), Category(2, 'quote " and \\ \u2028')))
    out = serialize_dataset(ds)
    assert out == _canonical_document(ds)
    assert serialize_dataset(parse_dataset(out)) == out


def test_serializing_holds_at_most_twice_its_output():
    """The writer holds one chunk of rows at a time: on a COCO-val-sized dataset whose table
    exists, the traced peak of ``serialize_dataset`` stays within twice its output (it was
    4.9 times when every row string, their join and its UTF-8 copy were held at once)."""
    ds = build_dataset(n_images=5000, n_categories=80, n_annotations=36_000, seed=0, crowd_every=100)
    ds._table
    tracemalloc.start()
    try:
        out = serialize_dataset(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * len(out), (peak, len(out))


def test_empty_annotation_list_round_trips():
    ds = Dataset(
        images=(ImageRecord(1, 10, 10, "x.jpg"),),
        annotations=(),
        categories=(Category(1, "c"),),
    )
    assert parse_dataset(serialize_dataset(ds)) == ds


def test_dangling_image_reference_names_both_ids():
    doc = dict(MINIMAL, annotations=[
        {"id": 7, "image_id": 99, "category_id": 1, "bbox": [1, 1, 5, 5]},
    ])
    with pytest.raises(ValidationError) as err:
        parse_dataset(json.dumps(doc))
    assert "id=7" in str(err.value)
    assert "image_id 99" in str(err.value)


def test_dangling_category_reference_rejected():
    doc = dict(MINIMAL, annotations=[
        {"id": 1, "image_id": 1, "category_id": 42, "bbox": [1, 1, 5, 5]},
    ])
    with pytest.raises(ValidationError, match="category_id 42"):
        parse_dataset(json.dumps(doc))


def test_duplicate_annotation_ids_rejected():
    doc = dict(MINIMAL, annotations=[
        {"id": 1, "image_id": 1, "category_id": 1, "bbox": [1, 1, 5, 5]},
        {"id": 1, "image_id": 1, "category_id": 2, "bbox": [2, 2, 5, 5]},
    ])
    with pytest.raises(ValidationError, match="duplicate annotation id"):
        parse_dataset(json.dumps(doc))


def test_duplicate_image_and_category_ids_rejected():
    doc = dict(MINIMAL, images=MINIMAL["images"] * 2)
    with pytest.raises(ValidationError, match="duplicate image id"):
        parse_dataset(json.dumps(doc))
    doc = dict(MINIMAL, categories=[{"id": 1, "name": "a"}, {"id": 1, "name": "b"}])
    with pytest.raises(ValidationError, match="duplicate category id"):
        parse_dataset(json.dumps(doc))


def test_degenerate_boxes_rejected_listing_offending_ids():
    doc = dict(MINIMAL, annotations=[
        {"id": 3, "image_id": 1, "category_id": 1, "bbox": [1, 1, 0, 5]},
        {"id": 4, "image_id": 1, "category_id": 1, "bbox": [1, 1, 5, -2]},
        {"id": 5, "image_id": 1, "category_id": 1, "bbox": [1, 1, 5, 5]},
    ])
    with pytest.raises(ValidationError) as err:
        parse_dataset(json.dumps(doc))
    msg = str(err.value)
    assert "id=3" in msg and "id=4" in msg and "id=5" not in msg
    assert len(err.value.errors) == 2


def test_all_problems_reported_together():
    doc = dict(MINIMAL, annotations=[
        {"id": 1, "image_id": 99, "category_id": 1, "bbox": [1, 1, 0, 5]},
        {"id": 1, "image_id": 1, "category_id": 77, "bbox": [1, 1, 5, 5]},
    ])
    with pytest.raises(ValidationError) as err:
        parse_dataset(json.dumps(doc))
    assert len(err.value.errors) >= 3


def test_non_finite_values_rejected():
    doc = dict(MINIMAL, annotations=[
        {"id": 1, "image_id": 1, "category_id": 1, "bbox": [1, 1, 5, 5], "score": 1},
    ])
    raw = json.dumps(doc).replace('"bbox": [1, 1, 5, 5]', '"bbox": [1, 1, NaN, 5]')
    with pytest.raises(ValidationError, match="bbox"):
        parse_dataset(raw)


def test_malformed_json_rejected():
    with pytest.raises(ValidationError, match="not valid JSON"):
        parse_dataset(b"{nope")
    with pytest.raises(ValidationError, match="top level"):
        parse_dataset(b"[]")
    with pytest.raises(ValidationError, match="categories"):
        parse_dataset(b'{"images": [], "annotations": []}')


@pytest.mark.parametrize("data", [b"[" * 100000 + b"]" * 100000,
                                  b'{"images": [], "categories": [], "annotations": ' + b"[" * 100000 + b"]" * 100000
                                  + b"}"], ids=["document", "annotations"])
def test_json_nested_too_deep_is_not_valid_json(data):
    with pytest.raises(ValidationError) as err:
        parse_dataset(data)
    assert len(err.value.errors) == 1 and err.value.errors[0].startswith("document: not valid JSON (maximum recursion")


def test_out_of_bounds_box_warns_but_passes(caplog):
    doc = dict(MINIMAL, annotations=[
        {"id": 1, "image_id": 1, "category_id": 1, "bbox": [90, 70, 20, 20]},
    ])
    with caplog.at_level(logging.WARNING, logger="unabench.model"):
        ds = parse_dataset(json.dumps(doc))
    assert len(ds.annotations) == 1  # accepted, not clipped
    assert ds.annotations[0].bbox.w == 20.0
    assert any("beyond image bounds" in r.message for r in caplog.records)
    assert any("1" in r.getMessage() for r in caplog.records)


def test_out_of_bounds_warning_text_is_pinned(caplog):
    """The count, the first 10 ids in record order, then ``, ...`` when there are more."""
    inside = {"image_id": 1, "category_id": 1, "bbox": [10, 10, 20, 20]}
    outside = [[-1, 10, 20, 20], [10, -0.5, 20, 20], [90, 10, 10.5, 20], [10, 70, 20, 10.25]]
    ids = [40, 3, 17, 8, 25, 1, 33, 12, 9, 21, 2, 50]
    anns = []
    for k, ann_id in enumerate(ids):
        anns.append(dict(inside, id=ann_id, bbox=outside[k % 4]))
        anns.append(dict(inside, id=100 + k))
    for n, shown in ((12, "40, 3, 17, 8, 25, 1, 33, 12, 9, 21, ..."), (10, "40, 3, 17, 8, 25, 1, 33, 12, 9, 21"),
                     (1, "40")):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="unabench.model"):
            parse_dataset(json.dumps(dict(MINIMAL, annotations=anns[:2 * n])))
        assert [r.getMessage() for r in caplog.records] == [
            f"{n} annotation box(es) extend beyond image bounds (ids {shown}); kept as-is"]


def test_serialized_key_order_and_id_sorting():
    ds = build_dataset(n_annotations=3, seed=5)
    doc = json.loads(serialize_dataset(ds))
    assert list(doc) == ["images", "annotations", "categories"]
    assert list(doc["annotations"][0]) == ["id", "image_id", "category_id", "bbox", "area", "iscrowd"]
    assert list(doc["images"][0]) == ["id", "width", "height", "file_name"]
    ann_ids = [a["id"] for a in doc["annotations"]]
    assert ann_ids == sorted(ann_ids)


def test_crowd_flag_survives_round_trip():
    ds = build_dataset(n_annotations=10, crowd_every=3, seed=2)
    back = parse_dataset(serialize_dataset(ds))
    assert [a.crowd_flag for a in back.annotations] == [a.crowd_flag for a in ds.annotations]
    assert len(back.non_crowd) == len(ds.non_crowd) < 10


def test_validate_rejects_nonpositive_image_size():
    ds = Dataset(
        images=(ImageRecord(1, 0, 10, "x.jpg"),),
        annotations=(),
        categories=(Category(1, "c"),),
    )
    with pytest.raises(ValidationError, match="non-positive size"):
        validate_dataset(ds)


def test_parse_detections_preserves_input_order():
    ds = parse_dataset(json.dumps(MINIMAL))
    recs = [
        {"image_id": 1, "category_id": (i % 2) + 1, "bbox": [i, i, 4, 4], "score": i / 100}
        for i in range(100)
    ]
    dets = parse_detections(json.dumps(recs), ds)
    assert [d.bbox.x for d in dets] == [float(i) for i in range(100)]


def test_parse_detections_reports_offending_record_index():
    ds = parse_dataset(json.dumps(MINIMAL))
    recs = [
        {"image_id": 1, "category_id": 1, "bbox": [1, 1, 4, 4], "score": 0.5},
        {"image_id": 9, "category_id": 1, "bbox": [1, 1, 4, 4], "score": 0.5},
        {"image_id": 1, "category_id": 1, "bbox": [1, 1, 4, 4]},
    ]
    with pytest.raises(ValidationError) as err:
        parse_detections(json.dumps(recs), ds)
    msg = str(err.value)
    assert "results[1]" in msg and "image_id 9" in msg
    assert "results[2]" in msg and "score" in msg


def test_parse_detections_rejects_non_finite_score_and_bad_box():
    ds = parse_dataset(json.dumps(MINIMAL))
    with pytest.raises(ValidationError, match="score"):
        parse_detections('[{"image_id": 1, "category_id": 1, "bbox": [1, 1, 4, 4], "score": NaN}]', ds)
    with pytest.raises(ValidationError, match="width/height"):
        parse_detections('[{"image_id": 1, "category_id": 1, "bbox": [1, 1, 0, 4], "score": 0.5}]', ds)


def test_parse_detections_empty_array():
    ds = parse_dataset(json.dumps(MINIMAL))
    assert parse_detections(b"[]", ds) == []


def test_iscrowd_accepts_only_zero_or_one():
    doc = dict(MINIMAL, annotations=[
        {"id": 1, "image_id": 1, "category_id": 1, "bbox": [1, 1, 4, 4], "iscrowd": 2},
    ])
    with pytest.raises(ValidationError, match="iscrowd"):
        parse_dataset(json.dumps(doc))


def test_ids_must_be_integers():
    doc = dict(MINIMAL, annotations=[
        {"id": "a", "image_id": 1, "category_id": 1, "bbox": [1, 1, 4, 4]},
    ])
    with pytest.raises(ValidationError, match="'id' must be an integer"):
        parse_dataset(json.dumps(doc))



# --- field errors, pinned ----------------------------------------------------------

_ABSENT = object()
_IMAGE = {"id": 1, "width": 100, "height": 80, "file_name": "a.jpg"}
_ANNOTATION = {"id": 1, "image_id": 1, "category_id": 1, "bbox": [10, 10, 20, 20], "area": 400, "iscrowd": 0}
_CATEGORY = {"id": 1, "name": "cat"}
_RESULT = {"image_id": 1, "category_id": 1, "bbox": [1, 1, 4, 4], "score": 0.5}
_SECTIONS = {"images": _IMAGE, "annotations": _ANNOTATION, "categories": _CATEGORY, "results": _RESULT}
_ANN = "annotations[0] (id=1)"
_BEYOND_INT64 = "field {key!r} must be an integer from -2**63 to 2**63 - 1, got {value!r}"

FIELD_ERRORS = [
    ("images", "file_name", _ABSENT, ["images[0]: missing field 'file_name'"]),
    ("images", "file_name", None, ["images[0]: file_name must be a string, got None"]),
    ("images", "file_name", 7, ["images[0]: file_name must be a string"]),
    ("images", "id", _ABSENT, ["images[0]: missing field 'id'"]),
    ("images", "id", None, ["images[0]: field 'id' must be an integer, got None"]),
    ("images", "id", "1", ["images[0]: field 'id' must be an integer, got '1'"]),
    ("images", "width", _ABSENT, ["images[0]: missing field 'width'"]),
    ("images", "width", None, ["images[0]: field 'width' must be an integer, got None"]),
    ("images", "width", 100.0, ["images[0]: field 'width' must be an integer, got 100.0"]),
    ("images", "height", _ABSENT, ["images[0]: missing field 'height'"]),
    ("images", "height", None, ["images[0]: field 'height' must be an integer, got None"]),
    ("images", "height", True, ["images[0]: field 'height' must be an integer, got True"]),
    ("annotations", "iscrowd", _ABSENT, []),
    ("annotations", "iscrowd", None, [f"{_ANN}: iscrowd must be 0 or 1, got None"]),
    ("annotations", "iscrowd", 2, [f"{_ANN}: iscrowd must be 0 or 1, got 2"]),
    ("annotations", "area", _ABSENT, []),
    ("annotations", "area", None, []),
    ("annotations", "area", "big", [f"{_ANN}: area must be a finite number, got 'big'"]),
    ("annotations", "id", _ABSENT, ["annotations[0]: missing field 'id'"]),
    ("annotations", "id", None, ["annotations[0]: field 'id' must be an integer, got None"]),
    ("annotations", "id", "a", ["annotations[0]: field 'id' must be an integer, got 'a'"]),
    ("annotations", "image_id", _ABSENT, [f"{_ANN}: missing field 'image_id'"]),
    ("annotations", "image_id", None, [f"{_ANN}: field 'image_id' must be an integer, got None"]),
    ("annotations", "image_id", 1.0, [f"{_ANN}: field 'image_id' must be an integer, got 1.0"]),
    ("annotations", "category_id", _ABSENT, [f"{_ANN}: missing field 'category_id'"]),
    ("annotations", "category_id", None, [f"{_ANN}: field 'category_id' must be an integer, got None"]),
    ("annotations", "category_id", False, [f"{_ANN}: field 'category_id' must be an integer, got False"]),
    ("annotations", "bbox", _ABSENT, [f"{_ANN}: missing field 'bbox'"]),
    ("annotations", "bbox", None, [f"{_ANN}: bbox must be four finite numbers, got None"]),
    ("annotations", "bbox", [1, 2, 3], [f"{_ANN}: bbox must be four finite numbers, got [1, 2, 3]"]),
    ("categories", "name", _ABSENT, ["categories[0]: missing field 'name'"]),
    ("categories", "name", None, ["categories[0]: name must be a string, got None"]),
    ("categories", "name", 5, ["categories[0]: name must be a string"]),
    ("categories", "id", _ABSENT, ["categories[0]: missing field 'id'"]),
    ("categories", "id", None, ["categories[0]: field 'id' must be an integer, got None"]),
    ("categories", "id", [1], ["categories[0]: field 'id' must be an integer, got [1]"]),
    ("results", "image_id", _ABSENT, ["results[0]: missing field 'image_id'"]),
    ("results", "image_id", None, ["results[0]: field 'image_id' must be an integer, got None"]),
    ("results", "image_id", "1", ["results[0]: field 'image_id' must be an integer, got '1'"]),
    ("results", "category_id", _ABSENT, ["results[0]: missing field 'category_id'"]),
    ("results", "category_id", None, ["results[0]: field 'category_id' must be an integer, got None"]),
    ("results", "category_id", 1.5, ["results[0]: field 'category_id' must be an integer, got 1.5"]),
    ("results", "bbox", _ABSENT, ["results[0]: missing field 'bbox'"]),
    ("results", "bbox", None, ["results[0]: bbox must be four finite numbers, got None"]),
    ("results", "bbox", [1, 1, 4, "4"], ["results[0]: bbox must be four finite numbers, got [1, 1, 4, '4']"]),
    ("results", "score", _ABSENT, ["results[0]: missing field 'score'"]),
    ("results", "score", None, ["results[0]: score must be a finite number, got None"]),
    ("results", "score", "high", ["results[0]: score must be a finite number, got 'high'"]),
] + [(section, None, [1], [f"{section}[0]: record must be an object"]) for section in _SECTIONS] + [
    ("images", "id", 2 ** 63, [f"images[0]: {_BEYOND_INT64.format(key='id', value=2 ** 63)}"]),
    ("images", "width", 2 ** 63, [f"images[0]: {_BEYOND_INT64.format(key='width', value=2 ** 63)}"]),
    ("annotations", "id", 2 ** 63 - 1, []),
    ("annotations", "id", -2 ** 63 - 1, [
        f"annotations[0] (id={-2 ** 63 - 1}): {_BEYOND_INT64.format(key='id', value=-2 ** 63 - 1)}"]),
    ("annotations", "image_id", 2 ** 63, [f"{_ANN}: {_BEYOND_INT64.format(key='image_id', value=2 ** 63)}"]),
    ("annotations", "category_id", 2 ** 64, [f"{_ANN}: {_BEYOND_INT64.format(key='category_id', value=2 ** 64)}"]),
    ("categories", "id", 2 ** 63, [f"categories[0]: {_BEYOND_INT64.format(key='id', value=2 ** 63)}"]),
    ("results", "category_id", 2 ** 63, [f"results[0]: {_BEYOND_INT64.format(key='category_id', value=2 ** 63)}"]),
]


def _parse_section(section: str, record) -> None:
    doc = {"images": [_IMAGE], "annotations": [_ANNOTATION], "categories": [_CATEGORY]}
    if section == "results":
        parse_detections(json.dumps([record]), parse_dataset(json.dumps(doc)))
    else:
        parse_dataset(json.dumps(dict(doc, **{section: [record]})))


@pytest.mark.parametrize("section, field, value, errors", FIELD_ERRORS, ids=[
    f"{s}-{f or 'record'}-{'absent' if v is _ABSENT else repr(v)}" for s, f, v, _ in FIELD_ERRORS])
def test_field_errors_are_pinned(section, field, value, errors):
    """Every field of every record kind absent, null and of the wrong type,
    plus a non-object record; a rejected null reads ``got None``."""
    if field is None:
        record = value
    else:
        record = {k: v for k, v in _SECTIONS[section].items() if k != field}
        if value is not _ABSENT:
            record[field] = value
    if not errors:
        _parse_section(section, record)
        return
    with pytest.raises(ValidationError) as err:
        _parse_section(section, record)
    assert err.value.errors == errors


_HUGE = 10 ** 400  # an integer literal too large for a float


@pytest.mark.parametrize("section, field, value, error", [
    ("annotations", "bbox", [10, 10, _HUGE, 20],
     f"{_ANN}: bbox must be four finite numbers, got [10, 10, {_HUGE}, 20]"),
    ("annotations", "area", _HUGE, f"{_ANN}: area must be a finite number, got {_HUGE}"),
    ("results", "bbox", [1, 1, 4, _HUGE],
     f"results[0]: bbox must be four finite numbers, got [1, 1, 4, {_HUGE}]"),
    ("results", "score", _HUGE, f"results[0]: score must be a finite number, got {_HUGE}"),
], ids=["annotation-bbox", "annotation-area", "result-bbox", "result-score"])
def test_an_int_too_large_for_a_float_is_not_finite(section, field, value, error):
    with pytest.raises(ValidationError) as err:
        _parse_section(section, dict(_SECTIONS[section], **{field: value}))
    assert err.value.errors == [error]


# --- results table against the golden and the record walk ---------------------------

def _without_the_pull(fn, *args):
    """``fn(*args)`` with a column its check refuses searched value by value, each value
    checked alone, where the reader halves it (:func:`model._refusals`)."""
    def search(column, values):
        found = []
        for i in range(len(values)):
            try:
                column(values[i:i + 1])
            except model._REFUSED as refusal:
                found.append((i, refusal))
        return found

    with pytest.MonkeyPatch.context() as m:
        m.setattr(model, "_refusals", search)
        return fn(*args)


def _assert_table_agrees_with_golden(data: str, ds: Dataset, want: dict) -> bool:
    """``_detection_table``, with the column pull and without it, raises the golden's errors
    or returns the same columns bit for bit, those of the records the golden's digest pins;
    returns whether the input was accepted."""
    if "errors" in want:
        for read in (_detection_table, partial(_without_the_pull, _detection_table)):
            with pytest.raises(ValidationError) as err:
                read(data, ds)
            assert err.value.errors == want["errors"]
        return False
    records = parse_detections(data, ds)
    assert hashlib.sha256(_detections_bytes(records)).hexdigest() == want["sha256"]
    for got in (_detection_table(data, ds), _without_the_pull(_detection_table, data, ds)):
        for g, w in zip(got, _columns(records)):
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())
    return True


_RESULTS = [
    {"image_id": 1, "category_id": 1, "bbox": [1, 1, 4, 4], "score": 0.5},
    {"image_id": 1, "category_id": 2, "bbox": [2.5, 3, 10, 0.5], "score": 1},
    {"image_id": 1, "category_id": 1, "bbox": [0, 0, 2 ** 60 + 1, 7.25], "score": 0.5},
]
_BAD = {"absent": _ABSENT, "null": None, "true": True, "string": "1", "nan": math.nan, "huge": _HUGE}
MUTATIONS = [(f"{key}-{name}", key, value) for key in _RESULT for name, value in _BAD.items()] + [
    *[(f"bbox-item-{name}", "bbox", [1, 1, value, 4]) for name, value in _BAD.items() if value is not _ABSENT],
    ("image_id-unknown", "image_id", 2), ("category_id-unknown", "category_id", 3),
    ("image_id-beyond-int64", "image_id", 2 ** 63), ("score-negative", "score", -1),
    ("bbox-width-0", "bbox", [1, 1, 0, 4]), ("bbox-height-negative", "bbox", [1, 1, 4, -0.5]),
    ("bbox-3-items", "bbox", [1, 1, 4]), ("bbox-5-items", "bbox", [1, 1, 4, 4, 4]), ("bbox-string", "bbox", "1114"),
    ("extra-key", "note", "x"), ("record-list", None, [1]), ("record-string", None, "x"), ("record-null", None, None),
]
_ACCEPTED = {"score-negative", "extra-key"}


@pytest.mark.parametrize("i", range(len(MUTATIONS)), ids=[m[0] for m in MUTATIONS])
def test_results_table_agrees_with_the_walk(golden, i):
    """One record of a valid results file mutated: the column pull and the record walk
    give the golden's errors or the same columns."""
    name, key, value = MUTATIONS[i]
    data = _results_document(key, value)
    accepted = _assert_table_agrees_with_golden(data, parse_dataset(json.dumps(MINIMAL)), golden["results"][i])
    assert accepted == (name in _ACCEPTED)


def test_results_table_takes_valid_input_without_the_walk(monkeypatch):
    """Int and float coordinates, tied scores, one image over the per-image cap."""
    ds, dets = capped_tie_instance()
    rows = [{"image_id": d.image_id, "category_id": d.category_id, "score": 1 if d.score == 1 else d.score,
             "bbox": [round(v) for v in d.bbox.as_list()] if i % 3 == 0 else d.bbox.as_list()}
            for i, d in enumerate(dets)]
    assert any(r["score"] == 1 for r in rows) and any(type(r["bbox"][0]) is int for r in rows)
    data = json.dumps(rows)
    records = parse_detections(data, ds)
    assert _assert_table_agrees_with_golden(data, ds, {"sha256": hashlib.sha256(_detections_bytes(records)).hexdigest()})
    monkeypatch.setattr(model, "_refusals", lambda *args: pytest.fail("valid input reached the search"))
    table = _detection_table(data, ds)
    assert evaluate(ds, table) == evaluate(ds, records)
    assert tide_report(ds, table) == tide_report(ds, records)


def test_one_bad_box_is_worded_without_building_records(monkeypatch):
    """A file with one bad annotation box, and a results file with one bad result box, get
    their errors from the rules' row masks: no Annotation or Detection record is built."""
    anns = [dict(_ANNOTATION, id=i + 1, bbox=[1, 1, 0 if i == 3 else 4, 4]) for i in range(6)]
    data = json.dumps(dict(MINIMAL, annotations=anns))
    results = json.dumps([dict(_RESULT, bbox=[1, 1, 4, -1 if i == 2 else 4]) for i in range(5)])
    ds = parse_dataset(json.dumps(MINIMAL))

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} record was built")

    monkeypatch.setattr(Annotation, "__init__", refuse)
    monkeypatch.setattr(Detection, "__init__", refuse)
    with pytest.raises(ValidationError) as err:
        parse_dataset(data)
    assert err.value.errors == ["annotations[3] (id=4): non-positive box width/height (w=0.0, h=4.0)"]
    with pytest.raises(ValidationError) as err:
        _detection_table(results, ds)
    assert err.value.errors == ["results[2]: non-positive box width/height (w=4.0, h=-1.0)"]


def _column_checks_run(monkeypatch, kind: tuple, decode, data: str) -> Counter:
    """How often ``decode(data)`` runs each column check of ``kind``, by key."""
    runs = Counter()

    def counting(key, column):
        def check(values, finite=True):
            runs[key] += 1
            return column(values, finite)
        return check

    for key, (problem, fallback, column) in kind[2].items():
        monkeypatch.setitem(kind[2], key, (problem, fallback, counting(key, column)))
    try:
        decode(data)
    except ValidationError:
        pass
    return runs


@pytest.mark.parametrize("refused", [None, 617])
def test_a_results_section_runs_each_passing_column_check_once(monkeypatch, refused):
    """1,000 results, valid or with one null score: a column its check takes is checked once;
    only the refused one is searched."""
    rows = [dict(_RESULT, score=None if i == refused else i / 1000) for i in range(1000)]
    runs = _column_checks_run(monkeypatch, model._RESULTS, model._decode_results, json.dumps(rows))
    assert [runs[key] for key in ("image_id", "category_id", "bbox")] == [1, 1, 1]
    assert (runs["score"] == 1) if refused is None else (runs["score"] > 2)


@pytest.mark.parametrize("refused", [None, 617])
def test_an_annotations_section_runs_each_passing_column_check_once(monkeypatch, refused):
    """1,000 annotations, valid or with one null category id: a column its check takes is
    checked once; only the refused one is searched."""
    anns = [dict(_ANNOTATION, id=i + 1, category_id=None if i == refused else 1) for i in range(1000)]
    runs = _column_checks_run(monkeypatch, model._ANNOTATIONS, model._decode_dataset,
                              json.dumps(dict(MINIMAL, annotations=anns)))
    assert {key: n for key, n in runs.items() if key != "category_id"} == dict.fromkeys(
        ("iscrowd", "area", "id", "image_id", "bbox"), 1)
    assert (runs["category_id"] == 1) if refused is None else (runs["category_id"] > 2)


# --- annotation table against the golden and the record walk ---------------------------

def _warnings_of(caplog, parse, data):
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="unabench.model"):
        try:
            return parse(data), [r.getMessage() for r in caplog.records]
        except ValidationError as e:
            return e, [r.getMessage() for r in caplog.records]


_ANNOTATIONS = [
    {"id": 4, "image_id": 1, "category_id": 1, "bbox": [10, 10, 20, 20], "area": 400, "iscrowd": 0},
    {"id": 2, "image_id": 1, "category_id": 2, "bbox": [5.5, 6.5, 30.25, 40], "area": 1210.0, "iscrowd": 1},
    {"id": 9, "image_id": 1, "category_id": 1, "bbox": [90, 1, 2 ** 60 + 1, 7.25]},
]
ANNOTATION_MUTATIONS = [(f"{key}-{name}", {key: value}) for key in _ANNOTATION
                        for name, value in {**_BAD, "beyond-int64": 2 ** 63}.items()] + [
    ("iscrowd-2", {"iscrowd": 2}), ("iscrowd-0.0", {"iscrowd": 0.0}), ("iscrowd-1.0", {"iscrowd": 1.0}),
    ("area-negative", {"area": -1}), ("area-derived-inf", {"area": _ABSENT, "bbox": [1, 1, 1e200, 1e200]}),
    ("bbox-3-items", {"bbox": [1, 1, 4]}), ("bbox-5-items", {"bbox": [1, 1, 4, 4, 4]}),
    ("bbox-width-0", {"bbox": [1, 1, 0, 4]}), ("bbox-height-negative", {"bbox": [1, 1, 4, -0.5]}),
    ("bbox-item-beyond-int64", {"bbox": [1, 1, 2 ** 63, 4]}), ("bbox-item-true", {"bbox": [1, True, 4, 4]}),
    ("id-duplicate", {"id": 9}), ("image_id-unknown", {"image_id": 99}),
    ("category_id-unknown", {"category_id": 99}),
    ("extra-key", {"note": "x"}), ("record-list", [1]), ("record-null", None),
]
_ANNOTATIONS_ACCEPTED = {"iscrowd-absent", "iscrowd-true", "iscrowd-0.0", "iscrowd-1.0", "area-absent",
                         "area-null", "area-beyond-int64", "bbox-item-beyond-int64", "extra-key"}


@pytest.mark.parametrize("i", range(len(ANNOTATION_MUTATIONS)), ids=[m[0] for m in ANNOTATION_MUTATIONS])
def test_annotation_table_agrees_with_the_walk(caplog, golden, i):
    """One annotation of a valid file mutated (or replaced by a non-object): with the column
    pull and without it, the parse raises the golden's errors, or returns the same dataset
    with the golden's warnings and a table equal to its records' table bit for bit."""
    name, change = ANNOTATION_MUTATIONS[i]
    want = golden["annotations"][i]
    data = _annotations_document(change)
    walk, walk_warnings = _warnings_of(caplog, _parse_without_the_pull, data)
    got, warnings = _warnings_of(caplog, parse_dataset, data)
    assert warnings == walk_warnings == want["warnings"]
    if "errors" in want:
        assert name not in _ANNOTATIONS_ACCEPTED
        assert got.errors == walk.errors == want["errors"]
        return
    assert name in _ANNOTATIONS_ACCEPTED
    table = got._table
    assert got == walk and hashlib.sha256(serialize_dataset(got)).hexdigest() == want["sha256"]
    for g, w in zip(table, model._AnnotationTable.of(walk.annotations)):
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


@pytest.mark.parametrize("flag", [True, 0.0, 1.0])
def test_annotations_only_the_walk_takes_are_read_into_a_table(flag):
    """An iscrowd of true, 0.0 or 1.0, which the walk takes, is taken by the column pull too:
    the parse builds no record and reads it as the walk does."""
    doc = json.loads(json.dumps(MINIMAL))
    doc["annotations"][1]["iscrowd"] = flag
    ds = parse_dataset(json.dumps(doc))
    assert "annotations" not in vars(ds)
    assert ds._table.crowd.tolist() == [False, bool(flag)]
    walked = _parse_without_the_pull(json.dumps(doc))
    assert ds == walked and serialize_dataset(ds) == serialize_dataset(walked)
    for g, w in zip(ds._table, model._AnnotationTable.of(walked.annotations)):
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


def test_scoring_reads_the_non_crowd_rows_as_a_table():
    table = parse_dataset(json.dumps(MINIMAL))._table
    rows = table.non_crowd()
    assert isinstance(rows, model._AnnotationTable)
    for g, w in zip(rows, table):
        assert (g.dtype, g.tobytes()) == (w.dtype, w[~table.crowd].tobytes())


def test_image_errors_leave_the_annotations_to_the_walk(caplog):
    """With a duplicated image id a box is sized by the image listed last, with the column
    pull and without it."""
    images = [{"id": 1, "width": 100, "height": 80, "file_name": "a.jpg"},
              {"id": 1, "width": 200, "height": 200, "file_name": "b.jpg"}]
    data = json.dumps(dict(MINIMAL, images=images, annotations=[dict(_ANNOTATION, bbox=[150, 10, 20, 20])]))
    walk, walk_warnings = _warnings_of(caplog, _parse_without_the_pull, data)
    got, warnings = _warnings_of(caplog, parse_dataset, data)
    assert walk.errors == got.errors == ["images[1] (id=1): duplicate image id"]
    assert warnings == walk_warnings == []


BUILT_IN_CODE = [
    ("nan-box", Annotation(7, 1, 1, BoundingBox(1.0, 1.0, math.nan, 2.0)),
     "annotations[0] (id=7): non-finite bbox [1.0, 1.0, nan, 2.0]"),
    ("unknown-image", Annotation(7, 9, 1, BoundingBox(1.0, 1.0, 2.0, 2.0)), "annotations[0] (id=7): unknown image_id 9"),
    ("float-image-id", Annotation(7, 1.5, 1, BoundingBox(1.0, 1.0, 2.0, 2.0)),
     "annotations[0] (id=7): field 'image_id' must be an integer, got 1.5"),
    ("str-id", Annotation("a", 1, 1, BoundingBox(1.0, 1.0, 2.0, 2.0)), "annotations[0]: field 'id' must be an integer, got 'a'"),
]


def test_validate_dataset_walks_a_dataset_built_in_code():
    """Records that fail a column check are judged by the walk; records the table cannot
    hold are rejected as decoding their document would reject them."""
    good = parse_dataset(json.dumps(dict(MINIMAL, annotations=_ANNOTATIONS)))
    validate_dataset(Dataset(good.images, good.annotations, good.categories))
    for _, bad, error in BUILT_IN_CODE:
        with pytest.raises(ValidationError) as err:
            validate_dataset(Dataset(good.images, (bad,), good.categories))
        assert err.value.errors == [error]


_IM, _CAT = ImageRecord(1, 100, 80, "a.jpg"), Category(1, "cat")
_RECORD = Annotation(1, 1, 1, BoundingBox(1.0, 1.0, 4.0, 4.0))


NO_TABLE_TAKES = [
    ((_IM,), (replace(_RECORD, id="x"),), ["annotations[0]: field 'id' must be an integer, got 'x'"]),
    ((_IM,), (replace(_RECORD, id=1.5),), ["annotations[0]: field 'id' must be an integer, got 1.5"]),
    ((replace(_IM, id=1.0),), (replace(_RECORD, image_id=1.0),),
     ["images[0]: field 'id' must be an integer, got 1.0",
      "annotations[0] (id=1): field 'image_id' must be an integer, got 1.0"]),
    ((replace(_IM, width=100.5),), (_RECORD,), ["images[0]: field 'width' must be an integer, got 100.5"]),
    ((_IM,), (replace(_RECORD, area="x"),), ["annotations[0] (id=1): area must be a finite number, got 'x'"]),
    ((_IM,), (Annotation(1, 1, 1, BoundingBox("x", 1.0, 4.0, 4.0), area=4.0),),
     ["annotations[0] (id=1): bbox must be four finite numbers, got ['x', 1.0, 4.0, 4.0]"]),
    ((_IM,), (replace(_RECORD, id=2 ** 63), replace(_RECORD, id=2, category_id=np.uint64(1))),
     [f"annotations[0] (id={2 ** 63}): " + _BEYOND_INT64.format(key="id", value=2 ** 63),
      "annotations[1] (id=2): field 'category_id' must be an integer, got np.uint64(1)"]),
]
_NO_TABLE_TAKES_IDS = ["str-id", "float-id", "float-image-id", "float-width", "str-area", "str-box", "beyond-int64"]


@pytest.mark.parametrize("images, annotations, errors", NO_TABLE_TAKES, ids=_NO_TABLE_TAKES_IDS)
def test_validate_rejects_fields_no_table_takes(images, annotations, errors):
    """A dataset built in code whose ids, sizes, areas or boxes no table column takes is
    rejected with one error per bad field, worded as the parse of its document words it,
    instead of passing and failing later in inject, evaluate or serialize."""
    with pytest.raises(ValidationError) as err:
        validate_dataset(Dataset(images, annotations, (_CAT,)))
    assert err.value.errors == errors


A_TABLE_WOULD_CAST = [
    ((replace(_IM, file_name=5),), (_RECORD,), (_CAT,), "images[0]: file_name must be a string"),
    ((_IM,), (_RECORD,), (Category(1, 7),), "categories[0]: name must be a string"),
    ((_IM,), (replace(_RECORD, bbox=BoundingBox("1", 2.0, 3.0, 4.0)),), (_CAT,),
     "annotations[0] (id=1): bbox must be four finite numbers, got ['1', 2.0, 3.0, 4.0]"),
    ((_IM,), (replace(_RECORD, area="5"),), (_CAT,), f"{_ANN}: area must be a finite number, got '5'"),
    ((_IM,), (replace(_RECORD, crowd_flag="yes"),), (_CAT,), f"{_ANN}: iscrowd must be 0 or 1, got 'yes'"),
    ((_IM,), (replace(_RECORD, crowd_flag=2),), (_CAT,), f"{_ANN}: iscrowd must be 0 or 1, got 2"),
]
_A_TABLE_WOULD_CAST_IDS = ["int-file-name", "int-category-name", "str-box-coordinate", "str-area", "str-crowd",
                           "crowd-2"]


@pytest.mark.parametrize("images, annotations, categories, error", A_TABLE_WOULD_CAST, ids=_A_TABLE_WOULD_CAST_IDS)
def test_validate_rejects_values_a_table_would_cast(images, annotations, categories, error):
    """A record whose name, box coordinate, area or crowd flag a table column would cast to
    another value is rejected as its document is, not written to a file that parses back
    to another dataset or not at all."""
    with pytest.raises(ValidationError) as err:
        validate_dataset(Dataset(images, annotations, categories))
    assert err.value.errors == [error]


def _numpy_numbers_dataset() -> Dataset:
    anns = (Annotation(1, 1, 1, BoundingBox(np.float32(1.5), np.int64(2), np.float64(4.0), 4),
                       area=np.float32(16.0)),
            Annotation(2, 1, 1, BoundingBox(1.0, 1.0, 4.0, 4.0), crowd_flag=1),
            Annotation(3, 1, 1, BoundingBox(1.0, 1.0, 4.0, 4.0), crowd_flag=np.True_),
            Annotation(4, 1, 1, BoundingBox(1.0, 1.0, 4.0, 4.0), crowd_flag=1.0),
            Annotation(5, 1, 1, BoundingBox(1.0, 1.0, 4.0, 4.0), crowd_flag=0))
    return Dataset((_IM,), anns, (_CAT,))


def test_numpy_numbers_and_int_crowd_flags_stay_valid():
    """Numpy numbers in boxes and areas, and crowd flags of 0, 1, 1.0 or a numpy bool, are
    values the document holds as well: the dataset validates and serializes to its twin's bytes."""
    ds = _numpy_numbers_dataset()
    anns = ds.annotations
    validate_dataset(ds)
    twin = Dataset((_IM,), (Annotation(1, 1, 1, BoundingBox(1.5, 2.0, 4.0, 4.0), area=16.0),
                            *(replace(a, crowd_flag=bool(a.crowd_flag)) for a in anns[1:])), (_CAT,))
    assert serialize_dataset(ds) == serialize_dataset(twin)


def _numpy_ids_dataset() -> Dataset:
    n = np.int64
    images = (ImageRecord(n(1), n(100), np.int32(80), "a.jpg"),)
    anns = tuple(Annotation(n(k + 1), n(1), np.int16(k % 2 + 1), BoundingBox(1.0 + k, 1.0, 4.0, 4.0))
                 for k in range(4))
    return Dataset(images, anns, (Category(n(1), "cat"), Category(n(2), "dog")))


def test_numpy_integer_ids_validate_inject_and_serialize():
    """Numpy integers are integers the tables take: a dataset holding them validates,
    injects, and serializes to the bytes of its Python-int twin."""
    ds = _numpy_ids_dataset()
    anns = ds.annotations
    validate_dataset(ds)
    noisy, _ = inject(ds, NoiseConfig("una", 0.5, seed=1))
    validate_dataset(noisy)
    twin = Dataset((ImageRecord(1, 100, 80, "a.jpg"),),
                   tuple(replace(a, id=int(a.id), image_id=1, category_id=int(a.category_id)) for a in anns),
                   (Category(1, "cat"), Category(2, "dog")))
    assert serialize_dataset(ds) == serialize_dataset(twin)
    assert serialize_dataset(noisy) == serialize_dataset(inject(twin, NoiseConfig("una", 0.5, seed=1))[0])


def test_parsed_dataset_is_the_value_of_its_records():
    """A parsed dataset builds no record until ``annotations`` is read, and equals,
    hashes and prints as one built from its records; ``replace`` works on it unfilled."""
    data = json.dumps(dict(MINIMAL, annotations=_ANNOTATIONS))
    first = parse_dataset(data)
    rebuilt = Dataset(first.images, first.annotations, first.categories)
    for view in (lambda ds: ds, hash, repr):
        ds = parse_dataset(data)
        assert "annotations" not in vars(ds)
        assert view(ds) == view(rebuilt)
    ds = parse_dataset(data)
    fewer = replace(ds, annotations=rebuilt.annotations[1:])
    assert "annotations" not in vars(ds)
    assert fewer == Dataset(rebuilt.images, rebuilt.annotations[1:], rebuilt.categories)
    assert fewer._table.ids.tolist() == [2, 9]
    assert replace(ds, images=ds.images[:1]) == rebuilt
    assert ds.annotations == rebuilt.annotations and ds.annotations[2].area == float(2 ** 60 + 1) * 7.25
    with pytest.raises(AttributeError, match="'Dataset' object has no attribute 'nope'"):
        ds.nope


# --- whole documents: the column pull against the record walk --------------------

_ODD_VALUES = (None, True, False, "1", 2 ** 63, -2 ** 63 - 1, 10 ** 399, 1.5, 0, -1, 2, [1], {})
_ODD_BOXES = ([1, 1, 4], [1, 1, 4, 4, 4], [1, 1, 2 ** 63, 4], [1, 1, 10 ** 399, 4], [1, True, 4, 4], [1, 1, 0, 4])
_NON_OBJECTS = ([1], "x", None, 3)


def _fuzzed_document(rng: np.random.Generator) -> str:
    """A small valid document with up to three records or fields mutated, and whether any is."""
    n_img, n_cat = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    doc = {
        "images": [{"id": i, "width": int(rng.integers(20, 90)), "height": int(rng.integers(20, 90)),
                    "file_name": f"{i}.jpg"} for i in range(1, n_img + 1)],
        "annotations": [{"id": i, "image_id": int(rng.integers(1, n_img + 1)),
                         "category_id": int(rng.integers(1, n_cat + 1)),
                         "bbox": [int(rng.integers(0, 10)), float(rng.uniform(0, 10)), 5, float(rng.uniform(1, 9))],
                         "area": 25.0, "iscrowd": int(rng.random() < 0.3)} for i in range(1, int(rng.integers(1, 6)))],
        "categories": [{"id": c, "name": f"c{c}"} for c in range(1, n_cat + 1)],
    }
    mutations = int(rng.integers(0, 4))
    for _ in range(mutations):
        section = doc[("images", "annotations", "categories")[int(rng.integers(0, 3))]]
        if not section:
            continue
        i = int(rng.integers(0, len(section)))
        if rng.random() < 0.1:
            section[i] = _NON_OBJECTS[int(rng.integers(0, len(_NON_OBJECTS)))]
            continue
        if not isinstance(section[i], dict):
            continue
        key = list(section[i])[int(rng.integers(0, len(section[i])))]
        roll = rng.random()
        if roll < 0.15:
            del section[i][key]
        elif key == "bbox" and roll < 0.6:
            section[i][key] = list(_ODD_BOXES[int(rng.integers(0, len(_ODD_BOXES)))])
        else:
            section[i][key] = _ODD_VALUES[int(rng.integers(0, len(_ODD_VALUES)))]
    return json.dumps(doc), mutations > 0


def _parse_without_the_pull(data: str):
    return _without_the_pull(parse_dataset, data)


def test_whole_documents_parse_alike_with_and_without_the_column_pull(caplog):
    """Seeded documents with several fields mutated at once: the parse with the column
    pull and the record walk alone give the same errors, warnings and accepted bytes."""
    rng = np.random.default_rng(7007)
    accepted = Counter()
    for _ in range(3000):
        data, mutated = _fuzzed_document(rng)
        walk, walk_warnings = _warnings_of(caplog, _parse_without_the_pull, data)
        got, warnings = _warnings_of(caplog, parse_dataset, data)
        assert warnings == walk_warnings, data
        if isinstance(walk, ValidationError):
            assert isinstance(got, ValidationError) and got.errors == walk.errors, data
        else:
            assert isinstance(got, Dataset) and serialize_dataset(got) == serialize_dataset(walk), data
            accepted[mutated] += 1
    assert accepted[True] >= 100 and accepted[False] >= 600


@requires_val2017
def test_val2017_parses_and_reserializes_stably():
    ds = parse_dataset(VAL2017_PATH.read_bytes())
    assert len(ds.categories) == 80
    assert len(ds.images) == 5000
    once = serialize_dataset(ds)
    assert serialize_dataset(parse_dataset(once)) == once


def test_boxes_out_of_float_range_get_one_error_in_box_order():
    """A finite box whose right edge, bottom edge or area is not a positive finite float
    gets one error, after the other box checks, on the column and the record paths."""
    boxes = [[1e308, 1, 1e308, 4], [1, 1e308, 4, 1e308], [1, 1, 1e200, 1e200], [1, 1, 1e-200, 1e-200],
             [1, 1, 1e154, 1e154], [1, 1, 0, 4], [1, 1, 4, 4]]
    anns = [dict(_ANNOTATION, id=i + 1, bbox=box, area=None) for i, box in enumerate(boxes)]
    data = json.dumps(dict(MINIMAL, annotations=anns))
    problem = ("out of float range: its right and bottom edges must be finite and its area positive "
               "and at most half the largest float")
    want = [f"annotations[{i}] (id={i + 1}): bbox {[float(v) for v in box]} {problem}"
            for i, box in enumerate(boxes[:5])]
    want.append("annotations[5] (id=6): non-positive box width/height (w=0.0, h=4.0)")
    for parse in (parse_dataset, _parse_without_the_pull):
        with pytest.raises(ValidationError) as err:
            parse(data)
        assert err.value.errors == want
    ds = parse_dataset(json.dumps(MINIMAL))
    results = json.dumps([dict(_RESULT, bbox=box) for box in boxes])
    for parse in (parse_detections, _detection_table, partial(_without_the_pull, _detection_table)):
        with pytest.raises(ValidationError) as err:
            parse(results, ds)
        assert err.value.errors == [w.replace(f"annotations[{i}] (id={i + 1})", f"results[{i}]")
                                    for i, w in enumerate(want)]



# --- validation golden -----------------------------------------------------------------
#
# data/validation_golden.json, written by data/make_validation_golden.py, holds the outcome
# of every input below: its errors, or the SHA-256 of what was accepted, and the warnings
# logged. It is the oracle for error text and order; rewrite it only for a deliberate change
# of what is accepted or of how a problem is worded.

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "validation_golden.json"


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _outcome(run) -> dict:
    """``run()``'s errors, or the SHA-256 of the bytes it returns, plus the warnings it logs."""
    handler, log = _Warnings(), logging.getLogger("unabench.model")
    log.addHandler(handler)
    try:
        out = {"sha256": hashlib.sha256(run()).hexdigest()}
    except ValidationError as e:
        out = {"errors": e.errors}
    finally:
        log.removeHandler(handler)
    return {**out, "warnings": handler.messages}


def _detections_bytes(dets) -> bytes:
    return json.dumps([[d.image_id, d.category_id, d.bbox.as_list(), d.score] for d in dets]).encode()


def _mutated(base: dict, key, value):
    """``base`` with ``key`` set to ``value`` (removed for ``_ABSENT``), or ``value`` itself for no key."""
    if key is None:
        return value
    record = {k: v for k, v in base.items() if k != key}
    if value is not _ABSENT:
        record[key] = value
    return record


def _results_document(key, value) -> str:
    return json.dumps([_RESULTS[0], _mutated(_RESULTS[1], key, value), _RESULTS[2]])


def _annotations_document(change) -> str:
    record = change
    if isinstance(change, dict):
        record = {k: v for k, v in {**_ANNOTATIONS[1], **change}.items() if v is not _ABSENT}
    return json.dumps(dict(MINIMAL, annotations=[_ANNOTATIONS[0], record, _ANNOTATIONS[2]]))


def _in_code_cases() -> dict[str, Dataset]:
    """The datasets built in code that the tests above validate, by name."""
    good = parse_dataset(json.dumps(dict(MINIMAL, annotations=_ANNOTATIONS)))
    cases = {"walks-good": Dataset(good.images, good.annotations, good.categories)}
    cases.update({f"walks-{name}": Dataset(good.images, (bad,), good.categories) for name, bad, _ in BUILT_IN_CODE})
    cases.update({f"no-table-takes-{name}": Dataset(images, annotations, (_CAT,))
                  for name, (images, annotations, _) in zip(_NO_TABLE_TAKES_IDS, NO_TABLE_TAKES)})
    cases.update({f"table-would-cast-{name}": Dataset(images, annotations, categories)
                  for name, (images, annotations, categories, _) in zip(_A_TABLE_WOULD_CAST_IDS, A_TABLE_WOULD_CAST)})
    cases["numpy-numbers"] = _numpy_numbers_dataset()
    cases["numpy-ids"] = _numpy_ids_dataset()
    cases["non-positive-image-size"] = Dataset((ImageRecord(1, 0, 10, "x.jpg"),), (), (Category(1, "c"),))
    return cases


def _fuzzed_documents() -> list[str]:
    rng = np.random.default_rng(7007)
    return [_fuzzed_document(rng)[0] for _ in range(3000)]


def validation_outcomes() -> dict:
    """The outcome of every input the golden pins, as the golden holds it."""
    minimal = parse_dataset(json.dumps(MINIMAL))
    documents = _fuzzed_documents()
    return {
        "results": [{"case": name, **_outcome(
            lambda: _detections_bytes(parse_detections(_results_document(key, value), minimal)))}
            for name, key, value in MUTATIONS],
        "annotations": [{"case": name, **_outcome(lambda: serialize_dataset(parse_dataset(_annotations_document(change))))}
                        for name, change in ANNOTATION_MUTATIONS],
        "in_code": {name: _outcome(lambda: (validate_dataset(ds), serialize_dataset(ds))[1])
                    for name, ds in _in_code_cases().items()},
        "documents": {
            "inputs_sha256": hashlib.sha256("\n".join(documents).encode()).hexdigest(),
            "outcomes": [_outcome(lambda: serialize_dataset(parse_dataset(data))) for data in documents],
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("i", range(len(MUTATIONS)), ids=[m[0] for m in MUTATIONS])
def test_results_match_the_validation_golden(golden, i):
    name, key, value = MUTATIONS[i]
    minimal = parse_dataset(json.dumps(MINIMAL))
    run = lambda: _detections_bytes(parse_detections(_results_document(key, value), minimal))  # noqa: E731
    assert {"case": name, **_outcome(run)} == golden["results"][i]


@pytest.mark.parametrize("i", range(len(ANNOTATION_MUTATIONS)), ids=[m[0] for m in ANNOTATION_MUTATIONS])
def test_annotations_match_the_validation_golden(golden, i):
    name, change = ANNOTATION_MUTATIONS[i]
    run = lambda: serialize_dataset(parse_dataset(_annotations_document(change)))  # noqa: E731
    assert {"case": name, **_outcome(run)} == golden["annotations"][i]


def test_datasets_built_in_code_match_the_validation_golden(golden):
    cases = _in_code_cases()
    assert list(cases) == list(golden["in_code"])
    for name, ds in cases.items():
        assert _outcome(lambda: (validate_dataset(ds), serialize_dataset(ds))[1]) == golden["in_code"][name], name


def test_whole_documents_match_the_validation_golden(golden):
    documents = _fuzzed_documents()
    want = golden["documents"]
    assert hashlib.sha256("\n".join(documents).encode()).hexdigest() == want["inputs_sha256"]
    for data, outcome in zip(documents, want["outcomes"], strict=True):
        assert _outcome(lambda: serialize_dataset(parse_dataset(data))) == outcome, data
