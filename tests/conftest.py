"""Shared builders for synthetic datasets, detections, and micro-instances."""

from __future__ import annotations

import json
import os
from dataclasses import replace
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
    classify_errors,
    evaluate,
    tide_report,
)

VAL2017_PATH = Path(
    os.environ.get("UNABENCH_COCO_VAL2017", "/data/coco/annotations/instances_val2017.json")
)

requires_val2017 = pytest.mark.skipif(
    not VAL2017_PATH.exists(),
    reason="set UNABENCH_COCO_VAL2017 to the instances_val2017.json path to run",
)


def build_dataset(
    n_images: int = 5,
    n_categories: int = 3,
    n_annotations: int = 20,
    seed: int = 0,
    img_w: int = 640,
    img_h: int = 480,
    crowd_every: int = 0,
) -> Dataset:
    """Random but well-formed dataset: boxes inside bounds, ids 1-based.

    ``crowd_every`` marks every k-th annotation as crowd (0 disables).
    """
    rng = np.random.default_rng(seed)
    images = tuple(
        ImageRecord(i + 1, img_w, img_h, f"img_{i + 1:06d}.jpg") for i in range(n_images)
    )
    categories = tuple(Category(c + 1, f"class{c + 1}") for c in range(n_categories))
    annotations = []
    for k in range(n_annotations):
        w = float(rng.uniform(8, img_w / 3))
        h = float(rng.uniform(8, img_h / 3))
        x = float(rng.uniform(0, img_w - w))
        y = float(rng.uniform(0, img_h - h))
        annotations.append(Annotation(
            id=k + 1,
            image_id=int(rng.integers(1, n_images + 1)),
            category_id=int(rng.integers(1, n_categories + 1)),
            bbox=BoundingBox(x, y, w, h),
            crowd_flag=bool(crowd_every and (k + 1) % crowd_every == 0),
        ))
    return Dataset(images, tuple(annotations), categories)


def dets_from_gt(ds: Dataset, score: float = 0.9) -> list[Detection]:
    """A perfect detector: one detection per non-crowd annotation."""
    return [Detection(a.image_id, a.category_id, a.bbox, score) for a in ds.non_crowd]


def micro_instance(rng: np.random.Generator) -> tuple[Dataset, list[Detection]]:
    """Random tiny evaluation problem: <=5 images, <=6 gts, <=8 dets, <=3 cats.

    Detections are a mix of jittered ground-truth boxes (sometimes with the
    wrong class) and unrelated boxes, so instances exercise TPs and all six
    error components. Scores are continuous, so ties have probability zero.
    """
    n_img = int(rng.integers(1, 6))
    n_cat = int(rng.integers(1, 4))
    n_gt = int(rng.integers(0, 7))
    n_det = int(rng.integers(0, 9))
    images = tuple(ImageRecord(i + 1, 100, 100, f"im{i + 1}.jpg") for i in range(n_img))
    categories = tuple(Category(c + 1, f"c{c + 1}") for c in range(n_cat))
    annotations = []
    for i in range(n_gt):
        x, y = rng.uniform(0, 60, 2)
        w, h = rng.uniform(10, 40, 2)
        annotations.append(Annotation(
            id=i + 1,
            image_id=int(rng.integers(1, n_img + 1)),
            category_id=int(rng.integers(1, n_cat + 1)),
            bbox=BoundingBox(float(x), float(y), float(w), float(h)),
        ))
    ds = Dataset(images, tuple(annotations), categories)
    dets = []
    for _ in range(n_det):
        if annotations and rng.random() < 0.7:
            a = annotations[int(rng.integers(0, len(annotations)))]
            jit = rng.uniform(-12, 12, 4)
            bbox = BoundingBox(
                max(0.0, a.bbox.x + float(jit[0])),
                max(0.0, a.bbox.y + float(jit[1])),
                max(2.0, a.bbox.w + float(jit[2])),
                max(2.0, a.bbox.h + float(jit[3])),
            )
            image_id = a.image_id
            cat = a.category_id if rng.random() < 0.7 else int(rng.integers(1, n_cat + 1))
        else:
            x, y = rng.uniform(0, 60, 2)
            w, h = rng.uniform(5, 40, 2)
            bbox = BoundingBox(float(x), float(y), float(w), float(h))
            image_id = int(rng.integers(1, n_img + 1))
            cat = int(rng.integers(1, n_cat + 1))
        dets.append(Detection(image_id, cat, bbox, float(rng.random())))
    return ds, dets


def tied_crowd_instance(rng: np.random.Generator) -> tuple[Dataset, list[Detection]]:
    """A :func:`micro_instance` with scores rounded to thirds and ~20% crowd gts.

    Rounded scores make equal-score ties common, so tie order is compared
    against the reference; crowd ground truths must be invisible to matching.
    """
    ds, dets = micro_instance(rng)
    anns = tuple(replace(a, crowd_flag=bool(rng.random() < 0.2)) for a in ds.annotations)
    dets = [replace(d, score=round(d.score * 3) / 3) for d in dets]
    return replace(ds, annotations=anns), dets


def capped_tie_instance() -> tuple[Dataset, list[Detection]]:
    """Fixed problem with tied scores, crowd gts and one image over the cap.

    Every score is a multiple of 1/3. Image 1 carries more than 100
    detections, among them wrong-class and loose copies of its ground truth
    at the lowest score, so the per-image cap cuts through a tie group.
    """
    ds = build_dataset(n_images=4, n_categories=3, n_annotations=30, seed=13, crowd_every=5)
    rng = np.random.default_rng(2024)
    n_cat = len(ds.categories)

    def near(a: Annotation, spread: float) -> BoundingBox:
        b = a.bbox
        dx, dy, dw, dh = rng.uniform(-spread, spread, 4)
        return BoundingBox(max(0.0, b.x + dx * b.w), max(0.0, b.y + dy * b.h),
                           b.w * (1.0 + dw), b.h * (1.0 + dh))

    def background(image_id: int) -> Detection:
        box = BoundingBox(float(rng.uniform(0, 560)), float(rng.uniform(0, 400)),
                          float(rng.uniform(8, 80)), float(rng.uniform(8, 80)))
        return Detection(image_id, int(rng.integers(1, n_cat + 1)), box,
                         int(rng.integers(1, 4)) / 3)

    dets = []
    for a in ds.annotations:
        for _ in range(2):
            cat = a.category_id if rng.random() < 0.7 else 1 + a.category_id % n_cat
            dets.append(Detection(a.image_id, cat, near(a, 0.15), int(rng.integers(1, 4)) / 3))
    dets += [background(int(rng.integers(1, 5))) for _ in range(12)]
    dets += [background(1) for _ in range(100)]
    for a in ds.annotations_by_image.get(1, ()):
        dets.append(Detection(1, 1 + a.category_id % n_cat, a.bbox, 1 / 3))
        dets.append(Detection(1, a.category_id, near(a, 0.4), 1 / 3))
    return ds, dets


def match_summary(ds: Dataset, dets: list[Detection]) -> dict:
    """Full-precision outputs of ``evaluate``, ``classify_errors`` and
    ``tide_report`` as plain JSON values (floats round-trip exactly)."""
    s = evaluate(ds, dets)
    out: dict = {"evaluate": {
        "ap": s.ap, "ap50": s.ap50, "ap75": s.ap75,
        "per_category": {str(c): [t.ap, t.ap50, t.ap75] for c, t in sorted(s.per_category.items())},
    }}
    for tf, tb in ((0.5, 0.1), (0.6, 0.2)):
        e = classify_errors(ds, dets, tf, tb)
        r = tide_report(ds, dets, tf, tb)
        out[f"tf={tf} tb={tb}"] = {
            "labels": [None if lab is None else lab.value for lab in e.labels],
            "matched_gt": list(e.matched_gt),
            "miss_ids": sorted(e.miss_ids),
            "cls_targets": sorted(e.cls_targets.items()),
            "loc_targets": sorted(e.loc_targets.items()),
            "baseline_ap50": r.baseline_ap50,
            "oracle_ap": {k.value: v for k, v in r.oracle_ap.items()},
            "counts": {k.value: n for k, n in r.counts.items()},
        }
    return json.loads(json.dumps(out))
