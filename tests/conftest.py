"""Shared builders for synthetic datasets, detections, and micro-instances."""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
from contextlib import redirect_stderr, redirect_stdout
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
    NoiseConfig,
    classify_errors,
    evaluate,
    inject,
    serialize_dataset,
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


def disjoint_instance(rng: np.random.Generator, n_images: int = 50, rows: int = 3, cols: int = 4,
                      n_categories: int = 4) -> Dataset:
    """Images of ``rows`` x ``cols`` disjoint 100 px cells, one box per cell, no crowd.

    A box's sides are 8-30 px and its center lies at least 1.6 times its
    larger side inside its cell, so a jitter at ``loc_delta`` up to 0.7
    (which reaches at most ``(1.5 * delta + 0.5)`` times a side from the
    center) keeps the box inside its cell: no two boxes of an image ever
    overlap, before or after localization noise.
    """
    images = tuple(ImageRecord(i + 1, 100 * cols, 100 * rows, f"grid_{i + 1}.jpg") for i in range(n_images))
    categories = tuple(Category(c + 1, f"class{c + 1}") for c in range(n_categories))
    annotations = []
    for im in images:
        for r in range(rows):
            for c in range(cols):
                w, h = rng.uniform(8, 30, 2)
                reach = 1.6 * max(w, h)
                cx, cy = 100 * c + rng.uniform(reach, 100 - reach), 100 * r + rng.uniform(reach, 100 - reach)
                annotations.append(Annotation(len(annotations) + 1, im.id, int(rng.integers(1, n_categories + 1)),
                                              BoundingBox(float(cx - w / 2), float(cy - h / 2), float(w), float(h))))
    return Dataset(images, tuple(annotations), categories)


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
    for a in [a for a in ds.annotations if a.image_id == 1]:
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


def match_fuzz_digest(n: int = 300, seed: int = 4242) -> str:
    """SHA-256 of :func:`match_summary` over ``n`` :func:`tied_crowd_instance`
    draws from one seeded rng: tied scores, crowd gts, every error kind."""
    rng = np.random.default_rng(seed)
    blob = json.dumps([match_summary(*tied_crowd_instance(rng)) for _ in range(n)])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def coco_shaped_instance(n_images: int = 500, n_annotations: int = 3_600, seed: int = 0,
                         per_image: int = 100) -> tuple[Dataset, list[Detection]]:
    """A scoring problem shaped like COCO val: 80 categories, ~7 ground truths and
    ``per_image`` detections per image.

    Half of each image's detections are jittered copies of one of its ground
    truths, 20% of them with another class; the other half are random boxes
    (all of them on an image without ground truth). Scores are rounded to
    thousandths, so equal-score ties are common.
    """
    ds = build_dataset(n_images=n_images, n_categories=80, n_annotations=n_annotations, seed=seed)
    rng = np.random.default_rng([seed, 80])
    by_image: dict[int, list[Annotation]] = {}
    for a in ds.annotations:
        by_image.setdefault(a.image_id, []).append(a)
    rows = []
    for image in ds.images:
        anns = by_image.get(image.id, [])
        n_copies = per_image // 2 if anns else 0
        picks = [anns[k] for k in rng.integers(0, max(len(anns), 1), n_copies).tolist()]
        shift, scale = rng.uniform(-0.15, 0.15, (n_copies, 2)), rng.uniform(0.7, 1.3, (n_copies, 2))
        relabel = (rng.random(n_copies) < 0.2).tolist()
        other = rng.integers(1, 80, n_copies).tolist()
        for a, (dx, dy), (sw, sh), new, step in zip(picks, shift.tolist(), scale.tolist(), relabel, other):
            b = a.bbox
            box = BoundingBox(b.x + dx * b.w, b.y + dy * b.h, b.w * sw, b.h * sh)
            cat = 1 + (a.category_id - 1 + step) % 80 if new else a.category_id
            rows.append((image.id, cat, box))
        n_random = per_image - n_copies
        boxes = rng.uniform((0.0, 0.0, 8.0, 8.0), (600.0, 440.0, 200.0, 200.0), (n_random, 4))
        cats = rng.integers(1, 81, n_random).tolist()
        rows += [(image.id, c, BoundingBox(*b)) for c, b in zip(cats, boxes.tolist())]
    scores = np.round(rng.random(len(rows)), 3).tolist()
    return ds, [Detection(i, c, b, s) for (i, c, b), s in zip(rows, scores)]


def coco_match_digest() -> str:
    """SHA-256 of :func:`match_summary` on :func:`coco_shaped_instance`."""
    blob = json.dumps(match_summary(*coco_shaped_instance()))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def edge_noise_dataset() -> Dataset:
    """Fixed dataset of one- and two-pixel boxes against image edges.

    Jitter of these boxes is often rejected (a clipped side under one
    pixel), so injection takes the retry branch; the sub-pixel box is
    rejected on every attempt and ends in the last-resort box. Image 3
    holds only a crowd region and image 4 nothing, so fabricated boxes there
    take their size from the whole dataset. Ids are sparse, one of them just
    under the 2**58 stream-item limit.
    """
    images = (ImageRecord(1, 40, 30, "e1.jpg"), ImageRecord(2, 64, 48, "e2.jpg"),
              ImageRecord(3, 20, 20, "e3.jpg"), ImageRecord(4, 50, 50, "e4.jpg"))
    categories = (Category(1, "a"), Category(2, "b"), Category(3, "c"))
    rows = (
        (2, 1, 1, (0.0, 0.0, 1.2, 1.5)),
        (3, 1, 2, (38.8, 28.5, 1.2, 1.5)),
        (5, 1, 3, (0.0, 12.0, 1.0, 1.0)),
        (8, 1, 1, (10.0, 5.0, 20.0, 18.0)),
        (13, 2, 2, (62.5, 0.0, 1.5, 1.1)),
        (21, 2, 3, (0.0, 46.9, 1.05, 1.1)),
        (34, 2, 1, (20.0, 20.0, 1.0, 1.0)),
        (55, 2, 2, (5.0, 5.0, 50.0, 40.0)),
        (89, 3, 1, (0.0, 0.0, 20.0, 20.0)),
        (144, 1, 3, (20.0, 20.0, 0.6, 0.8)),
        ((1 << 58) - 7, 2, 3, (63.0, 47.0, 1.0, 1.0)),
    )
    annotations = tuple(
        Annotation(i, img, cat, BoundingBox(*box), crowd_flag=(i == 89))
        for i, img, cat, box in rows
    )
    return Dataset(images, annotations, categories)


def noise_golden_cases() -> list[tuple[str, Dataset, NoiseConfig]]:
    """Named (dataset, config) cases whose output digests are pinned.

    Every noise type, both bogus size policies and two seeds (one with the
    top key bit set) on three inputs with crowd annotations: a mixed
    dataset, a one-image dataset and :func:`edge_noise_dataset`.
    """
    inputs = (
        ("mixed", build_dataset(n_images=9, n_categories=6, n_annotations=150, seed=41,
                                crowd_every=8), 0.3),
        ("one_image", build_dataset(n_images=1, n_categories=3, n_annotations=12, seed=42,
                                    crowd_every=5), 0.5),
        ("edge", edge_noise_dataset(), 1.0),
    )
    kinds = (("categorization", None), ("localization", None), ("missing", None),
             ("bogus", "sample_existing"), ("bogus", "uniform_fraction"),
             ("una", "sample_existing"), ("una", "uniform_fraction"))
    cases = []
    for name, ds, ratio in inputs:
        for seed in (5, (1 << 64) - 3):
            for kind, policy in kinds:
                config = NoiseConfig(kind, ratio, seed, bogus_size_policy=policy or "sample_existing")
                cases.append((f"{name} seed={seed} {kind} {policy or ''}".rstrip(), ds, config))
    return cases


def noise_digests(ds: Dataset, config: NoiseConfig) -> dict[str, str]:
    """SHA-256 of the injected dataset and of its sidecar log, as the CLI
    ``inject`` command writes them."""
    noisy, log = inject(ds, config)
    sidecar = json.dumps(log.to_dict(), indent=2, allow_nan=False).encode("utf-8")
    return {"dataset": hashlib.sha256(serialize_dataset(noisy)).hexdigest(),
            "sidecar": hashlib.sha256(sidecar).hexdigest()}


# --- the CLI golden --------------------------------------------------------------------

_DATA = Path(__file__).resolve().parent / "data"


def _results_json(rows) -> str:
    return json.dumps([{"image_id": i, "category_id": c, "bbox": list(b), "score": s} for i, c, b, s in rows])


def write_cli_inputs(directory: Path) -> None:
    """Write the input files of :func:`cli_golden_cases` into ``directory``.

    They are the micro files; a seeded dataset (``gt.json``), its ``una`` output
    (``una.json``) and detections of its boxes (``dt.json``); a ground truth whose
    category names hold a comma and a quote and whose box 2 sticks out of its image
    (``quoted_gt.json``, ``quoted_dt.json``); and second files that fail: not JSON, a
    missing section, an unknown id, and results records the column pull refuses (a null
    score; a null id, a null score and an unknown id in one file). ``missing.json`` is not
    written.
    """
    for name in ("micro_gt.json", "micro_dt.json"):
        (directory / name).write_bytes((_DATA / name).read_bytes())
    ds = build_dataset(n_images=6, n_categories=4, n_annotations=60, seed=21, crowd_every=10)
    (directory / "gt.json").write_bytes(serialize_dataset(ds))
    noisy, _ = inject(ds, NoiseConfig("una", 0.3, 8))
    (directory / "una.json").write_bytes(serialize_dataset(noisy))
    rng = np.random.default_rng(17)
    (directory / "dt.json").write_text(_results_json(
        (a.image_id, a.category_id, a.bbox.as_list(), float(rng.uniform(0.05, 0.99))) for a in ds.non_crowd))
    quoted = Dataset(
        (ImageRecord(1, 100, 80, "q1.jpg"), ImageRecord(2, 100, 80, "q2.jpg")),
        (Annotation(1, 1, 1, BoundingBox(10.0, 10.0, 30.0, 20.0)), Annotation(2, 1, 2, BoundingBox(85.0, 70.0, 20.0, 20.0)),
         Annotation(3, 2, 1, BoundingBox(5.0, 5.0, 40.0, 40.0))),
        (Category(1, 'person, "tall"'), Category(2, "traffic light")),
    )
    (directory / "quoted_gt.json").write_bytes(serialize_dataset(quoted))
    (directory / "quoted_dt.json").write_text(_results_json([
        (1, 1, (11.0, 10.0, 30.0, 21.0), 0.9), (1, 2, (10.0, 10.0, 30.0, 20.0), 0.6),
        (2, 1, (60.0, 40.0, 20.0, 20.0), 0.7), (2, 2, (5.0, 5.0, 40.0, 38.0), 0.8)]))
    (directory / "not_json.json").write_text('{"images": [')
    (directory / "no_section.json").write_text('{"images": [], "categories": []}')
    (directory / "not_array.json").write_text("{}")
    bad = json.loads(serialize_dataset(build_dataset(n_images=2, n_categories=2, n_annotations=3, seed=5)))
    bad["annotations"][1]["category_id"] = 9
    (directory / "unknown_category.json").write_text(json.dumps(bad))
    good = (1, 1, (10.0, 10.0, 20.0, 20.0), 0.9)
    (directory / "null_score.json").write_text(_results_json([good, (1, 2, (12.0, 10.0, 20.0, 20.0), None)]))
    (directory / "unknown_image.json").write_text(_results_json([good, (99, 2, (12.0, 10.0, 20.0, 20.0), 0.8)]))
    (directory / "refused.json").write_text(_results_json([
        good, (None, 2, (12.0, 10.0, 20.0, 20.0), 0.8), (1, 9, (1.0, 1.0, 0.0, 4.0), None), (2, 1, good[2], 0.5)]))


def cli_golden_cases() -> list[list[str]]:
    """The CLI commands whose exit code, stdout and stderr ``data/cli_golden.json`` pins,
    run in the directory :func:`write_cli_inputs` fills: ``stats``, ``diff``, ``eval`` and
    ``tide`` in every format on the micro, seeded and quoted inputs, then the second-file
    failures in text, after a first file that warns."""
    inputs = {
        "stats": (["--ann", "micro_gt.json"], ["--ann", "gt.json"], ["--ann", "una.json"], ["--ann", "quoted_gt.json"]),
        "diff": (["micro_gt.json", "micro_gt.json"], ["gt.json", "una.json"], ["una.json", "gt.json"],
                 ["quoted_gt.json", "micro_gt.json"]),
        "eval": (["--gt", "micro_gt.json", "--dt", "micro_dt.json"], ["--gt", "una.json", "--dt", "dt.json"],
                 ["--gt", "gt.json", "--dt", "dt.json"], ["--gt", "quoted_gt.json", "--dt", "quoted_dt.json"]),
    }
    inputs["tide"] = inputs["eval"]
    cases = [[command, "--format", fmt, *args] for command, runs in inputs.items()
             for args in runs for fmt in ("text", "csv", "json")]
    cases += [["diff", "quoted_gt.json", b] for b in ("missing.json", "not_json.json", "no_section.json",
                                                     "unknown_category.json")]
    cases += [[command, "--gt", "quoted_gt.json", "--dt", dt] for command in ("eval", "tide")
              for dt in ("missing.json", "not_json.json", "not_array.json", "null_score.json", "unknown_image.json",
                         "refused.json")]
    return cases


def cli_outcome(args: list[str]) -> dict:
    """``unabench args`` run by ``cli.main`` in process: its exit code and what it prints,
    the warnings written to stderr as the console script writes them."""
    from unabench.cli import main  # here, not above: the benchmark harness imports this module

    out, err = io.StringIO(), io.StringIO()
    logger, handler = logging.getLogger("unabench.model"), logging.StreamHandler(err)
    logger.addHandler(handler)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(args)
    finally:
        logger.removeHandler(handler)
    return {"args": args, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
