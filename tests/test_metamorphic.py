"""Metamorphic pins: the output depends on what the input holds, not on how it is written.

Injection: shuffling a dataset's annotations, images or categories, or passing it through
a parse and serialize round trip, leaves the injected dataset and its sidecar log byte for
byte as they were, for every noise kind and both bogus size policies.

Scoring: ``evaluate`` and ``tide_report`` see detections only through their rank, their
boxes' overlaps and their ids. So a permutation that keeps tied detections in their
relative order, a strictly increasing score map that creates no ties, scaling every
coordinate and image size by a power of two, and renumbering the image and category ids
(mapping ``per_category`` with them) each leave both results exactly equal. Two hold only
in part:

- renumbering the category ids out of their order leaves every per-category number equal,
  but a mean over categories adds its terms in id order and may move in its last bits;
- a detection ranked below its image's 100th leaves ``evaluate`` equal, and the TIDE
  baseline and oracles but Miss's: the error classes cover every detection, the capped
  ones included.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from unabench import (
    BoundingBox,
    Dataset,
    Detection,
    ErrorKind,
    NoiseConfig,
    evaluate,
    parse_dataset,
    serialize_dataset,
    tide_report,
)

from conftest import build_dataset, capped_tie_instance, coco_shaped_instance, noise_digests, tied_crowd_instance

# --- injection --------------------------------------------------------------------------

_NOISE_INPUTS = {
    "mixed": build_dataset(n_images=40, n_categories=5, n_annotations=400, seed=3, crowd_every=17),
    "few images": build_dataset(n_images=3, n_categories=4, n_annotations=60, seed=8, crowd_every=6),
}
_CONFIGS = [NoiseConfig(kind, 0.3, 2, bogus_size_policy=policy)
            for kind in ("categorization", "localization", "missing", "bogus", "una")
            for policy in ("sample_existing", "uniform_fraction")]


def _shuffled(records: tuple, seed: int) -> tuple:
    order = np.random.default_rng(seed).permutation(len(records))
    return tuple(records[i] for i in order.tolist())


_REWRITES = {
    "annotations shuffled": lambda ds: replace(ds, annotations=_shuffled(ds.annotations, 1)),
    "images shuffled": lambda ds: replace(ds, images=_shuffled(ds.images, 2)),
    "categories shuffled": lambda ds: replace(ds, categories=_shuffled(ds.categories, 3)),
    "round trip": lambda ds: parse_dataset(serialize_dataset(ds)),
    "shuffled, then round trip": lambda ds: parse_dataset(serialize_dataset(
        Dataset(_shuffled(ds.images, 4), _shuffled(ds.annotations, 5), _shuffled(ds.categories, 6)))),
}


@pytest.mark.parametrize("config", _CONFIGS, ids=[f"{c.noise_type.value}-{c.bogus_size_policy.value}"
                                                    for c in _CONFIGS])
@pytest.mark.parametrize("rewrite", list(_REWRITES))
@pytest.mark.parametrize("name", list(_NOISE_INPUTS))
def test_injection_depends_only_on_the_dataset_value(name, rewrite, config):
    ds = _NOISE_INPUTS[name]
    assert noise_digests(_REWRITES[rewrite](ds), config) == noise_digests(ds, config)


# --- scoring ----------------------------------------------------------------------------

def _instances() -> list[tuple[Dataset, list[Detection]]]:
    rng = np.random.default_rng(1717)
    return [*(tied_crowd_instance(rng) for _ in range(60)), capped_tie_instance(),
            coco_shaped_instance(n_images=40, n_annotations=300, seed=5)]


_INSTANCES = _instances()


def _results(ds: Dataset, dets: list[Detection]) -> tuple:
    return evaluate(ds, dets), tide_report(ds, dets)


def _tie_keeping_permutation(dets: list[Detection], rng: np.random.Generator) -> list[Detection]:
    """The detections permuted, those of one score kept in their relative order: each slot of
    a random permutation takes the next detection of its score."""
    groups: dict[float, list[Detection]] = {}
    for d in dets:
        groups.setdefault(d.score, []).append(d)
    queues = {score: iter(group) for score, group in groups.items()}
    return [next(queues[dets[i].score]) for i in rng.permutation(len(dets)).tolist()]


def _rescored(dets: list[Detection], rng: np.random.Generator) -> list[Detection]:
    """Each distinct score mapped to a random value, strictly increasing in the score."""
    scores = sorted({d.score for d in dets})
    values = np.sort(rng.uniform(-5.0, 5.0, len(scores)))
    assert (np.diff(values) > 0).all()
    new = dict(zip(scores, values.tolist()))
    return [replace(d, score=new[d.score]) for d in dets]


def _scaled(ds: Dataset, dets: list[Detection], k: float) -> tuple[Dataset, list[Detection]]:
    def box(b: BoundingBox) -> BoundingBox:
        return BoundingBox(b.x * k, b.y * k, b.w * k, b.h * k)
    images = tuple(replace(im, width=int(im.width * k), height=int(im.height * k)) for im in ds.images)
    annotations = tuple(replace(a, bbox=box(a.bbox), area=None) for a in ds.annotations)
    return Dataset(images, annotations, ds.categories), [replace(d, bbox=box(d.bbox)) for d in dets]


def _renumbered(ds: Dataset, dets: list[Detection], rng: np.random.Generator, categories_in_order: bool):
    """The instance with its image and category ids mapped one to one onto random ids, the
    category ids kept in their order or not, and the category map."""
    def mapping(ids, in_order):
        ids, new = sorted(set(ids)), rng.choice(10 ** 6, len(set(ids)), replace=False) + 1
        return dict(zip(ids, (np.sort(new) if in_order else new).tolist()))
    im = mapping([i.id for i in ds.images] + [d.image_id for d in dets], False)
    cat = mapping([c.id for c in ds.categories] + [d.category_id for d in dets], categories_in_order)
    renumbered = Dataset(tuple(replace(i, id=im[i.id]) for i in ds.images),
                         tuple(replace(a, image_id=im[a.image_id], category_id=cat[a.category_id])
                               for a in ds.annotations),
                         tuple(replace(c, id=cat[c.id]) for c in ds.categories))
    return renumbered, [replace(d, image_id=im[d.image_id], category_id=cat[d.category_id]) for d in dets], cat


def test_a_tie_keeping_permutation_changes_no_score():
    for i, (ds, dets) in enumerate(_INSTANCES):
        assert _results(ds, _tie_keeping_permutation(dets, np.random.default_rng(i))) == _results(ds, dets), i


def test_a_strictly_increasing_score_map_changes_no_score():
    for i, (ds, dets) in enumerate(_INSTANCES):
        assert _results(ds, _rescored(dets, np.random.default_rng(i))) == _results(ds, dets), i


def test_power_of_two_scaling_changes_no_score():
    """Up by 4, and down by 2 from twice the size, so that image sizes stay integers."""
    for i, (ds, dets) in enumerate(_INSTANCES):
        want = _results(ds, dets)
        assert _results(*_scaled(ds, dets, 4.0)) == want, i
        assert _results(*_scaled(*_scaled(ds, dets, 2.0), 0.5)) == want, i


def test_renumbering_image_and_category_ids_changes_no_score():
    """Image ids in any order, category ids in their order: the means over categories add
    the same terms in the same order."""
    for i, (ds, dets) in enumerate(_INSTANCES):
        summary, report = _results(ds, dets)
        renumbered, moved, cat = _renumbered(ds, dets, np.random.default_rng(i), categories_in_order=True)
        got_summary, got_report = _results(renumbered, moved)
        assert got_report == report, i
        assert got_summary == replace(summary, per_category={cat[c]: t for c, t in summary.per_category.items()}), i


def test_reordering_category_ids_changes_each_categorys_score():
    """Category ids in another order: every per-category number and error count is equal;
    a mean over categories adds its terms in id order, so it may move in its last bits."""
    for i, (ds, dets) in enumerate(_INSTANCES):
        summary, report = _results(ds, dets)
        renumbered, moved, cat = _renumbered(ds, dets, np.random.default_rng(i), categories_in_order=False)
        got_summary, got_report = _results(renumbered, moved)
        assert got_summary.per_category == {cat[c]: t for c, t in summary.per_category.items()}, i
        assert got_report.counts == report.counts, i
        means = [(got_summary.ap, summary.ap), (got_summary.ap50, summary.ap50), (got_summary.ap75, summary.ap75),
                 (got_report.baseline_ap50, report.baseline_ap50),
                 *zip(got_report.oracle_ap.values(), report.oracle_ap.values())]
        assert all(math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15) for got, want in means), i


def test_a_detection_below_its_images_100th_changes_no_ap():
    """An image filled to 100 detections, then one more ranked last on it: ``evaluate`` and
    the TIDE baseline are equal, and every oracle AP but Miss's. A ground truth that only the
    capped detection finds is no Miss, so the Miss oracle may change."""
    for i, (ds, dets) in enumerate(_INSTANCES):
        image, rng = ds.images[0], np.random.default_rng(i)
        filled = [*dets, *(Detection(image.id, ds.categories[0].id, BoundingBox(*rng.uniform(1, 40, 4).tolist()), 1.0)
                           for _ in range(100))]
        lowest = min(d.score for d in filled if d.image_id == image.id)
        on_image = [a for a in ds.annotations if a.image_id == image.id and not a.crowd_flag]
        box = on_image[0].bbox if on_image else BoundingBox(1.0, 1.0, 10.0, 10.0)
        cat = on_image[0].category_id if on_image else ds.categories[0].id
        summary, report = _results(ds, filled)
        got_summary, got_report = _results(ds, [*filled, Detection(image.id, cat, box, lowest)])
        assert got_summary == summary, i
        assert got_report.baseline_ap50 == report.baseline_ap50, i
        assert {k: v for k, v in got_report.oracle_ap.items() if k is not ErrorKind.MISS} == {
            k: v for k, v in report.oracle_ap.items() if k is not ErrorKind.MISS}, i
