"""Error classification against the scalar reference, and unchanged by how the
(detection, ground truth) pairs are cut into chunks."""

import numpy as np
import pytest

from unabench import Annotation, BoundingBox, Category, Dataset, Detection, ImageRecord, tide
from unabench.tide import ErrorKind, classify_errors

from conftest import capped_tie_instance, micro_instance, tied_crowd_instance
from reference import classify_ref


def _instances(seed: int, n: int):
    rng = np.random.default_rng(seed)
    return [(micro_instance if i % 2 else tied_crowd_instance)(rng) for i in range(n)] + [capped_tie_instance()]


@pytest.mark.parametrize("tf, tb", [(0.5, 0.1), (0.7, 0.3)])
def test_classification_matches_the_scalar_reference(tf, tb):
    seen = set()
    for ds, dets in _instances(23, 400):
        got = classify_errors(ds, dets, tf, tb)
        labels, targets, miss = classify_ref(ds, dets, got.matched_gt, tf, tb)
        assert [kind and kind.value for kind in got.labels] == labels
        assert {**got.cls_targets, **got.loc_targets} == targets
        assert got.miss_ids == miss
        seen.update(labels)
    assert seen == {None, *(kind.value for kind in ErrorKind if kind is not ErrorKind.MISS)}


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_classification_is_the_same_in_any_pair_chunking(monkeypatch, chunk):
    instances = _instances(17, 60)
    want = [classify_errors(ds, dets, tf, 0.1) for ds, dets in instances for tf in (0.5, 0.7)]
    monkeypatch.setattr(tide, "_PAIR_CHUNK", chunk)
    assert [classify_errors(ds, dets, tf, 0.1) for ds, dets in instances for tf in (0.5, 0.7)] == want


def test_targets_are_the_first_best_ground_truth_on_ties():
    """A Cls or Loc detection overlapping two ground truths equally targets the first in record order."""
    images = (ImageRecord(1, 100, 100, "a.jpg"),)
    anns = tuple(Annotation(i, 1, c, BoundingBox(*box)) for i, c, box in [
        (7, 2, (0, 0, 10, 10)), (3, 3, (0, 0, 10, 10)), (9, 1, (40, 45, 10, 10)), (4, 1, (45, 40, 10, 10))])
    ds = Dataset(images, anns, tuple(Category(c, f"c{c}") for c in (1, 2, 3)))
    dets = [Detection(1, 1, BoundingBox(0, 0, 10, 10), 0.9), Detection(1, 1, BoundingBox(40, 40, 10, 10), 0.8)]
    labels = classify_errors(ds, dets)
    assert labels.labels == (ErrorKind.CLS, ErrorKind.LOC)
    assert labels.cls_targets == {0: 7} and labels.loc_targets == {1: 9}
