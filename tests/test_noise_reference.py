"""Differential fuzz: ``inject`` against the plain reference in ``reference_noise``.

Seeded numpy generators draw small datasets with crowd regions, 1-2 px
boxes against image edges, sub-pixel boxes, one image or one category, ids
just under the 2**58 stream-item limit and records in shuffled order, then
a noise type, ratio, seed, jitter strength and bogus size policy. Each
instance compares the injected records (order and field types included:
serialization sorts by id, so no byte digest can see record order), the
dataset bytes and the sidecar bytes, the latter written by the CLI's own
writer, and the log's value, hash and repr, also after a pickle round trip
made before its records were read. A third of the instances are also run on the dataset parsed back from
a document written in the same record order.
"""

import json
import pickle

import numpy as np
import pytest

from unabench import (
    Annotation,
    BogusSizePolicy,
    BoundingBox,
    Category,
    Dataset,
    ImageRecord,
    NoiseConfig,
    NoiseType,
    inject,
    parse_dataset,
    serialize_dataset,
)
from unabench.cli import sidecar_json

from reference_noise import outputs_ref

N_INSTANCES = 1200
ID_LIMIT = 1 << 58


def _box(rng, width: int, height: int) -> BoundingBox:
    kind = int(rng.integers(0, 4))
    if kind == 0:  # 1-2 px against an edge
        w, h = float(rng.uniform(1.0, 2.0)), float(rng.uniform(1.0, 2.0))
        x = 0.0 if rng.random() < 0.5 else max(0.0, width - w)
        y = 0.0 if rng.random() < 0.5 else max(0.0, height - h)
    elif kind == 1:  # under a pixel
        w, h = float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.2, 1.0))
        x, y = float(rng.uniform(0, max(width - w, 0.0))), float(rng.uniform(0, max(height - h, 0.0)))
    elif kind == 2:  # whole pixels
        w, h = float(rng.integers(1, width + 1)), float(rng.integers(1, height + 1))
        x, y = float(rng.integers(0, width - w + 1)), float(rng.integers(0, height - h + 1))
    else:
        w, h = float(rng.uniform(1.0, width)), float(rng.uniform(1.0, height))
        x, y = float(rng.uniform(0, width - w)), float(rng.uniform(0, height - h))
    return BoundingBox(x, y, w, h)


def noise_instance(rng: np.random.Generator) -> tuple[Dataset, NoiseConfig]:
    n_img = 1 if rng.random() < 0.2 else int(rng.integers(2, 6))
    n_cat = 1 if rng.random() < 0.15 else int(rng.integers(2, 6))
    n_ann = int(rng.integers(0, 30))
    image_ids = (rng.choice(50, n_img, replace=False) + 1).tolist()
    images = [ImageRecord(i, int(rng.integers(2, 90)), int(rng.integers(2, 70)), f"im{i}.jpg")
              for i in image_ids]
    categories = [Category(c, f"c{c}") for c in (rng.choice(20, n_cat, replace=False) + 1).tolist()]
    if rng.random() < 0.3:  # ids just under the stream-item limit
        ids = (ID_LIMIT - 1 - rng.choice(200, n_ann, replace=False)).tolist()
    else:
        ids = (rng.choice(1000, n_ann, replace=False) + 1).tolist()
    annotations = []
    for ann_id in ids:
        im = images[int(rng.integers(0, n_img))]
        annotations.append(Annotation(ann_id, im.id, categories[int(rng.integers(0, n_cat))].id,
                                      _box(rng, im.width, im.height), crowd_flag=bool(rng.random() < 0.2)))
    noise_type = list(NoiseType)[int(rng.integers(0, 5))]
    ratio = [0.0, 0.05, 0.2, 0.5, 1.0, float(rng.random())][int(rng.integers(0, 6))]
    seed = [0, (1 << 64) - 1, int(rng.integers(0, 1 << 63)) * 2 + 1][int(rng.integers(0, 3))]
    delta = 0.4 if rng.random() < 0.5 else float(rng.uniform(0.01, 0.99))
    policy = list(BogusSizePolicy)[int(rng.integers(0, 2))]
    return Dataset(images, annotations, categories), NoiseConfig(noise_type, ratio, seed, delta, policy)


def _document(ds: Dataset) -> str:
    """``ds`` as a COCO document with its records in their own order."""
    return json.dumps({
        "images": [vars(im) for im in ds.images],
        "annotations": [{"id": a.id, "image_id": a.image_id, "category_id": a.category_id,
                         "bbox": a.bbox.as_list(), "area": a.area, "iscrowd": int(a.crowd_flag)}
                        for a in ds.annotations],
        "categories": [vars(c) for c in ds.categories],
    })


def _check(ds: Dataset, config: NoiseConfig) -> None:
    try:
        want = outputs_ref(ds, config)
    except ValueError as e:
        with pytest.raises(ValueError, match=str(e)):
            inject(ds, config)
        return
    noisy, log = inject(ds, config)
    unread = pickle.loads(pickle.dumps(log))
    got = noisy.annotations, serialize_dataset(noisy), sidecar_json(log).encode("utf-8")
    assert repr(got[0]) == repr(want[0])
    assert got[1:] == want[1:3]
    want_log = want[3]
    assert "corrupted" not in vars(unread)
    assert unread == want_log
    assert log == want_log and hash(log) == hash(want_log) and repr(log) == repr(want_log)


def test_inject_matches_the_reference_on_fuzzed_instances():
    rng = np.random.default_rng(20231)
    kinds = set()
    for n in range(N_INSTANCES):
        ds, config = noise_instance(rng)
        kinds.add((config.noise_type, config.bogus_size_policy, len(ds.images) == 1, len(ds.categories) == 1))
        _check(ds, config)
        if n % 3 == 0:
            _check(parse_dataset(_document(ds)), config)
    assert len(kinds) == 5 * 2 * 2 * 2


def _rejected(seed: int, word: int, half: int, n: int) -> bool:
    """Whether numpy rejects the low (0) or high (1) half of word ``word`` of the first
    fabricated box's stream as a draw in [0, n): Lemire's method rejects a product whose
    low half is below 2**32 mod n."""
    value = int(np.random.Philox(key=seed | (6 << 58) << 64).random_raw(4)[word]) >> 32 * half & 0xFFFFFFFF
    return (value * n) % (1 << 32) < (1 << 32) % n


def test_inject_matches_the_reference_where_numpy_rejects_a_bounded_draw():
    # Each bounded draw of a fabricated box, planted where Lemire's method
    # rejects the first box's word, which the fuzz above would practically
    # never meet. 59,722 categories (2**32 % n = 59,666, rejection
    # probability 1.4e-5): at seed 3402 the category draw, the high half of
    # word 0. 44,375 images or size sources (2**32 % n = 44,171): at seed
    # 44680 the image draw, the low half of word 0; at seed 44586 the size
    # source, the low half of word 3, which two images and two categories
    # always settle before it.
    n_cat, seed = 59_722, 3402
    assert _rejected(seed, 0, 1, n_cat)
    images = (ImageRecord(1, 60, 40, "a.jpg"), ImageRecord(2, 30, 50, "b.jpg"))
    annotations = [Annotation(i, 1 + i % 2, 1 + i, BoundingBox(float(i), 2.0, 9.0, 7.0), crowd_flag=i == 3)
                   for i in range(1, 7)]
    ds = Dataset(images, annotations, [Category(c, f"c{c}") for c in range(1, n_cat + 1)])
    for noise_type, policy in (("bogus", "sample_existing"), ("una", "sample_existing"), ("bogus", "uniform_fraction")):
        _check(ds, NoiseConfig(noise_type, 1.0, seed, bogus_size_policy=policy))

    n, seed = 44_375, 44680
    assert _rejected(seed, 0, 0, n)
    many_images = [ImageRecord(i, 40 + i % 30, 30 + i % 20, f"{i}.jpg") for i in range(1, n + 1)]
    two_categories = [Category(1, "a"), Category(2, "b")]
    few = [Annotation(i, i, 1 + i % 2, BoundingBox(float(i), 2.0, 9.0, 7.0)) for i in range(1, 5)]
    _check(Dataset(many_images, few, two_categories), NoiseConfig("bogus", 1.0, seed))

    seed = 44586
    assert _rejected(seed, 3, 0, n)
    on_one_image = [Annotation(i, 1, 1 + i % 2, BoundingBox(float(i % 50), float(i % 37), 1.0 + i % 9, 2.0 + i % 7))
               for i in range(1, n + 1)]
    _check(Dataset(images, on_one_image, two_categories), NoiseConfig("bogus", 1.0 / n, seed))
