"""The vectorized draws of the noise planners against numpy and the scalar rules.

Planners decode every item's first Philox block from one array pass and
redo an item from its own ``_stream`` only when the block does not settle
it. These tests check the block against numpy's ``Philox``, the decoded
draws against numpy's ``integers``, the array geometry against the scalar
rules it replaced (kept here as the reference), and the planners item by
item against the public per-item functions, with fallbacks forced.
"""

import numpy as np
import pytest

from unabench import Annotation, BogusSizePolicy, BoundingBox, Category, Dataset, ImageRecord, noise
from unabench.metrics import iou
from unabench.noise import (
    _BOGUS_ITEM,
    _LOCALIZATION_ITEM,
    _blocks,
    _bounded,
    _clip_span,
    _doubles,
    _jitter,
    _plan_bogus,
    _plan_localization,
    _stream,
    make_bogus_box,
    perturb_box,
    select_targets,
)

from conftest import build_dataset, edge_noise_dataset

SEEDS = (0, 5, (1 << 63) + 17, (1 << 64) - 3)


def _bits(values) -> list[str]:
    """Exact float identity, signed zeros included."""
    return [repr(float(v)) for v in values]


# --- reference: the scalar rules as they stood before vectorization ---------

def _scalar_attempt(box, u, delta, w_img, h_img):
    u1, u2, u3, u4 = u
    cx0 = box.x + box.w / 2.0
    cy0 = box.y + box.h / 2.0
    cx = cx0 + u1 * delta * box.w
    cy = cy0 + u2 * delta * box.h
    w = box.w * (1.0 + u3 * delta)
    h = box.h * (1.0 + u4 * delta)
    x1 = max(0.0, cx - w / 2.0)
    y1 = max(0.0, cy - h / 2.0)
    x2 = min(w_img, cx + w / 2.0)
    y2 = min(h_img, cy + h / 2.0)
    if x2 - x1 < 1.0 or y2 - y1 < 1.0:
        return (cx, cy, w, h), None
    new = BoundingBox(x1, y1, x2 - x1, y2 - y1)
    overlap = iou(box, new)
    return (cx, cy, w, h), (new if 0.0 < overlap < 1.0 else None)


def _scalar_last_resort(cand, w_img, h_img):
    cx, cy, w, h = cand
    w = min(max(w, 1.0), w_img)
    h = min(max(h, 1.0), h_img)
    return BoundingBox(min(max(cx - w / 2.0, 0.0), w_img - w), min(max(cy - h / 2.0, 0.0), h_img - h), w, h)


def _scalar_perturb(box, w_img, h_img, delta, rng, max_attempts):
    """The jittered box and whether it is the last resort."""
    cand = (box.x + box.w / 2.0, box.y + box.h / 2.0, box.w, box.h)
    for _ in range(max_attempts):
        cand, new = _scalar_attempt(box, rng.uniform(-1.0, 1.0, size=4).tolist(), delta, w_img, h_img)
        if new is not None:
            return new, False
    return _scalar_last_resort(cand, w_img, h_img), True


def _scalar_span(c, s, side):
    r1 = c - s / 2.0
    r2 = r1 + s
    lo = max(0.0, r1)
    length = s if r1 >= 0.0 and r2 <= side else min(side, r2) - lo
    if length < 1.0:
        length = min(1.0, side)
        lo = min(max(c - length / 2.0, 0.0), side - length)
    return lo, length


# --- Philox block and decoded draws -------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_blocks_equal_numpy_philox_words(seed):
    items = [0, 1, 2, 77, 12345678901234, (1 << 58) - 1]
    for purpose in (_LOCALIZATION_ITEM, _BOGUS_ITEM):
        raw = np.array([_stream(seed, purpose, i).bit_generator.random_raw(4) for i in items])
        assert (_blocks(seed, purpose, items) == raw.T).all()
        doubles = np.array([_stream(seed, purpose, i).random(4) for i in items])
        assert (_doubles(_blocks(seed, purpose, items)) == doubles.T).all()


def test_blocks_check_key_ranges_before_packing():
    with pytest.raises(ValueError, match="2\\*\\*58"):
        _blocks(0, _LOCALIZATION_ITEM, [3, 1 << 58])
    with pytest.raises(ValueError, match="2\\*\\*58"):
        _blocks(0, _LOCALIZATION_ITEM, [-1, 3])
    with pytest.raises(ValueError, match="2\\*\\*64"):
        _blocks(1 << 64, _LOCALIZATION_ITEM, [3])


@pytest.mark.parametrize("n", [1, 2, 3, 80, 5000, 59_722, 3 << 30])
def test_bounded_matches_numpy_integers_where_settled(n):
    # settled exactly where numpy takes the word, and then with numpy's value:
    # a fresh stream's integers(0, n) reads the low half of its first word
    # and, after a rejection, another: one half read leaves the high half
    # buffered (has_uint32) and block 1 in use (buffer_pos). At n = 3 * 2**30
    # numpy rejects a quarter of the words, and accepts twice as many whose
    # low product half is below n; at n = 1 it reads no word.
    items = list(range(1000))
    words = _blocks(9, _BOGUS_ITEM, items)[0]
    got, settled = _bounded(words & np.uint64(0xFFFFFFFF), n)
    one_half = []
    for i, g, ok in zip(items, got.tolist(), settled.tolist()):
        rng = _stream(9, _BOGUS_ITEM, i)
        value = int(rng.integers(0, n))
        state = rng.bit_generator.state
        one_half.append(state["has_uint32"] == 1 and state["buffer_pos"] == 1)
        assert not ok or g == value
    assert settled.tolist() == one_half
    assert settled.any() == (n > 1)
    if n == 3 << 30:
        assert not settled.all()


# --- array geometry against the scalar rules ----------------------------------

def test_jitter_equals_scalar_attempt():
    rng = np.random.default_rng(2024)
    boxes, sizes = [], []
    for _ in range(3000):
        w_img, h_img = float(rng.integers(2, 200)), float(rng.integers(2, 200))
        w = float(rng.choice([0.6, 1.0, 1.3, rng.uniform(0.5, w_img)]))
        h = float(rng.choice([0.7, 1.0, 1.6, rng.uniform(0.5, h_img)]))
        x = float(rng.choice([0.0, w_img - w, rng.uniform(0.0, w_img - w)]))
        y = float(rng.choice([0.0, h_img - h, rng.uniform(0.0, h_img - h)]))
        boxes.append((x, y, w, h))
        sizes.append((w_img, h_img))
    u = rng.uniform(-1.0, 1.0, size=(4, len(boxes)))
    for delta in (0.4, 0.9):
        cand, new, accepted = _jitter(np.array(boxes).T, np.array(sizes).T, u, delta)
        for i, (box, (w_img, h_img)) in enumerate(zip(boxes, sizes)):
            want_cand, want = _scalar_attempt(BoundingBox(*box), u[:, i].tolist(), delta, w_img, h_img)
            assert _bits(cand[:, i]) == _bits(want_cand)
            assert bool(accepted[i]) == (want is not None)
            if want is not None:
                assert _bits(new[:, i]) == _bits(want.as_list())


def test_clip_span_equals_scalar_rule():
    rng = np.random.default_rng(7)
    sides = rng.integers(1, 60, size=4000).astype(float)
    centers = np.array([rng.choice([0.0, 0.5, side / 2.0, side - 0.5, side, rng.uniform(0, side)])
                        for side in sides])
    sizes = np.array([rng.choice([0.3, 1.0, 2.0 * c, side, rng.uniform(0.05, 0.5) * side])
                      for c, side in zip(centers, sides)])
    start, length = _clip_span(centers, sizes, sides)
    for i, (c, s, side) in enumerate(zip(centers.tolist(), sizes.tolist(), sides.tolist())):
        assert _bits((start[i], length[i])) == _bits(_scalar_span(c, s, side))


@pytest.mark.parametrize("max_attempts", [0, 1, 2])
def test_perturb_box_equals_scalar_rule_with_few_attempts(max_attempts):
    # thin boxes at image edges are often rejected, so one and two attempts
    # end both ways; with none the last resort starts from the unjittered box
    rng = np.random.default_rng(31 + max_attempts)
    forced = set()
    for i in range(600):
        w_img, h_img = int(rng.integers(2, 60)), int(rng.integers(2, 60))
        w, h = float(rng.choice([0.6, 1.2, rng.uniform(0.5, w_img)])), float(rng.choice([0.7, 1.5, 3.0]))
        x, y = float(rng.choice([0.0, max(0.0, w_img - w)])), float(rng.uniform(0.0, max(0.0, h_img - h)))
        box, delta = BoundingBox(x, y, w, h), (0.4, 0.9)[i % 2]
        got = perturb_box(box, ImageRecord(1, w_img, h_img, "a.jpg"), delta, _stream(i, _LOCALIZATION_ITEM, 7),
                          max_attempts=max_attempts)
        want, last_resort = _scalar_perturb(box, float(w_img), float(h_img), delta,
                                            _stream(i, _LOCALIZATION_ITEM, 7), max_attempts)
        assert _bits(got.as_list()) == _bits(want.as_list())
        forced.add(last_resort)
    assert forced == ({True} if max_attempts == 0 else {True, False})


# --- planners item by item, fallbacks forced ---------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_localization_plan_equals_per_item_perturb_box(seed):
    # tiny boxes at image edges: the first attempt is often rejected
    fallbacks = 0
    for ds in (edge_noise_dataset(), build_dataset(n_images=3, n_annotations=40, seed=3,
                                                  crowd_every=6)):
        rows, boxes = _plan_localization(ds, 1.0, 0.4, seed)
        ids = ds._table.ids[rows].tolist()
        assert ids == sorted(select_targets(ds, 1.0, seed, "localization"))
        for ann_id, box in zip(ids, boxes.tolist()):
            a = ds.annotations_by_id[ann_id]
            rng = _stream(seed, _LOCALIZATION_ITEM, ann_id)
            want = perturb_box(a.bbox, ds.images_by_id[a.image_id], 0.4, rng)
            assert _bits(box) == _bits(want.as_list())
            fallbacks += rng.bit_generator.state["state"]["counter"][0] > 1
    assert fallbacks > 0


def _one_image_dataset() -> Dataset:
    images = (ImageRecord(7, 90, 60, "one.jpg"),)
    cats = (Category(1, "a"), Category(2, "b"), Category(3, "c"))
    anns = tuple(Annotation(i, 7, 1 + i % 3, BoundingBox(2.0 * i, float(i), 10.0 + i, 8.0),
                            crowd_flag=(i == 4)) for i in range(1, 9))
    return Dataset(images, anns, cats)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", list(BogusSizePolicy))
def test_bogus_plan_equals_per_item_make_bogus_box(seed, policy):
    # one image: numpy draws nothing for the image index, so no draw is
    # settled and every one is redone from its stream; the other inputs
    # decode their draws from the streams' words
    for ds in (_one_image_dataset(), edge_noise_dataset(),
               build_dataset(n_images=6, n_annotations=50, seed=4, crowd_every=7)):
        images = sorted(ds.images, key=lambda im: im.id)
        base = ds.max_annotation_id()
        planned = _plan_bogus(ds, 1.0, seed, policy).records()
        assert len(planned) == len(ds.non_crowd)
        for i, got in enumerate(planned):
            rng = _stream(seed, _BOGUS_ITEM, i)
            image = images[int(rng.integers(0, len(images)))]
            want = make_bogus_box(image, ds, policy, rng, new_id=base + 1 + i)
            assert (got.id, got.image_id, got.category_id) == (want.id, want.image_id, want.category_id)
            assert _bits(got.bbox.as_list() + [got.area]) == _bits(want.bbox.as_list() + [want.area])


# --- input contract ------------------------------------------------------------

def test_injectors_refuse_a_duplicated_annotation_id(monkeypatch):
    # a Dataset built in code is not validated: id 3 appears twice
    images = (ImageRecord(1, 80, 60, "a.jpg"), ImageRecord(2, 80, 60, "b.jpg"))
    cats = (Category(1, "a"), Category(2, "b"))
    anns = (Annotation(3, 1, 1, BoundingBox(10.0, 10.0, 20.0, 15.0)),
            Annotation(5, 1, 2, BoundingBox(30.0, 5.0, 12.0, 12.0)),
            Annotation(3, 2, 1, BoundingBox(10.0, 10.0, 20.0, 15.0)))
    ds = Dataset(images, anns, cats)

    def no_draws(*args):
        raise AssertionError("drew random numbers before refusing the input")

    monkeypatch.setattr(noise, "_stream", no_draws)
    monkeypatch.setattr(noise, "_blocks", no_draws)
    with pytest.raises(ValueError, match="^duplicate annotation id 3$"):
        select_targets(ds, 1.0, 1, "missing")
    for injector in (noise.inject_categorization, noise.inject_localization, noise.inject_missing,
                     noise.inject_bogus, noise.inject_una):
        with pytest.raises(ValueError, match="^duplicate annotation id 3$"):
            injector(ds, 1.0, seed=1)
