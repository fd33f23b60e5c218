"""Noise injection: exact counts, determinism, validity, distributions."""

import dataclasses
import math
import re

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
    exact_count,
    inject,
    inject_bogus,
    inject_categorization,
    inject_localization,
    inject_missing,
    inject_una,
    iou,
    make_bogus_box,
    perturb_box,
    select_targets,
    serialize_dataset,
    validate_dataset,
)
from unabench.noise import DEFAULT_LOC_DELTA, _stream, _BOGUS_ITEM

from conftest import build_dataset, noise_digests

scipy_stats = pytest.importorskip("scipy.stats")


# --- counting -------------------------------------------------------------

def test_exact_count_half_up():
    assert exact_count(0.2, 7) == 1      # 1.4 rounds down
    assert exact_count(0.5, 7) == 4      # 3.5 rounds up, not to even
    assert exact_count(0.5, 5) == 3      # 2.5 rounds up, not to even
    assert exact_count(0.1, 1000) == 100
    assert exact_count(0.0, 1000) == 0
    assert exact_count(1.0, 123) == 123
    assert exact_count(0.3, 0) == 0


def test_exact_count_rejects_bad_ratio():
    for bad in (-0.1, 1.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="ratio"):
            exact_count(bad, 10)


# --- target selection -----------------------------------------------------

def test_select_targets_size_and_membership():
    ds = build_dataset(n_annotations=100, seed=1)
    ids = select_targets(ds, 0.2, seed=5, kind="missing")
    assert len(ids) == 20
    assert ids <= {a.id for a in ds.annotations}


def test_select_targets_deterministic_and_kind_independent():
    ds = build_dataset(n_annotations=100, seed=1)
    a = select_targets(ds, 0.3, seed=9, kind="categorization")
    b = select_targets(ds, 0.3, seed=9, kind="categorization")
    c = select_targets(ds, 0.3, seed=9, kind="localization")
    d = select_targets(ds, 0.3, seed=10, kind="categorization")
    assert a == b
    assert a != c  # different kinds draw from different streams
    assert a != d  # different seeds differ


def test_select_targets_ignores_record_order():
    ds = build_dataset(n_annotations=50, seed=2)
    reordered = Dataset(ds.images, ds.annotations[::-1], ds.categories)
    assert select_targets(ds, 0.4, 3, "missing") == select_targets(reordered, 0.4, 3, "missing")


def test_select_targets_excludes_crowd():
    ds = build_dataset(n_annotations=40, crowd_every=2, seed=3)
    ids = select_targets(ds, 1.0, seed=1, kind="missing")
    assert len(ids) == 20
    assert all(not ds.annotations_by_id[i].crowd_flag for i in ids)


def test_select_targets_unknown_kind():
    ds = build_dataset(seed=1)
    with pytest.raises(ValueError, match="unknown selection kind"):
        select_targets(ds, 0.1, 0, "bogus")


def test_huge_annotation_id_rejected_by_stream_layout():
    ds = build_dataset(n_annotations=2, seed=1)
    big = dataclasses.replace(ds.annotations[0], id=1 << 58)
    ds2 = Dataset(ds.images, (big, ds.annotations[1]), ds.categories)
    with pytest.raises(ValueError, match="2\\*\\*58"):
        inject_localization(ds2, 1.0, seed=0)


# --- categorization -------------------------------------------------------

def test_categorization_zero_ratio_is_identity():
    ds = build_dataset(seed=4)
    out, log = inject_categorization(ds, 0.0, seed=7)
    assert out == ds
    assert log.corrupted == () and log.removed == () and log.added == ()


def test_categorization_two_categories_full_ratio_flips_everything():
    ds = build_dataset(n_categories=2, n_annotations=30, seed=5)
    out, log = inject_categorization(ds, 1.0, seed=1)
    other = {1: 2, 2: 1}
    for old, new in zip(ds.annotations, out.annotations):
        assert new.category_id == other[old.category_id]
    assert log.counts()["categorization"] == 30


def test_categorization_never_a_noop_and_only_targets_touched():
    ds = build_dataset(n_categories=5, n_annotations=200, seed=6)
    out, log = inject_categorization(ds, 0.25, seed=11)
    changed = {e.id for e in log.corrupted}
    assert len(changed) == 50
    for old, new in zip(ds.annotations, out.annotations):
        if old.id in changed:
            assert new.category_id != old.category_id
            assert new.bbox == old.bbox and new.area == old.area
        else:
            assert new is old  # untouched records are the same objects


def test_categorization_log_records_old_category():
    ds = build_dataset(n_annotations=40, seed=7)
    out, log = inject_categorization(ds, 0.5, seed=2)
    for entry in log.corrupted:
        assert entry.kinds == ("categorization",)
        assert entry.old_category_id == ds.annotations_by_id[entry.id].category_id
        assert entry.old_bbox is None


def test_categorization_requires_two_categories():
    ds = build_dataset(n_categories=1, seed=8)
    with pytest.raises(ValueError, match="two categories"):
        inject_categorization(ds, 0.1, seed=0)


def test_categorization_flips_uniform_over_other_classes():
    # all annotations start in category 1 of 80, so 10,000 flips across
    # 50 seeds should spread evenly over the other 79 classes
    images = (ImageRecord(1, 1000, 1000, "a.jpg"),)
    categories = tuple(Category(c, f"c{c}") for c in range(1, 81))
    anns = tuple(
        Annotation(i, 1, 1, BoundingBox(float(i % 100), float(i // 100), 5.0, 5.0))
        for i in range(1, 201)
    )
    ds = Dataset(images, anns, categories)
    counts = {c: 0 for c in range(2, 81)}
    for seed in range(50):
        _, log = inject_categorization(ds, 1.0, seed=seed)
        out, _ = inject_categorization(ds, 1.0, seed=seed)
        for a in out.annotations:
            assert a.category_id != 1
            counts[a.category_id] += 1
    res = scipy_stats.chisquare(list(counts.values()))
    assert res.pvalue > 0.01


# --- box perturbation -----------------------------------------------------

def test_perturb_box_small_delta_stays_close():
    box = BoundingBox(100.0, 100.0, 50.0, 50.0)
    img = ImageRecord(1, 640, 480, "a.jpg")
    for i in range(200):
        out = perturb_box(box, img, 0.001, np.random.default_rng(i))
        assert iou(box, out) > 0.99


def test_perturb_box_output_always_valid():
    img = ImageRecord(1, 640, 480, "a.jpg")
    rng = np.random.default_rng(0)
    for _ in range(500):
        w = float(rng.uniform(2, 600))
        h = float(rng.uniform(2, 440))
        box = BoundingBox(float(rng.uniform(0, 640 - w)), float(rng.uniform(0, 480 - h)), w, h)
        out = perturb_box(box, img, 0.4, np.random.default_rng(rng.integers(1 << 32)))
        assert out.x >= 0 and out.y >= 0
        assert out.x + out.w <= 640 and out.y + out.h <= 480
        assert out.w >= 1 and out.h >= 1
        assert 0.0 < iou(box, out) < 1.0


def test_perturb_box_tiny_image_falls_back_to_valid_box():
    img = ImageRecord(1, 2, 2, "t.jpg")
    box = BoundingBox(0.0, 0.0, 2.0, 2.0)
    for i in range(50):
        out = perturb_box(box, img, 0.9, np.random.default_rng(i))
        assert out.w >= 1 and out.h >= 1
        assert out.x >= 0 and out.y >= 0 and out.x + out.w <= 2 and out.y + out.h <= 2


def test_perturb_box_deterministic_per_stream():
    box = BoundingBox(10.0, 10.0, 30.0, 20.0)
    img = ImageRecord(1, 100, 100, "a.jpg")
    a = perturb_box(box, img, 0.4, np.random.default_rng(42))
    b = perturb_box(box, img, 0.4, np.random.default_rng(42))
    assert a == b


def test_perturb_box_rejects_bad_delta():
    box = BoundingBox(0.0, 0.0, 5.0, 5.0)
    img = ImageRecord(1, 10, 10, "a.jpg")
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError, match="loc_delta"):
            perturb_box(box, img, bad, np.random.default_rng(0))


# --- localization ---------------------------------------------------------

def test_localization_counts_and_target_set_match_selector():
    ds = build_dataset(n_annotations=200, seed=9)
    out, log = inject_localization(ds, 0.2, seed=13)
    moved = {e.id for e in log.corrupted}
    assert len(moved) == 40
    assert moved == set(select_targets(ds, 0.2, 13, "localization"))
    for old, new in zip(ds.annotations, out.annotations):
        if old.id in moved:
            assert new.bbox != old.bbox
            assert new.area == pytest.approx(new.bbox.area)
            assert new.category_id == old.category_id
        else:
            assert new is old


def test_localization_log_keeps_old_box():
    ds = build_dataset(n_annotations=30, seed=10)
    _, log = inject_localization(ds, 0.5, seed=3)
    for entry in log.corrupted:
        assert entry.kinds == ("localization",)
        assert entry.old_bbox == ds.annotations_by_id[entry.id].bbox


def test_localization_full_ratio_moves_every_box_within_bounds():
    ds = build_dataset(n_annotations=3, seed=11)
    out, _ = inject_localization(ds, 1.0, seed=1)
    validate_dataset(out)
    for old, new in zip(ds.annotations, out.annotations):
        assert new.bbox != old.bbox
        img = out.images_by_id[new.image_id]
        assert new.bbox.x >= 0 and new.bbox.y >= 0
        assert new.bbox.x + new.bbox.w <= img.width
        assert new.bbox.y + new.bbox.h <= img.height


def test_localization_zero_ratio_identity():
    ds = build_dataset(seed=12)
    out, log = inject_localization(ds, 0.0, seed=5)
    assert out == ds and log.corrupted == ()


# --- missing --------------------------------------------------------------

def test_missing_removes_exact_count_keeping_survivors_identical():
    ds = build_dataset(n_annotations=100, seed=13)
    out, log = inject_missing(ds, 0.25, seed=17)
    assert len(out.annotations) == 75
    assert len(log.removed) == 25
    survivors = {a.id for a in out.annotations}
    assert survivors == {a.id for a in ds.annotations} - set(log.removed)
    for a in out.annotations:
        assert a is ds.annotations_by_id[a.id]


def test_missing_full_ratio_leaves_valid_empty_dataset():
    ds = build_dataset(n_annotations=10, seed=14)
    out, _ = inject_missing(ds, 1.0, seed=1)
    assert out.annotations == ()
    assert out.images == ds.images and out.categories == ds.categories
    validate_dataset(out)


def test_missing_keeps_crowd():
    ds = build_dataset(n_annotations=20, crowd_every=4, seed=15)
    out, _ = inject_missing(ds, 1.0, seed=1)
    assert all(a.crowd_flag for a in out.annotations)
    assert len(out.annotations) == 5


# --- bogus ----------------------------------------------------------------

def test_bogus_adds_exact_count_with_fresh_sequential_ids():
    ds = build_dataset(n_annotations=100, seed=16)
    out, log = inject_bogus(ds, 0.2, seed=19)
    assert len(out.annotations) == 120
    assert out.annotations[:100] == ds.annotations
    assert log.added == tuple(range(101, 121))
    validate_dataset(out)


def test_bogus_single_existing_box_fixes_the_sampled_size():
    images = (ImageRecord(1, 640, 480, "a.jpg"),)
    cats = (Category(1, "c1"), Category(2, "c2"))
    anns = (Annotation(1, 1, 1, BoundingBox(10.0, 10.0, 50.0, 60.0)),)
    ds = Dataset(images, anns, cats)
    hits = 0
    for i in range(300):
        rng = _stream(7, _BOGUS_ITEM, i)
        rng.integers(0, 1)  # image pick, as the injector draws it
        ann = make_bogus_box(images[0], ds, BogusSizePolicy.SAMPLE_EXISTING, rng, new_id=100 + i)
        uncut = ann.bbox.x > 0 and ann.bbox.y > 0 \
            and ann.bbox.x + ann.bbox.w < 640 and ann.bbox.y + ann.bbox.h < 480
        if uncut:
            assert (ann.bbox.w, ann.bbox.h) == (50.0, 60.0)
            hits += 1
        assert ann.category_id in (1, 2)
    assert hits > 100  # most draws land fully inside


def test_bogus_uniform_fraction_width_distribution():
    # conditioned on the box not being cut by the left/right edge, the drawn
    # width w ~ U[0.05, 0.5]*W has density proportional to (W - w); check
    # the sample against that law directly
    images = (ImageRecord(1, 640, 480, "a.jpg"),)
    ds = Dataset(images, (), (Category(1, "c"),))
    a, b, W = 0.05 * 640, 0.5 * 640, 640.0
    widths = []
    for i in range(10_000):
        rng = _stream(3, _BOGUS_ITEM, i)
        ann = make_bogus_box(images[0], ds, BogusSizePolicy.UNIFORM_FRACTION, rng, new_id=i + 1)
        if ann.bbox.x > 0 and ann.bbox.x + ann.bbox.w < W:
            widths.append(ann.bbox.w)

    def cdf(t):
        t = np.clip(t, a, b)
        num = (W - a) * (t - a) - (t * t - a * a) / 2
        den = (W - a) * (b - a) - (b * b - a * a) / 2
        return num / den

    res = scipy_stats.kstest(widths, cdf)
    assert len(widths) > 5000
    assert res.pvalue > 0.01


def test_bogus_two_seeds_differ_in_boxes_not_counts():
    ds = build_dataset(n_annotations=50, seed=17)
    out1, log1 = inject_bogus(ds, 0.4, seed=1)
    out2, log2 = inject_bogus(ds, 0.4, seed=2)
    assert log1.added == log2.added  # same fresh ids
    assert len(out1.annotations) == len(out2.annotations) == 70
    new1 = [a.bbox for a in out1.annotations[50:]]
    new2 = [a.bbox for a in out2.annotations[50:]]
    assert new1 != new2


def test_bogus_boxes_always_inside_their_image():
    ds = build_dataset(n_annotations=60, n_images=7, seed=18)
    out, log = inject_bogus(ds, 1.0, seed=23)
    added = set(log.added)
    for a in out.annotations:
        if a.id in added:
            img = out.images_by_id[a.image_id]
            assert a.bbox.x >= 0 and a.bbox.y >= 0
            assert a.bbox.x + a.bbox.w <= img.width
            assert a.bbox.y + a.bbox.h <= img.height
            assert a.bbox.w >= 1 and a.bbox.h >= 1
            assert not a.crowd_flag


def test_bogus_size_falls_back_without_annotations():
    images = (ImageRecord(1, 200, 100, "a.jpg"),)
    ds = Dataset(images, (), (Category(1, "c"),))
    ann = make_bogus_box(images[0], ds, BogusSizePolicy.SAMPLE_EXISTING,
                         np.random.default_rng(0), new_id=1)
    assert 1.0 <= ann.bbox.w <= 100.0  # uniform_fraction fallback: <= 0.5*W


# --- una ------------------------------------------------------------------

def test_una_preserves_annotation_count():
    ds = build_dataset(n_annotations=100, seed=19)
    for r in (0.0, 0.05, 0.2, 1.0):
        out, _ = inject_una(ds, r, seed=29)
        assert len(out.annotations) == 100
        validate_dataset(out)


def test_una_log_sections_have_equal_counts():
    ds = build_dataset(n_annotations=200, seed=20)
    _, log = inject_una(ds, 0.2, seed=31)
    assert log.counts() == {"categorization": 40, "localization": 40, "missing": 40, "bogus": 40}


def test_una_components_equal_standalone_injections():
    ds = build_dataset(n_annotations=120, seed=21)
    seed = 37
    out, log = inject_una(ds, 0.25, seed=seed)
    _, cat_log = inject_categorization(ds, 0.25, seed=seed)
    _, loc_log = inject_localization(ds, 0.25, seed=seed)
    _, miss_log = inject_missing(ds, 0.25, seed=seed)
    bog_out, bog_log = inject_bogus(ds, 0.25, seed=seed)

    def by_kind(log, kind):
        return {e.id: e for e in log.corrupted if kind in e.kinds}

    assert set(by_kind(log, "categorization")) == set(by_kind(cat_log, "categorization"))
    assert set(by_kind(log, "localization")) == set(by_kind(loc_log, "localization"))
    # surviving corrupted values agree with the standalone runs
    std_cat = {a.id: a.category_id for a in inject_categorization(ds, 0.25, seed=seed)[0].annotations}
    std_loc = {a.id: a.bbox for a in inject_localization(ds, 0.25, seed=seed)[0].annotations}
    for a in out.annotations:
        if a.id in std_cat:
            assert a.category_id == std_cat[a.id]
            assert a.bbox == std_loc[a.id]
    assert log.removed == miss_log.removed
    assert log.added == bog_log.added
    assert [a for a in out.annotations if a.id in set(log.added)] \
        == [a for a in bog_out.annotations if a.id in set(bog_log.added)]


def test_una_missing_wins_but_event_is_logged():
    ds = build_dataset(n_annotations=40, seed=22)
    found = False
    for seed in range(60):
        out, log = inject_una(ds, 0.5, seed=seed)
        removed = set(log.removed)
        corrupted = {e.id for e in log.corrupted}
        overlap = removed & corrupted
        out_ids = {a.id for a in out.annotations}
        assert not (removed & out_ids)
        if overlap:
            found = True
    assert found  # at r=0.5 some annotation is corrupted and then dropped


def test_una_target_overlap_matches_independence():
    ds = build_dataset(n_annotations=1000, n_images=20, seed=23)
    overlaps = []
    for seed in range(100):
        _, log = inject_una(ds, 0.2, seed=seed)
        cat = {e.id for e in log.corrupted if "categorization" in e.kinds}
        loc = {e.id for e in log.corrupted if "localization" in e.kinds}
        overlaps.append(len(cat & loc))
    mean = sum(overlaps) / len(overlaps)
    assert abs(mean - 40.0) < 2.0  # E = k^2/N = 200^2/1000


def test_una_requires_two_categories():
    ds = build_dataset(n_categories=1, seed=24)
    with pytest.raises(ValueError, match="two categories"):
        inject_una(ds, 0.2, seed=0)


# --- cross-cutting --------------------------------------------------------

@pytest.mark.parametrize("noise_type", list(NoiseType))
def test_inject_dispatch_and_byte_determinism(noise_type):
    ds = build_dataset(n_annotations=80, crowd_every=9, seed=25)
    config = NoiseConfig(noise_type, 0.25, seed=41)
    out1, log1 = inject(ds, config)
    out2, log2 = inject(ds, config)
    assert serialize_dataset(out1) == serialize_dataset(out2)
    assert log1 == log2
    validate_dataset(out1)


@pytest.mark.parametrize("noise_type", list(NoiseType))
def test_inject_logs_only_the_settings_its_kinds_use(noise_type):
    ds = build_dataset(n_annotations=60, seed=29)
    config = NoiseConfig(noise_type, 0.3, seed=5, loc_delta=0.25, bogus_size_policy="uniform_fraction")
    logged = inject(ds, config)[1].config
    uses_delta = noise_type in (NoiseType.LOCALIZATION, NoiseType.UNA)
    uses_policy = noise_type in (NoiseType.BOGUS, NoiseType.UNA)
    assert logged.loc_delta == (0.25 if uses_delta else DEFAULT_LOC_DELTA)
    assert logged.bogus_size_policy is (BogusSizePolicy.UNIFORM_FRACTION if uses_policy
                                        else BogusSizePolicy.SAMPLE_EXISTING)
    assert (logged.noise_type, logged.ratio, logged.seed) == (noise_type, 0.3, 5)


@pytest.mark.parametrize("noise_type", [NoiseType.LOCALIZATION, NoiseType.BOGUS, NoiseType.UNA])
def test_workers_do_not_change_bytes(noise_type):
    ds = build_dataset(n_annotations=150, seed=26)
    config = NoiseConfig(noise_type, 0.4, seed=43)
    out1, log1 = inject(ds, config, workers=1)
    out8, log8 = inject(ds, config, workers=8)
    assert serialize_dataset(out1) == serialize_dataset(out8)
    assert log1.to_dict() == log8.to_dict()


def test_crowd_annotations_pass_through_untouched():
    ds = build_dataset(n_annotations=60, crowd_every=3, seed=27)
    crowd_ids = {a.id for a in ds.annotations if a.crowd_flag}
    for noise_type in NoiseType:
        out, log = inject(ds, NoiseConfig(noise_type, 1.0, seed=47))
        for a in out.annotations:
            if a.id in crowd_ids:
                assert a is ds.annotations_by_id[a.id]
        touched = {e.id for e in log.corrupted} | set(log.removed)
        assert not (touched & crowd_ids)


def test_noise_config_validation():
    with pytest.raises(ValueError, match="ratio"):
        NoiseConfig(NoiseType.UNA, 1.2)
    with pytest.raises(ValueError, match="loc_delta"):
        NoiseConfig(NoiseType.UNA, 0.2, loc_delta=1.0)
    with pytest.raises(ValueError, match="seed"):
        NoiseConfig(NoiseType.UNA, 0.2, seed=-1)
    with pytest.raises(ValueError):
        NoiseConfig("gaussian", 0.2)
    config = NoiseConfig("una", 0.2, bogus_size_policy="uniform_fraction")
    assert config.noise_type is NoiseType.UNA
    assert config.bogus_size_policy is BogusSizePolicy.UNIFORM_FRACTION


@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_is_no_ratio(flag):
    """A bool would be logged as ``true`` in the sidecar; 1 and 0 stay ratios."""
    for check in (lambda r: NoiseConfig(NoiseType.UNA, r), lambda r: exact_count(r, 10)):
        with pytest.raises(ValueError, match=rf"^ratio must be in \[0, 1\], got {flag!r}$"):
            check(flag)
        check(int(flag))


@pytest.mark.parametrize("flag", [True, False, np.True_])
def test_a_bool_is_no_seed(flag):
    """A bool would be logged as ``true`` in the sidecar."""
    with pytest.raises(ValueError, match=rf"^seed must be in \[0, 2\*\*64\), got {flag}$"):
        NoiseConfig(NoiseType.UNA, 0.2, seed=flag)


@pytest.mark.parametrize("seed", [np.int64(3), np.uint64(3)], ids=["int64", "uint64"])
def test_a_numpy_integer_seed_injects_as_its_python_int(seed):
    """The seed is normalised to a Python int: the same targets, dataset and sidecar bytes
    as 3, and the sidecar logs it as a plain integer."""
    ds = build_dataset(n_annotations=60, seed=19, crowd_every=7)
    config = NoiseConfig(NoiseType.UNA, 0.5, seed=seed)
    assert type(config.seed) is int and type(config.to_dict()["seed"]) is int
    assert noise_digests(ds, config) == noise_digests(ds, NoiseConfig(NoiseType.UNA, 0.5, seed=3))
    for kind in ("categorization", "localization", "missing"):
        assert select_targets(ds, 0.5, seed, kind) == select_targets(ds, 0.5, 3, kind)


@pytest.mark.parametrize("seed", [1.5, "3", 3.0])
def test_a_seed_that_is_no_integer_is_refused(seed):
    """A float or a string is no seed, even where it equals an integer."""
    ds = build_dataset(n_annotations=20)
    message = rf"^seed must be in \[0, 2\*\*64\), got {re.escape(str(seed))}$"
    with pytest.raises(ValueError, match=message):
        NoiseConfig(NoiseType.UNA, 0.5, seed=seed)
    with pytest.raises(ValueError, match=message):
        select_targets(ds, 0.5, seed, "missing")


def test_log_dict_schema():
    ds = build_dataset(n_annotations=50, seed=28)
    _, log = inject_una(ds, 0.2, seed=53)
    doc = log.to_dict()
    assert set(doc) == {"config", "counts", "corrupted", "removed", "added"}
    assert doc["config"]["noise_type"] == "una"
    assert doc["removed"] == sorted(doc["removed"])
    assert doc["added"] == sorted(doc["added"])
    ids = [e["id"] for e in doc["corrupted"]]
    assert ids == sorted(ids)
    for e in doc["corrupted"]:
        assert set(e) <= {"id", "kinds", "old_category_id", "old_bbox"}
        if "categorization" in e["kinds"]:
            assert "old_category_id" in e
        if "localization" in e["kinds"]:
            assert len(e["old_bbox"]) == 4
