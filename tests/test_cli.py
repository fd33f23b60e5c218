"""End-to-end command tests driven through main() with a couple of real
subprocess smoke checks."""

import gc
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from unabench import (Annotation, BogusSizePolicy, BoundingBox, CorruptionEntry, Detection, InjectionLog,
                      NoiseConfig, NoiseType, inject, parse_dataset, serialize_dataset)
from unabench.cli import dataset_stats, diff_datasets, entry, main, sidecar_json

from conftest import build_dataset, noise_golden_cases

DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"
MICRO_GT = str(DATA / "micro_gt.json")
MICRO_DT = str(DATA / "micro_dt.json")


@pytest.fixture
def gt_path(tmp_path):
    ds = build_dataset(n_images=5, n_categories=3, n_annotations=40, seed=9)
    p = tmp_path / "gt.json"
    p.write_bytes(serialize_dataset(ds))
    return str(p)


def _perfect_dets_path(tmp_path, gt_path, score=0.9):
    ds = parse_dataset(Path(gt_path).read_bytes())
    rows = [
        {"image_id": a.image_id, "category_id": a.category_id,
         "bbox": list(a.bbox.as_list()), "score": score}
        for a in ds.annotations
    ]
    p = tmp_path / "dt.json"
    p.write_text(json.dumps(rows))
    return str(p)


# --- inject ------------------------------------------------------------------

def test_inject_roundtrip_and_sidecar(tmp_path, gt_path, capsys):
    out = tmp_path / "noisy.json"
    rc = main(["inject", "--ann", gt_path, "--out", str(out),
               "--type", "categorization", "--ratio", "0.2", "--seed", "3"])
    assert rc == 0
    assert "categorization:  8" in capsys.readouterr().out
    noisy = parse_dataset(out.read_bytes())
    assert len(noisy.annotations) == 40
    log = json.loads((tmp_path / "noisy.json.log.json").read_text())
    assert log["counts"]["categorization"] == 8
    assert len(log["corrupted"]) == 8
    assert log["config"]["noise_type"] == "categorization"


def test_inject_reruns_are_byte_identical(tmp_path, gt_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = main(["inject", "--ann", gt_path, "--out", str(out),
                   "--type", "una", "--ratio", "0.3", "--seed", "11"])
        assert rc == 0
        outs.append((out.read_bytes(), (tmp_path / f"{name}.log.json").read_bytes()))
    assert outs[0][0] == outs[1][0]
    # the config block names the out-independent inputs only, so logs agree too
    assert outs[0][1] == outs[1][1]


def test_inject_rejects_out_of_range_ratio(tmp_path, gt_path, capsys):
    out = tmp_path / "noisy.json"
    rc = main(["inject", "--ann", gt_path, "--out", str(out),
               "--type", "missing", "--ratio", "1.5"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--ratio" in err and "[0, 1]" in err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, raw, message", [
    ("inject", "--ratio", "1.5", "--ratio must be in [0, 1], got 1.5"),
    ("inject", "--seed", "18446744073709551616", "--seed must be in [0, 2**64), got 18446744073709551616"),
    ("inject", "--loc-delta", "1", "--loc-delta must be in (0, 1), got 1"),
    ("inject", "--workers", "0", "--workers must be at least 1, got 0"),
    ("tide", "--tf", "0", "--tf must be in (0, 1], got 0"),
    ("tide", "--tb", "1.0", "--tb must be in (0, 1), got 1.0"),
])
def test_numeric_flag_out_of_range_message(tmp_path, gt_path, capsys, command, flag, raw, message):
    if command == "inject":
        args = ["--ann", gt_path, "--out", str(tmp_path / "o.json"), "--type", "missing", "--ratio", "0.1"]
    else:
        args = ["--gt", gt_path, "--dt", gt_path]
    assert main([command, *args, flag, raw]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gt.json"]


def test_inject_syncs_both_files_before_the_first_replace(tmp_path, gt_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.stat(src).st_ino))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    assert main(["inject", "--ann", gt_path, "--out", str(tmp_path / "noisy.json"),
                 "--type", "una", "--ratio", "0.3", "--seed", "2"]) == 0
    assert [kind for kind, _ in events] == ["fsync", "fsync", "replace", "replace", "fsync"]
    synced, moved = [ino for _, ino in events[:2]], [ino for _, ino in events[2:4]]
    assert synced == moved  # the sidecar's temp file, then the dataset's
    assert moved == [os.stat(tmp_path / "noisy.json.log.json").st_ino, os.stat(tmp_path / "noisy.json").st_ino]
    assert events[4][1] == os.stat(tmp_path).st_ino


def test_inject_replaces_a_symlinked_out_with_a_regular_file(tmp_path, gt_path):
    target = tmp_path / "target.json"
    target.write_bytes(b"untouched")
    out = tmp_path / "noisy.json"
    out.symlink_to(target)
    assert main(["inject", "--ann", gt_path, "--out", str(out),
                 "--type", "missing", "--ratio", "0.2", "--seed", "1"]) == 0
    assert not out.is_symlink()
    assert target.read_bytes() == b"untouched"
    assert parse_dataset(out.read_bytes())


def test_inject_bogus_uniform_fraction_matches_the_library(tmp_path, gt_path):
    out = tmp_path / "noisy.json"
    assert main(["inject", "--ann", gt_path, "--out", str(out), "--type", "bogus", "--ratio", "0.3",
                 "--seed", "7", "--bogus-size-policy", "uniform_fraction"]) == 0
    config = NoiseConfig(NoiseType.BOGUS, 0.3, 7, bogus_size_policy=BogusSizePolicy.UNIFORM_FRACTION)
    noisy, _ = inject(parse_dataset(Path(gt_path).read_bytes()), config)
    assert out.read_bytes() == serialize_dataset(noisy)


def test_sidecar_writer_equals_json_dumps():
    for name, ds, config in noise_golden_cases():
        _, log = inject(ds, config)
        assert sidecar_json(log) == json.dumps(log.to_dict(), indent=2, allow_nan=False), name
    empty = InjectionLog(NoiseConfig("missing", 0.0), (), (), ())
    assert sidecar_json(empty) == json.dumps(empty.to_dict(), indent=2, allow_nan=False)
    # a log built from records may hold ids no int64 holds
    huge = InjectionLog(NoiseConfig("categorization", 1.0), (CorruptionEntry(2**64, ("categorization",), 2**70),),
                        (), ())
    assert sidecar_json(huge) == json.dumps(huge.to_dict(), indent=2, allow_nan=False)


def test_counts_and_sidecar_writer_leave_the_log_records_unbuilt():
    ds = build_dataset(n_images=5, n_categories=3, n_annotations=40, seed=9)
    for noise_type in NoiseType:
        _, log = inject(ds, NoiseConfig(noise_type, 0.5, 7))
        log.counts()
        sidecar_json(log)
        assert "corrupted" not in vars(log), noise_type


@pytest.mark.parametrize("bad", [CorruptionEntry(3, ("categorization",)),
                                 CorruptionEntry(3, ("localization",), 2, BoundingBox(1.0, 1.0, 2.0, 2.0)),
                                 CorruptionEntry(3, ("localization", "categorization"), 2,
                                                 BoundingBox(1.0, 1.0, 2.0, 2.0)),
                                 CorruptionEntry(3, ())])
def test_log_entries_unlike_injections_are_refused(bad):
    log = InjectionLog(NoiseConfig("una", 1.0), (bad,), (), ())
    for read in (log.counts, lambda: sidecar_json(log)):
        with pytest.raises(ValueError, match="^corrupted entry 3: kinds .* do not match its old values$"):
            read()


def test_only_the_console_script_turns_off_cyclic_gc(monkeypatch):
    assert gc.isenabled()
    assert main(["stats", "--ann", MICRO_GT]) == 0
    assert gc.isenabled()
    monkeypatch.setattr(sys, "argv", ["unabench", "stats", "--ann", MICRO_GT])
    try:
        with pytest.raises(SystemExit) as exit_info:
            entry()
        assert exit_info.value.code == 0 and not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_sidecar_writer_and_serializer_reject_non_finite_values(value):
    entry = CorruptionEntry(3, ("localization",), old_bbox=BoundingBox(1.0, value, 2.0, 2.0))
    log = InjectionLog(NoiseConfig("localization", 1.0), (entry,), (), ())
    with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
        json.dumps(log.to_dict(), indent=2, allow_nan=False)
    with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
        sidecar_json(log)
    ds = build_dataset(n_annotations=3)
    for bad in (replace(ds.annotations[1], bbox=BoundingBox(1.0, 1.0, value, 2.0)),
                replace(ds.annotations[1], area=value)):
        with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
            serialize_dataset(replace(ds, annotations=(ds.annotations[0], bad)))


def test_inject_failed_sidecar_leaves_no_dataset_and_no_temp_file(tmp_path, gt_path, capsys):
    out = tmp_path / "noisy.json"
    (tmp_path / "noisy.json.log.json").mkdir()
    before = sorted(p.name for p in tmp_path.iterdir())
    rc = main(["inject", "--ann", gt_path, "--out", str(out),
               "--type", "una", "--ratio", "0.3", "--seed", "2"])
    assert rc == 2
    assert "i/o error" in capsys.readouterr().err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert not any((tmp_path / "noisy.json.log.json").iterdir())


@pytest.mark.parametrize("ann_name, out", [("gt.json", "gt.json"), ("gt.json", "./gt.json"),
                                           ("gt.log.json", "gt")])
def test_inject_refuses_to_overwrite_its_input(tmp_path, gt_path, capsys, ann_name, out):
    ann = Path(gt_path).rename(tmp_path / ann_name)
    original = ann.read_bytes()
    rc = main(["inject", "--ann", str(ann), "--out", f"{tmp_path}/{out}",
               "--type", "missing", "--ratio", "0.5", "--seed", "1"])
    assert rc == 1
    assert "would overwrite --ann" in capsys.readouterr().err
    assert ann.read_bytes() == original
    assert sorted(p.name for p in tmp_path.iterdir()) == [ann_name]


def test_inject_missing_input_file(tmp_path, capsys):
    rc = main(["inject", "--ann", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o.json"),
               "--type", "missing", "--ratio", "0.1"])
    assert rc == 2
    assert "i/o error" in capsys.readouterr().err


def test_inject_rejects_bad_type(tmp_path, gt_path, capsys):
    rc = main(["inject", "--ann", gt_path, "--out", str(tmp_path / "o.json"),
               "--type", "gaussian", "--ratio", "0.1"])
    assert rc == 1
    assert ("--type must be one of {categorization, localization, missing, bogus, una}, got 'gaussian'"
            in capsys.readouterr().err)


def test_inject_rejects_bad_bogus_size_policy(tmp_path, gt_path, capsys):
    rc = main(["inject", "--ann", gt_path, "--out", str(tmp_path / "o.json"),
               "--type", "bogus", "--ratio", "0.1", "--bogus-size-policy", "huge"])
    assert rc == 1
    assert ("--bogus-size-policy must be one of {sample_existing, uniform_fraction}, got 'huge'"
            in capsys.readouterr().err)
    assert not (tmp_path / "o.json").exists()


def test_inject_missing_required_flags(gt_path, capsys):
    rc = main(["inject", "--ann", gt_path])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--out" in err and "--type" in err and "--ratio" in err


# --- eval --------------------------------------------------------------------

def test_eval_perfect_text(tmp_path, gt_path, capsys):
    dt = _perfect_dets_path(tmp_path, gt_path)
    rc = main(["eval", "--gt", gt_path, "--dt", dt])
    assert rc == 0
    out = capsys.readouterr().out
    assert "category" in out and "AP50" in out
    assert "overall" in out
    assert "100.0" in out


def test_eval_csv_shape(tmp_path, gt_path, capsys):
    dt = _perfect_dets_path(tmp_path, gt_path)
    rc = main(["eval", "--gt", gt_path, "--dt", dt, "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "category,ap,ap50,ap75"
    assert lines[1] == "overall,100.0,100.0,100.0"
    assert len(lines) == 2 + 3


def test_eval_json_matches_golden(capsys):
    rc = main(["eval", "--gt", MICRO_GT, "--dt", MICRO_DT, "--format", "json"])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((DATA / "eval_golden.json").read_text())
    assert got == want


def test_eval_json_doc_alias(capsys):
    rc = main(["eval", "--gt", MICRO_GT, "--dt", MICRO_DT, "--format", "json-doc"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["ap"] == 22.0


def test_eval_rejects_unknown_format(gt_path, capsys):
    rc = main(["eval", "--gt", gt_path, "--dt", gt_path, "--format", "yaml"])
    assert rc == 1
    assert "--format" in capsys.readouterr().err


def test_eval_and_tide_build_no_detection_records(monkeypatch, capsys):
    """The results file goes to the metrics as columns, never as records."""
    before = {}
    for cmd in ("eval", "tide"):
        assert main([cmd, "--gt", MICRO_GT, "--dt", MICRO_DT]) == 0
        before[cmd] = capsys.readouterr().out

    def refuse(self, *args, **kwargs):
        raise AssertionError("a Detection record was built")

    monkeypatch.setattr(Detection, "__init__", refuse)
    for cmd in ("eval", "tide"):
        assert main([cmd, "--gt", MICRO_GT, "--dt", MICRO_DT]) == 0
        assert capsys.readouterr().out == before[cmd]


def test_ground_truth_commands_build_no_annotation_records(tmp_path, monkeypatch, capsys):
    """inject, diff, eval, tide and stats read the ground truth as columns, never as records;
    inject also plans, assembles and writes its output from them, and its log from the
    log's edits table."""
    noisy = tmp_path / "noisy.json"
    assert main(["inject", "--ann", MICRO_GT, "--out", str(noisy), "--type", "una", "--ratio", "0.3"]) == 0
    injected = [tmp_path / f"{t.value}-{p.value}.json" for t in NoiseType for p in BogusSizePolicy]
    runs = [["inject", "--ann", MICRO_GT, "--out", str(out), "--type", out.stem.split("-")[0], "--ratio", "0.5",
             "--seed", "7", "--bogus-size-policy", out.stem.split("-")[1]] for out in injected]
    runs += [["diff", MICRO_GT, str(noisy)], ["eval", "--gt", MICRO_GT, "--dt", MICRO_DT],
             ["tide", "--gt", MICRO_GT, "--dt", MICRO_DT], ["stats", "--ann", MICRO_GT]]

    def outputs():
        return [(out.read_bytes(), Path(f"{out}.log.json").read_bytes()) for out in injected]

    capsys.readouterr()
    before = []
    for args in runs:
        assert main(args) == 0
        before.append(capsys.readouterr().out)
    written = outputs()

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} record was built")

    monkeypatch.setattr(Annotation, "__init__", refuse)
    monkeypatch.setattr(CorruptionEntry, "__init__", refuse)
    for args, out in zip(runs, before):
        assert main(args) == 0
        assert capsys.readouterr().out == out
    assert outputs() == written


# --- tide --------------------------------------------------------------------

def _single_cls_paths(tmp_path):
    gt = {
        "images": [{"id": 1, "width": 100, "height": 100, "file_name": "a.jpg"}],
        "annotations": [{"id": 1, "image_id": 1, "category_id": 1,
                         "bbox": [0, 0, 10, 10], "area": 100, "iscrowd": 0}],
        "categories": [{"id": 1, "name": "c1"}, {"id": 2, "name": "c2"}],
    }
    dt = [{"image_id": 1, "category_id": 2, "bbox": [0, 0, 10, 10], "score": 0.9}]
    gt_p, dt_p = tmp_path / "gt.json", tmp_path / "dt.json"
    gt_p.write_text(json.dumps(gt))
    dt_p.write_text(json.dumps(dt))
    return str(gt_p), str(dt_p)


def test_tide_single_cls_text_cells(tmp_path, capsys):
    gt_p, dt_p = _single_cls_paths(tmp_path)
    rc = main(["tide", "--gt", gt_p, "--dt", dt_p])
    assert rc == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    for col in ("AP50", "Cls", "Loc", "Both", "Dupe", "Bkg", "Miss"):
        assert col in header
    assert row.split()[0] == "0.0"
    assert "100.0 (100.0)" in row
    assert row.count("0.0 (0.0)") == 5


def test_tide_json_shape(tmp_path, capsys):
    gt_p, dt_p = _single_cls_paths(tmp_path)
    rc = main(["tide", "--gt", gt_p, "--dt", dt_p, "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ap50"] == 0.0
    assert doc["tf"] == 0.5 and doc["tb"] == 0.1
    assert doc["errors"]["cls"] == {"delta_ap": 100.0, "oracle_ap": 100.0, "count": 1}
    assert doc["errors"]["miss"]["count"] == 0
    assert list(doc["errors"]) == ["cls", "loc", "both", "dupe", "bkg", "miss"]


def test_tide_csv_row(tmp_path, capsys):
    gt_p, dt_p = _single_cls_paths(tmp_path)
    rc = main(["tide", "--gt", gt_p, "--dt", dt_p, "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "ap50,cls,loc,both,dupe,bkg,miss"
    assert lines[1].startswith("0.0,100.0 (100.0),")


def test_tide_threshold_order_enforced(tmp_path, capsys):
    gt_p, dt_p = _single_cls_paths(tmp_path)
    rc = main(["tide", "--gt", gt_p, "--dt", dt_p, "--tb", "0.6", "--tf", "0.5"])
    assert rc == 1
    assert "--tb" in capsys.readouterr().err


# --- stats -------------------------------------------------------------------

def test_stats_json(capsys):
    rc = main(["stats", "--ann", MICRO_GT, "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["images"] == 4
    assert doc["annotations"] == 18
    assert doc["categories"] == 3
    assert [r["id"] for r in doc["per_category"]] == [1, 2, 3]
    assert sum(r["count"] for r in doc["per_category"]) == 18
    q = doc["box_area_quantiles"]
    assert q["min"] <= q["p25"] <= q["p50"] <= q["p75"] <= q["max"]


def test_stats_empty_dataset(tmp_path, capsys):
    p = tmp_path / "empty.json"
    p.write_text('{"images": [], "annotations": [], "categories": []}')
    rc = main(["stats", "--ann", str(p), "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["annotations"] == 0
    assert doc["box_area_quantiles"] is None


def test_stats_function_counts_crowd():
    ds = build_dataset(n_annotations=12, crowd_every=3, seed=2)
    s = dataset_stats(ds)
    assert s["crowd"] == 4


# --- diff --------------------------------------------------------------------

def test_diff_identical_files(gt_path, capsys):
    rc = main(["diff", "--format", "json", gt_path, gt_path])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(v == [] for v in doc.values())


def test_diff_reports_category_changes(tmp_path, gt_path, capsys):
    noisy = tmp_path / "noisy.json"
    assert main(["inject", "--ann", gt_path, "--out", str(noisy),
                 "--type", "categorization", "--ratio", "0.2", "--seed", "5"]) == 0
    capsys.readouterr()
    rc = main(["diff", "--format", "json", gt_path, str(noisy)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    log = json.loads((tmp_path / "noisy.json.log.json").read_text())
    assert doc["category_changed"] == sorted(e["id"] for e in log["corrupted"])
    assert doc["bbox_changed"] == []
    assert doc["removed"] == [] and doc["added"] == []


def test_diff_reconciles_with_combined_injection_log(tmp_path, gt_path, capsys):
    noisy = tmp_path / "noisy.json"
    assert main(["inject", "--ann", gt_path, "--out", str(noisy),
                 "--type", "una", "--ratio", "0.2", "--seed", "6"]) == 0
    capsys.readouterr()
    assert main(["diff", "--format", "json", gt_path, str(noisy)]) == 0
    doc = json.loads(capsys.readouterr().out)
    log = json.loads((tmp_path / "noisy.json.log.json").read_text())
    removed = set(log["removed"])
    by_kind = lambda k: {e["id"] for e in log["corrupted"] if k in e["kinds"]}
    assert set(doc["category_changed"]) == by_kind("categorization") - removed
    assert set(doc["bbox_changed"]) == by_kind("localization") - removed
    assert doc["removed"] == sorted(removed)
    assert doc["added"] == sorted(log["added"])
    assert doc["other_changed"] == []


def _diff_doc(anns):
    return json.dumps({"images": [{"id": 1, "width": 100, "height": 80, "file_name": "a.jpg"},
                                  {"id": 2, "width": 100, "height": 80, "file_name": "b.jpg"}],
                       "categories": [{"id": 1, "name": "cat"}, {"id": 2, "name": "dog"}],
                       "annotations": anns})


def _ann(ann_id, **fields):
    return {"id": ann_id, "image_id": 1, "category_id": 1, "bbox": [10, 10, 20, 20], "area": 400, "iscrowd": 0,
            **fields}


def test_diff_names_every_kind_of_change(tmp_path, capsys):
    """One hand-made pair hits every key; a box move that changes the area too is
    only ``bbox_changed``."""
    old = [_ann(i) for i in (9, 1, 2, 3, 4, 5, 6, 8, 11, 12)]
    new = [_ann(12, bbox=[11, 10, 20, 20], area=401.0, category_id=2),  # box and area move, class flips
           _ann(13), _ann(11, category_id=2),                           # 13 added
           _ann(1, category_id=2),                                      # class flip
           _ann(2, bbox=[10, 10, 21, 20], area=420),                    # box move with its area
           _ann(3, area=400.5),                                         # area drift, same box
           _ann(4, image_id=2),                                         # image change
           _ann(5, iscrowd=1),                                          # crowd flip
           _ann(8, bbox=[10.0, 10.0, 20.0, 20.0], area=400.0),          # same values as floats
           _ann(9)]                                                     # 6 removed
    want = {"category_changed": [1, 11, 12], "bbox_changed": [2, 12], "other_changed": [3, 4, 5],
            "removed": [6], "added": [13]}
    a, b = parse_dataset(_diff_doc(old)), parse_dataset(_diff_doc(new))
    assert diff_datasets(a, b) == want
    assert diff_datasets(b, a) == {**want, "removed": [13], "added": [6]}
    assert diff_datasets(a, a) == {key: [] for key in want}
    paths = []
    for name, anns in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(_diff_doc(anns))
    assert main(["diff", "--format", "json", *map(str, paths)]) == 0
    assert json.loads(capsys.readouterr().out) == want


# --- config file and environment ----------------------------------------------

def test_config_file_supplies_flags(tmp_path, gt_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# injection manifest\n"
        "type = missing\n"
        "ratio = 0.25\n"
        "seed = 4  # trailing comment\n"
    )
    out = tmp_path / "noisy.json"
    rc = main(["inject", "--ann", gt_path, "--out", str(out), "--config", str(cfg)])
    assert rc == 0
    log = json.loads((tmp_path / "noisy.json.log.json").read_text())
    assert log["config"]["noise_type"] == "missing"
    assert log["config"]["ratio"] == 0.25
    assert log["config"]["seed"] == 4


def test_cli_flag_beats_config_file(tmp_path, gt_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("type = missing\nratio = 0.25\nseed = 4\n")
    out = tmp_path / "noisy.json"
    assert main(["inject", "--ann", gt_path, "--out", str(out),
                 "--config", str(cfg), "--ratio", "0.5"]) == 0
    log = json.loads((tmp_path / "noisy.json.log.json").read_text())
    assert log["config"]["ratio"] == 0.5


def test_config_unknown_key_rejected(tmp_path, gt_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("type = missing\nratio = 0.25\nbudget = 9\n")
    rc = main(["inject", "--ann", gt_path, "--out", str(tmp_path / "o.json"),
               "--config", str(cfg)])
    assert rc == 1
    assert "budget" in capsys.readouterr().err


def test_env_var_supplies_default_seed(tmp_path, gt_path, monkeypatch):
    out_env = tmp_path / "env.json"
    out_flag = tmp_path / "flag.json"
    monkeypatch.setenv("UNABENCH_SEED", "21")
    assert main(["inject", "--ann", gt_path, "--out", str(out_env),
                 "--type", "missing", "--ratio", "0.2"]) == 0
    monkeypatch.delenv("UNABENCH_SEED")
    assert main(["inject", "--ann", gt_path, "--out", str(out_flag),
                 "--type", "missing", "--ratio", "0.2", "--seed", "21"]) == 0
    assert out_env.read_bytes() == out_flag.read_bytes()


def test_env_var_loses_to_explicit_seed(tmp_path, gt_path, monkeypatch):
    monkeypatch.setenv("UNABENCH_SEED", "21")
    out = tmp_path / "o.json"
    assert main(["inject", "--ann", gt_path, "--out", str(out),
                 "--type", "missing", "--ratio", "0.2", "--seed", "3"]) == 0
    log = json.loads((tmp_path / "o.json.log.json").read_text())
    assert log["config"]["seed"] == 3


# --- top level ----------------------------------------------------------------

def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1


def _run_module(*args):
    """``python -m unabench`` with this checkout's ``src`` first on the path."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "unabench", *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_console_script_smoke(tmp_path, gt_path):
    proc = _run_module("stats", "--ann", gt_path)
    assert proc.returncode == 0
    assert "annotations:  40" in proc.stdout


_HUGE = "1" + "0" * 400  # an integer literal too large for a float


@pytest.mark.parametrize("command, error", [
    ("stats", "annotations[0] (id=1): bbox must be four finite numbers, got [10, 10, " + _HUGE + ", 20]"),
    ("eval", "results[0]: score must be a finite number, got " + _HUGE),
])
def test_an_int_too_large_for_a_float_is_a_validation_error(tmp_path, command, error):
    gt = tmp_path / "gt.json"
    gt.write_text('{"images": [{"id": 1, "width": 100, "height": 80, "file_name": "a.jpg"}], '
                  '"categories": [{"id": 1, "name": "cat"}], "annotations": [{"id": 1, "image_id": 1, '
                  '"category_id": 1, "bbox": [10, 10, ' + ("20" if command == "eval" else _HUGE) + ', 20]}]}')
    dt = tmp_path / "dt.json"
    dt.write_text('[{"image_id": 1, "category_id": 1, "bbox": [1, 1, 4, 4], "score": ' + _HUGE + '}]')
    args = ("stats", "--ann", str(gt)) if command == "stats" else ("eval", "--gt", str(gt), "--dt", str(dt))
    proc = _run_module(*args)
    assert proc.returncode == 1
    assert error in proc.stderr
    assert "Traceback" not in proc.stderr


def test_an_id_beyond_int64_is_a_validation_error(tmp_path):
    gt = tmp_path / "gt.json"
    gt.write_text('{"images": [{"id": 9223372036854775808, "width": 100, "height": 80, "file_name": "a.jpg"}], '
                  '"categories": [{"id": 1, "name": "cat"}], "annotations": [{"id": 1, '
                  '"image_id": 9223372036854775808, "category_id": 1, "bbox": [10, 10, 20, 20]}]}')
    dt = tmp_path / "dt.json"
    dt.write_text('[{"image_id": 9223372036854775808, "category_id": 1, "bbox": [1, 1, 4, 4], "score": 0.5}]')
    proc = _run_module("eval", "--gt", str(gt), "--dt", str(dt))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error: 2 validation error(s)",
        "  - images[0]: field 'id' must be an integer from -2**63 to 2**63 - 1, got 9223372036854775808",
        "  - annotations[0] (id=1): field 'image_id' must be an integer from -2**63 to 2**63 - 1, "
        "got 9223372036854775808",
    ]


def test_console_script_error_smoke(tmp_path):
    proc = _run_module("eval", "--gt", str(tmp_path / "x.json"), "--dt", str(tmp_path / "y.json"))
    assert proc.returncode == 2
