"""Smoke tests of the benchmark harness at reduced input sizes.

Run from the root of a checkout with ``python3 -m pytest bench -q``. They
check the harness, not the program's speed: every workload and the traced
run complete at smoke size with no failed operation and print the metrics
``BENCHMARK.json`` names, and a broken output shows up as a failed one.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from spans import LAYER_MAP

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)


def final_result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload):
    result = final_result(run_bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                                    "--trace", "0", "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_smoke():
    result = final_result(run_bench("--workload", "score_mixed", "--seed", "5", "--trace", "1",
                                    "--smoke"))
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    spans = json.loads((ROOT / ".bench_results" / "spans-score_mixed-seed5.json").read_text())
    assert {"id", "name", "parent", "start", "end", "self"} <= set(spans["spans"][0])


def test_layer_map_matches_benchmark_json():
    assert [m["name"] for m in SPEC["per_layer"]] == list(LAYER_MAP)
    assert [m["unit"] for m in SPEC["per_layer"]] == [u for u, _ in LAYER_MAP.values()]


def test_all_workloads_in_one_command():
    proc = run_bench("--workload", "all", "--seed", "2", "--seconds", "0.1", "--smoke")
    result = final_result(proc)
    assert result["correct"]
    for name in ("inject_s", "diff_s", "eval_s", "tide_s", "injections_per_s", "fail_ratio",
                 "setup_s", "wall_s", "peak_rss_mb"):
        assert name in proc.stdout


def test_inputs_follow_the_seed(tmp_path):
    build_dataset = workloads.load_program()
    a = workloads.mixed_inputs(3, workloads.SMOKE, build_dataset)
    b = workloads.mixed_inputs(3, workloads.SMOKE, build_dataset)
    c = workloads.mixed_inputs(4, workloads.SMOKE, build_dataset)
    assert a[1] == b[1] and a[0] == b[0]
    assert a[1] != c[1]


def test_broken_output_counts_as_failed(tmp_path):
    build_dataset = workloads.load_program()
    wl = workloads.InjectVal(1, workloads.SMOKE, tmp_path, build_dataset)
    wl.setup()
    assert wl.run_pass().failed == 0
    # later passes compare bytes with the first pass
    wl.reference["missing"] = ("0" * 64, "0" * 64)
    assert wl.run_pass().failed == 1
    wl.reference.clear()
    wl.n_eligible += 10  # the sidecar counts can no longer match
    result = wl.run_pass()
    assert result.failed == 5 and result.attempted == 6 + workloads.DIFF_REPEATS


def test_missing_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "inject_val", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
