"""unabench benchmark: CLI inject/diff, CLI eval/tide and a library injection sweep.

Usage, from the root of a checkout::

    python3 bench/run.py --workload inject_val --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the workload untraced: it sets up its inputs at
least three times and for at least a second (``setup_s`` is the median),
warms up untimed, runs passes until ``--seconds`` have elapsed (at least
two), checks every output and reports the medians of the pass metrics.
``--trace 1`` runs the separate traced pass described in ``spans.py`` and
reports the per-layer metrics instead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it give the
machine facts and every metric under the name used in the benchmark's
documentation (``inject_s``, ``diff_s``, ``eval_s``, ``tide_s``,
``injections_per_s``, ``fail_ratio``). Exit code 0 on a completed run
(even with failed checks, which show in ``correct`` and ``failed``), 2
when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import workloads
from workloads import FULL, SMOKE, WORKLOADS, HarnessError

# set up at least SETUP_REPEATS times and for at least SETUP_MIN_S, so a
# set-up of a few milliseconds still gets a steady median
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 50
MIN_PASSES = 2
WORK_ROOT = workloads.ROOT / ".bench_work"


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without leaving ``root``."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(workloads.ROOT),
    }


def measure(name: str, seed: int, seconds: float, sizes, build_dataset, workdir: Path) -> dict:
    """Untraced run of one workload: set-up repeats, timed passes, checks."""
    wl = WORKLOADS[name](seed, sizes, workdir, build_dataset)
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or (
            sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    wl.warm()

    # after MIN_PASSES, start a pass only if a typical pass still fits, so a
    # run measures for about ``seconds`` however long one pass takes
    passes, elapsed = [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() + statistics.median(elapsed) <= deadline:
        t0 = time.perf_counter()
        passes.append(wl.run_pass())
        elapsed.append(time.perf_counter() - t0)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "stage1_s": (statistics.median(p.stage1_s for p in passes), "s"),
        "stage2_s": (statistics.median(p.stage2_s for p in passes), "s"),
        "peak_rss_mb": (max(p.peak_rss_mb for p in passes), "MB"),
    }
    # the stage metrics under the names users know them by
    aliases = dict(zip(wl.stages, ("stage1_s", "stage2_s")))
    extra = {"fail_ratio": (failed / attempted, "1"), "passes": (len(passes), "count")}
    if name == "inject_sweep":
        extra["injections_per_s"] = (statistics.median(p.attempted / p.wall_s for p in passes), "1/s")
    return {
        "workload": name,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "aliases": aliases,
        "extra": extra,
        "problems": [q for p in passes for q in p.problems][:20],
    }


def print_report(result: dict) -> None:
    name = result["workload"]
    print(f"== {name}: {result['attempted']} operations, {result['failed']} failed")
    rows = dict(result["metrics"])
    for alias, key in result.get("aliases", {}).items():
        rows[f"{alias} ({key})"] = rows.pop(key)
    rows.update(result.get("extra", {}))
    for key, (value, unit) in rows.items():
        print(f"  {key:<34} {value:>14.6g} {unit}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")


def result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    })


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced input sizes, for the benchmark's own tests")
    p.add_argument("--record-golden", action="store_true",
                   help="write the score_mixed stdout of the default seed under bench/golden")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM unwind normally, so children are killed and files removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sizes = SMOKE if args.smoke else FULL
    try:
        build_dataset = workloads.load_program()
    except (HarnessError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_golden:
            wl = workloads.ScoreMixed(workloads.DEFAULT_SEED, FULL, workdir, build_dataset)
            wl.setup()
            for path in wl.record_golden():
                print(f"wrote {path}")
            return 0
        print("machine: " + json.dumps(machine_facts()))
        if args.trace:
            import spans

            # one traced run covers the calls of every workload
            results = [spans.traced_run(args.workload, args.seed, sizes, build_dataset, workdir)]
        else:
            names = list(WORKLOADS) if args.workload == "all" else [args.workload]
            results = [measure(name, args.seed, args.seconds, sizes, build_dataset, workdir)
                       for name in names]
        for result in results:
            print_report(result)
        if len(results) == 1:
            final = results[0]
        else:
            final = {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()},
            }
        print(result_line(final))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
