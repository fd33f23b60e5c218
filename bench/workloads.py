"""Workload inputs, one measured pass per workload, and the output checks.

Every input is a pure function of the workload seed, so one seed gives the
same files and objects on every run. The program only ever sees the
generated inputs: the CLI workloads hand it files, the sweep hands it
``Dataset`` objects.

Why each workload exists (the per-layer metrics each one moves are listed
in ``spans.LAYER_MAP``):

* ``inject_val`` - one COCO-val2017-sized file (5,000 images, 36,000
  annotations, 80 categories, 1% crowd) through CLI ``inject`` once per
  noise type, ``una`` again with ``--workers 2``, then ``diff`` of the
  ``una`` output against the input (twice). Parsing and serializing in ``model``
  and planning in ``noise`` do nearly all the work; ``metrics`` and
  ``tide`` do none. ``inject`` (write path) next to ``diff`` (two parses,
  read path) shows a ``model`` change that helps one path and hurts the
  other. ``--workers 2`` is the thread pool the README invites users to
  turn on.
* ``score_mixed`` - CLI ``eval`` then ``tide`` on the acceptance
  criterion-9 input (2,000 images, 20k ground truths, 50k detections, most
  image x category cells hold 1-3 detections) plus a crowded slice of 200
  images with ~150 detections over ~40 same-category ground truths each,
  so the 100-per-image cap drops detections and cells reach 100 x 40.
  ``metrics`` and ``tide`` do most of the work and ``noise`` does none. A
  matching engine that pads every cell to the largest one looks good on
  the sparse cells and blows up on the crowded ones.
* ``inject_sweep`` - in-process library calls over the criterion-1 grid
  (datasets of 7, 100 and 1000 annotations, five injectors, ratios 0-0.4, a
  run of seeds). No files, no subprocesses: the fixed per-call and
  per-item costs in ``noise`` dominate. A ``model`` I/O change should
  leave it flat; array-at-a-time injection should move it the most.

Each pass has two stages, reported as ``stage1_s`` and ``stage2_s``:

=============  ===============================  =====================
workload       stage1_s                         stage2_s
=============  ===============================  =====================
inject_val     summed CLI ``inject`` walls      median CLI ``diff`` wall
score_mixed    CLI ``eval`` wall                CLI ``tide`` wall
inject_sweep   injections at ratios 0-0.1       injections at ratios 0.2, 0.4
=============  ===============================  =====================
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFTEST = ROOT / "tests" / "conftest.py"
GOLDEN = Path(__file__).resolve().parent / "golden"

# the seed whose score_mixed stdout is recorded under golden/
DEFAULT_SEED = 0

NOISE_TYPES = ("categorization", "localization", "missing", "bogus", "una")
INJECT_RATIO = 0.2
SWEEP_SIZES = (7, 100, 1000)
SWEEP_RATIOS = (0.0, 0.05, 0.1, 0.2, 0.4)
# below it few targets are drawn and the fixed per-call cost dominates
HIGH_RATIO = 0.2
CLI_TIMEOUT_S = 150
# one diff is a short command; its median over repeats is steadier
DIFF_REPEATS = 2


class HarnessError(RuntimeError):
    """The checkout cannot be benchmarked (missing sources, wrong import)."""


def load_program():
    """Import ``unabench`` from this checkout's ``src`` and the test dataset helper.

    Returns the ``build_dataset`` helper from ``tests/conftest.py``; raises
    :class:`HarnessError` when the checkout lacks either.
    """
    if not (SRC / "unabench" / "__init__.py").is_file() or not CONFTEST.is_file():
        raise HarnessError(f"no unabench sources under {ROOT}: need src/unabench and tests/conftest.py")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import unabench

    if Path(unabench.__file__).resolve().parent != (SRC / "unabench").resolve():
        raise HarnessError(f"imported unabench from {unabench.__file__}, not from {SRC}")
    spec = importlib.util.spec_from_file_location("unabench_test_conftest", CONFTEST)
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    return conftest.build_dataset


# --- sizes ----------------------------------------------------------------------

@dataclass(frozen=True)
class Sizes:
    val_images: int = 5000
    val_annotations: int = 36_000
    val_categories: int = 80
    mixed_images: int = 2000
    mixed_gts: int = 20_000
    mixed_random_dets: int = 10_000
    crowded_images: int = 200
    sweep_seeds: int = 5

    @property
    def full(self) -> bool:
        return self == FULL


FULL = Sizes()
# reduced sizes for the benchmark's own smoke tests; same code paths
SMOKE = Sizes(val_images=50, val_annotations=400, val_categories=8, mixed_images=40,
              mixed_gts=300, mixed_random_dets=100, crowded_images=3, sweep_seeds=1)


# --- running the CLI --------------------------------------------------------------

@dataclass
class CliRun:
    args: tuple[str, ...]
    wall_s: float
    returncode: int
    stdout: str
    stderr: str
    peak_rss_mb: float


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_python(argv: list[str], env: dict[str, str], cwd: Path) -> CliRun:
    """Run ``python argv`` to completion, timed from spawn to reap.

    The child is reaped with ``wait4`` for its own peak resident set; its
    output goes to files in ``cwd`` so nothing blocks on a full pipe.
    """
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return CliRun(tuple(argv), wall, proc.returncode, out.read().decode(), err.read().decode(),
                      usage.ru_maxrss / 1024.0)  # Linux reports KiB


def run_cli(args: list[str], env: dict[str, str], cwd: Path) -> CliRun:
    return run_python(["-m", "unabench", *args], env, cwd)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- pass results ------------------------------------------------------------------

@dataclass
class PassResult:
    wall_s: float
    stage1_s: float
    stage2_s: float
    peak_rss_mb: float  # of the processes that did the pass's work
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


class Ops:
    """Counts attempted and failed operations; keeps the first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems[:3])


def exit_problems(run: CliRun) -> list[str]:
    if run.returncode != 0:
        return [f"exit {run.returncode}: {run.stderr.strip()[-300:]}"]
    return []


# --- inject_val ----------------------------------------------------------------------

class InjectVal:
    """CLI inject per noise type, una with two workers, then diff repeated."""

    name = "inject_val"
    stages = ("inject_s", "diff_s")

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, build_dataset):
        self.seed, self.sizes, self.dir = seed, sizes, workdir
        self.build_dataset = build_dataset
        self.gt = workdir / "gt.json"
        self.env = cli_env()
        self.reference: dict[str, object] = {}  # first-pass fingerprint per command

    def setup(self) -> None:
        from unabench import serialize_dataset

        s = self.sizes
        ds = self.build_dataset(n_images=s.val_images, n_categories=s.val_categories,
                                n_annotations=s.val_annotations, seed=self.seed,
                                crowd_every=100)
        self.gt.write_bytes(serialize_dataset(ds))
        self.n_eligible = len(ds.non_crowd)

    def warm(self) -> None:
        """Fill the bytecode and page caches before timing; not part of set-up."""
        run_python(["-c", "import unabench"], self.env, self.dir)

    def out(self, tag: str) -> Path:
        return self.dir / f"{tag}.json"

    def log(self, tag: str) -> Path:
        return self.dir / f"{tag}.json.log.json"

    def inject_args(self, noise_type: str, tag: str, workers: int) -> list[str]:
        return ["inject", "--ann", str(self.gt), "--out", str(self.out(tag)),
                "--type", noise_type, "--ratio", str(INJECT_RATIO), "--seed", str(self.seed),
                "--workers", str(workers)]

    def commands(self) -> list[tuple[str, list[str]]]:
        cmds = [(t, self.inject_args(t, t, 1)) for t in NOISE_TYPES]
        cmds.append(("una_w2", self.inject_args("una", "una_w2", 2)))
        return cmds

    def diff_args(self) -> list[str]:
        return ["diff", str(self.gt), str(self.out("una")), "--format", "json"]

    def run_pass(self) -> PassResult:
        ops = Ops()
        runs: dict[str, CliRun] = {}
        t0 = time.perf_counter()
        for tag, args in self.commands():
            runs[tag] = run_cli(args, self.env, self.dir)
        diffs = [run_cli(self.diff_args(), self.env, self.dir) for _ in range(DIFF_REPEATS)]
        wall = time.perf_counter() - t0
        for tag, run in [*runs.items(), *(("diff", d) for d in diffs)]:
            ops.record(tag, exit_problems(run) or self.check(tag, run))
        return PassResult(wall, sum(r.wall_s for r in runs.values()),
                          statistics.median(d.wall_s for d in diffs),
                          max(r.peak_rss_mb for r in [*runs.values(), *diffs]),
                          ops.attempted, ops.failed, ops.problems)

    def check(self, tag: str, run: CliRun) -> list[str]:
        """First pass: full checks. Later passes: the same bytes as the first."""
        if tag == "diff":
            fingerprint = hashlib.sha256(run.stdout.encode()).hexdigest()
        else:
            fingerprint = (sha256(self.out(tag)), sha256(self.log(tag)))
        if tag in self.reference:
            return [] if fingerprint == self.reference[tag] else ["output differs from the first pass"]
        self.reference[tag] = fingerprint
        if tag == "diff":
            return check_diff(self, json.loads(run.stdout))
        if tag == "una_w2":
            return [] if fingerprint == self.reference.get("una") else ["--workers 2 output differs from --workers 1"]
        return check_injected(self.out(tag), self.log(tag), tag, self.n_eligible)


def check_injected(out: Path, log_path: Path, noise_type: str, n_eligible: int) -> list[str]:
    """The output re-parses and the sidecar counts equal ``exact_count``."""
    from unabench import ValidationError, exact_count, parse_dataset

    try:
        parse_dataset(out.read_bytes())
    except ValidationError as e:
        return [f"output does not re-parse: {e}"]
    counts = json.loads(log_path.read_text())["counts"]
    k = exact_count(INJECT_RATIO, n_eligible)
    kinds = ("categorization", "localization", "missing", "bogus")
    want = {kind: (k if noise_type in (kind, "una") else 0) for kind in kinds}
    return [] if counts == want else [f"sidecar counts {counts}, expected {want}"]


def check_diff(wl: InjectVal, diff: dict) -> list[str]:
    """``diff`` reconciles with the ``una`` sidecar (acceptance criterion 8)."""
    from unabench import parse_dataset

    log = json.loads(wl.log("una").read_text())
    noisy = parse_dataset(wl.out("una").read_bytes()).annotations_by_id
    removed = set(log["removed"])
    flipped = {e["id"] for e in log["corrupted"] if "categorization" in e["kinds"]} - removed
    # a last-resort jitter may land back on the original box; only ids whose
    # box really moved show up in the diff
    moved = {e["id"] for e in log["corrupted"]
             if "localization" in e["kinds"] and e["id"] not in removed
             and noisy[e["id"]].bbox.as_list() != e["old_bbox"]}
    want = {
        "category_changed": sorted(flipped),
        "bbox_changed": sorted(moved),
        "other_changed": [],
        "removed": sorted(removed),
        "added": sorted(log["added"]),
    }
    return [f"diff {key}: {len(diff[key])} ids, sidecar says {len(ids)}"
            for key, ids in want.items() if diff[key] != ids]


# --- score_mixed ----------------------------------------------------------------------

def mixed_inputs(seed: int, sizes: Sizes, build_dataset):
    """Criterion-9 ground truth and detections plus the crowded slice.

    Returns the ground-truth ``Dataset`` and the detections as results-file
    bytes. Sparse part: two jittered copies of every ground truth (20% with
    a random class) plus random background boxes. Crowded slice: per image
    one class, 36-44 ground truths and 140-160 jittered copies of them.
    """
    from unabench import Annotation, BoundingBox, Dataset, ImageRecord

    s = sizes
    base = build_dataset(n_images=s.mixed_images, n_categories=80,
                         n_annotations=s.mixed_gts, seed=seed)
    rng = np.random.default_rng([seed, 9])
    parts = []

    def jittered(boxes, image_ids, cats):
        n = len(boxes)
        shift = rng.uniform(-8, 8, size=(n, 2))
        scale = rng.uniform(0.8, 1.2, size=(n, 2))
        out = np.concatenate([boxes[:, :2] + shift, boxes[:, 2:] * scale], axis=1)
        parts.append((image_ids, cats, out, rng.random(n)))

    boxes = np.array([a.bbox.as_list() for a in base.annotations]).repeat(2, axis=0)
    image_ids = np.array([a.image_id for a in base.annotations]).repeat(2)
    cats = np.array([a.category_id for a in base.annotations]).repeat(2)
    relabel = rng.random(len(cats)) >= 0.8
    cats[relabel] = rng.integers(1, 81, size=int(relabel.sum()))
    jittered(boxes, image_ids, cats)
    n = s.mixed_random_dets
    background = np.stack([rng.uniform(0, 600, n), rng.uniform(0, 440, n),
                           rng.uniform(5, 40, n), rng.uniform(5, 40, n)], axis=1)
    parts.append((rng.integers(1, s.mixed_images + 1, size=n), rng.integers(1, 81, size=n),
                  background, rng.random(n)))

    images = list(base.images)
    anns = list(base.annotations)
    next_id = base.max_annotation_id() + 1
    for k in range(s.crowded_images):
        img = ImageRecord(s.mixed_images + k + 1, 640, 480, f"crowded_{k + 1:06d}.jpg")
        images.append(img)
        cat = int(rng.integers(1, 81))
        n_gt = int(rng.integers(36, 45))
        wh = rng.uniform(20, 80, size=(n_gt, 2))
        xy = rng.uniform(0, 1, size=(n_gt, 2)) * ([640, 480] - wh)
        gt_boxes = np.concatenate([xy, wh], axis=1)
        anns.extend(Annotation(next_id + j, img.id, cat, BoundingBox(*map(float, b)))
                    for j, b in enumerate(gt_boxes))
        next_id += n_gt
        n_det = int(rng.integers(140, 161))
        picks = gt_boxes[rng.integers(0, n_gt, size=n_det)]
        jittered(picks, np.full(n_det, img.id), np.full(n_det, cat))

    records = [
        {"image_id": i, "category_id": c, "bbox": b, "score": sc}
        for image_ids, cats, boxes, scores in parts
        for i, c, b, sc in zip(image_ids.tolist(), cats.tolist(), boxes.tolist(), scores.tolist())
    ]
    return Dataset(tuple(images), tuple(anns), base.categories), json.dumps(records).encode()


class ScoreMixed:
    """CLI eval then CLI tide on sparse cells plus a crowded slice."""

    name = "score_mixed"
    stages = ("eval_s", "tide_s")

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, build_dataset):
        self.seed, self.sizes, self.dir = seed, sizes, workdir
        self.build_dataset = build_dataset
        self.gt, self.dt = workdir / "gt.json", workdir / "dt.json"
        self.env = cli_env()
        self.reference: dict[str, str] = {}

    def setup(self) -> None:
        from unabench import serialize_dataset

        gt, dt = mixed_inputs(self.seed, self.sizes, self.build_dataset)
        self.gt.write_bytes(serialize_dataset(gt))
        self.dt.write_bytes(dt)

    def warm(self) -> None:
        """Fill the bytecode and page caches before timing; not part of set-up."""
        run_python(["-c", "import unabench"], self.env, self.dir)

    def commands(self) -> list[tuple[str, list[str]]]:
        return [(cmd, [cmd, "--gt", str(self.gt), "--dt", str(self.dt), "--format", "json"])
                for cmd in ("eval", "tide")]

    def run_pass(self) -> PassResult:
        ops = Ops()
        t0 = time.perf_counter()
        runs = {tag: run_cli(args, self.env, self.dir) for tag, args in self.commands()}
        wall = time.perf_counter() - t0
        for tag, run in runs.items():
            ops.record(tag, exit_problems(run) or self.check(tag, run))
        if not ops.failed:
            ops.record("eval/tide ap50", check_same_ap50(runs["eval"].stdout, runs["tide"].stdout))
        return PassResult(wall, runs["eval"].wall_s, runs["tide"].wall_s,
                          max(r.peak_rss_mb for r in runs.values()), ops.attempted, ops.failed,
                          ops.problems)

    def golden(self, tag: str) -> Path | None:
        if self.seed != DEFAULT_SEED or not self.sizes.full:
            return None
        return GOLDEN / f"{self.name}_seed{DEFAULT_SEED}_{tag}.json"

    def check(self, tag: str, run: CliRun) -> list[str]:
        if tag in self.reference:
            return [] if self.reference[tag] == run.stdout else [f"{tag} stdout differs from the first pass"]
        self.reference[tag] = run.stdout
        problems = check_eval(run.stdout) if tag == "eval" else check_tide(run.stdout)
        golden = self.golden(tag)
        if golden is not None and golden.read_text() != run.stdout:
            problems.append(f"{tag} stdout differs from {golden.relative_to(ROOT)}")
        return problems

    def record_golden(self) -> list[Path]:
        """Write this seed's eval/tide stdout as the recorded outputs."""
        written = []
        for tag, args in self.commands():
            run = run_cli(args, self.env, self.dir)
            if run.returncode != 0:
                raise HarnessError(f"{tag} exited {run.returncode}: {run.stderr}")
            path = self.golden(tag)
            path.parent.mkdir(exist_ok=True)
            path.write_text(run.stdout)
            written.append(path)
        return written


def check_eval(stdout: str) -> list[str]:
    doc = json.loads(stdout)
    return [] if 0.0 < doc["ap50"] <= 100.0 else [f"AP50 {doc['ap50']} outside (0, 100]"]


def check_tide(stdout: str) -> list[str]:
    doc = json.loads(stdout)
    problems = [] if 0.0 < doc["ap50"] <= 100.0 else [f"AP50 {doc['ap50']} outside (0, 100]"]
    problems += [f"negative dAP for {kind}: {e['delta_ap']}"
                 for kind, e in doc["errors"].items() if e["delta_ap"] < 0.0]
    return problems


def check_same_ap50(eval_stdout: str, tide_stdout: str) -> list[str]:
    a, b = json.loads(eval_stdout)["ap50"], json.loads(tide_stdout)["ap50"]
    # both are rounded to one decimal from the same AP50
    return [] if abs(a - b) <= 0.1 + 1e-9 else [f"eval AP50 {a} != tide AP50 {b}"]


# --- inject_sweep ---------------------------------------------------------------------

def sweep_injectors():
    from unabench import (
        inject_bogus, inject_categorization, inject_localization, inject_missing, inject_una,
    )

    return (
        ("categorization", inject_categorization),
        ("localization", lambda ds, r, s: inject_localization(ds, r, seed=s)),
        ("missing", inject_missing),
        ("bogus", inject_bogus),
        ("una", lambda ds, r, s: inject_una(ds, r, seed=s)),
    )


def sweep_grid(datasets, seeds, on_call=None) -> Ops:
    """Run every (size, ratio, seed, injector) once and check the counts.

    ``on_call(ratio, seconds)`` receives the wall of each injection call.
    """
    from unabench import exact_count

    ops = Ops()
    injectors = sweep_injectors()
    for n, ds in datasets.items():
        for r in SWEEP_RATIOS:
            k = exact_count(r, n)
            for s in seeds:
                for name, fn in injectors:
                    t0 = time.perf_counter()
                    noisy, log = fn(ds, r, s)
                    if on_call is not None:
                        on_call(r, time.perf_counter() - t0)
                    counts = log.counts()
                    if name == "una":
                        bad = set(counts.values()) != {k} or len(noisy.annotations) != n
                    else:
                        bad = counts[name] != k
                    ops.record(name, [f"n={n} ratio={r} seed={s}: counts {counts}, expected {k}"] if bad else [])
    return ops


class InjectSweep:
    """In-process injections over the criterion-1 grid."""

    name = "inject_sweep"
    stages = ("low_ratio_s", "high_ratio_s")

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, build_dataset):
        self.seed, self.sizes = seed, sizes
        self.build_dataset = build_dataset

    def setup(self) -> None:
        self.datasets = {
            n: self.build_dataset(n_images=max(2, n // 10), n_categories=5, n_annotations=n,
                                  seed=self.seed * 1009 + n)
            for n in SWEEP_SIZES
        }
        rng = np.random.default_rng([self.seed, 1])
        self.seeds = [int(v) for v in rng.integers(0, 2**63, size=self.sizes.sweep_seeds)]

    def warm(self) -> None:
        """One untimed pass fills the datasets' lazily built lookups."""
        sweep_grid(self.datasets, self.seeds)

    def run_pass(self) -> PassResult:
        split = [0.0, 0.0]

        def on_call(ratio, seconds):
            split[ratio >= HIGH_RATIO] += seconds

        t0 = time.perf_counter()
        ops = sweep_grid(self.datasets, self.seeds, on_call)
        wall = time.perf_counter() - t0
        # mostly the harness's floor (interpreter, numpy, set-up): the
        # datasets are too small for anything but a blow-up to move it
        return PassResult(wall, split[0], split[1], self_peak_rss_mb(),
                          ops.attempted, ops.failed, ops.problems)


# the sweep first: its peak RSS is that of this process, which later set-ups raise
WORKLOADS = {cls.name: cls for cls in (InjectSweep, InjectVal, ScoreMixed)}
