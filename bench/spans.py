"""Traced run: per-layer spans recorded around the program's public calls.

The traced run is the same whatever ``--workload`` names: it replays the
calls of all three workloads on the inputs made from the seed, so every
per-layer metric is measured in every traced run. It

1. times ``python -c "import unabench"`` (``cli.startup_s``);
2. runs each CLI command of one ``inject_val`` and one ``score_mixed`` pass
   untraced, for its wall, and right after it
3. replays the command in-process with the same public calls in the same
   order (read, parse, inject or score, serialize, write), one root span
   per command and one child span per layer call, and checks that the
   replay wrote the same bytes (or the same AP50) as the command;
4. after each command, times the reference calls that the command does not
   make on its own: ``json.loads`` of the same bytes, ``validate_dataset``,
   ``select_targets``, ``classify_errors`` and ``match_greedy`` over every
   cell;
5. times one sweep pass per dataset size.

Spans (name, start, end, parent) are kept in memory and written to
``.bench_results/spans-<workload>-seed<seed>.json`` at the end. A layer
metric is the summed self time of its spans: a span's duration minus that
of its children. ``cli.self_s`` is the self time of the replays' root
``cli.<command>`` spans: the file reads and writes and the sidecar's
``json.dumps`` that the commands do around the layer calls. It is measured
in the same process as the layer spans, so it cannot go negative; it leaves
out the interpreter start (``cli.startup_s``) and argument parsing. The
tracing overhead is the traced total (replay plus startup) against the
untraced walls.

``LAYER_MAP`` records, for every per-layer metric, which end-to-end metric
it should move on which workload.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import workloads
from workloads import INJECT_RATIO, NOISE_TYPES, SWEEP_SIZES, Ops

RESULTS = workloads.ROOT / ".bench_results"
STARTUP_REPEATS = 5

_INJECT = ("inject_val", "stage1_s (inject_s)")
_DIFF = ("inject_val", "stage2_s (diff_s)")
_EVAL = ("score_mixed", "stage1_s (eval_s)")
_TIDE = ("score_mixed", "stage2_s (tide_s)")
_SWEEP = ("inject_sweep", "wall_s (injections_per_s)")
_LOW_RATIO = ("inject_sweep", "stage1_s (low_ratio_s)")
_HIGH_RATIO = ("inject_sweep", "stage2_s (high_ratio_s)")

# metric -> (unit, the (workload, end-to-end metric) pairs it should move)
LAYER_MAP: dict[str, tuple[str, tuple[tuple[str, str], ...]]] = {
    "cli.startup_s": ("s", (_INJECT, _DIFF, _EVAL, _TIDE)),
    "cli.self_s": ("s", (_INJECT, _EVAL, _TIDE)),
    "model.parse_dataset_s": ("s", (_INJECT, _DIFF, _EVAL)),
    "model.json_loads_s": ("s", ()),  # stdlib floor for the parsed bytes
    "model.validate_dataset_s": ("s", (_INJECT, _DIFF)),
    "model.serialize_dataset_s": ("s", (_INJECT,)),
    "model.parse_detections_s": ("s", (_EVAL, _TIDE)),
    "model.records_in": ("count", ()),
    "model.bytes_in": ("bytes", ()),
    "model.bytes_out": ("bytes", ()),
    "noise.select_targets_s": ("s", (_INJECT, _SWEEP)),
    **{f"noise.inject_{t}_s": ("s", (_INJECT, _SWEEP)) for t in NOISE_TYPES},
    "noise.log_to_dict_s": ("s", (_INJECT,)),
    **{f"noise.sweep_n{n}_s": ("s", (_LOW_RATIO, _HIGH_RATIO, _SWEEP)) for n in SWEEP_SIZES},
    "noise.targets": ("count", ()),
    "noise.added": ("count", ()),
    "noise.corrupted": ("count", ()),
    "noise.us_per_target": ("us", (_INJECT, _SWEEP)),
    "metrics.evaluate_s": ("s", (_EVAL,)),
    "metrics.match_greedy_sparse_s": ("s", (_EVAL, _TIDE)),
    "metrics.match_greedy_crowded_s": ("s", (_EVAL, _TIDE)),
    "metrics.cells": ("count", ()),
    "metrics.dets_kept": ("count", ()),
    "metrics.dets_over_cap": ("count", ()),
    "metrics.max_cell_dets": ("count", ()),
    "tide.classify_errors_s": ("s", (_TIDE,)),
    "tide.tide_report_s": ("s", (_TIDE,)),
    **{f"tide.count.{k}": ("count", ()) for k in ("Cls", "Loc", "Both", "Dupe", "Bkg", "Miss")},
}


class Recorder:
    """In-memory spans with parent links, plus named counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self) -> list[float]:
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def self_by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s, t in zip(self.spans, self.self_times()):
            out[s["name"]] = out.get(s["name"], 0.0) + t
        return out

    def dump(self, path: Path) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        rows = [{"id": s["id"], "name": s["name"], "parent": s["parent"],
                 "start": s["start"] - t0, "end": s["end"] - t0, "self": t}
                for s, t in zip(self.spans, self.self_times())]
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"spans": rows, "counts": self.counts}, indent=1) + "\n")


def _parse(rec: Recorder, path: Path):
    from unabench import parse_dataset

    data = path.read_bytes()
    with rec.span("model.parse_dataset"):
        ds = parse_dataset(data)
    rec.count("model.bytes_in", len(data))
    rec.count("model.records_in", len(ds.images) + len(ds.annotations) + len(ds.categories))
    return data, ds


def _reference_model(rec: Recorder, parsed) -> None:
    from unabench import validate_dataset

    for data, ds in parsed:
        with rec.span("model.json_loads"):
            json.loads(data)
        with rec.span("model.validate_dataset"):
            validate_dataset(ds)


def replay_inject(rec: Recorder, wl, noise_type: str, workers: int, tag: str) -> list[str]:
    """The calls of ``unabench inject``; returns problems with the replay."""
    from unabench import NoiseConfig, inject, select_targets, serialize_dataset

    with rec.span(f"cli.{tag}"):
        data, ds = _parse(rec, wl.gt)
        config = NoiseConfig(noise_type=noise_type, ratio=INJECT_RATIO, seed=wl.seed)
        with rec.span(f"noise.inject_{noise_type}"):
            noisy, log = inject(ds, config, workers=workers)
        with rec.span("model.serialize_dataset"):
            payload = serialize_dataset(noisy)
        with rec.span("noise.log_to_dict"):
            log_doc = log.to_dict()
        log_payload = json.dumps(log_doc, indent=2, allow_nan=False).encode("utf-8")
        out = wl.dir / f"traced_{tag}.json"
        out.write_bytes(payload)
        Path(f"{out}.log.json").write_bytes(log_payload)
    rec.count("model.bytes_out", len(payload))
    rec.count("noise.added", len(log.added))
    rec.count("noise.corrupted", len(log.corrupted))
    rec.count("noise.targets", len(log.added) + len(log.corrupted) + len(log.removed))

    _reference_model(rec, [(data, ds)])
    kinds = ("categorization", "localization", "missing") if noise_type == "una" else (noise_type,)
    for kind in kinds:
        if kind != "bogus":
            with rec.span("noise.select_targets"):
                select_targets(ds, INJECT_RATIO, wl.seed, kind)

    same = payload == wl.out(tag).read_bytes() and log_payload == wl.log(tag).read_bytes()
    return [] if same else [f"traced {tag} wrote other bytes than CLI inject"]


def replay_diff(rec: Recorder, wl) -> list[str]:
    from unabench.cli import diff_datasets

    with rec.span("cli.diff"):
        a = _parse(rec, wl.gt)
        b = _parse(rec, wl.out("una"))
        diff_datasets(a[1], b[1])
    _reference_model(rec, [a, b])
    return []


def _cells(gt, dets):
    """Image x category cells after the per-image cap, score-ordered."""
    from unabench.metrics import MAX_DETECTIONS_PER_IMAGE

    by_image: dict[int, list[int]] = {}
    for i, d in enumerate(dets):
        by_image.setdefault(d.image_id, []).append(i)
    kept: list[int] = []
    for rows in by_image.values():
        rows.sort(key=lambda i: (-dets[i].score, i))
        kept.extend(rows[:MAX_DETECTIONS_PER_IMAGE])
    cells: dict[tuple[int, int], list] = {}
    for i in sorted(kept, key=lambda i: (-dets[i].score, i)):
        cells.setdefault((dets[i].image_id, dets[i].category_id), []).append(dets[i])
    gts: dict[tuple[int, int], list] = {}
    for a in gt.non_crowd:
        gts.setdefault((a.image_id, a.category_id), []).append(a)
    return cells, gts, len(kept)


def replay_score(rec: Recorder, wl, command: str, cli_stdout: str) -> list[str]:
    """The calls of ``unabench eval`` / ``tide`` plus their reference calls."""
    from unabench import classify_errors, evaluate, match_greedy, parse_detections, tide_report

    with rec.span(f"cli.{command}"):
        data, gt = _parse(rec, wl.gt)
        dt = wl.dt.read_bytes()
        with rec.span("model.parse_detections"):
            dets = parse_detections(dt, gt)
        if command == "eval":
            with rec.span("metrics.evaluate"):
                ap50 = evaluate(gt, dets).ap50
        else:
            with rec.span("tide.tide_report"):
                report = tide_report(gt, dets)
            ap50 = report.baseline_ap50
    rec.count("model.bytes_in", len(dt))
    rec.count("model.records_in", len(dets))
    _reference_model(rec, [(data, gt)])

    if command == "eval":
        cells, gts, n_kept = _cells(gt, dets)
        crowded_from = wl.sizes.mixed_images
        for part, crowded in (("sparse", False), ("crowded", True)):
            with rec.span(f"metrics.match_greedy_{part}"):
                for (img, cat), cell in cells.items():
                    if (img > crowded_from) == crowded:
                        match_greedy(cell, gts.get((img, cat), ()), 0.5)
        rec.counts.update({
            "metrics.cells": len(cells),
            "metrics.dets_kept": n_kept,
            "metrics.dets_over_cap": len(dets) - n_kept,
            "metrics.max_cell_dets": max(map(len, cells.values()), default=0),
        })
    else:
        with rec.span("tide.classify_errors"):
            classify_errors(gt, dets)
        for kind, n in report.counts.items():
            rec.counts[f"tide.count.{kind.value.capitalize()}"] = n

    shown = json.loads(cli_stdout)["ap50"]
    return [] if round(ap50 * 100, 1) == shown else [f"traced {command} AP50 {ap50} vs CLI {shown}"]


def traced_run(name: str, seed: int, sizes, build_dataset, workdir: Path) -> dict:
    """Per-layer metrics from one traced replay of every workload's calls."""
    val, mixed, sweep = (cls(seed, sizes, workdir / cls.name, build_dataset)
                         for cls in (workloads.InjectVal, workloads.ScoreMixed, workloads.InjectSweep))
    for wl in (val, mixed, sweep):
        workdir.joinpath(wl.name).mkdir()
        wl.setup()
        wl.warm()

    env = workloads.cli_env()
    ops = Ops()
    startup = statistics.median(
        workloads.run_python(["-c", "import unabench"], env, workdir).wall_s
        for _ in range(STARTUP_REPEATS))

    # each command runs untraced right before its replay, so both see the
    # machine in the same state
    commands = [(tag, args, val) for tag, args in val.commands()]
    commands.append(("diff", val.diff_args(), val))
    commands += [(tag, args, mixed) for tag, args in mixed.commands()]
    rec = Recorder()
    untraced: dict[str, workloads.CliRun] = {}
    for tag, args, wl in commands:
        run = untraced[tag] = workloads.run_cli(args, env, wl.dir)
        problems = workloads.exit_problems(run)
        if not problems:
            if wl is mixed:
                problems = replay_score(rec, mixed, tag, run.stdout)
            elif tag == "diff":
                problems = replay_diff(rec, val)
            else:
                una_w2 = tag == "una_w2"
                problems = replay_inject(rec, val, "una" if una_w2 else tag, 2 if una_w2 else 1, tag)
        ops.record(tag, problems)

    for n in SWEEP_SIZES:
        with rec.span(f"noise.sweep_n{n}"):
            sweep_ops = workloads.sweep_grid({n: sweep.datasets[n]}, sweep.seeds)
        ops.attempted += sweep_ops.attempted
        ops.failed += sweep_ops.failed
        ops.problems += sweep_ops.problems

    # per-command walls against their replays
    overhead = {s["name"][4:]: (s["end"] - s["start"] + startup, untraced[s["name"][4:]].wall_s)
                for s in rec.spans if s["parent"] is None and s["name"].startswith("cli.")}

    own = rec.self_by_name()
    metrics: dict[str, tuple[float, str]] = {}
    for metric, (unit, _) in LAYER_MAP.items():
        if metric.endswith("_s"):
            metrics[metric] = (own.get(metric[:-2], 0.0), unit)
        else:
            metrics[metric] = (float(rec.counts.get(metric, 0)), unit)
    metrics["cli.startup_s"] = (startup, "s")
    metrics["cli.self_s"] = (sum(t for span, t in own.items() if span.startswith("cli.")), "s")
    noise_s = sum(own.get(f"noise.inject_{t}", 0.0) for t in NOISE_TYPES)
    metrics["noise.us_per_target"] = (1e6 * noise_s / max(1, rec.counts.get("noise.targets", 0)), "us")

    rec.dump(RESULTS / f"spans-{name}-seed{seed}.json")
    traced_total = sum(t for t, _ in overhead.values())
    wall_total = sum(w for _, w in overhead.values())
    extra = {f"wall.{tag}": (w, "s") for tag, (_, w) in overhead.items()}
    extra.update({f"overhead.{tag}": (t / w, "ratio") for tag, (t, w) in overhead.items()})
    extra["overhead.total"] = (traced_total / wall_total, "ratio")
    return {
        "workload": name,
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
        "extra": extra,
        "problems": ops.problems[:20],
    }
