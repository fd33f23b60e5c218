"""Command-line frontend: inject, eval, tide, stats, diff.

Flags mirror the library config field names one-to-one. Any flag may also
come from a ``key = value`` config file (``--config``), with the command
line taking precedence; the environment variable ``UNABENCH_SEED`` supplies
the default seed only. Exit codes: 0 success, 1 validation or domain error,
2 I/O error. Nothing is written on a validation failure, and ``inject``
moves its dataset and sidecar log into place only once both are written
and synced.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import secrets
import sys
from collections import Counter
from enum import Enum
from functools import partial
from pathlib import Path

import numpy as np

from .metrics import EvalSummary, evaluate
from .model import (Dataset, ValidationError, _Columns, _detection_table, parse_dataset,
                    serialize_dataset)
from .noise import _EDIT_KINDS, DEFAULT_LOC_DELTA, BogusSizePolicy, InjectionLog, NoiseConfig, NoiseType, inject
from .tide import DEFAULT_TB, DEFAULT_TF, ERROR_ORDER, ErrorKind, TideReport, tide_report

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

SEED_ENV_VAR = "UNABENCH_SEED"

_FORMATS = ("text", "csv", "json")


class CliError(Exception):
    """Validation or usage problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _conv_str(flag: str, raw: str) -> str:
    return raw


def _conv_enum(enum: type[Enum], flag: str, raw: str) -> Enum:
    try:
        return enum(raw)
    except ValueError:
        valid = ", ".join(m.value for m in enum)
        raise CliError(f"{flag} must be one of {{{valid}}}, got {raw!r}") from None


def _conv_format(flag: str, raw: str) -> str:
    # the json format is a single JSON document; accept the long spelling too
    value = "json" if raw == "json-doc" else raw
    if value not in _FORMATS:
        raise CliError(f"{flag} must be one of {{text, csv, json}}, got {raw!r}")
    return value


def _conv_number(kind: type, ok, bounds: str, flag: str, raw: str):
    """Parse ``raw`` as a ``kind`` and check it with ``ok``; ``bounds`` words the range."""
    try:
        v = kind(raw)
    except (TypeError, ValueError):
        raise CliError(f"{flag} expects a number, got {raw!r}") from None
    if not ok(v):
        raise CliError(f"{flag} must be {bounds}, got {raw}")
    return v


_conv_open_unit = partial(_conv_number, float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
_conv_seed = partial(_conv_number, int, lambda v: 0 <= v < 2**64, "in [0, 2**64)")

# option name -> (converter, default); None defaults mean "required if the
# subcommand lists it as required"
_OPTIONS: dict[str, tuple] = {
    "ann": (_conv_str, None),
    "out": (_conv_str, None),
    "gt": (_conv_str, None),
    "dt": (_conv_str, None),
    "type": (partial(_conv_enum, NoiseType), None),
    "ratio": (partial(_conv_number, float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]"), None),
    "seed": (_conv_seed, 0),
    "loc_delta": (_conv_open_unit, DEFAULT_LOC_DELTA),
    "bogus_size_policy": (partial(_conv_enum, BogusSizePolicy), BogusSizePolicy.SAMPLE_EXISTING),
    "tf": (partial(_conv_number, float, lambda v: 0.0 < v <= 1.0, "in (0, 1]"), DEFAULT_TF),
    "tb": (_conv_open_unit, DEFAULT_TB),
    "format": (_conv_format, "text"),
    "workers": (partial(_conv_number, int, lambda v: v >= 1, "at least 1"), 1),
}

_SUBCOMMANDS: dict[str, dict] = {
    "inject": {
        "help": "corrupt an annotation file with one noise type (or all of them)",
        "options": ("ann", "out", "type", "ratio", "seed", "loc_delta",
                    "bogus_size_policy", "workers"),
        "required": ("ann", "out", "type", "ratio"),
    },
    "eval": {
        "help": "score a detection results file against ground truth",
        "options": ("gt", "dt", "format"),
        "required": ("gt", "dt"),
    },
    "tide": {
        "help": "decompose detection errors into the six components",
        "options": ("gt", "dt", "tf", "tb", "format"),
        "required": ("gt", "dt"),
    },
    "stats": {
        "help": "summarize an annotation file",
        "options": ("ann", "format"),
        "required": ("ann",),
    },
    "diff": {
        "help": "compare two annotation files",
        "options": ("format",),
        "required": (),
    },
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="unabench", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    for name, spec in _SUBCOMMANDS.items():
        sp = subs.add_parser(name, help=spec["help"])
        sp.set_defaults(subcommand=name)
        for opt in spec["options"]:
            sp.add_argument(f"--{opt.replace('_', '-')}", dest=opt, default=None)
        sp.add_argument("--config", default=None,
                        help="key = value file supplying any flag; command line wins")
        if name == "diff":
            sp.add_argument("path_a", help="baseline annotation file")
            sp.add_argument("path_b", help="comparison annotation file")
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    """Parse a ``key = value`` manifest; ``#`` starts a comment."""
    text = Path(path).read_text(encoding="utf-8")
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key.replace("-", "_")] = value
    return out


def _resolve(args: argparse.Namespace, name: str) -> dict:
    """Merge command line over config file over env/defaults, then convert."""
    spec = _SUBCOMMANDS[name]
    config: dict[str, str] = {}
    if args.config is not None:
        config = _read_config_file(args.config)
        unknown = set(config) - set(spec["options"])
        if unknown:
            raise CliError(
                f"{args.config}: unknown option(s) for '{name}': "
                + ", ".join(sorted(unknown))
            )
    resolved: dict = {}
    for opt in spec["options"]:
        conv, default = _OPTIONS[opt]
        flag = f"--{opt.replace('_', '-')}"
        raw = getattr(args, opt)
        if raw is None:
            raw = config.get(opt)
        if raw is None:
            if opt == "seed" and os.environ.get(SEED_ENV_VAR):
                resolved[opt] = _conv_seed(SEED_ENV_VAR, os.environ[SEED_ENV_VAR])
            else:
                resolved[opt] = default
            continue
        resolved[opt] = conv(flag, str(raw))
    missing = [f"--{opt.replace('_', '-')}" for opt in spec["required"] if resolved.get(opt) is None]
    if missing:
        raise CliError(f"missing required flag(s): {', '.join(missing)}")
    if "tf" in resolved and resolved["tb"] >= resolved["tf"]:
        raise CliError(
            f"--tb must be smaller than --tf, got tb={resolved['tb']}, tf={resolved['tf']}"
        )
    return resolved


def _fmt_ap(v: float) -> float:
    """Display convention: AP-family values are x100 with one decimal."""
    return round(v * 100, 1)


def _load_dataset(path: str) -> Dataset:
    return parse_dataset(Path(path).read_bytes())


def _load_scoring(opts: dict) -> tuple[Dataset, _Columns]:
    """Ground truth and the results file as columns: scoring builds no detection records."""
    gt = _load_dataset(opts["gt"])
    return gt, _detection_table(Path(opts["dt"]).read_bytes(), gt)


def _write_all(files: list[tuple[Path, bytes]]) -> None:
    """Write each file to a temp file in its directory, then move them into
    place in the given order, only after every write succeeded.

    Every temp file is fsynced before the first move, and every directory
    after the last, so no move can outlive a power cut with a partly written
    file behind it. A path that is a symlink is replaced by a regular file,
    not written through: the temp file and the move stay in the directory
    the caller named. The temp files are removed whatever happens.
    """
    temps: list[Path] = []
    try:
        for path, data in files:
            # not mkstemp: its 0600 mode would end up on the outputs
            tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
            with tmp.open("xb") as f:
                temps.append(tmp)
                f.write(data)
                f.flush()
                os.fsync(f.fileno())
        for (path, _), tmp in zip(files, temps):
            os.replace(tmp, path)
        for directory in dict.fromkeys(path.parent for path, _ in files):
            fd = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)


def _json_array(rows: list[str], indent: str) -> str:
    """Encoded ``rows`` as ``json.dumps(indent=2)`` lays out an array nested ``indent`` deep."""
    if not rows:
        return "[]"
    return f"[\n{indent}  " + f",\n{indent}  ".join(rows) + f"\n{indent}]"


def _json_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")
    return repr(float(v))


_KINDS_JSON = {marks: _json_array(list(map(json.dumps, kinds)), "      ") for marks, kinds in _EDIT_KINDS.items()}


def _edit_rows(log: InjectionLog) -> list[str]:
    """The ``corrupted`` array's encoded entries, from the log's edits table."""
    ids, flipped, moved, old_categories, old_boxes = log._edits
    boxes = old_boxes[moved]
    bad = boxes[~np.isfinite(boxes)]
    if len(bad):
        _json_float(bad[0].item())  # raises on the first, as json.dumps does
    box_rows = iter([_json_array(list(map(repr, b)), "      ") for b in boxes.tolist()])
    rows = []
    for i, f, m, c in zip(ids.tolist(), flipped.tolist(), moved.tolist(), old_categories.tolist()):
        row = f'{{\n      "id": {i},\n      "kinds": {_KINDS_JSON[f, m]}'
        if f:
            row += f',\n      "old_category_id": {c}'
        if m:
            row += ',\n      "old_bbox": ' + next(box_rows)
        rows.append(row + "\n    }")
    return rows


def sidecar_json(log: InjectionLog) -> str:
    """The sidecar log, exactly ``json.dumps(log.to_dict(), indent=2, allow_nan=False)``, written
    a row at a time from the log's edits table: the standard encoder does indented output in pure
    Python."""
    head = {"config": log.config.to_dict(), "counts": log.counts()}
    fields = [f'"{key}": ' + json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  ")
              for key, value in head.items()]
    fields.append('"corrupted": ' + _json_array(_edit_rows(log), "  "))
    fields += [f'"{key}": ' + _json_array(list(map(str, ids)), "  ")
               for key, ids in (("removed", log.removed), ("added", log.added))]
    return "{\n  " + ",\n  ".join(fields) + "\n}"


def cmd_inject(opts: dict) -> int:
    out = Path(opts["out"])
    log_path = Path(f"{opts['out']}.log.json")
    if Path(opts["ann"]).resolve() in (out.resolve(), log_path.resolve()):
        raise CliError(f"--out {opts['out']} would overwrite --ann {opts['ann']}")
    ds = _load_dataset(opts["ann"])
    config = NoiseConfig(
        noise_type=opts["type"],
        ratio=opts["ratio"],
        seed=opts["seed"],
        loc_delta=opts["loc_delta"],
        bogus_size_policy=opts["bogus_size_policy"],
    )
    noisy, log = inject(ds, config, workers=opts["workers"])
    payload = serialize_dataset(noisy)
    log_payload = sidecar_json(log).encode("utf-8")
    # the sidecar goes first, so no dataset is ever left without its log
    _write_all([(log_path, log_payload), (out, payload)])
    counts = log.counts()
    print(f"wrote {out} ({len(noisy._table.ids)} annotations) and {log_path}")
    print(f"noise type: {config.noise_type.value}, ratio: {config.ratio}, seed: {config.seed}")
    for kind in ("categorization", "localization", "missing", "bogus"):
        print(f"  {kind + ':':<16} {counts[kind]}")
    return EXIT_OK


def _render_eval(summary: EvalSummary, gt: Dataset, fmt: str) -> str:
    names = {c.id: c.name for c in gt.categories}
    rows = [("overall", summary.ap, summary.ap50, summary.ap75)]
    for cat in sorted(summary.per_category):
        t = summary.per_category[cat]
        rows.append((names.get(cat, str(cat)), t.ap, t.ap50, t.ap75))
    if fmt == "json":
        doc = {
            "ap": _fmt_ap(summary.ap),
            "ap50": _fmt_ap(summary.ap50),
            "ap75": _fmt_ap(summary.ap75),
            "n_detections": summary.n_detections,
            "n_ground_truths": summary.n_ground_truths,
            "per_category": [
                {"id": cat, "name": names.get(cat, str(cat)),
                 "ap": _fmt_ap(t.ap), "ap50": _fmt_ap(t.ap50), "ap75": _fmt_ap(t.ap75)}
                for cat, t in sorted(summary.per_category.items())
            ],
        }
        return json.dumps(doc, indent=2, allow_nan=False)
    if fmt == "csv":
        lines = ["category,ap,ap50,ap75"]
        lines += [f"{name},{v1 * 100:.1f},{v2 * 100:.1f},{v3 * 100:.1f}"
                  for name, v1, v2, v3 in rows]
        return "\n".join(lines)
    width = max(8, max(len(r[0]) for r in rows))
    lines = [f"{'category':<{width}}  {'AP':>6}  {'AP50':>6}  {'AP75':>6}"]
    lines += [
        f"{name:<{width}}  {v1 * 100:>6.1f}  {v2 * 100:>6.1f}  {v3 * 100:>6.1f}"
        for name, v1, v2, v3 in rows
    ]
    return "\n".join(lines)


def cmd_eval(opts: dict) -> int:
    gt, dets = _load_scoring(opts)
    print(_render_eval(evaluate(gt, dets), gt, opts["format"]))
    return EXIT_OK


_TIDE_COLUMNS = ("Cls", "Loc", "Both", "Dupe", "Bkg", "Miss")


def _render_tide(report: TideReport, fmt: str) -> str:
    cells = {
        kind: f"{report.delta_ap[kind] * 100:.1f} ({report.oracle_ap[kind] * 100:.1f})"
        for kind in ERROR_ORDER
    }
    if fmt == "json":
        doc = {
            "ap50": _fmt_ap(report.baseline_ap50),
            "tf": report.tf,
            "tb": report.tb,
            "errors": {
                kind.value: {
                    "delta_ap": _fmt_ap(report.delta_ap[kind]),
                    "oracle_ap": _fmt_ap(report.oracle_ap[kind]),
                    "count": report.counts[kind],
                }
                for kind in ERROR_ORDER
            },
        }
        return json.dumps(doc, indent=2, allow_nan=False)
    if fmt == "csv":
        header = "ap50," + ",".join(c.lower() for c in _TIDE_COLUMNS)
        row = f"{report.baseline_ap50 * 100:.1f}," + ",".join(cells[k] for k in ERROR_ORDER)
        return header + "\n" + row
    width = max(len(c) for c in map(str, cells.values()))
    width = max(width, 6)
    header = f"{'AP50':>6}  " + "  ".join(f"{c:>{width}}" for c in _TIDE_COLUMNS)
    row = f"{report.baseline_ap50 * 100:>6.1f}  " + "  ".join(
        f"{cells[k]:>{width}}" for k in ERROR_ORDER
    )
    return header + "\n" + row


def cmd_tide(opts: dict) -> int:
    gt, dets = _load_scoring(opts)
    print(_render_tide(tide_report(gt, dets, tf=opts["tf"], tb=opts["tb"]), opts["format"]))
    return EXIT_OK


def dataset_stats(ds: Dataset) -> dict:
    """Counting summary: sizes, per-category counts, box-area quantiles."""
    t = ds._table
    counts = Counter(t.categories.tolist())
    per_category = [
        {"id": c.id, "name": c.name, "count": counts[c.id]}
        for c in sorted(ds.categories, key=lambda c: c.id)
    ]
    stats = {
        "images": len(ds.images),
        "annotations": len(t.ids),
        "crowd": int(t.crowd.sum()),
        "categories": len(ds.categories),
        "per_category": per_category,
        "box_area_quantiles": None,
    }
    if len(t.ids):
        q = np.percentile(t.boxes[:, 2] * t.boxes[:, 3], [0, 25, 50, 75, 100])
        stats["box_area_quantiles"] = {
            "min": float(q[0]), "p25": float(q[1]), "p50": float(q[2]),
            "p75": float(q[3]), "max": float(q[4]),
        }
    return stats


def _render_stats(stats: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(stats, indent=2, allow_nan=False)
    if fmt == "csv":
        lines = ["section,name,value"]
        for key in ("images", "annotations", "crowd", "categories"):
            lines.append(f"summary,{key},{stats[key]}")
        for row in stats["per_category"]:
            lines.append(f"category,{row['name']},{row['count']}")
        if stats["box_area_quantiles"]:
            for key, v in stats["box_area_quantiles"].items():
                lines.append(f"box_area_quantile,{key},{v}")
        return "\n".join(lines)
    lines = [
        f"images:       {stats['images']}",
        f"annotations:  {stats['annotations']} ({stats['crowd']} crowd)",
        f"categories:   {stats['categories']}",
    ]
    if stats["per_category"]:
        width = max(8, max(len(r["name"]) for r in stats["per_category"]))
        lines.append("")
        lines.append(f"{'category':<{width}}  count")
        lines += [f"{r['name']:<{width}}  {r['count']}" for r in stats["per_category"]]
    if stats["box_area_quantiles"]:
        q = stats["box_area_quantiles"]
        lines.append("")
        lines.append(
            "box area quantiles: "
            + "  ".join(f"{k} {q[k]:.1f}" for k in ("min", "p25", "p50", "p75", "max"))
        )
    return "\n".join(lines)


def cmd_stats(opts: dict) -> int:
    ds = _load_dataset(opts["ann"])
    print(_render_stats(dataset_stats(ds), opts["format"]))
    return EXIT_OK


def diff_datasets(a: Dataset, b: Dataset) -> dict:
    """Annotation-level differences from ``a`` to ``b``, as sorted id lists.

    ``other_changed`` catches field changes the injectors never make
    (image_id, crowd flag, or area drifting from its box).
    """
    for ds in (a, b):
        ds._id_order  # raises, naming a duplicated id
    ta, tb = a._table, b._table
    common, ia, ib = np.intersect1d(ta.ids, tb.ids, assume_unique=True, return_indices=True)
    same_box = (ta.boxes[ia] == tb.boxes[ib]).all(axis=1)
    other = ((ta.images[ia] != tb.images[ib]) | (ta.crowd[ia] != tb.crowd[ib])
             | (same_box & (ta.areas[ia] != tb.areas[ib])))
    return {
        "category_changed": common[ta.categories[ia] != tb.categories[ib]].tolist(),
        "bbox_changed": common[~same_box].tolist(),
        "other_changed": common[other].tolist(),
        "removed": np.sort(ta.ids[~np.isin(ta.ids, tb.ids)]).tolist(),
        "added": np.sort(tb.ids[~np.isin(tb.ids, ta.ids)]).tolist(),
    }


def _render_diff(diff: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(diff, indent=2, allow_nan=False)
    if fmt == "csv":
        lines = ["change,id"]
        for key, ids in diff.items():
            lines += [f"{key},{i}" for i in ids]
        return "\n".join(lines)
    def show(ids):
        if not ids:
            return "0"
        shown = ", ".join(str(i) for i in ids[:20])
        extra = ", ..." if len(ids) > 20 else ""
        return f"{len(ids)} (ids: {shown}{extra})"
    return "\n".join(
        f"{key.replace('_', ' ') + ':':<18} {show(ids)}" for key, ids in diff.items()
    )


def cmd_diff(opts: dict, path_a: str, path_b: str) -> int:
    a = _load_dataset(path_a)
    b = _load_dataset(path_b)
    print(_render_diff(diff_datasets(a, b), opts["format"]))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "subcommand", None) is None:
            parser.print_usage(sys.stderr)
            return EXIT_VALIDATION
        opts = _resolve(args, args.subcommand)
        if args.subcommand == "inject":
            return cmd_inject(opts)
        if args.subcommand == "eval":
            return cmd_eval(opts)
        if args.subcommand == "tide":
            return cmd_tide(opts)
        if args.subcommand == "stats":
            return cmd_stats(opts)
        return cmd_diff(opts, args.path_a, args.path_b)
    except ValidationError as e:
        print(f"error: {len(e.errors)} validation error(s)", file=sys.stderr)
        for msg in e.errors:
            print(f"  - {msg}", file=sys.stderr)
        return EXIT_VALIDATION
    except (CliError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    """The console script. A command's data holds no reference cycles and its process is
    short-lived, so cyclic GC, which rescans every live container as the heap grows, is off
    for the whole run; :func:`main` leaves the interpreter's default to tests and library callers."""
    gc.disable()
    sys.exit(main())


if __name__ == "__main__":
    entry()
