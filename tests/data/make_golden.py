"""Regenerate the golden eval and matching fixtures.

Run from the repository root:

    python3 tests/data/make_golden.py

The numbers in ``eval_golden.json`` come from the brute-force reference
evaluator, not from the package, so that file stays an independent check.
The script fails if package and reference disagree beyond 1e-9 before
rounding.

``noise_golden.json`` pins SHA-256 digests of the injected dataset and of
its sidecar log for each case of ``conftest.noise_golden_cases``: every
noise type, both bogus size policies and two seeds. It holds the
byte-for-byte output promise of injection; any change to a stream, a draw
or the order of records shows up there.

``match_golden.json`` instead pins the package's own full-precision
``evaluate`` / ``classify_errors`` / ``tide_report`` outputs on the micro
files and on ``conftest.capped_tie_instance``, at two (tf, tb) pairs, plus
``tied_crowd_fuzz``: the SHA-256 of the same outputs over 300 seeded
``conftest.tied_crowd_instance`` draws (``conftest.match_fuzz_digest``). It
is a regression pin: rewrite it only for a deliberate change of results.
"""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from unabench import (
    BoundingBox,
    Detection,
    evaluate,
    parse_dataset,
    parse_detections,
    serialize_dataset,
)

from conftest import (
    build_dataset,
    capped_tie_instance,
    match_fuzz_digest,
    match_summary,
    noise_digests,
    noise_golden_cases,
)
from reference import evaluate_ref


def _cli_round(v: float) -> float:
    return round(v * 100, 1)


def main() -> None:
    ds = build_dataset(n_images=4, n_categories=3, n_annotations=18, seed=7)
    (HERE / "micro_gt.json").write_bytes(serialize_dataset(ds))

    rng = np.random.default_rng(11)
    dets = []
    for a in ds.annotations:
        kind = rng.integers(0, 10)
        b = a.bbox
        if kind < 6:       # jittered true positive
            dx, dy = rng.uniform(-6, 6, size=2)
            sw, sh = rng.uniform(0.78, 1.22, size=2)
            box = BoundingBox(b.x + dx, b.y + dy, b.w * sw, b.h * sh)
            cat = a.category_id
        elif kind < 8:     # right box, wrong class
            box = b
            cat = 1 + (a.category_id % len(ds.categories))
        else:              # background hit
            box = BoundingBox(float(rng.uniform(0, 500)), float(rng.uniform(0, 350)),
                              float(rng.uniform(8, 40)), float(rng.uniform(8, 40)))
            cat = int(rng.integers(1, len(ds.categories) + 1))
        dets.append(Detection(a.image_id, cat, box, float(rng.uniform(0.05, 0.99))))
    rows = [
        {"image_id": d.image_id, "category_id": d.category_id,
         "bbox": list(d.bbox.as_list()), "score": d.score}
        for d in dets
    ]
    (HERE / "micro_dt.json").write_text(json.dumps(rows, indent=1))

    ds = parse_dataset((HERE / "micro_gt.json").read_bytes())
    ref = evaluate_ref(ds, dets)
    mine = evaluate(ds, dets)
    for key in ("ap", "ap50", "ap75"):
        drift = abs(ref["overall"][key] - getattr(mine, key))
        assert drift <= 1e-9, (key, drift)
    names = {c.id: c.name for c in ds.categories}
    golden = {
        "ap": _cli_round(ref["overall"]["ap"]),
        "ap50": _cli_round(ref["overall"]["ap50"]),
        "ap75": _cli_round(ref["overall"]["ap75"]),
        "n_detections": len(dets),
        "n_ground_truths": len(ds.non_crowd),
        "per_category": [
            {"id": cat, "name": names[cat],
             "ap": _cli_round(v["ap"]), "ap50": _cli_round(v["ap50"]),
             "ap75": _cli_round(v["ap75"])}
            for cat, v in sorted(ref["per_category"].items())
        ],
    }
    (HERE / "eval_golden.json").write_text(json.dumps(golden, indent=2) + "\n")

    micro_dets = parse_detections((HERE / "micro_dt.json").read_bytes(), ds)
    pins = {"micro": match_summary(ds, micro_dets), "capped_ties": match_summary(*capped_tie_instance()),
            "tied_crowd_fuzz": match_fuzz_digest()}
    (HERE / "match_golden.json").write_text(json.dumps(pins, indent=1) + "\n")
    digests = {name: noise_digests(ds, config) for name, ds, config in noise_golden_cases()}
    (HERE / "noise_golden.json").write_text(json.dumps(digests, indent=1) + "\n")
    print("micro_gt.json, micro_dt.json, eval_golden.json, match_golden.json, "
          "noise_golden.json written")
    print("overall:", golden["ap"], golden["ap50"], golden["ap75"])


if __name__ == "__main__":
    main()
