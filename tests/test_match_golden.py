"""Exact pins of AP, error labels and oracle APs on two fixed inputs and a fuzz.

``data/match_golden.json`` holds full-precision outputs written by
``data/make_golden.py``, and the SHA-256 of the same outputs over 300
seeded tied-score/crowd instances; any drift in matching, tie order, the
per-image cap or the oracles shows up here as an exact mismatch.
"""

import json
from pathlib import Path

import pytest

from unabench import parse_dataset, parse_detections

from conftest import capped_tie_instance, match_fuzz_digest, match_summary

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = json.loads((DATA / "match_golden.json").read_text())


def _micro():
    ds = parse_dataset((DATA / "micro_gt.json").read_bytes())
    return ds, parse_detections((DATA / "micro_dt.json").read_bytes(), ds)


@pytest.mark.parametrize("name, build", [("micro", _micro), ("capped_ties", capped_tie_instance)])
def test_outputs_match_golden_exactly(name, build):
    got = match_summary(*build())
    want = GOLDEN[name]
    for section in want:
        assert got[section] == want[section], section


def test_tied_crowd_fuzz_matches_golden_digest():
    assert match_fuzz_digest() == GOLDEN["tied_crowd_fuzz"]
