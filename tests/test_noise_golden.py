"""Byte-for-byte pins of injected output.

``data/noise_golden.json`` holds SHA-256 digests, written by
``data/make_golden.py``, of ``serialize_dataset(noisy)`` and of the sidecar
log for every case of ``conftest.noise_golden_cases``. A change to a
stream key, a draw, the draw order or the record order fails here, where a
run-to-run comparison would still pass. CLI ``inject`` is checked against the
same digests on the cases' inputs written to files.
"""

import hashlib
import json
from pathlib import Path

import pytest

from unabench import serialize_dataset
from unabench.cli import main

from conftest import noise_digests, noise_golden_cases

GOLDEN = json.loads((Path(__file__).resolve().parent / "data" / "noise_golden.json").read_text())
CASES = noise_golden_cases()


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(name for name, _, _ in CASES)


@pytest.mark.parametrize("name, ds, config", CASES, ids=[name for name, _, _ in CASES])
def test_injection_matches_golden_digest(name, ds, config):
    assert noise_digests(ds, config) == GOLDEN[name]


@pytest.mark.parametrize("name, ds, config", CASES[1::3], ids=[name for name, _, _ in CASES[1::3]])
def test_cli_inject_writes_the_golden_bytes(tmp_path, capsys, name, ds, config):
    # the inputs hold their records in id order, as a written file reads back
    ann, out = tmp_path / "gt.json", tmp_path / "noisy.json"
    ann.write_bytes(serialize_dataset(ds))
    assert main(["inject", "--ann", str(ann), "--out", str(out), "--type", config.noise_type.value,
                 "--ratio", str(config.ratio), "--seed", str(config.seed),
                 "--bogus-size-policy", config.bogus_size_policy.value]) == 0
    sidecar = Path(f"{out}.log.json").read_bytes()
    digests = {"dataset": hashlib.sha256(out.read_bytes()).hexdigest(),
               "sidecar": hashlib.sha256(sidecar).hexdigest()}
    assert digests == GOLDEN[name]
