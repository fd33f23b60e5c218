"""Smoke test of ``tools/own_peak.py``, the launcher every own-peak figure in CHANGES.md and ROADMAP.md comes from."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "own_peak.py"
MICRO_GT = ROOT / "tests" / "data" / "micro_gt.json"


def _own_peak(*args, cwd):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, cwd=cwd, timeout=120)


def test_own_peak_prints_the_median_wall_and_peak_of_a_command(tmp_path):
    out = tmp_path / "noisy.json"
    run = _own_peak("-n", "2", "inject", "--ann", str(MICRO_GT), "--out", str(out), "--type", "una", "--ratio", "0.5",
                    cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    found = re.fullmatch(r"runs 2  wall_s median ([0-9.]+) \(min ([0-9.]+), max ([0-9.]+)\)"
                         r"  peak_rss_mb median ([0-9.]+) \(min ([0-9.]+), max ([0-9.]+)\)\n", run.stdout)
    assert found, run.stdout
    wall, wall_min, wall_max, peak, peak_min, peak_max = map(float, found.groups())
    assert 0 < wall_min <= wall <= wall_max and 10 < peak_min <= peak <= peak_max < 1000
    assert out.exists() and Path(f"{out}.log.json").exists()  # the command ran, from this checkout


def test_own_peak_stops_at_a_failing_run_with_its_exit_code(tmp_path):
    run = _own_peak("-n", "3", "stats", "--ann", str(tmp_path / "missing.json"), cwd=tmp_path)
    assert run.returncode == 2
    assert run.stdout == "" and "i/o error" in run.stderr
