"""Run ``python -m unabench ARGS`` several times and print its median wall time and own peak RSS.

    python tools/own_peak.py -n 5 inject --ann gt.json --out noisy.json --type una --ratio 0.2
    python tools/own_peak.py -n 3 --src ../other/src diff a.json b.json

Each run is a child of this small launcher, timed from spawn to reap and reaped
with ``wait4``, whose ``ru_maxrss`` is the command's peak resident set. A child
begins as a copy of its parent and the kernel carries that copy's peak through
``exec``, so a launcher holding much memory lifts the figure of every command
it starts (a benchmark harness that has built its inputs does); this one
imports nothing but the standard library. ``ru_maxrss`` is a maximum, not a
sum: for a command that forks (``diff``, ``eval`` and ``tide`` decode their
second file in a child) it is the larger of the parent's and the child's
peaks, not their sum.

The command runs from the current directory with ``--src`` (this checkout's
``src`` by default) first on ``PYTHONPATH``. A run that exits non-zero stops
the tool with its exit code and its stderr.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_once(argv: list[str], env: dict[str, str]) -> tuple[float, float, int, bytes]:
    """``(wall s, peak RSS MB, exit code, stderr)`` of one run of ``python -m unabench argv``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "unabench", *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, err  # Linux reports KiB


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Median wall time and own peak RSS of a unabench command.")
    parser.add_argument("-n", "--runs", type=int, default=5, help="runs of the command (default 5)")
    parser.add_argument("--src", type=Path, default=SRC, help="the package source to run (default: this checkout's)")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="the unabench command and its flags")
    args = parser.parse_args(argv)
    if args.runs < 1 or not args.command:
        parser.error("give at least one run and a command")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(args.src), os.environ.get("PYTHONPATH")])))
    walls, peaks = [], []
    for _ in range(args.runs):
        wall, peak, code, err = run_once(args.command, env)
        if code != 0:
            sys.stderr.write(err.decode(errors="replace"))
            return code
        walls.append(wall)
        peaks.append(peak)
    print(f"runs {args.runs}  wall_s median {statistics.median(walls):.3f} (min {min(walls):.3f}, max {max(walls):.3f})"
          f"  peak_rss_mb median {statistics.median(peaks):.1f} (min {min(peaks):.1f}, max {max(peaks):.1f})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
