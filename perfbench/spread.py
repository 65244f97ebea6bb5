"""Run-to-run spread of the benchmark across seeds.

Runs ``perfbench/run.py`` untraced once per seed, one run at a time, and
prints for each end-to-end metric its median over the runs and the
distance between the first and third quartile as a share of that median
(the spread the bounds in ``BENCHMARK.json`` are checked against).  From the repository
root::

    python3 perfbench/spread.py --workload join_uniform --seeds 1-10 --seconds 40
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from summary import quartile_spread

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        command = [sys.executable, str(RUN), "--workload", args.workload, "--seed",
                   str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(command, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        line = " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {line}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        spread = quartile_spread(series) if len(series) >= 2 else float("nan")
        print(f"{name:36s} median={statistics.median(series):.6g} spread={spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
