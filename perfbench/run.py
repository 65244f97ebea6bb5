"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload join_uniform --seed 1 --seconds 40 --trace 0

The run sets the workload up, computes reference answers, then runs
rounds for ``--seconds`` seconds, setting up fresh copies of the workload
at points spread over them (``setup_s`` is the median of all set-ups).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` plays each
input untraced, then traced, and reports the per-layer metrics plus the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (environment, sizes, every
workload-specific end-to-end metric with its sample count, failures) and, for
traced runs, the spans are written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SCRATCH = ROOT / ".perfbench_tmp"

#: Set-ups per run: the workload's own, then fresh copies spread over the
#: rounds; ``setup_s`` is their median.
SETUPS = 3

#: End-to-end metrics of BENCHMARK.json: name -> unit.
END_TO_END = {"setup_s": "s", "touch_ms": "ms", "round_ms": "ms", "peak_rss_mb": "MB"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _prepare_process() -> None:
    """Make the program importable and keep every file inside the checkout.

    Ambient ``REPRO_*`` settings would change what the program runs, so
    they are cleared; spill files go to a scratch directory in the
    checkout, removed at exit.
    """
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        raise SystemExit(f"perfbench: no program to measure: {source / 'repro'} is missing")
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(ROOT))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    SCRATCH.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(SCRATCH)
    import tempfile

    tempfile.tempdir = str(SCRATCH)


def _environment(workload, seed: int) -> dict:
    import numpy

    from repro.geometry.columnar import resolve_backend
    from repro.geometry.compiled import compiled_mode, using_numba

    try:
        import numba  # noqa: F401

        numba_imported = True
    except ImportError:
        numba_imported = False
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imported": numba_imported,
        "numba_jitting": using_numba(),
        "compiled_mode": compiled_mode(),
        "compiled_backend": resolve_backend("compiled"),
        "workload": workload.name,
        "sizes": workload.sizes(),
        "seed": seed,
    }


def _reset_peak_rss() -> bool:
    """Restart this process's RSS high-water mark; ``False`` where Linux's
    ``clear_refs`` is unavailable and the peak stays the whole process's."""
    gc.collect()
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def _high_water_mb(pid="self") -> float | None:
    """A process's RSS high-water mark (Linux ``VmHWM``); ``None`` where unreadable."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024.0
    except (OSError, StopIteration):
        return None


def _own_peak_mb(since_reset: bool) -> float:
    """This process's peak RSS: since :func:`_reset_peak_rss` where it worked,
    else over the whole process."""
    if since_reset:
        return _high_water_mb()
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _worker_peak_mb(workload) -> float:
    """The largest RSS high-water mark among the workload's live worker
    processes (the shard workers), read before they are stopped."""
    return max((_high_water_mb(pid) or 0.0 for pid in workload.worker_pids()), default=0.0)


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set up, check and run ``workload``; returns the run's record.

    ``workload`` is set up once, before the reference answers.  The other
    ``SETUPS - 1`` set-ups build fresh copies of it, spread
    evenly over the rounds and closed again, so ``setup_s`` samples the
    whole run like the round timings do while the rounds keep their warm
    state.  Time spent on the copies is added to the deadline.  The RSS
    peak is taken over the rounds before the first copy, which the
    allocator's retained pages would otherwise inflate.
    """
    from perfbench.summary import median
    from perfbench.spans import Tracer

    quiet, tracer = Tracer(enabled=False), Tracer(enabled=True)
    setup_times = []
    own_peak = None
    index = 0
    since_reset = False

    def set_up(target) -> float:
        start = time.perf_counter()
        workload.setup_phases.append(target.setup())
        setup_times.append(time.perf_counter() - start)
        return setup_times[-1]

    try:
        set_up(workload)
        workload.reference()
        # The peak covers the timed rounds, not set-up or reference answers.
        since_reset = _reset_peak_rss()
        start = time.perf_counter()
        deadline = start + seconds
        due = [start + seconds * k / SETUPS for k in range(1, SETUPS)]
        while True:
            # Copies that are due are set up after at least one round, and
            # never between the untraced and traced play of an input.
            while due and index and time.perf_counter() >= due[0] and not (trace and index % 2):
                if own_peak is None:
                    own_peak = _own_peak_mb(since_reset)
                # Frozen, the original's objects add nothing to the
                # collections the copy's set-up triggers.
                gc.freeze()
                copy = type(workload)(workload.seed)
                try:
                    spent = set_up(copy)
                finally:
                    copy.close()
                    del copy
                    gc.unfreeze()
                deadline += spent
                due = [moment + spent for moment in due[1:]]
            # Traced runs play each input untraced, then traced, back to back.
            traced = trace and index % 2 == 1
            key = (index // 2 if trace else index) % workload.inputs
            workload.run_round(key, tracer if traced else quiet, traced)
            index += 1
            enough = traced if trace else index >= workload.inputs
            if enough and not due and time.perf_counter() >= deadline:
                break
        if own_peak is None:
            own_peak = _own_peak_mb(since_reset)
        workers_mb = _worker_peak_mb(workload)
    finally:
        workload.close()
    record = {
        "setup_s": (median(setup_times), "s", len(setup_times)),
        "touch_ms": (workload.timing(workload.headline) * 1e3, "ms",
                     workload.sample_count(workload.headline)),
        "round_ms": (workload.timing("round") * 1e3, "ms", workload.sample_count("round")),
        "error_rate": (workload.failed / workload.attempted, "ratio", workload.attempted),
    }
    record.update(workload.end_to_end())
    record["peak_rss_mb"] = (own_peak + workers_mb, "MB", 1)
    return {"end_to_end": record, "tracer": tracer,
            "layers": workload.layer_metrics() if trace else None}


def result_line(workload, outcome) -> dict:
    """The final JSON object: end-to-end metrics, or per-layer ones when traced."""
    from perfbench.workloads import LAYER_METRICS

    if outcome["layers"] is not None:
        metrics = {name: {"value": value, "unit": LAYER_METRICS[name][0]}
                   for name, value in outcome["layers"].items()}
    else:
        metrics = {name: {"value": outcome["end_to_end"][name][0], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": workload.failed == 0, "attempted": workload.attempted,
            "failed": workload.failed, "metrics": metrics}


def _stop(signum, frame):
    """Turn a termination request into an exit that runs every ``finally``,
    so shard workers are stopped and the scratch directory removed."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _stop)
    _prepare_process()
    from perfbench.workloads import LAYER_METRICS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    try:
        outcome = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    e2e = outcome["end_to_end"]
    env = _environment(workload, args.seed)

    print(f"# perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, n) in e2e.items():
        shown = "n/a (too few samples)" if value is None else f"{value:.6g}"
        print(f"{name:28s} {shown:>14s} {unit:6s} n={n}")
    for stream, problems in workload.failures.items():
        for problem in problems:
            print(f"FAILED {stream}: {problem}")
    if outcome["layers"] is not None:
        for name, value in outcome["layers"].items():
            print(f"{name:36s} {value:14.6g} {LAYER_METRICS[name][0]}")

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump({"environment": env,
                   "end_to_end": {k: {"value": v, "unit": u, "samples": n}
                                  for k, (v, u, n) in e2e.items()},
                   "layers": outcome["layers"],
                   "attempted": workload.attempted, "failed": workload.failed,
                   "failures": workload.failures,
                   "samples": {("traced" if traced else "untraced"): streams
                               for traced, streams in workload.samples.items()}}, fh, indent=1)
    if args.trace:
        outcome["tracer"].dump(f"{stem}.spans.json")
    print(json.dumps(result_line(workload, outcome)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
