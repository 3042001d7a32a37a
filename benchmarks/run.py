"""jsonduel benchmark: one workload per invocation, result as the last line.

    python3 benchmarks/run.py --workload loop-llm --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the program is imported from that
checkout's `src/`. With `--trace 0` the timed calls run untraced and the
result carries the end-to-end metrics; with `--trace 1` untraced and traced
calls alternate and the result carries the per-layer metrics and the tracing
overhead. Every call is checked; a failed check makes the exit code 1.
Scratch files live under `.bench_work/` and traces under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_TIMED_CALLS = 3
SETUPS_PER_CALL = 5
CALIBRATION_N = 300_000


def _import_program():
    """Put this checkout's sources first and import them, or fail loudly."""
    src = ROOT / "src"
    if not (src / "jsonduel" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no jsonduel package under {src.name}/ in this checkout")
    sys.path.insert(0, str(src))
    import jsonduel

    if Path(jsonduel.__file__).resolve().parent != (src / "jsonduel").resolve():
        raise SystemExit(f"benchmark: imported jsonduel from {jsonduel.__file__}, not the checkout")
    import workloads

    return workloads


def calibrate() -> float:
    """A fixed pure-Python loop: a diagnostic of how fast the CPU runs now."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_N):
        total += i * i % 7
    return time.perf_counter() - start


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / median if median else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    try:
        return _measure(workloads, workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workloads, workload, args, work: Path) -> int:
    inputs = workload.inputs(work / "inputs", args.seed)

    # The median of the set-up samples is `setup_s`. A set-up is 3 to 40
    # ms of parsing and running scripts, and on a shared machine one sample
    # differs from the next by about 30% (IQR) with the CPU's speed at that
    # moment. So several samples precede every call, and the median sees
    # the whole run. Each call uses the last set-up made before it.
    setup_times = []

    def set_up():
        gc.collect()
        start = time.perf_counter()
        prepared = workload.setup(inputs)
        setup_times.append(time.perf_counter() - start)
        return prepared

    # Every call writes into a new, empty directory, as a first run does,
    # and nothing is deleted until the run ends: deleting files or
    # overwriting them slows the file creation of the calls that follow.
    def call(prepared, number: int, traced=None):
        gc.collect()
        out_dir = work / f"out{number}{'-traced' if traced else ''}"
        rep = workload.call(inputs, prepared, number, out_dir, traced)
        if traced is not None:
            rep.problems += traced.tracer.nesting_problems()
        return rep

    problems = call(set_up(), 0).problems  # warm-up
    reps, traced_reps, calibration = [], [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(reps) < MIN_TIMED_CALLS:
        calibration.append(calibrate())
        for _ in range(SETUPS_PER_CALL):
            prepared = set_up()
        reps.append(call(prepared, len(reps) + 1))
        problems += reps[-1].problems
        if args.trace:
            # The traced call repeats the untraced one; their outputs must match.
            traced = workloads.Traced()
            traced_reps.append(call(prepared, len(reps), traced))
            problems += traced_reps[-1].problems
            if traced_reps[-1].fingerprint != reps[-1].fingerprint:
                problems.append(f"call {len(reps)}: outputs differ when repeated")
    problems += workload.repeat_check(work / "repeat", args.seed)

    attempted = sum(rep.items for rep in reps + traced_reps)
    failed = sum(rep.failed for rep in reps + traced_reps)

    walls = [rep.wall_s for rep in reps]
    wall = statistics.median(walls)
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}; {len(reps)} timed calls after 1 warm-up; "
          f"artifacts under {work.relative_to(ROOT)}/out<n>")
    print("setup samples (ms):", " ".join(f"{1000 * t:.2f}" for t in setup_times))
    print(f"calibration loop: median {statistics.median(calibration):.4f} s "
          f"(min {min(calibration):.4f}, max {max(calibration):.4f})")
    print(f"wall_s per call: {' '.join(f'{w:.4f}' for w in walls)} (IQR {spread(walls):.2%})")

    if args.trace:
        metrics = _layer_metrics(workloads, traced_reps, wall, problems)
        trace_path = ROOT / ".bench_out" / f"trace-{workload.name}-seed{args.seed}.jsonl"
        traced.tracer.write(trace_path)
        print(f"spans of the last traced call: {trace_path.relative_to(ROOT)}")
    else:
        ideal = workload.ideal_s()
        metrics = {
            "wall_s": (wall, "s"),
            "items_per_s": (statistics.median(rep.items / rep.wall_s for rep in reps), "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        print(f"failed_share = {failed / attempted:.6g} ({failed} of {attempted} "
              f"{workload.items_label})")
        if ideal:
            print(f"llm_efficiency = {ideal / wall:.6g} (ideal {ideal:.4f} s)")
        else:
            print("llm_efficiency: not defined (no model latency)")

    correct = not problems
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more failed checks")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def _layer_metrics(workloads, traced_reps, untraced_wall: float, problems: list[str]) -> dict:
    per_rep = [rep.layers for rep in traced_reps]
    for layers in per_rep:
        if layers["backends.timeouts"]:
            problems.append(f"{layers['backends.timeouts']} engine timeouts")
    metrics = {}
    for name, unit, _ in workloads.PER_LAYER:
        metrics[name] = (statistics.median(layers[name] for layers in per_rep), unit)
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - untraced_wall, "s")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
