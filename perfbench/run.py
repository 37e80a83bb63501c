"""Benchmark of the thompsonf toolkit: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload reduce-dyadic --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``reduce-dyadic`` / ``reduce-rational``: ``thompsonf reduce`` on seeded
  families of 1 to 50 marked sets; one op per family file.  An item is a
  distinct marked set reduced.
- ``ball-defect``: ``ball(6)``, its left defect audit, the tower check and
  the full sorted document, through the public API.  An item is a ball
  element audited.  The input is fixed, so the seed is ignored.
- ``verify``: ``thompsonf verify`` on seeds derived from ``--seed``; one op
  per derived seed.  An item is a suite case.

With ``--trace 0`` a fresh process runs ops in a closed loop (one caller,
next op after the previous one ends) for ``--seconds`` and the end-to-end
metrics are printed.  Every timing is in reference seconds: wall time
scaled by the machine speed the run measured with a fixed calibration loop
(``calibrate.py``), so that a shared host slowing down does not read as a
regression.  The raw wall figures are printed beside them.

With ``--trace 1`` the first few ops of the same pool run three times in
fresh processes (untraced, under cProfile, under the span tracer), so the
per-layer counts repeat exactly; the ratio of traced to untraced wall time
is printed as the tracing overhead.

Every op's output is checked: against recorded SHA-256 digests on the
default seed, and against invariants on every seed.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 2, with no result line, when the package
source is missing.

The benchmark's own tests run with ``python3 -m pytest perfbench/tests``;
``perfbench/record_digests.py`` re-records the default-seed digests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import layers
import workloads
from calibrate import REFERENCE_S

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"

SETUP_RUNS = 15
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170
SETUP_CALIBRATION_S = 0.02
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import thompsonf\n"
    "thompsonf.generator_table()\n"
    "t = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import calibrate\n"
    "c = calibrate.Calibration()\n"
    f"c.run({SETUP_CALIBRATION_S})\n"
    "print(t, c.rep_seconds())\n"
)


def tail_percentile(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond it) for the op-time tail.

    The tail is the highest percentile that has at least ten ops beyond it:
    with n sorted times, the value at rank n - 10 (1-based), which sits at
    percentile 100 * (n - 10) / n.  With fewer than 21 ops that rank falls
    below the median, so the median is reported instead, with the number
    of ops beyond it.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        median = statistics.median(ordered)
        return median, 50.0, sum(t > median for t in ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def error_rate(attempted: int, failed: int) -> float:
    return failed / attempted


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str]) -> str:
    done = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"child {args[:1]} exited with {done.returncode}")
    return done.stdout.strip().splitlines()[-1]


def setup_seconds() -> float:
    """Median reference time, over fresh interpreters, to import the package and build the generators."""
    samples = []
    for _ in range(SETUP_RUNS):
        wall, rep = map(float, run_child(["-c", SETUP_CODE, str(BENCH_DIR)]).split())
        samples.append(wall * REFERENCE_S / rep)
    return statistics.median(samples)


def reference_times(run: dict) -> list[float]:
    """Op wall times scaled to the reference speed (see ``calibrate.py``).

    Each op is scaled by the mean time of the calibration reps taken while
    it ran, or by the run's mean for an op too short to hold one.
    """
    times = []
    for wall, (reps, seconds) in zip(run["times"], run["op_calibration"]):
        rep = seconds / reps if reps else run["calibration_s"]
        times.append(wall * REFERENCE_S / rep)
    return times


def run_worker(cfg: dict) -> dict:
    return json.loads(run_child([str(BENCH_DIR / "worker.py"), json.dumps(cfg)]))


def report(workload: str, runs: list[dict]) -> tuple[int, int]:
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    for line in failures[:5]:
        print(f"FAILED {line.splitlines()[-1]}", file=sys.stderr)
    print(
        f"{workload}: {attempted} ops attempted, {len(failures)} failed, "
        f"error_rate {error_rate(attempted, len(failures)):.4f}"
    )
    return attempted, len(failures)


def timed_run(workload: str, base: dict, seconds: float) -> dict:
    setup = setup_seconds()
    run = run_worker(dict(base, mode="timed", seconds=seconds))
    attempted, failed = report(workload, [run])
    times = reference_times(run)
    tail, pct, beyond = tail_percentile(times)
    metrics = {
        "setup_s": (setup, "s"),
        "items_per_s": (run["items"] / sum(times), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(times), "ms"),
        "op_tail_ms": (1000.0 * tail, "ms"),
        "peak_rss_mib": (run["maxrss_kib"] / 1024.0, "MiB"),
    }
    wall = sum(run["times"])
    print(f"  input: {run['items']} items in {attempted} ops, {wall:.3f} s of wall time")
    print(
        f"  machine speed: {REFERENCE_S / run['calibration_s']:.4f} of the reference; "
        f"{run['items'] / wall:.6g} items per wall second"
    )
    print(f"  op_tail_ms is p{pct:.1f} of {len(times)} ops, {beyond} ops beyond it")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_run(workload: str, base: dict) -> dict:
    fixed = dict(base, seconds=0, ops=workloads.TRACE_OPS[workload])
    plain = run_worker(dict(fixed, mode="plain"))
    profiled = run_worker(dict(fixed, mode="profile"))
    spans = run_worker(dict(fixed, mode="spans", fraction_ops=profiled["fraction_ops"]))
    attempted, failed = report(workload, [plain, profiled, spans])
    # wall time over one to six ops in separate processes: host drift
    # dominates it, so it is information, not a metric
    print(f"  tracing overhead: {sum(spans['times']) / sum(plain['times']):.3f} x untraced wall time")
    for name, value in spans["layers"].items():
        print(f"  {name} = {value:.6g} {layers.UNITS[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": layers.UNITS[k]} for k, v in spans["layers"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "thompsonf" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'thompsonf'}", file=sys.stderr)
        return 2

    work = BENCH_DIR / ".work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work))
    try:
        ops = workloads.write_inputs(args.workload, args.seed, tmp)
        ops_file = tmp / "ops.json"
        ops_file.write_text(json.dumps(ops), encoding="utf-8")
        expected = None
        if args.seed == workloads.DEFAULT_SEED:
            expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[args.workload]
        base = {"workload": args.workload, "ops_file": str(ops_file), "expected": expected}
        if args.trace:
            result = traced_run(args.workload, base)
        else:
            result = timed_run(args.workload, base, args.seconds)
    finally:
        shutil.rmtree(tmp)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
