"""The measured process: runs one workload's ops and prints what it saw.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH=src`` and a
pinned ``PYTHONHASHSEED``; takes one JSON argument:

- ``mode``: ``timed`` runs ops until ``seconds`` have passed; ``plain``,
  ``spans`` and ``profile`` run the first ``ops`` ops of the pool untraced,
  under the span tracer, or under cProfile.
- ``workload``, ``ops_file`` (the op list written by ``run.py``) and
  ``expected`` (recorded digests by op key, or null).

Prints one JSON line: per-op wall times and the calibration reps taken
during each op (see ``calibrate.py``), items, attempted and failed counts,
output bytes and ``ru_maxrss``; in ``timed`` mode also the run's mean rep
time, in ``spans`` mode the layer metrics.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import resource
import sys
import time
import traceback

import layers
import workloads
from calibrate import Calibration
from tracer import Tracer


def fraction_calls(profiler: cProfile.Profile) -> int:
    """Calls into ``fractions.Fraction`` code recorded by the profiler."""
    stats = pstats.Stats(profiler).stats
    return sum(
        nc for (filename, _, _), (_, nc, *_) in stats.items() if filename.endswith("fractions.py")
    )


def run_ops(cfg: dict, ops: list[dict], profiler, calibration: Calibration) -> dict:
    workload, expected = cfg["workload"], cfg["expected"]
    times, op_calibration, items, failures, output_bytes = [], [], 0, [], 0
    deadline = time.perf_counter() + cfg["seconds"]
    i = 0
    while True:
        op = ops[i % len(ops)]
        start, paused, reps = time.perf_counter(), calibration.seconds, calibration.reps
        if profiler is not None:
            profiler.enable()
        try:
            code, data = workloads.run_op(workload, op)
        except SystemExit as exc:
            # the CLI's argument parser exits instead of returning a code
            code, data = (exc.code if isinstance(exc.code, int) else 2), b""
        except Exception:
            code, data = None, traceback.format_exc()
        finally:
            if profiler is not None:
                profiler.disable()
        paused = calibration.seconds - paused
        times.append(time.perf_counter() - start - paused)
        op_calibration.append((calibration.reps - reps, paused))
        i += 1
        if code is None:
            failures.append(f"{op['key']}: {data}")
        else:
            digest = None if expected is None else expected.get(op["key"], "unrecorded")
            try:
                reason = workloads.check_output(workload, op, code, data, digest)
            except (KeyError, TypeError, ValueError) as exc:
                reason = f"malformed output: {exc!r}"
            if reason is None:
                items += op["items"]
                output_bytes += len(data)
            else:
                failures.append(f"{op['key']}: {reason}")
        if cfg["mode"] == "timed" and time.perf_counter() >= deadline:
            break
        if cfg["mode"] != "timed" and i >= cfg["ops"]:
            break
    return {
        "times": times,
        "op_calibration": op_calibration,
        "items": items,
        "attempted": len(times),
        "failures": failures,
        "output_bytes": output_bytes,
    }


def main(cfg: dict) -> dict:
    import thompsonf

    thompsonf.generator_table()  # set-up is measured separately, never per op
    with open(cfg["ops_file"], encoding="utf-8") as fh:
        ops = json.load(fh)
    mode = cfg["mode"]
    tracer = profiler = None
    if mode == "spans":
        tracer = Tracer()
        layers.install(tracer)
    elif mode == "profile":
        profiler = cProfile.Profile()
    calibration = Calibration()
    if mode == "timed":
        with calibration.sampling():
            result = run_ops(cfg, ops, profiler, calibration)
        calibration.rep()
        result["calibration_s"] = calibration.rep_seconds()
    else:
        # traced passes take no calibration reps: they would enter the
        # spans and the profile
        result = run_ops(cfg, ops, profiler, calibration)
    if tracer is not None:
        tracer.restore()
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if profiler is not None:
        result["fraction_ops"] = fraction_calls(profiler)
    if tracer is not None:
        # ball-defect builds its document through the library, not the CLI
        cli_bytes = 0 if cfg["workload"] == "ball-defect" else result["output_bytes"]
        result["layers"] = layers.layer_metrics(tracer, cfg["fraction_ops"], cli_bytes)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
