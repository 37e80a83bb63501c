"""Tests of the benchmark's own logic; run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import random
import time
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

import layers
import run
import worker
import workloads
from tracer import Tracer, self_times

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_subtracts_merged_child_coverage():
    # a [0,10] has children b [1,4] and c [3,6], which overlap; b has child d [1.5,2]
    names = ["a", "b", "c", "d"]
    totals = self_times(
        names,
        array("i", [0, 1, 2, 3]),
        array("i", [-1, 0, 0, 1]),
        array("d", [0.0, 1.0, 3.0, 1.5]),
        array("d", [10.0, 4.0, 6.0, 2.0]),
    )
    assert totals == {"a": 5.0, "b": 2.5, "c": 3.0, "d": 0.5}


def test_self_time_sums_repeated_names():
    totals = self_times(
        ["f", "g"],
        array("i", [0, 1, 0]),
        array("i", [-1, 0, -1]),
        array("d", [0.0, 0.5, 2.0]),
        array("d", [1.0, 0.75, 3.0]),
    )
    assert totals == {"f": 1.75, "g": 0.25}


@pytest.mark.parametrize(
    "n, index, percentile",
    [(30, 19, 100 * 20 / 30), (21, 10, 100 * 11 / 21), (200, 189, 95.0)],
)
def test_tail_is_highest_percentile_with_ten_ops_beyond(n, index, percentile):
    times = list(range(n))
    random.Random(n).shuffle(times)
    assert run.tail_percentile(times) == (index, pytest.approx(percentile), 10)


def test_tail_of_twenty_ops_or_fewer_is_the_median():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (2.0, 50.0, 1)
    assert run.tail_percentile([float(i) for i in range(20)]) == (9.5, 50.0, 10)
    assert run.tail_percentile([1.0]) == (1.0, 50.0, 0)


def _tiny_reduce_ops(tmp_path: Path) -> Path:
    family = tmp_path / "family.jsonl"
    family.write_text(json.dumps([f"{k}/16" for k in range(17)]) + "\n", encoding="ascii")
    op = {"key": "000", "input": str(family), "output": str(tmp_path / "out.json"), "items": 1}
    ops_file = tmp_path / "ops.json"
    ops_file.write_text(json.dumps([op]), encoding="utf-8")
    return ops_file


def _run_plain(ops_file: Path, expected) -> dict:
    return worker.main(
        {"workload": "reduce-dyadic", "mode": "plain", "ops": 1, "seconds": 0,
         "ops_file": str(ops_file), "expected": expected}
    )


def test_wrong_digest_counts_in_error_rate(tmp_path):
    ops_file = _tiny_reduce_ops(tmp_path)
    good = _run_plain(ops_file, None)
    assert (good["attempted"], good["failures"]) == (1, [])
    bad = _run_plain(ops_file, {"000": "0" * 64})
    assert bad["failures"] == ["000: digest mismatch"]
    assert run.error_rate(bad["attempted"], len(bad["failures"])) == 1.0


def test_cli_usage_error_counts_in_error_rate(tmp_path):
    # argparse rejects the seed and raises SystemExit(2) instead of returning
    op = {"key": "bad", "seed": "not-a-number", "output": str(tmp_path / "out.json"), "items": 1}
    ops_file = tmp_path / "ops.json"
    ops_file.write_text(json.dumps([op]), encoding="utf-8")
    result = worker.main(
        {"workload": "verify", "mode": "plain", "ops": 1, "seconds": 0,
         "ops_file": str(ops_file), "expected": None}
    )
    assert (result["attempted"], result["failures"]) == (1, ["bad: exit code 2"])


def test_broken_invariant_is_reported():
    op = {"key": "x", "items": 2}
    doc = {
        "reduction": {"identity_checks": {"x0": True}, "family_size": 1, "element_count": 1},
    }
    reason = workloads.check_output("reduce-dyadic", op, 1, json.dumps(doc).encode(), None)
    assert reason == "family size differs from the distinct input sets"
    assert workloads.check_output("verify", op, 2, b"{}", None) == "exit code 2"


def test_tracer_counts_every_binding_and_restores_originals():
    import thompsonf
    from thompsonf import diagnostics, felement, folner, partition

    originals = {
        "felement.compose": felement.compose,
        "folner.compose": folner.compose,
        "diagnostics.compose": diagnostics.compose,
        "package.compose": thompsonf.compose,
        "apply": felement.FElement.__dict__["apply"],
        "call": felement.FElement.__dict__["__call__"],
        "key": felement.FElement.__dict__["canonical_key"],
        "init": partition.MarkedSet.__dict__["__init__"],
        "dyadic_init": partition.DyadicPartition.__dict__["__init__"],
    }
    tracer = Tracer()
    tracer.trace_function("felement.compose", "thompsonf.felement", "compose")
    tracer.trace_function("felement.apply", "thompsonf.felement", "FElement.apply")
    tracer.trace_function("felement.canonical_key", "thompsonf.felement", "FElement.canonical_key")
    tracer.trace_function("gone", "thompsonf.felement", "no_such_function")
    tracer.trace_function("gone", "thompsonf.no_such_module", "f")
    tracer.trace_constructor("partition.marked_set", "thompsonf.partition", "MarkedSet")
    tracer.trace_constructor("partition.dyadic_partition", "thompsonf.partition", "DyadicPartition")
    tracer.trace_constructor("gone", "thompsonf.partition", "NoSuchClass")
    try:
        x0 = thompsonf.generator_table()["x0"]
        folner.compose(x0, x0)
        diagnostics.compose(x0, x0)
        x0(Fraction(1, 2))
        assert x0.canonical_key
        partition.DyadicPartition([0, Fraction(1, 2), 1])
        partition.MarkedSet([0, Fraction(1, 3), 1])
    finally:
        tracer.restore()
    assert tracer.calls("felement.compose") == 2
    assert tracer.calls("felement.apply") >= 1
    assert tracer.calls("felement.canonical_key") == 1
    assert tracer.calls("partition.dyadic_partition") == 1
    assert tracer.calls("partition.marked_set") == 1
    assert tracer.absent == [
        "thompsonf.felement:no_such_function",
        "thompsonf.no_such_module:f",
        "thompsonf.partition:NoSuchClass",
    ]
    assert tracer.calls_under("felement.apply", "felement.compose") == tracer.calls("felement.apply") - 1
    restored = {
        "felement.compose": felement.compose,
        "folner.compose": folner.compose,
        "diagnostics.compose": diagnostics.compose,
        "package.compose": thompsonf.compose,
        "apply": felement.FElement.__dict__["apply"],
        "call": felement.FElement.__dict__["__call__"],
        "key": felement.FElement.__dict__["canonical_key"],
        "init": partition.MarkedSet.__dict__["__init__"],
        "dyadic_init": partition.DyadicPartition.__dict__["__init__"],
    }
    assert all(restored[k] is originals[k] for k in originals)


def test_moves_cover_exactly_the_declared_layer_metrics():
    assert set(layers.MOVES) == set(layers.UNITS)


def test_every_layer_mapping_names_a_defined_workload_and_metric():
    names = {w["name"] for w in BENCHMARK["workloads"]}
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert names == set(workloads.WORKLOADS)
    for metric, moves in layers.MOVES.items():
        for e2e, workload in moves:
            assert e2e in end_to_end, (metric, e2e)
            assert workload in names, (metric, workload)


@pytest.mark.parametrize("workload", ["reduce-dyadic", "reduce-rational"])
def test_family_inputs_repeat_per_seed_and_keep_the_mesh_bound(tmp_path, workload):
    from thompsonf import parse_number

    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = workloads.write_inputs(workload, 5, tmp_path / "a")
    second = workloads.write_inputs(workload, 5, tmp_path / "b")
    assert [o["items"] for o in first] == [o["items"] for o in second]
    assert Path(first[7]["input"]).read_bytes() == Path(second[7]["input"]).read_bytes()
    sizes = [len(Path(o["input"]).read_text().splitlines()) for o in first]
    assert min(sizes) == 1 and max(sizes) == 50
    for prefix in (20, 50, 80, 300):
        median = sorted(sizes[:prefix])[prefix // 2]
        assert abs(median - 25.5) <= 2, (prefix, median)
    non_dyadic = 0
    for op in first[:5]:
        for line in Path(op["input"]).read_text().splitlines():
            points = sorted({parse_number(t) for t in json.loads(line)})
            assert max(b - a for a, b in zip(points, points[1:])) <= Fraction(1, 16)
            non_dyadic += sum(p.denominator & (p.denominator - 1) != 0 for p in points)
    assert (non_dyadic > 0) == (workload == "reduce-rational")


def test_calibration_samples_during_work(tmp_path):
    from calibrate import Calibration

    calibration = Calibration()
    with calibration.sampling():
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert calibration.reps >= 2
    ops_file = _tiny_reduce_ops(tmp_path)
    cfg = {"workload": "reduce-dyadic", "mode": "timed", "seconds": 0.3,
           "ops_file": str(ops_file), "expected": None}
    result = worker.main(cfg)
    assert result["failures"] == [] and result["calibration_s"] > 0
