"""What the traced run wraps, the per-layer metrics it reports, and what each moves.

The metrics and their units are the ``per_layer`` list of ``BENCHMARK.json``.
``MOVES`` writes down, before any change is measured, which end-to-end
metric on which workload each per-layer metric should move.  The tests
check that it covers exactly the declared metrics and that every pair names
a workload and an end-to-end metric defined in ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from pathlib import Path

from tracer import Tracer

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

REDUCE = ("reduce-dyadic", "reduce-rational")
ALL = REDUCE + ("ball-defect", "verify")

# (span name, module, qualified name)
FUNCTIONS = (
    ("exactnum.parse", "thompsonf.exactnum", "parse_number"),
    ("exactnum.format", "thompsonf.exactnum", "format_number"),
    ("partition.t_of", "thompsonf.partition", "t_of"),
    ("partition.mesh", "thompsonf.partition", "mesh"),
    ("felement.compose", "thompsonf.felement", "compose"),
    ("felement.apply", "thompsonf.felement", "FElement.apply"),
    ("felement.apply", "thompsonf.felement", "FElement.apply_inverse"),
    ("felement.invert", "thompsonf.felement", "invert"),
    ("felement.f_of_partition", "thompsonf.felement", "f_of_partition"),
    ("felement.act_marked", "thompsonf.felement", "act_marked"),
    ("felement.to_minimal_pair", "thompsonf.felement", "to_minimal_pair"),
    ("felement.act_partition", "thompsonf.felement", "act_partition"),
    ("felement.canonical_key", "thompsonf.felement", "FElement.canonical_key"),
    ("folner.defect_marked", "thompsonf.folner", "defect_marked"),
    ("folner.defect_elements", "thompsonf.folner", "defect_elements"),
    ("folner.load_family", "thompsonf.folner", "load_family_text"),
    ("verify.run_suites", "thompsonf.verify", "run_suites"),
    ("cli.main", "thompsonf.cli", "main"),
)
CONSTRUCTORS = (
    ("felement.construct", "thompsonf.felement", "FElement"),
    ("partition.marked_set", "thompsonf.partition", "MarkedSet"),
    ("partition.dyadic_partition", "thompsonf.partition", "DyadicPartition"),
)


def _reduction_counts(counters: Counter, result) -> None:
    report = result[1]
    counters["family_size"] += report.family_size
    counters["collisions"] += report.collision_count
    counters["identity_checks"] += len(report.identity_checks)
    counters["identity_checks_passed"] += sum(ok for _, ok in report.identity_checks)


def _ball_counts(counters: Counter, result) -> None:
    counters["ball_new_elements"] += len(result) - 1


def install(tracer: Tracer) -> None:
    """Wrap every traced name; names missing at this commit are recorded as absent.

    Every module is imported first, so that bindings made by modules the
    package imports lazily (``cli``, ``verify``) are wrapped too.
    """
    for module in sorted({m for _, m, _ in FUNCTIONS + CONSTRUCTORS}):
        try:
            importlib.import_module(module)
        except ImportError:
            pass
    for name, module, qualname in FUNCTIONS:
        tracer.trace_function(name, module, qualname)
    tracer.trace_function("folner.reduce_to_f", "thompsonf.folner", "reduce_to_f", _reduction_counts)
    tracer.trace_function("diagnostics.ball", "thompsonf.diagnostics", "ball", _ball_counts)
    _trace_ordered_map(tracer)
    for name, module, qualname in CONSTRUCTORS:
        tracer.trace_constructor(name, module, qualname)


def _trace_ordered_map(tracer: Tracer) -> None:
    # the item count is read from the argument, which may be a one-shot iterator
    def count_items(fn):
        def counted(f, items, *args, **kwargs):
            items = list(items)
            tracer.counters["ordered_map_items"] += len(items)
            return fn(f, items, *args, **kwargs)

        return counted

    tracer.trace_function(
        "concurrency.ordered_map", "thompsonf._concurrency", "ordered_map", wrap=count_items
    )


# per-layer metric -> unit, in the order of the ``per_layer`` list
UNITS = {
    m["name"]: m["unit"]
    for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
}

# per-layer metric -> [(end-to-end metric, workload), ...] it should move
MOVES: dict[str, list[tuple[str, str]]] = {
    "exactnum.parse.calls": [("op_p50_ms", w) for w in REDUCE],
    "exactnum.parse.self_ms": [("op_p50_ms", w) for w in REDUCE],
    "exactnum.format.calls": [("op_p50_ms", "ball-defect"), ("op_p50_ms", "verify")],
    "exactnum.format.self_ms": [("op_p50_ms", "ball-defect"), ("op_p50_ms", "verify")],
    "exactnum.fraction_ops": [("items_per_s", w) for w in ALL],
    "partition.t_of.calls": [("items_per_s", w) for w in REDUCE + ("verify",)],
    "partition.t_of.self_ms": [("items_per_s", w) for w in REDUCE + ("verify",)],
    "partition.marked_set.constructions": [("items_per_s", w) for w in REDUCE + ("verify",)],
    "partition.dyadic_partition.constructions": [("items_per_s", w) for w in REDUCE + ("verify",)],
    "partition.construct.self_ms": [("items_per_s", w) for w in REDUCE + ("verify",)],
    "partition.mesh.calls": [("items_per_s", w) for w in REDUCE],
    "felement.construct.calls": [
        ("items_per_s", "ball-defect"), ("peak_rss_mib", "ball-defect"),
    ] + [("items_per_s", w) for w in REDUCE],
    "felement.construct.self_ms": [
        ("items_per_s", "ball-defect"), ("peak_rss_mib", "ball-defect"),
    ] + [("items_per_s", w) for w in REDUCE],
    "felement.compose.calls": [("items_per_s", "ball-defect")],
    "felement.compose.self_ms": [("items_per_s", "ball-defect")],
    "felement.compose.total_ms": [("items_per_s", "ball-defect")],
    "felement.apply.calls": [("items_per_s", w) for w in ALL],
    "felement.apply.self_ms": [("items_per_s", w) for w in ALL],
    "felement.invert.calls": [("items_per_s", "verify")],
    "felement.f_of_partition.calls": [("items_per_s", w) for w in REDUCE],
    "felement.f_of_partition.self_ms": [("items_per_s", w) for w in REDUCE],
    "felement.act_marked.calls": [("items_per_s", w) for w in REDUCE],
    "felement.act_marked.self_ms": [("items_per_s", w) for w in REDUCE],
    "felement.to_minimal_pair.calls": [("items_per_s", "verify")],
    "felement.to_minimal_pair.self_ms": [("items_per_s", "verify")],
    "felement.act_partition.calls": [("items_per_s", "verify")],
    "felement.canonical_key.calls": [("op_p50_ms", "ball-defect")],
    "folner.reduce_to_f.self_ms": [("items_per_s", w) for w in REDUCE],
    "folner.defect_marked.self_ms": [("items_per_s", w) for w in REDUCE],
    "folner.defect_elements.self_ms": [("items_per_s", w) for w in REDUCE + ("ball-defect",)],
    "folner.load_family.self_ms": [("op_p50_ms", w) for w in REDUCE],
    "folner.collision_ratio": [("items_per_s", w) for w in REDUCE],
    "folner.identity_checks.pass_ratio": [("items_per_s", w) for w in REDUCE],
    "diagnostics.ball.self_ms": [("op_p50_ms", "ball-defect")],
    "diagnostics.ball.new_ratio": [("items_per_s", "ball-defect")],
    "verify.run_suites.self_ms": [("op_p50_ms", "verify")],
    "cli.main.self_ms": [("op_p50_ms", w) for w in REDUCE + ("verify",)],
    "cli.output_bytes": [("op_p50_ms", w) for w in REDUCE + ("verify",)],
    "concurrency.ordered_map.calls": [("items_per_s", w) for w in REDUCE + ("verify",)],
    "concurrency.ordered_map.items": [("items_per_s", w) for w in REDUCE + ("verify",)],
    "concurrency.ordered_map.self_ms": [("items_per_s", w) for w in REDUCE + ("verify",)],
    "tracer.absent_names": [],
}


def layer_metrics(tracer: Tracer, fraction_ops: int, output_bytes: int) -> dict[str, float]:
    """Every per-layer metric of one traced run, in ``UNITS`` order."""
    self_ms = {name: 1000.0 * s for name, s in tracer.self_times().items()}
    c = tracer.counters

    def ms(*names: str) -> float:
        return sum(self_ms.get(n, 0.0) for n in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {
        "exactnum.fraction_ops": fraction_ops,
        "partition.marked_set.constructions": tracer.calls("partition.marked_set"),
        "partition.dyadic_partition.constructions": tracer.calls("partition.dyadic_partition"),
        "partition.construct.self_ms": ms("partition.marked_set", "partition.dyadic_partition"),
        "felement.compose.total_ms": 1000.0 * tracer.total_time("felement.compose"),
        "folner.collision_ratio": ratio(c["collisions"], c["family_size"]),
        "folner.identity_checks.pass_ratio": ratio(c["identity_checks_passed"], c["identity_checks"]),
        "diagnostics.ball.new_ratio": ratio(
            c["ball_new_elements"], tracer.calls_under("felement.compose", "diagnostics.ball")
        ),
        "cli.output_bytes": output_bytes,
        "concurrency.ordered_map.items": c["ordered_map_items"],
        "tracer.absent_names": len(tracer.absent),
    }
    out = {}
    for metric in UNITS:
        if metric in values:
            out[metric] = values[metric]
            continue
        span, kind = metric.rsplit(".", 1)
        out[metric] = tracer.calls(span) if kind == "calls" else ms(span)
    return out
