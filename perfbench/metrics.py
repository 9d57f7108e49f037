"""The metric names and units every workload prints.

``run.py --trace 0`` prints exactly :data:`END_TO_END`; ``--trace 1`` prints
exactly :data:`PER_LAYER`.  ``BENCHMARK.json`` lists the same names and
units (the self-test checks that they agree).  A per-layer metric of a layer
the workload never enters reads 0: the layer did no work per op.
"""

from __future__ import annotations

from typing import Dict, Sequence

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}

PHASES = (
    "planner",
    "eliminate",
    "view_unfolding",
    "left_compose",
    "right_compose",
    "normalize",
    "deskolemize",
    "simplify",
)

PER_LAYER: Dict[str, str] = {
    "http.connects_per_op": "count",
    "http.connect_ms": "ms",
    "http.roundtrip_ms": "ms",
    "textio.parse_ms": "ms",
    "textio.serialize_ms": "ms",
    "server.overhead_ms": "ms",
    "server.queue_ms": "ms",
    "server.execute_ms": "ms",
    "server.batch_size_mean": "count",
    "compose.call_ms": "ms",
    **{f"compose.phase.{phase}_ms": "ms" for phase in PHASES},
    "compose.eliminated_frac": "ratio",
    "compose.output_operators": "count",
    "engine.hop_ms": "ms",
    "engine.hops_reused_frac": "ratio",
    "engine.reuse_overhead_ms": "ms",
    "catalog.put_ms": "ms",
    "catalog.put_growth": "ratio",
    "catalog.read_ms": "ms",
    "catalog.write_amp": "ratio",
    "catalog.shard_lock_ms": "ms",
    "journal.fsync_ms": "ms",
    "router.relay_ms": "ms",
    "router.retries": "count",
    "replica.bootstrap_s": "s",
    "replica.catchup_s": "s",
    "replica.interference_ms": "ms",
    "loadgen.cpu_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.accounting_gap_frac": "ratio",
    "latency_p95_ms": "ms",
    "latency_p99_ms": "ms",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "space_amp": "ratio",
    "error_rate": "ratio",
}


def result(correct: bool, attempted: int, failed: int, values: Dict[str, float], trace: bool) -> dict:
    """The run's last stdout line: every metric of the selected list, with units.

    Raises ``KeyError`` naming a metric the workload forgot to measure.
    """
    table = PER_LAYER if trace else END_TO_END
    missing = sorted(set(table) - set(values))
    if missing:
        raise KeyError(f"workload did not measure {missing}")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in table.items()
        },
    }


def idle_layers() -> Dict[str, float]:
    """Every per-layer metric at 0 — the starting point a workload fills in."""
    return {name: 0.0 for name in PER_LAYER}


def compose_layers(results: Sequence) -> Dict[str, float]:
    """The ``compose.*`` figures of direct ``CompositionResult``s.

    Phase times are means of ``phase_breakdown()`` (buckets nest, see
    ``repro.compose.phases``); the elimination and operator figures are
    exact totals over ``results``.
    """
    values = {
        f"compose.phase.{phase}_ms": sum(
            r.phase_breakdown().get(phase, 0.0) for r in results
        ) * 1e3 / max(len(results), 1)
        for phase in PHASES
    }
    attempted = sum(len(r.attempted_symbols) for r in results)
    eliminated = sum(len(r.eliminated_symbols) for r in results)
    values["compose.eliminated_frac"] = eliminated / max(attempted, 1)
    values["compose.output_operators"] = sum(r.output_operator_count for r in results)
    return values
