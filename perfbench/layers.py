"""Which public entry points each layer's spans wrap, and the per-layer
metrics computed from those spans.

Every per-layer metric is normalised per operation (one graded
submission; one request for the served stack's layers, see
:mod:`perfbench.serve`), so runs of different length compare directly.
Seconds are self time: the span minus its wrapped children.
"""

from __future__ import annotations

from typing import Dict

from perfbench.trace import Tracer

#: Every per-layer metric and its unit, in BENCHMARK.json order. A
#: workload that does not exercise a layer reports 0 for it.
PER_LAYER = {
    "sat.calls": "count",
    "sat.busy_s": "s",
    "sat.conflicts": "count",
    "sat.propagations": "count",
    "sat.decisions": "count",
    "engines.iterations": "count",
    "engines.blocked_cubes": "count",
    "engines.encode_s": "s",
    "engines.self_s": "s",
    "explore.regions": "count",
    "explore.busy_s": "s",
    "explore.leaves": "count",
    "explore.forker_runs": "count",
    "explore.useful_ratio": "ratio",
    "verify.sweeps": "count",
    "verify.busy_s": "s",
    "verify.table_verdict_s": "s",
    "compile.candidate_runs": "count",
    "compile.fuel": "count",
    "compile.outcome_s": "s",
    "mpy.parse_s": "s",
    "eml.rewrite_s": "s",
    "eml.holes": "count",
    "analysis.triage_s": "s",
    "analysis.triage_hit_ratio": "ratio",
    "core.render_s": "s",
    "core.self_s": "s",
    "service.canonicalize_s": "s",
    "service.cache_get_s": "s",
    "service.cache_hit_ratio": "ratio",
    "service.cache_put_s": "s",
    "service.store_flush_s": "s",
    "service.batch_dedup_ratio": "ratio",
    "server.grade_s": "s",
    "server.codec_s": "s",
    "server.queue_wait_s": "s",
    "workers.ipc_s": "s",
    "fleet.hop_p50_ms": "ms",
    "fleet.node_imbalance": "ratio",
    "loadgen.lag_p99_ms": "ms",
    "trace.residual_share": "ratio",
    "trace.overhead": "ratio",
}


def _count_table(tracer: Tracer, index: int, args: tuple, table) -> None:
    tracer.counts["explore.leaves"] += len(table)
    tracer.counts["explore.forker_runs"] += table.runs


def _count_verdict(tracer: Tracer, index: int, args: tuple, result) -> None:
    matching, failing = result
    tracer.counts["explore.failing_leaves"] += len(failing)
    tracer.counts["explore.verdict_leaves"] += len(matching) + len(failing)


def _count_holes(tracer: Tracer, index: int, args: tuple, result) -> None:
    _tilde, registry = result
    tracer.counts["eml.holes"] += len(registry)


def _count_triage(tracer: Tracer, index: int, args: tuple, record) -> None:
    tracer.counts["analysis.triage_hits"] += record is not None


def _count_cache_get(tracer: Tracer, index: int, args: tuple, record) -> None:
    tracer.counts["service.cache_hits"] += record is not None


def _count_batch(tracer: Tracer, index: int, args: tuple, results) -> None:
    stats = args[0].stats
    tracer.counts["service.batch_total"] += stats.total
    tracer.counts["service.batch_dedup"] += stats.dedup_hits


def install_solve_path(tracer: Tracer) -> None:
    """Spans from the batch runner down to the SAT solver (in-process)."""
    from repro.analysis import triage
    from repro.core import api
    from repro.core.feedback import FeedbackGenerator
    from repro.engines.base import CandidateSpace
    from repro.engines.cegismin import CegisMinEngine
    from repro.engines.encoding import HoleEncoding
    from repro.engines.verify import BoundedVerifier
    from repro.sat.solver import Solver
    from repro.service import runner
    from repro.service.cache import ResultCache

    tracer.wrap(runner.BatchRunner, "run", "service.batch", _count_batch)
    tracer.wrap(runner, "canonicalize", "service.canonicalize")
    tracer.wrap(ResultCache, "get", "service.cache_get", _count_cache_get)
    tracer.wrap(ResultCache, "put", "service.cache_put")
    tracer.wrap(triage, "triage_record", "analysis.triage", _count_triage)
    tracer.wrap(api, "parse_program", "mpy.parse")
    tracer.wrap(api, "rewrite_submission", "eml.rewrite", _count_holes)
    tracer.wrap(api, "to_source", "core.render")
    tracer.wrap(FeedbackGenerator, "items", "core.render")
    tracer.wrap(CegisMinEngine, "solve", "engines.cegismin")
    tracer.wrap(HoleEncoding, "block_cube", "engines.encode")
    tracer.wrap(Solver, "solve", "sat.solve")
    tracer.wrap(CandidateSpace, "explore_free_region", "explore.region", _count_table)
    tracer.wrap(CandidateSpace, "outcome", "compile.outcome")
    tracer.wrap(BoundedVerifier, "find_counterexample", "verify.sweep")
    tracer.wrap(BoundedVerifier, "table_verdict", "verify.table_verdict", _count_verdict)


def engine_totals(records) -> Dict[str, float]:
    """Sums of the engine counters the program returns per record."""
    totals: Dict[str, float] = {}
    for record in records:
        engine = ((record or {}).get("metrics") or {}).get("engine") or {}
        for key, value in engine.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                totals[key] = totals.get(key, 0) + value
    return totals


def solve_path_metrics(
    tracer: Tracer,
    records,
    operations: int,
    wall_s: float,
) -> Dict[str, float]:
    """Per-layer metrics of an in-process traced run over ``operations``
    graded submissions whose records (dicts) are ``records``."""
    times = tracer.layer_times()
    counts = tracer.counts
    engine = engine_totals(records)
    per = 1.0 / max(1, operations)

    def self_s(name: str) -> float:
        return times.get(name, {}).get("self_s", 0.0) * per

    def calls(name: str) -> float:
        return times.get(name, {}).get("calls", 0) * per

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    covered = sum(row["self_s"] for row in times.values())
    return {
        "sat.calls": calls("sat.solve"),
        "sat.busy_s": self_s("sat.solve"),
        "sat.conflicts": engine.get("sat_conflicts", 0) * per,
        "sat.propagations": engine.get("sat_propagations", 0) * per,
        "sat.decisions": engine.get("sat_decisions", 0) * per,
        "engines.iterations": engine.get("iterations", 0) * per,
        "engines.blocked_cubes": calls("engines.encode"),
        "engines.encode_s": self_s("engines.encode"),
        "engines.self_s": self_s("engines.cegismin"),
        "explore.regions": calls("explore.region"),
        "explore.busy_s": self_s("explore.region"),
        "explore.leaves": counts["explore.leaves"] * per,
        "explore.forker_runs": counts["explore.forker_runs"] * per,
        "explore.useful_ratio": ratio(
            counts["explore.failing_leaves"], counts["explore.verdict_leaves"]
        ),
        "verify.sweeps": calls("verify.sweep"),
        "verify.busy_s": self_s("verify.sweep"),
        "verify.table_verdict_s": self_s("verify.table_verdict"),
        "compile.candidate_runs": calls("compile.outcome"),
        "compile.fuel": engine.get("fuel_consumed", 0) * per,
        "compile.outcome_s": self_s("compile.outcome"),
        "mpy.parse_s": self_s("mpy.parse"),
        "eml.rewrite_s": self_s("eml.rewrite"),
        "eml.holes": counts["eml.holes"] * per,
        "analysis.triage_s": self_s("analysis.triage"),
        "analysis.triage_hit_ratio": ratio(
            counts["analysis.triage_hits"], calls("analysis.triage") / per
        ),
        "core.render_s": self_s("core.render"),
        "core.self_s": self_s("core.generate_feedback"),
        "service.canonicalize_s": self_s("service.canonicalize"),
        "service.cache_get_s": self_s("service.cache_get"),
        "service.cache_hit_ratio": ratio(
            counts["service.cache_hits"], calls("service.cache_get") / per
        ),
        "service.cache_put_s": self_s("service.cache_put"),
        "service.batch_dedup_ratio": ratio(
            counts["service.batch_dedup"], counts["service.batch_total"]
        ),
        "trace.residual_share": max(0.0, wall_s - covered) / wall_s if wall_s else 0.0,
    }


def complete(values: Dict[str, float]) -> Dict[str, dict]:
    """Every per-layer metric with its unit (0 where not exercised)."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER.items()
    }

