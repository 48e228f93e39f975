"""Traces a ``repro-feedback serve`` process from outside its code.

The benchmark puts this directory on ``PYTHONPATH`` of the servers it
launches for a traced run, with ``PERFBENCH_SERVER_TRACE`` set to an
output prefix. Python imports ``sitecustomize`` at start-up, so every
server process (fleet backends included: the launcher passes its
environment on) wraps its service-layer entry points in spans and, at
exit, writes its spans to ``<prefix>-<pid>.spans.jsonl`` and its
per-layer times and counts to ``<prefix>-<pid>.json``.
Without the variable this module does nothing.
"""

import atexit
import json
import os
import sys


def _install(prefix: str) -> None:
    bench_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    sys.path.append(bench_root)
    from perfbench.trace import Tracer
    from repro.server import service
    from repro.server.http import FeedbackRequestHandler
    from repro.service.cache import ResultCache
    from repro.service.store import StoreClient
    from repro.service.workers import ProcessExecutor

    tracer = Tracer()

    def ipc(tracer, index, args, record):
        span = tracer.spans[index]
        worker_s = record.get("wall_time") if isinstance(record, dict) else None
        if isinstance(worker_s, (int, float)):
            tracer.counts["workers.ipc_s"] += max(0.0, span[2] - span[1] - worker_s)
            tracer.counts["workers.graded"] += 1

    tracer.wrap(
        service.FeedbackService, "grade", "server.grade",
        request_id=lambda args, kwargs: kwargs.get("request_id"),
    )
    tracer.wrap(service, "canonicalize", "service.canonicalize")
    tracer.wrap(service, "triage_record", "analysis.triage")
    tracer.wrap(ResultCache, "get", "service.cache_get")
    tracer.wrap(ResultCache, "put", "service.cache_put")
    tracer.wrap(StoreClient, "get", "service.cache_get")
    tracer.wrap(StoreClient, "put", "service.cache_put")
    tracer.wrap(StoreClient, "flush", "service.store_flush")
    tracer.wrap(ProcessExecutor, "grade", "workers.grade", ipc)
    tracer.wrap(FeedbackRequestHandler, "_read_request", "server.codec")
    tracer.wrap(FeedbackRequestHandler, "_send_json", "server.codec")

    def dump() -> None:
        tracer.dump(f"{prefix}-{os.getpid()}.spans.jsonl")
        with open(f"{prefix}-{os.getpid()}.json", "w") as handle:
            json.dump(
                {"layers": tracer.layer_times(), "counts": dict(tracer.counts)},
                handle,
            )

    atexit.register(dump)


if os.environ.get("PERFBENCH_SERVER_TRACE"):
    _install(os.environ["PERFBENCH_SERVER_TRACE"])
