"""The in-process workloads: ``fig2`` and ``table1``.

``fig2``: the paper's Fig. 2(a)/(b)/(c) ``computeDeriv`` submissions,
one closed-loop caller repeating the trio through
``repro.core.generate_feedback`` with a pre-materialized verifier. It is
the paper's worked example; most of its time is in the solver.

``table1``: a studentgen slice of every registry problem through the
Table 1 path (``repro.harness.run_problem``: ``BatchRunner``,
``jobs=1``) under one per-submission budget. It is the paper's headline
fix rate and covers every error model.
"""

from __future__ import annotations

import gc
import hashlib
import random
from typing import Dict, List, Tuple

from perfbench import layers, serve
from perfbench.common import (
    OUT,
    InterpChecker,
    budget_bound,
    median_or,
    metric,
    probe_setup,
    quantile,
    tail,
    tree_peak_rss_mb,
)
from perfbench.trace import Tracer, clock

FIG2_PROBLEM = "compDeriv-6.00x"
#: Generous: Fig. 2(c), the slowest, solves in about 1.5 s on a 2-core
#: container; the budget must never decide a Fig. 2 verdict.
FIG2_BUDGET_S = 60.0
FIG2_EXPECTED_COSTS = {"fig2a": 2, "fig2b": 1, "fig2c": 2}

#: The paper's Fig. 2 submissions, verbatim.
FIG2 = {
    "fig2a": """def computeDeriv(poly):
    deriv = []
    zero = 0
    if (len(poly) == 1):
        return deriv
    for e in range(0,len(poly)):
        if (poly[e] == 0):
            zero += 1
        else:
            deriv.append(poly[e]*e)
    return deriv
""",
    "fig2b": """def computeDeriv(poly):
    idx = 1
    deriv = list([])
    plen = len(poly)
    while idx < plen:
        coeff = poly.pop(1)
        deriv += [coeff * idx]
        idx = idx + 1
    if len(poly) < 2:
        return deriv
""",
    "fig2c": """def computeDeriv(poly):
    length = int(len(poly)-1)
    i = length
    deriv = range(1,length)
    if len(poly) == 1:
        deriv = [0]
    else:
        while i >= 0:
            new = poly[i] * i
            i -= 1
            deriv[i] = new
    return deriv
""",
}

#: The Table 1 slice: studentgen corpus seed, incorrect submissions per
#: problem and per-submission solver budget. The slice content is fixed
#: (the paper's Table 1 is one fixed test set); ``--seed`` orders each
#: problem's submissions. At 8 per problem, studentgen seeds 2/3/4 moved
#: the median grade time between 21 and 51 ms and the timeout count
#: between 20 and 27 of 128, so a seed-drawn slice of affordable size
#: cannot be steady. At 1 s, a budget-bound submission costs 1 s instead
#: of 5; 4 per problem keeps the one pass near 17 s on a 2-core container.
TABLE1_SLICE_SEED = 2013
TABLE1_PER_PROBLEM = 4
TABLE1_BUDGET_S = 1.0
#: Passes over the slice per untraced run: the median grade time sits
#: where the slice's times are sparse (24, 27, 30, 32 ms around it), so
#: one pass let it jump by a fifth between runs.
TABLE1_PASSES = 2
SETUP_REPEATS = 3

#: Engine counters that must repeat exactly for a verdict the budget did
#: not decide.
DETERMINISTIC_COUNTS = ("sat_calls", "blocked_cubes", "table_leaves")


def counts(record: dict) -> dict:
    """Verdict and deterministic engine counters of one record."""
    engine = (record.get("metrics") or {}).get("engine") or {}
    out = {key: engine.get(key) for key in DETERMINISTIC_COUNTS}
    out.update(
        status=record.get("status"),
        cost=record.get("cost"),
        budget_bound=budget_bound(record),
    )
    return out


def _grade_metrics(
    wall_s: float,
    grade_s: List[float],
    statuses: List[str],
    failed: int,
    setup_s: float,
) -> Tuple[Dict[str, dict], dict]:
    """The end-to-end metrics shared by the in-process workloads."""
    n = len(statuses)
    fixed = statuses.count("fixed")
    decided = sum(1 for s in statuses if s not in ("timeout", "error"))
    tail_value, tail_pct, tail_n = tail(grade_s)
    per_second = metric(n / wall_s, "1/s")
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(tree_peak_rss_mb(), "MB"),
        "subs_per_s": per_second,
        "grade_p50_ms": metric(1000 * median_or(grade_s), "ms"),
        "grade_tail_ms": metric(1000 * tail_value, "ms"),
        # Every submission of both workloads is incorrect.
        "fix_rate": metric(fixed / max(1, n), "ratio"),
        "decided_rate": metric(decided / max(1, n), "ratio"),
        "ok_rate": metric(1.0 - min(failed, n) / max(1, n), "ratio"),
        # Closed loop: a call is due when it is sent, so its latency is
        # its grade time, and the offered rate is the completion rate.
        "latency_p50_ms": metric(1000 * median_or(grade_s), "ms"),
        "latency_p99_ms": metric(1000 * quantile(grade_s, 0.99), "ms"),
        "goodput_rps": per_second,
    }
    detail = {
        "grade_tail_percentile": tail_pct,
        "grade_samples": tail_n,
        "statuses": {s: statuses.count(s) for s in sorted(set(statuses))},
    }
    return metrics, detail


def _trace_detail(tracer: Tracer, params: dict, seed: int) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"spans-{params['workload']}-seed{seed}.jsonl"
    tracer.dump(str(path))
    return {
        "span_file": path.name,
        "layers": tracer.layer_times(),
        "summary": {"spans": len(tracer.spans)},
    }


# -- fig2 -----------------------------------------------------------------


def _fig2_loop(problem, verifier, rng, seconds, tracer=None):
    """Repeat the trio (seeded order) until ``seconds`` have passed:
    ``([(name, seconds, record)], wall)``."""
    from repro.core import generate_feedback
    from repro.service.records import report_to_record

    calls: List[Tuple[str, float, dict]] = []
    started = clock()
    while clock() - started < seconds:
        order = list(FIG2)
        rng.shuffle(order)
        for name in order:
            t0 = clock()
            span = None
            if tracer:
                tracer.set_request(f"{name}#{len(calls)}")
                span = tracer.begin("core.generate_feedback")
            report = generate_feedback(
                FIG2[name],
                problem.spec,
                problem.model,
                timeout_s=FIG2_BUDGET_S,
                verifier=verifier,
            )
            if tracer:
                tracer.end(span)
            calls.append((name, clock() - t0, report_to_record(report)))
    return calls, clock() - started


def _fig2_checks(problem, calls, checker) -> List[str]:
    """Costs 2/1/2, minimal, interpreter-verified, and the same engine
    counts on every call of one submission."""
    failures = []
    first: Dict[str, dict] = {}
    for name, _seconds, record in calls:
        if not (
            record["status"] == "fixed"
            and record["cost"] == FIG2_EXPECTED_COSTS[name]
            and record["minimal"] is True
            and checker.check(problem.spec, record["fixed_source"])
        ):
            failures.append(f"{name}: {record['status']} cost={record['cost']}")
        if first.setdefault(name, counts(record)) != counts(record):
            failures.append(f"{name}: engine counts differ between calls")
    return failures


def run_fig2(seed: int, seconds: float, trace: bool) -> Tuple[dict, dict]:
    from repro.engines import BoundedVerifier
    from repro.problems import get_problem

    setup_s, setup_samples = probe_setup([FIG2_PROBLEM], SETUP_REPEATS)
    problem = get_problem(FIG2_PROBLEM)
    verifier = BoundedVerifier(problem.spec)
    verifier.inputs
    rng = random.Random(seed)
    checker = InterpChecker()
    params = {"workload": "fig2", "problem": FIG2_PROBLEM, "budget_s": FIG2_BUDGET_S, "callers": 1}

    if not trace:
        calls, wall = _fig2_loop(problem, verifier, rng, seconds)
        failures = _fig2_checks(problem, calls, checker)
        metrics, detail = _grade_metrics(
            wall,
            [c[1] for c in calls],
            [c[2]["status"] for c in calls],
            len(failures),
            setup_s,
        )
        by_name = {
            name: round(1000 * median_or([c[1] for c in calls if c[0] == name]), 3)
            for name in FIG2
        }
        detail.update(
            params=params,
            setup_samples=setup_samples,
            failures=failures,
            per_submission={name: counts(record) for name, _s, record in calls},
            summary={"fig2_p50_ms": by_name, "trios": len(calls) // 3},
        )
        return {"attempted": len(calls), "failed": len(failures), "metrics": metrics}, detail

    # Traced: an untraced half, then a traced half of the same loop.
    plain, plain_wall = _fig2_loop(problem, verifier, rng, seconds / 2)
    tracer = Tracer()
    layers.install_solve_path(tracer)
    try:
        calls, wall = _fig2_loop(problem, verifier, rng, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    failures = _fig2_checks(problem, plain + calls, checker)
    values = layers.solve_path_metrics(tracer, [c[2] for c in calls], len(calls), wall)
    values["trace.overhead"] = (wall / len(calls)) / (plain_wall / len(plain)) - 1.0
    detail = _trace_detail(tracer, params, seed)
    detail.update(params=params, failures=failures)
    return {
        "attempted": len(plain) + len(calls),
        "failed": len(failures),
        "metrics": layers.complete(values),
    }, detail


# -- table1 ---------------------------------------------------------------


def table1_slice() -> Dict[str, list]:
    from repro.problems import all_problems
    from repro.studentgen import generate_corpus

    return {
        problem.name: generate_corpus(
            problem, incorrect_count=TABLE1_PER_PROBLEM, seed=TABLE1_SLICE_SEED
        ).incorrect
        for problem in all_problems()
    }


class _Capture:
    """Stands in for the runner's ``generate_feedback``: keeps each call's
    time and record and, traced, opens the ``core.generate_feedback`` span."""

    def __init__(self, tracer=None):
        from repro.service import runner
        from repro.service.records import report_to_record

        self.to_record = report_to_record
        self.runner = runner
        self.original = runner.generate_feedback
        self.tracer = tracer
        self.calls: List[Tuple[str, float, dict]] = []
        runner.generate_feedback = self

    def __call__(self, source, *args, **kwargs):
        t0 = clock()
        span = None
        if self.tracer:
            self.tracer.set_request(_submission_id(source))
            span = self.tracer.begin("core.generate_feedback")
        try:
            report = self.original(source, *args, **kwargs)
        finally:
            if self.tracer:
                self.tracer.end(span)
        self.calls.append((source, clock() - t0, self.to_record(report)))
        return report

    def close(self) -> None:
        self.runner.generate_feedback = self.original


def _submission_id(source: str) -> str:
    return hashlib.sha1(source.encode()).hexdigest()[:12]


def _table1_pass(slice_, verifiers, rng, tracer=None):
    """One pass over the slice, problems in registry order and each one's
    submissions in a seed-drawn order: ``(rows, calls, wall, records)``. Rows are ``(problem, source, SubmissionRecord)``, calls
    ``(source, seconds, record)`` per ``generate_feedback`` call, records
    the graded record dict by source."""
    from repro.harness import run_problem
    from repro.problems import get_problem
    from repro.studentgen import Corpus

    capture = _Capture(tracer)
    rows = []
    wall = 0.0
    try:
        # Registry order, as the Table 1 runner goes: a seed-drawn problem
        # order moved peak RSS between 75 and 84 MB.
        for name in slice_:
            submissions = list(slice_[name])
            rng.shuffle(submissions)
            # Untimed: the previous problem's garbage must not decide
            # where this one's peak memory lands.
            gc.collect()
            started = clock()
            run = run_problem(
                get_problem(name),
                corpus=Corpus(problem=name, incorrect=submissions),
                timeout_s=TABLE1_BUDGET_S,
                verifier=verifiers[name],
            )
            wall += clock() - started
            for submission, record in zip(submissions, run.records):
                rows.append((name, submission.source, record))
    finally:
        capture.close()
    records = {source: record for source, _seconds, record in capture.calls}
    return rows, capture.calls, wall, records


def _table1_checks(rows, records, checker) -> List[str]:
    """Error records and fixed sources that fail the interpreter."""
    from repro.problems import get_problem

    failures = []
    for name, source, row in rows:
        if row.status == "error":
            failures.append(f"{name}: error")
        elif row.status == "fixed":
            fixed_source = (records.get(source) or {}).get("fixed_source")
            if not fixed_source or not checker.check(get_problem(name).spec, fixed_source):
                failures.append(f"{name}: fixed source fails interp re-verification")
    return failures


def _table1_submissions(rows, records) -> Dict[str, dict]:
    """Verdict and engine counts per slice submission; one answered by
    triage or dedup has no engine counts of its own."""
    return {
        f"{name}:{_submission_id(source)}": counts(
            records.get(source) or {"status": row.status, "cost": row.cost, "minimal": True}
        )
        for name, source, row in rows
    }


def run_table1(seed: int, seconds: float, trace: bool) -> Tuple[dict, dict]:
    """``TABLE1_PASSES`` passes over the fixed-size slice; ``seconds`` does
    not apply (a pass takes about 17 s on a 2-core container). The traced
    run adds the served stack's layers (:func:`perfbench.serve.served_layers`)."""
    from repro.engines import BoundedVerifier
    from repro.problems import all_problems

    names = [problem.name for problem in all_problems()]
    setup_s, setup_samples = probe_setup(names, SETUP_REPEATS)
    slice_ = table1_slice()
    verifiers = {}
    for problem in all_problems():
        verifiers[problem.name] = BoundedVerifier(problem.spec)
        verifiers[problem.name].inputs
    checker = InterpChecker()
    params = {
        "workload": "table1",
        "problems": len(names),
        "per_problem": TABLE1_PER_PROBLEM,
        "slice_seed": TABLE1_SLICE_SEED,
        "submissions": sum(len(v) for v in slice_.values()),
        "budget_s": TABLE1_BUDGET_S,
        "passes": TABLE1_PASSES,
        "jobs": 1,
    }

    if not trace:
        rng = random.Random(seed)
        rows, calls, wall, failures, passes = [], [], 0.0, [], []
        for _ in range(TABLE1_PASSES):
            pass_rows, pass_calls, pass_wall, records = _table1_pass(slice_, verifiers, rng)
            failures += _table1_checks(pass_rows, records, checker)
            passes.append(_table1_submissions(pass_rows, records))
            rows += pass_rows
            calls += pass_calls
            wall += pass_wall
        clock_sensitive = sorted(k for k, v in passes[0].items() if v["budget_bound"])
        for later in passes[1:]:
            for key, counted in later.items():
                if counted == passes[0][key]:
                    continue
                if counted["budget_bound"] or passes[0][key]["budget_bound"]:
                    clock_sensitive.append(key)
                else:
                    failures.append(f"{key}: verdict or engine counts differ between passes")
        metrics, detail = _grade_metrics(
            wall, [c[1] for c in calls], [r[2].status for r in rows], len(failures), setup_s
        )
        detail.update(
            params=params,
            setup_samples=setup_samples,
            failures=failures,
            per_submission=passes[0],
            clock_sensitive=sorted(set(clock_sensitive)),
            summary={"statuses": detail["statuses"], "wall_s": round(wall, 3)},
        )
        return {"attempted": len(rows), "failed": len(failures), "metrics": metrics}, detail

    # Traced: an untraced pass, then a traced pass in the same order.
    plain_rows, _calls, plain_wall, plain_records = _table1_pass(
        slice_, verifiers, random.Random(seed)
    )
    tracer = Tracer()
    layers.install_solve_path(tracer)
    try:
        rows, _calls, wall, records = _table1_pass(slice_, verifiers, random.Random(seed), tracer)
    finally:
        tracer.uninstall()
    failures = _table1_checks(plain_rows, plain_records, checker)
    failures += _table1_checks(rows, records, checker)
    values = layers.solve_path_metrics(tracer, list(records.values()), len(rows), wall)
    values["trace.overhead"] = wall / plain_wall - 1.0
    served_values, served = serve.served_layers(seed)
    for name in serve.SERVED_LAYERS:
        values[name] = served_values[name]
    detail = _trace_detail(tracer, params, seed)
    detail.update(params=params, failures=failures, served=served)
    return {
        "attempted": len(plain_rows) + len(rows) + served["attempted"],
        "failed": len(failures) + served["failed"],
        "metrics": layers.complete(values),
    }, detail
