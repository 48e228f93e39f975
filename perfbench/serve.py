"""The served stack, measured in the traced ``table1`` run.

A zipf(1.2) resubmission stream is replayed on ``repro-feedback serve``
(its default executor, a fresh ``--store`` log, only the stream's
problems warmed) and on ``serve --fleet 2``. Reads: almost every request
is a cache hit (codec, canonicalize, cache get). Writes: each distinct
submission's first request is a miss (triage, worker-pipe IPC, the
solve, cache put, store append and flush).

Each leg has two phases. *First seen*: every distinct submission once,
two closed-loop callers. *Resubmission*: open-loop zipf traffic with
seeded Poisson arrivals over at most two keep-alive connections. The
single server runs traced (spans from ``hook/sitecustomize.py``); the
fleet leg gives the router's hop and node balance.

Neither is an end-to-end workload: on a 2-core container their latency
medians and p99s spread by 0.23-1.0 (interquartile range over median)
across ten runs, past the largest bound a metric may have. A request
there costs about 2 ms, most of it process wake-ups that follow the
host's scheduling more than the code.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench.common import (
    BENCH_DIR,
    OUT,
    SRC,
    InterpChecker,
    budget_bound,
    descendants,
    quantile,
)

PROBLEMS = ("compDeriv-6.00x", "iterPower-6.00x", "evalPoly-6.00x", "oddTuples-6.00x")
#: Fixed population content (studentgen seed); the run's seed draws the
#: zipf ranks, the first-seen order and the arrival times.
POPULATION_SEED = 2013
PER_PROBLEM = 8
BUDGET_S = 1.0
ZIPF_S = 1.2
CONNECTIONS = 2
RATE_RPS = 200
WINDOW_S = 8.0
READY_TIMEOUT_S = 120.0
FLEET_BACKENDS = 2

#: The per-layer metrics the served legs provide (the rest come from the
#: in-process pass).
SERVED_LAYERS = (
    "service.store_flush_s",
    "server.grade_s",
    "server.codec_s",
    "server.queue_wait_s",
    "workers.ipc_s",
    "fleet.hop_p50_ms",
    "fleet.node_imbalance",
    "loadgen.lag_p99_ms",
)


# -- server processes -------------------------------------------------------

#: ``repro-feedback`` with Python's SIGINT handler restored: a process
#: started in the background inherits SIGINT ignored, and the server
#: drains (and a traced one writes its spans) only on KeyboardInterrupt.
_SERVE_MAIN = (
    "import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); "
    "from repro.cli import main; sys.exit(main(sys.argv[1:]))"
)


class Server:
    """One ``repro-feedback serve`` (or ``serve --fleet 2``) process tree."""

    def __init__(self, fleet: bool, tag: str, trace_prefix: Optional[str] = None):
        OUT.mkdir(parents=True, exist_ok=True)
        self.store = OUT / f"store-{tag}.log"
        self.log = OUT / f"server-{tag}.log"
        for path in (self.store, self.log):
            if path.exists():
                path.unlink()
        command = [
            sys.executable, "-c", _SERVE_MAIN, "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--store", str(self.store), "--only", *PROBLEMS,
        ]
        if fleet:
            command += ["--fleet", str(FLEET_BACKENDS)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        if trace_prefix:
            env["PYTHONPATH"] += os.pathsep + str(BENCH_DIR / "hook")
            env["PERFBENCH_SERVER_TRACE"] = trace_prefix
        self.started = time.perf_counter()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=env
            )
        self.port = 0

    def wait_ready(self) -> None:
        """Wait until ``/healthz`` shows every worker (of every node) ready."""
        pattern = re.compile(r"(?:serving|routing) on http://[\d.]+:(\d+)")
        deadline = self.started + READY_TIMEOUT_S
        while not self.port:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"server did not start: {self.log.read_text()[-2000:]}")
            found = pattern.search(self.log.read_text())
            if found:
                self.port = int(found.group(1))
            else:
                time.sleep(0.01)
        while True:
            try:
                health = get_json(self.port, "/healthz")
            except (OSError, http.client.HTTPException, ValueError):
                health = {}
            if _all_ready(health):
                return
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"server never became ready: {health}")
            time.sleep(0.005)

    def stop(self) -> None:
        """SIGINT (the graceful drain), then wait for every process the
        server started (workers, fleet nodes), killing stragglers."""
        tree = descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = time.monotonic() + 15
        while any(Path(f"/proc/{pid}").exists() for pid in tree):
            if time.monotonic() > deadline:
                for pid in tree:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            time.sleep(0.05)
        for path in self.store.parent.glob(self.store.name + "*"):
            path.unlink()
        if self.proc.returncode == 0:
            self.log.unlink()


def _all_ready(health: dict) -> bool:
    if health.get("status") != "ok":
        return False
    nodes = list(health.get("nodes", {}).values()) if "nodes" in health else [health]
    return bool(nodes) and all(
        node.get("workers_ready", 0) == node.get("workers", 0) for node in nodes
    )


def get_json(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


# -- load generator -------------------------------------------------------


class Connection:
    """One keep-alive connection; ``post`` returns (status, headers, body)."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def post(self, body: bytes) -> Tuple[int, Dict[str, str], dict]:
        self.conn.request(
            "POST", "/grade", body=body, headers={"Content-Type": "application/json"}
        )
        response = self.conn.getresponse()
        data = response.read()
        return response.status, dict(response.getheaders()), json.loads(data or b"{}")

    def close(self) -> None:
        self.conn.close()


class Sample:
    __slots__ = ("key", "due", "sent", "done", "status", "payload")

    def __init__(self, key: int, due: float):
        self.key = key
        self.due = due
        self.sent = self.done = 0.0
        self.status = 0
        self.payload: dict = {}


def drive(
    port: int,
    bodies: List[bytes],
    schedule: List[Tuple[float, int]],
    open_loop: bool = True,
) -> List[Sample]:
    """Send ``schedule`` (due offset in seconds, body index) over
    ``CONNECTIONS`` keep-alive connections. Closed loop (``open_loop``
    false): each connection sends its next request when the previous one
    returns, and a request is due when it is sent."""
    samples = [Sample(key, due) for due, key in schedule]
    cursor = iter(range(len(samples)))
    lock = threading.Lock()
    start = 0.0

    def worker() -> None:
        conn = Connection(port)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                sample = samples[index]
                sample.due += start
                delay = sample.due - time.perf_counter()
                if open_loop and delay > 0:
                    time.sleep(delay)
                sample.sent = time.perf_counter()
                if not open_loop:
                    sample.due = sample.sent
                try:
                    status, _headers, payload = conn.post(bodies[sample.key])
                except (OSError, http.client.HTTPException, ValueError):
                    conn.close()
                    conn = Connection(port)
                    status, payload = 0, {}
                sample.done = time.perf_counter()
                sample.status = status
                sample.payload = payload
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    # The generator's own collector pauses would read as server latency.
    gc.collect()
    gc.disable()
    start = time.perf_counter() + 0.05
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        gc.enable()
    return samples


def zipf_schedule(rng: random.Random, ranks: List[int], rps: float, seconds: float):
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranks))]
    schedule, t = [], 0.0
    while True:
        t += rng.expovariate(rps)
        if t >= seconds:
            return schedule
        schedule.append((t, rng.choices(ranks, weights)[0]))


# -- inputs and checks -----------------------------------------------------


def population():
    from repro.problems import get_problem
    from repro.studentgen import generate_corpus

    items = []
    for name in PROBLEMS:
        corpus = generate_corpus(
            get_problem(name), incorrect_count=PER_PROBLEM, seed=POPULATION_SEED
        )
        seen = set()
        for submission in corpus.incorrect:
            if submission.source not in seen:
                seen.add(submission.source)
                items.append((name, submission.source))
    return items


def window_stats(samples: List[Sample]) -> dict:
    ok = [s for s in samples if s.status == 200]
    return {
        "n": len(samples),
        "refused": len(samples) - len(ok),
        "latency_p50_ms": quantile([1000 * (s.done - s.due) for s in ok], 0.5),
        "latency_p99_ms": quantile([1000 * (s.done - s.due) for s in ok], 0.99),
        "lag_p99_ms": quantile([1000 * max(0.0, s.sent - s.due) for s in samples], 0.99),
    }


# -- the served legs --------------------------------------------------------


class _Stream:
    """The seeded inputs: population, zipf ranks, first-seen order and
    arrival schedule (the same for both legs)."""

    def __init__(self, seed: int):
        self.items = population()
        self.bodies = [
            json.dumps({"problem": name, "source": source, "timeout_s": BUDGET_S}).encode()
            for name, source in self.items
        ]
        rng = random.Random(seed)
        self.ranks = list(range(len(self.items)))
        rng.shuffle(self.ranks)
        self.first_order = list(range(len(self.items)))
        rng.shuffle(self.first_order)
        self.schedule = zipf_schedule(rng, self.ranks, RATE_RPS, WINDOW_S)

    def first_seen(self, port: int) -> List[Sample]:
        return drive(port, self.bodies, [(0.0, k) for k in self.first_order], open_loop=False)

    def window(self, port: int) -> List[Sample]:
        return drive(port, self.bodies, self.schedule)


def served_layers(seed: int) -> Tuple[Dict[str, float], dict]:
    """Replay the stream on a traced ``serve`` and on ``serve --fleet 2``.

    Returns the :data:`SERVED_LAYERS` values and a detail dict with
    ``attempted``, ``failed``, ``failures`` and ``clock_sensitive``.
    Checks: hit records equal their miss record, every served record
    equals the in-process pipeline's, and the fleet serves the same
    records as the single server.
    """
    stream = _Stream(seed)
    tag = f"serve-{os.getpid()}"
    prefix = str(OUT / f"layers-{tag}")
    legs = {}
    for leg, fleet, trace_prefix in (("serve", False, prefix), ("fleet", True, None)):
        server = Server(fleet, f"{tag}-{leg}", trace_prefix=trace_prefix)
        try:
            server.wait_ready()
            first = stream.first_seen(server.port)
            window = stream.window(server.port)
            stats = get_json(server.port, "/stats")
            hop = _hop_probe(server.port, stream) if fleet else 0.0
        finally:
            server.stop()
        legs[leg] = (first, window, stats, hop)

    dumps = []
    for old in OUT.glob(f"spans-serve-seed{seed}-*.jsonl"):
        old.unlink()
    for path in OUT.glob(f"layers-{tag}-*.json"):
        dumps.append(json.loads(path.read_text()))
        path.unlink()
        spans = path.with_suffix(".spans.jsonl")
        spans.rename(OUT / f"spans-serve-seed{seed}-{spans.name.split('-')[-1]}")
    first, window, stats, _ = legs["serve"]
    values = _served_layers(dumps, stats)
    fleet_first, fleet_window, fleet_stats, hop = legs["fleet"]
    requests = [node.get("requests", 0) for node in fleet_stats["nodes"].values()]
    values["fleet.node_imbalance"] = max(requests) / (sum(requests) / len(requests))
    values["fleet.hop_p50_ms"] = hop
    values["loadgen.lag_p99_ms"] = window_stats(window)["lag_p99_ms"]

    later: Dict[int, List[Sample]] = {}
    for sample in window:
        later.setdefault(sample.key, []).append(sample)
    failures, clock_sensitive = _check_records(
        stream.items, {s.key: s for s in first}, later, InterpChecker()
    )
    more_failures, more_clock = _compare_legs(stream, first, fleet_first)
    samples = [s for first, window, _, _ in legs.values() for s in first + window]
    refused = sum(1 for s in samples if s.status != 200)
    return values, {
        "attempted": len(samples),
        "failed": refused + len(failures) + len(more_failures),
        "failures": failures + more_failures,
        "clock_sensitive": clock_sensitive + more_clock,
        "params": {
            "problems": list(PROBLEMS),
            "population_seed": POPULATION_SEED,
            "distinct_submissions": len(stream.items),
            "budget_s": BUDGET_S,
            "zipf_s": ZIPF_S,
            "connections": CONNECTIONS,
            "rate_rps": RATE_RPS,
            "window_s": WINDOW_S,
            "fleet_backends": FLEET_BACKENDS,
        },
        "windows": {"serve": window_stats(window), "fleet": window_stats(fleet_window)},
        "server_layers": dumps,
    }


def _check_records(items, first_seen, later, checker) -> Tuple[List[str], List[str]]:
    """Hit and miss records agree; served ≡ the in-process pipeline;
    fixed sources pass the interpreter. Returns (failures, clock_sensitive)."""
    from repro.engines import BoundedVerifier
    from repro.problems import get_problem
    from repro.service.records import comparable_record
    from repro.service.workers import grade_record

    failures, clock_sensitive = [], []
    verifiers: Dict[str, BoundedVerifier] = {}
    for key, sample in first_seen.items():
        name, source = items[key]
        if sample.status != 200:
            continue  # counted as refused
        record = sample.payload["record"]
        view = comparable_record(record)
        for hit in later.get(key, ()):
            if hit.status == 200 and comparable_record(hit.payload["record"]) != view:
                failures.append(f"{name}#{key}: hit record differs from miss record")
                break
        if record["status"] == "error":
            failures.append(f"{name}#{key}: error record")
            continue
        problem = get_problem(name)
        if record["status"] == "fixed" and not checker.check(problem.spec, record["fixed_source"]):
            failures.append(f"{name}#{key}: fixed source fails interp re-verification")
        if budget_bound(record):
            clock_sensitive.append(f"{name}#{key}: served {record['status']} at the budget")
            continue
        if name not in verifiers:
            verifiers[name] = BoundedVerifier(problem.spec)
        direct = grade_record(
            problem.spec, problem.model, verifiers[name], source,
            "cegismin", BUDGET_S, None, None, analysis=True,
        )
        if comparable_record(direct) != view:
            if budget_bound(direct):
                clock_sensitive.append(f"{name}#{key}: in-process regrade hit the budget")
            else:
                failures.append(f"{name}#{key}: served record differs from the in-process pipeline")
    return failures, clock_sensitive


def _compare_legs(stream: _Stream, serve_first, fleet_first) -> Tuple[List[str], List[str]]:
    """The fleet serves every submission the record the single server did."""
    from repro.service.records import comparable_record

    failures, clock_sensitive = [], []
    fleet_by_key = {s.key: s for s in fleet_first}
    for sample in serve_first:
        other = fleet_by_key[sample.key]
        if sample.status != 200 or other.status != 200:
            continue  # counted as refused
        mine, theirs = sample.payload["record"], other.payload["record"]
        if comparable_record(mine) != comparable_record(theirs):
            name = stream.items[sample.key][0]
            if budget_bound(mine) or budget_bound(theirs):
                clock_sensitive.append(f"{name}#{sample.key}: budget decided serve or fleet")
            else:
                failures.append(f"{name}#{sample.key}: fleet record differs from serve record")
    return failures, clock_sensitive


def _served_layers(dumps, stats) -> Dict[str, float]:
    """Per-request server-side layer times: the traced server's spans, and
    ``/stats`` sums and counts (never its quantiles: their 0.5 ms bucket
    floor reads every sub-ms p50 as 0.25 ms)."""
    self_s: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for dump in dumps:
        for name, row in dump["layers"].items():
            self_s[name] = self_s.get(name, 0.0) + row["self_s"]
        for name, value in dump["counts"].items():
            counts[name] = counts.get(name, 0.0) + value
    per = 1.0 / max(1, stats.get("requests", 0))
    queue_wait = stats["latency"]["stage_seconds"].get("queue_wait", {}).get("sum", 0.0)
    return {
        "service.store_flush_s": self_s.get("service.store_flush", 0.0) * per,
        "server.grade_s": self_s.get("server.grade", 0.0) * per,
        "server.codec_s": self_s.get("server.codec", 0.0) * per,
        "server.queue_wait_s": queue_wait * per,
        "workers.ipc_s": counts.get("workers.ipc_s", 0.0) * per,
    }


def _hop_probe(port: int, stream: _Stream, rounds: int = 200) -> float:
    """Median routed minus median direct round trip of cache hits, each
    request sent to the router and then straight to the node that served it."""
    rng = random.Random(0)
    router = Connection(port)
    direct: Dict[str, Connection] = {}
    routed_ms, direct_ms = [], []
    try:
        for _ in range(rounds):
            body = stream.bodies[rng.choice(stream.ranks[:8])]
            t0 = time.perf_counter()
            status, headers, _ = router.post(body)
            t1 = time.perf_counter()
            address = headers.get("X-Served-By", "")
            if status != 200 or not address:
                continue
            if address not in direct:
                direct[address] = Connection(int(address.rsplit(":", 1)[1]))
            t2 = time.perf_counter()
            status, _, _ = direct[address].post(body)
            t3 = time.perf_counter()
            if status == 200:
                routed_ms.append(1000 * (t1 - t0))
                direct_ms.append(1000 * (t3 - t2))
    finally:
        router.close()
        for conn in direct.values():
            conn.close()
    if not routed_ms:
        return 0.0
    return statistics.median(routed_ms) - statistics.median(direct_ms)
