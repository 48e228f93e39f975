"""Shared pieces of the benchmark: statistics, fingerprint, memory, checks."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Run artifacts (spans, per-run details, server logs, store logs).
OUT = BENCH_DIR / "out"

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (``q`` in 0..1)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond
    it: ``(value, percentile, sample count)``. With too few samples for
    any such percentile, the median stands in (percentile 50)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0, n
    index = n - TAIL_BEYOND - 1
    return ordered[index], round(100.0 * (index + 1) / n, 2), n


def median_or(values: Sequence[float], default: float = 0.0) -> float:
    return statistics.median(values) if values else default


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def src_digest() -> str:
    """Content hash of ``src/``: identifies the code when no git is around."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(workload: str, seed: int, params: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "src_digest": src_digest(),
        "workload": workload,
        "seed": seed,
        "params": params,
        "unix_time": time.time(),
    }


# -- memory -------------------------------------------------------------


def _children(pid: int) -> List[int]:
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and int(fields[1]) == pid:
            found.append(int(entry.name))
    return found


def _peak_rss_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def descendants(root_pid: int) -> List[int]:
    """Live descendants of ``root_pid`` (children first found, any depth)."""
    found: List[int] = []
    pending = _children(root_pid)
    while pending:
        pid = pending.pop()
        if pid not in found:
            found.append(pid)
            pending.extend(_children(pid))
    return found


def tree_peak_rss_mb() -> float:
    """Sum of per-process peak RSS over this process and its live
    descendants (an upper bound on the tree's simultaneous peak)."""
    pids = [os.getpid(), *descendants(os.getpid())]
    return sum(_peak_rss_kb(pid) for pid in pids) / 1024.0


# -- set-up probe -------------------------------------------------------


def probe_setup(problems: Iterable[str], repeats: int) -> Tuple[float, List[float]]:
    """Median seconds from process launch until ``problems`` are loaded,
    their verifiers materialized and references compiled (``probe.py``)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe.py"), *problems],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        line = proc.stdout.readline() if proc.stdout else ""
        elapsed = time.perf_counter() - started
        proc.wait(timeout=120)
        if proc.returncode != 0 or not line.startswith("ready"):
            raise RuntimeError(f"set-up probe failed: {line!r}")
        samples.append(elapsed)
    return statistics.median(samples), samples


# -- correctness --------------------------------------------------------


def budget_bound(record: dict) -> bool:
    """A verdict the wall clock decided: a timeout, or a fix the deadline
    cut short before minimality was proved."""
    return record.get("status") == "timeout" or (
        record.get("status") == "fixed" and not record.get("minimal")
    )


class InterpChecker:
    """Re-verifies fixed sources on the tree-walking interpreter, never on
    the compiled substrate the graded run used."""

    def __init__(self) -> None:
        self._verifiers: Dict[str, object] = {}
        self._verdicts: Dict[Tuple[str, str], bool] = {}

    def check(self, spec, fixed_source: str) -> bool:
        key = (spec.name, fixed_source)
        if key not in self._verdicts:
            self._verdicts[key] = self._check(spec, fixed_source)
        return self._verdicts[key]

    def _check(self, spec, fixed_source: str) -> bool:
        from repro.compile import make_executor
        from repro.core.rewriter import SignatureError, normalize_submission
        from repro.engines import BoundedVerifier
        from repro.engines.verify import outcome_of
        from repro.mpy import parse_program
        from repro.mpy.errors import FrontendError, MPYRuntimeError

        verifier = self._verifiers.get(spec.name)
        if verifier is None:
            verifier = self._verifiers[spec.name] = BoundedVerifier(
                spec, backend="interp"
            )
        try:
            normalized, _ = normalize_submission(parse_program(fixed_source), spec)
            executor = make_executor(normalized, fuel=spec.fuel, backend="interp")
        except (FrontendError, SignatureError, MPYRuntimeError):
            return False
        return verifier.is_equivalent(
            lambda args: outcome_of(
                lambda: executor.call(spec.student_function, args),
                spec.compare_stdout,
            )
        )


def emit(result: dict, detail: dict, name: str) -> None:
    """Write the run's detail file and print the result as the last line."""
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{name}.json", "w") as handle:
        json.dump({"result": result, "detail": detail}, handle, indent=1, sort_keys=True)
    print(json.dumps(detail.get("summary", {}), sort_keys=True))
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True))
    sys.stdout.flush()
