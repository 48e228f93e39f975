"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig2 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the traced variant and reports the per-layer metrics. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the run's fingerprint and
details go to ``perfbench/out/``. Exits non-zero, printing no result,
when the program under test cannot be imported or a run cannot finish.
"""

import argparse
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

WORKLOADS = ("fig2", "table1")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"repro imported from {repro.__file__}, not from this checkout", file=sys.stderr)
        return 2

    from perfbench.common import emit, fingerprint

    # A terminated run still stops the servers it launched (their
    # ``finally`` blocks run on SystemExit).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from perfbench import solve

    runner = solve.run_fig2 if args.workload == "fig2" else solve.run_table1
    result, detail = runner(args.seed, args.seconds, bool(args.trace))
    detail["fingerprint"] = fingerprint(args.workload, args.seed, detail.get("params", {}))
    result = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    emit(result, detail, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
