"""The benchmark's own steadiness check.

Runs ``run.py`` once per seed on each workload (untraced), then reports,
for every end-to-end metric, the median and the spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as
a share of the median. A spread above the metric's bound in
BENCHMARK.json fails; one above a third of it is flagged. It also checks
that deterministic engine counts repeat exactly across runs (every
Fig. 2 call, every ``table1`` submission that did not time out) and
lists submissions whose verdict the wall clock decided.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads fig2,table1]
    python3 perfbench/steadiness.py --seeds 1-10 --compare perfbench/out/steadiness-a.json

``--compare`` also requires every median to be no worse than the earlier
set's by more than the bound. Exits 1 on any failure.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"


def parse_seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stderr[-3000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    detail = json.loads((OUT / f"{workload}-seed{seed}-trace0.json").read_text())["detail"]
    return {
        "seed": seed,
        "run_s": time.monotonic() - started,
        "result": result,
        "fingerprint": detail["fingerprint"],
        "per_submission": detail.get("per_submission", {}),
        "clock_sensitive": detail.get("clock_sensitive", []),
    }


def spreads(runs, spec) -> dict:
    rows = {}
    for item in spec["end_to_end"]:
        values = [run["result"]["metrics"][item["name"]]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        rows[item["name"]] = {
            "median": median,
            "spread": (q3 - q1) / median if median else float("inf"),
            "bound": item["bound"],
            "better": item["better"],
        }
    return rows


def determinism(workload: str, runs) -> list:
    """Verdicts or engine counts of one submission that differ between
    runs although no budget decided either (a nondeterminism the clock
    cannot explain)."""
    problems = []
    seen = {}
    for run in runs:
        for key, counts in run["per_submission"].items():
            if counts.get("budget_bound"):
                continue
            first = seen.setdefault(key, (run["seed"], counts))
            if first[1] != counts:
                problems.append(f"{workload} {key}: seed {first[0]} {first[1]} vs seed {run['seed']} {counts}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--label", default="a")
    parser.add_argument("--compare", default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (
        args.workloads.split(",") if args.workloads
        else [w["name"] for w in spec["workloads"]]
    )
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else None
    report, failed = {}, False
    for workload in workloads:
        runs = [run_once(workload, seed, spec["run_seconds"]) for seed in parse_seeds(args.seeds)]
        rows = spreads(runs, spec)
        problems = determinism(workload, runs)
        report[workload] = {"runs": runs, "spreads": rows, "determinism": problems}
        print(f"== {workload}: {len(runs)} runs, {max(r['run_s'] for r in runs):.1f}s longest")
        for name, row in rows.items():
            flag = "ok"
            if name != "setup_s" and row["spread"] > row["bound"]:
                flag, failed = "FAIL spread", True
            elif row["spread"] > row["bound"] / 3:
                flag = "wide"
            if earlier and workload in earlier:
                before = earlier[workload]["spreads"][name]["median"]
                worse = (row["median"] - before) if row["better"] == "lower" else (before - row["median"])
                if before and worse / before > row["bound"]:
                    flag, failed = f"FAIL vs earlier median {before:.6g}", True
            print(f"  {name:16s} median {row['median']:12.6g}  spread {row['spread']:.4f}  bound {row['bound']}  {flag}")
        for problem in problems:
            print(f"  NONDETERMINISTIC {problem}")
        failed = failed or bool(problems)
        clocked = sorted({c for run in runs for c in run["clock_sensitive"]})
        for item in clocked:
            print(f"  clock-sensitive: {item}")
        if not all(run["result"]["correct"] for run in runs):
            print("  FAIL: a run reported correct=false")
            failed = True
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"steadiness-{args.label}.json"
    path.write_text(json.dumps(report, indent=1))
    summary = {
        workload: {
            "seeds": [run["seed"] for run in entry["runs"]],
            "fingerprint": {
                key: value
                for key, value in entry["runs"][0]["fingerprint"].items()
                if key not in ("seed", "unix_time")
            },
            "metrics": {
                name: {"median": row["median"], "spread": row["spread"]}
                for name, row in entry["spreads"].items()
            },
            "clock_sensitive": sorted(
                {c for run in entry["runs"] for c in run["clock_sensitive"]}
            ),
        }
        for workload, entry in report.items()
    }
    (OUT / f"steadiness-{args.label}-summary.json").write_text(json.dumps(summary, indent=1))
    print(f"wrote {path.relative_to(ROOT)} and its -summary.json")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
