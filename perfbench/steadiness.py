"""Measure how steady the benchmark is, and record the evidence.

    python3 perfbench/steadiness.py [--out perfbench/STEADINESS.json]

Makes two sets of runs of ``perfbench/run.py``.  Each set runs every
declared workload once per seed ``FIRST_SEED`` .. ``FIRST_SEED + RUNS
- 1``, untraced and for the declared ``run_seconds``; within a set the
workloads take turns, seed by seed.  For every end-to-end metric of
every workload and set it records the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread,
``(q3 - q1) / median``, next to the metric's bound; and the change of
the second set's median against the first's.

A metric is steady when each set's spread is below a third of its
bound and the second median is not worse than the first by more than
the bound.  ``setup_s`` is judged like every other metric.  The
command prints ``NOT STEADY`` against each metric that fails and exits
1 if any does.  Run it from the root of a checkout; it takes about
half an hour on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Seeds of the committed evidence (``STEADINESS.json``).
FIRST_SEED = 200
RUNS = 10
SETS = 2


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "values": values,
    }


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of
    ``first`` (negative when it is better)."""
    change = (second - first) / first
    return -change if better == "higher" else change


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode or not result.get("correct"):
        print(done.stdout[-2000:], done.stderr[-2000:], file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed} failed")
    return result["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the evidence here as JSON")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seeds = list(range(FIRST_SEED, FIRST_SEED + RUNS))

    values = {
        (s, w, m): [] for s in range(SETS) for w in workloads
        for m in metrics
    }
    for number in range(SETS):
        for seed in seeds:
            for workload in workloads:
                measured = run_once(workload, seed, spec["run_seconds"])
                for name in metrics:
                    values[number, workload, name].append(
                        measured[name]["value"])
                print(f"set {number + 1} {workload} seed {seed}: " + ", ".join(
                    f"{n}={measured[n]['value']:.4g}" for n in metrics),
                    flush=True)

    evidence = {}
    steady = True
    for workload in workloads:
        evidence[workload] = {}
        for name, entry in metrics.items():
            sets = [summarize(values[s, workload, name]) for s in range(SETS)]
            drift = worse_by(sets[0]["median"], sets[-1]["median"],
                             entry["better"])
            ok = (all(row["spread"] < entry["bound"] / 3 for row in sets)
                  and drift <= entry["bound"])
            steady = steady and ok
            evidence[workload][name] = {
                "bound": entry["bound"], "sets": sets,
                "second_median_worse_by": drift, "steady": ok,
            }
            print(f"  {workload:10s} {name:20s} median "
                  f"{sets[0]['median']:10.4f}  spreads "
                  + " ".join(f"{row['spread']:.4f}" for row in sets)
                  + f"  worse by {drift:+.4f} (bound {entry['bound']})"
                  + ("" if ok else "  NOT STEADY"))
    if args.out:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
        with open(args.out, "w") as handle:
            json.dump(
                {
                    "produced": {
                        "date": datetime.now(timezone.utc).isoformat(
                            timespec="seconds"),
                        "git_sha": sha or "unknown",
                        "python": platform.python_version(),
                        "nproc": os.cpu_count(),
                        "sets": SETS,
                        "runs_per_set": RUNS,
                        "seeds": [seeds[0], seeds[-1]],
                        "run_seconds": spec["run_seconds"],
                    },
                    "steady": steady,
                    "workloads": evidence,
                },
                handle, indent=1, sort_keys=True,
            )
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
