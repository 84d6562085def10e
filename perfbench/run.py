"""One benchmark run of the repository's RoLAG optimizer.

    python3 perfbench/run.py --workload {angha,tsvc-safe,serve} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: it imports the program from
``src/``.  The first run in a checkout compiles the input pool (about
a minute) into the build directory (``$CARGO_TARGET_DIR``, default
``.bench_build``).  Metrics, units, bounds and the workloads' purpose
are declared in ``BENCHMARK.json``; ``perfbench/README.md`` defines
every metric.

The run prints a readable report (provenance, every end-to-end metric
with its unit and sample count, any failure) and, as its last line,
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the
per-layer metrics of the traced run with ``--trace 1``.  It exits
non-zero when an output is wrong, a job failed, or a deterministic
number drifted from an earlier run with the same seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("angha", "tsvc-safe", "serve")
#: Fresh ``import`` launches per batch run whose median is ``setup_s``.
SETUP_LAUNCHES = 15
#: Per-layer metrics a workload does not exercise, reported as 0.
BYPASSED = {
    "angha": ("serve.", "loadgen."),
    "tsvc-safe": ("serve.", "loadgen."),
    "serve": (),
}
#: Run in a fresh process: host-speed probes around the timed import
#: of the program.  Prints the import's seconds, then the probes'.
IMPORT_PROBE = (
    "import sys, time\n"
    f"sys.path.insert(0, {HERE!r})\n"
    "import hostspeed\n"
    "probes = [hostspeed.probe() for _ in range(5)]\n"
    "t = time.perf_counter()\n"
    "import repro.driver, repro.rolag, repro.validation, repro.bench.objsize\n"
    "took = time.perf_counter() - t\n"
    "probes += [hostspeed.probe() for _ in range(5)]\n"
    "print(took, *probes)\n"
)


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir() -> str:
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.join(ROOT, base, "perfbench")
    os.makedirs(path, exist_ok=True)
    return path


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = tempfile.gettempdir()
    return env


def ensure_pool(build: str) -> str:
    import pool

    path = pool.pool_path(build, SRC)
    if not pool.pool_exists(path):
        print("perfbench: compiling the input pool", file=sys.stderr)
        subprocess.run(
            [sys.executable, os.path.join(HERE, "pool.py"), SRC, path],
            check=True, env=child_env(), cwd=ROOT,
        )
    return path


def batch_setup_seconds() -> tuple:
    """Median over fresh processes of the time to import the program
    (interpreter start-up excluded), each scaled by the host-speed
    probes taken in the same process; one discarded launch first warms
    the bytecode cache.  Returns the scaled and the raw median."""
    import hostspeed

    scaled, raw = [], []
    for launch in range(SETUP_LAUNCHES + 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], check=True,
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
        )
        took, *probes = map(float, out.stdout.split())
        if launch:
            scaled.append(took * hostspeed.factor(probes))
            raw.append(took)
    return statistics.median(scaled), statistics.median(raw)


def provenance(args, start: float) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    import pool

    return {
        "run": "full" if args.seconds >= declared()["run_seconds"] else "quick",
        "git_sha": sha,
        "src_sha256": pool.source_digest(SRC)[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": round(perf_counter() - start, 3),
    }


def determinism_check(build: str, args, numbers: dict) -> list:
    """Compare the deterministic numbers with an earlier run of the
    same program, benchmark, workload and seed; record them when new."""
    import pool

    folder = os.path.join(build, "determinism")
    os.makedirs(folder, exist_ok=True)
    program = pool.source_digest(SRC)[:16]
    bench = pool.source_digest(ROOT, "perfbench")[:8]
    # A traced batch run works on half the job list, and the serve
    # schedule's length follows --seconds.
    key = f"{program}-{bench}-{args.workload}-{args.seed}-t{args.trace}"
    if args.workload == "serve":
        key += f"-{args.seconds:g}s"
    path = os.path.join(folder, key + ".json")
    recorded = {}
    if os.path.exists(path):
        with open(path) as handle:
            recorded = json.load(handle)
    drift = [
        f"{name}: {recorded[name]!r} earlier, {value!r} now"
        for name, value in numbers.items()
        if name in recorded and recorded[name] != value
    ]
    if not drift:
        recorded.update(numbers)
        with open(path + ".tmp", "w") as handle:
            json.dump(recorded, handle, indent=1, sort_keys=True)
        os.replace(path + ".tmp", path)
    return drift


def run_workload(args, pool_file: str, scratch: str) -> dict:
    import pool

    index = pool.load_index(pool_file)
    if args.workload == "serve":
        import serveload

        if args.trace:
            return serveload.run_traced(
                pool_file, index, args.seed, args.seconds, scratch
            )
        return serveload.run_daemon(
            pool_file, index, args.seed, args.seconds, SRC, scratch
        )
    import batch

    workload = batch.BatchWorkload(args.workload, pool_file, index,
                                   args.seed)
    return batch.run(workload, args.seconds, bool(args.trace))


def report(args, out: dict, prov: dict, drift: list) -> dict:
    spec = declared()
    failures = dict(out["failures"])
    for k, message in enumerate(drift):
        failures[f"drift{k}"] = f"deterministic number drifted: {message}"
    print(f"# provenance {json.dumps(prov, sort_keys=True)}")
    print(f"# samples {json.dumps(out['samples'], sort_keys=True)}")
    if args.trace:
        wanted = spec["per_layer"]
        measured = out["per_layer"]
    else:
        wanted = spec["end_to_end"]
        measured = out["end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name in measured:
            value, unit = measured[name]
            if unit != entry["unit"]:
                raise ValueError(f"{name}: measured in {unit}, "
                                 f"declared in {entry['unit']}")
        elif name.startswith(BYPASSED[args.workload]):
            value = 0.0  # the workload never reaches this layer
        else:
            raise KeyError(f"{args.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    for name, (value, unit) in sorted(measured.items()):
        print(f"{name:28s} {value:14.4f} {unit}")
    for ident, message in sorted(failures.items())[:20]:
        print(f"FAILED {ident}: {message}")
    failed = len(failures)
    return {
        "correct": failed == 0,
        "attempted": max(out["attempted"], failed),
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = perf_counter()

    if not os.path.isdir(os.path.join(SRC, "repro")):
        fail_setup(f"no program sources under {SRC}")
    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        fail_setup("BENCHMARK.json is missing")
    build = build_dir()
    scratch = tempfile.mkdtemp(prefix="run-", dir=build)
    tempfile.tempdir = scratch
    sys.path.insert(0, SRC)
    try:
        pool_file = ensure_pool(build)
        setup = None
        if args.workload != "serve":
            # The host's cores change speed independently, within
            # seconds: on one core, the probe before a call describes
            # the core the call runs on.
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        if not args.trace and args.workload != "serve":
            setup = batch_setup_seconds()
        out = run_workload(args, pool_file, scratch)
        if setup is not None:
            out["end_to_end"]["setup_s"] = (setup[0], "s")
            out["end_to_end"]["raw.setup_s"] = (setup[1], "s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    drift = determinism_check(build, args, out["deterministic"])
    result = report(args, out, provenance(args, start), drift)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
