"""The batch workloads: ``angha`` and ``tsvc-safe``.

Each job is one ``optimize_functions([job], workers=1,
use_cache=False)`` call, timed from outside, with one host-speed probe
(``hostspeed.probe``) just before it.  The run makes a fixed number of
whole passes over the job list, each in its own seeded order: the
count follows ``--seconds`` and the workload's ``PASS_SECONDS`` only,
so every job gets the same number of calls on every commit.  A job's
latency is the median of its calls' scaled times (``hostspeed``).
The first pass's results are the run's outputs; every later pass must
reproduce them exactly.

In the traced run an untimed warm-up pass over half the job list
comes first (a process's first call of a job pays one-time costs,
which would otherwise fall on one mode); then the timed passes
alternate: untraced, traced (wrappers installed), untraced, ...  The
per-layer numbers come from the first traced pass, and the two modes'
per-job medians give the tracing overhead.
"""

from __future__ import annotations

import random
import statistics
import resource
import struct
from time import perf_counter
from typing import Dict, List

import hostspeed
import measures
import pool
from spans import Recorder, install_layers, self_times

#: Angha functions per run: a stratified sample of the pool, the same
#: for every seed, so the cross-seed spread is the measurement's own.
ANGHA_JOBS = 120
#: Seconds one untraced pass takes on a 2-vCPU host; fixes the pass
#: count for a given ``--seconds``.
PASS_SECONDS = {"angha": 5.0, "tsvc-safe": 12.0}

#: Fields whose drift between passes or runs is a determinism failure.
COUNT_FIELDS = (
    "size_before", "rolag_size", "llvm_size", "llvm_rolled",
    "rolag_rolled", "attempted", "schedule_rejected", "unprofitable",
)


class BatchWorkload:
    """Inputs plus the driver settings of one batch workload."""

    def __init__(
        self, name: str, pool_file: str, index: List[dict], seed: int
    ) -> None:
        from repro.driver import FunctionJob
        from repro.rolag import RolagConfig

        self.name = name
        self.seed = seed
        if name == "angha":
            picked = pool.load_records(pool_file, pool.stratified_sample(
                [e for e in index if e["kind"] == "angha"], ANGHA_JOBS,
                random.Random("angha-sample"),
            ))
            self.jobs = [
                FunctionJob(
                    name=fn["name"],
                    ir_text=fn["ir"],
                    metadata=(("bench_id", f"a{i}"),
                              ("family", fn["family"])),
                )
                for i, fn in enumerate(picked)
            ]
            self.config = RolagConfig()
        else:
            kernels = pool.load_records(
                pool_file, [e for e in index if e["kind"] == "tsvc"]
            )
            self.jobs = [
                FunctionJob(
                    name=k["name"],
                    ir_text=k["ir"],
                    metadata=(("bench_id", f"t{i}"),
                              ("factor", str(k["factor"]))),
                )
                for i, k in enumerate(kernels)
            ]
            self.config = RolagConfig(fast_math=True, validate="safe")

    def passes(self, seconds: float) -> int:
        return max(1, int(seconds // PASS_SECONDS[self.name]))

    def run_one(self, job):
        from repro.driver import optimize_functions

        return optimize_functions(
            [job], self.config, workers=1, use_cache=False
        ).results[0]


def _signature(result) -> tuple:
    return tuple(getattr(result, f) for f in COUNT_FIELDS) + (
        result.optimized_ir, len(result.guard_reports), result.failed,
    )


def _job_latencies(calls, scaled, traced: bool, jobs: int) -> List[float]:
    """Per job, the median scaled time of its calls in one mode."""
    per_job: List[List[float]] = [[] for _ in range(jobs)]
    for (index, was_traced, _), seconds in zip(calls, scaled):
        if was_traced == traced:
            per_job[index].append(seconds)
    return [statistics.median(times) for times in per_job]


def run(workload: BatchWorkload, seconds: float, trace: bool) -> dict:
    # The traced run alternates the modes over half the job list, so
    # it makes twice the passes in the same time.
    jobs = workload.jobs[: len(workload.jobs) // 2] if trace else workload.jobs
    passes = workload.passes(seconds) * (2 if trace else 1)
    order = random.Random(f"{workload.name}:{workload.seed}")
    results: List = [None] * len(jobs)
    drift: Dict[str, str] = {}
    recorder = Recorder() if trace else None
    spans = []
    traced_results: List = []
    #: (job index, traced, seconds) and the probe before it, in run order
    calls: List[tuple] = []
    probes: List[float] = []

    start = perf_counter()
    for done in range(-1 if trace else 0, passes):
        tracing = trace and done >= 0 and done % 2 == 1
        if tracing:
            install_layers(recorder)
        sequence = list(range(len(jobs)))
        order.shuffle(sequence)
        for i in sequence:
            job = jobs[i]
            probe = hostspeed.probe()
            if tracing:
                with recorder.root(dict(job.metadata)["bench_id"]):
                    t0 = perf_counter()
                    result = workload.run_one(job)
                    elapsed = perf_counter() - t0
                if done == 1:
                    traced_results.append(result)
            else:
                t0 = perf_counter()
                result = workload.run_one(job)
                elapsed = perf_counter() - t0
            if done >= 0:
                probes.append(probe)
                calls.append((i, tracing, elapsed))
            if results[i] is None:
                results[i] = result
            elif _signature(result) != _signature(results[i]):
                drift[job.name] = "output changed between passes"
        if tracing:
            recorder.uninstall()
            pass_spans = recorder.drain()
            if done == 1:  # the first traced pass gives the layers
                spans = pass_spans
    measure_s = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check_start = perf_counter()
    checked = check_outputs(workload, jobs, results)
    check_s = perf_counter() - check_start
    failures = {**checked["failures"], **drift}
    scaled = hostspeed.scaled([c[2] for c in calls], probes)
    latencies = _job_latencies(calls, scaled, False, len(jobs))
    raw = _job_latencies(calls, [c[2] for c in calls], False, len(jobs))
    size_before = sum(r.size_before for r in results)
    size_after = sum(r.rolag_size for r in results)
    end_to_end = {
        "fn_per_s": (len(latencies) / sum(latencies), "1/s"),
        "job_ms_p50": (1000 * statistics.median(latencies), "ms"),
        "job_ms_p90": (1000 * measures.percentile(latencies, 90), "ms"),
        "job_ms_p95": (1000 * measures.percentile(latencies, 95), "ms"),
        "size_reduction_pct": (
            100.0 * (size_before - size_after) / size_before, "%"
        ),
        "dyn_step_ratio": (checked["dyn_step_ratio"], "ratio"),
        "failed_pct": (100.0 * len(failures) / len(jobs), "%"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "host.probe_ms": (1000 * statistics.median(probes), "ms"),
        "raw.fn_per_s": (len(raw) / sum(raw), "1/s"),
        "raw.job_ms_p50": (1000 * statistics.median(raw), "ms"),
        "raw.job_ms_p95": (1000 * measures.percentile(raw, 95), "ms"),
    }
    samples = {
        "jobs": len(jobs),
        "passes": passes,
        "calls": len(calls),
        "latency_samples": len(latencies),
        "latency_is": "median scaled call time per job over the passes",
        "measure_s": round(measure_s, 3),
        "check_s": round(check_s, 3),
    }
    deterministic = {
        "size_reduction_pct": end_to_end["size_reduction_pct"][0],
        "dyn_step_ratio": checked["dyn_step_ratio"],
    }
    for field in ("llvm_rolled", "rolag_rolled", "attempted",
                  "schedule_rejected", "unprofitable"):
        deterministic[field] = sum(getattr(r, field) for r in results)
    out = {
        "attempted": len(jobs),
        "failures": failures,
        "end_to_end": end_to_end,
        "samples": samples,
        "deterministic": deterministic,
    }
    if trace:
        out["per_layer"] = _per_layer(
            spans, traced_results,
            _job_latencies(calls, scaled, True, len(jobs)), latencies,
        )
        out["deterministic"]["rolag.sched_calls"] = out["per_layer"][
            "rolag.sched_calls"
        ][0]
    return out


def _per_layer(spans, results, traced_lat, plain_lat) -> Dict[str, tuple]:
    """Layer metrics of the first traced pass: one root span per job."""
    jobs = len(results)
    self_ms: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    wall = 0.0
    for span, own in self_times(spans):
        layer = span[1]
        self_ms[layer] = self_ms.get(layer, 0.0) + 1000 * own
        calls[layer] = calls.get(layer, 0) + 1
        if layer == "job":
            wall += 1000 * (span[3] - span[2])
    # The root's own time and the driver's glue around the pipeline
    # are what no layer claims.
    other = self_ms.get("job", 0.0) + self_ms.get("driver.execute", 0.0)
    metrics = measures.layer_metrics(jobs, self_ms, calls, results)
    metrics.update(
        {
            "driver.other_ms": (other / jobs, "ms"),
            "driver.other_pct": (100.0 * other / wall, "%"),
            "driver.cache_hit_pct": (0.0, "%"),
            "driver.dedupe_hits": (0.0, "count"),
            "driver.dispatch_ms": (0.0, "ms"),
        }
    )
    metrics.update(measures.trace_overhead(traced_lat, plain_lat))
    return metrics


# --- correctness ------------------------------------------------------------


def check_outputs(workload: BatchWorkload, jobs, results) -> dict:
    if workload.name == "angha":
        return check_angha(jobs, results)
    return check_tsvc(workload.seed, jobs, results)


def check_angha(jobs, results) -> dict:
    """Differential check of every output against its input (interp)."""
    failures: Dict[str, str] = {}
    base_steps = rolled_steps = 0
    for job, result in zip(jobs, results):
        if result.failed:
            failures[job.name] = f"{result.error_kind}: {result.error}"
            continue
        ok, details, steps = measures.check_semantics(
            job.ir_text, result.optimized_ir, job.name, job.name
        )
        base_steps += steps[0]
        rolled_steps += steps[1]
        if not ok:
            failures[job.name] = "; ".join(details)
    return {
        "failures": failures,
        "dyn_step_ratio": rolled_steps / base_steps if base_steps else 1.0,
    }


def _tsvc_state(seed: int) -> Dict[str, bytes]:
    """Seeded initial contents of every TSVC global."""
    from repro.bench import tsvc

    rng = random.Random(f"tsvc-data:{seed}")

    def floats(count: int) -> bytes:
        values = [rng.randrange(4, 64) / 8.0 for _ in range(count)]
        return struct.pack(f"<{count}f", *values)

    state = {name: floats(tsvc.LEN) for name in "abcde"}
    for grid in ("aa", "bb", "cc"):
        state[grid] = floats(tsvc.LEN2 * tsvc.LEN2)
    state["ip"] = struct.pack(
        f"<{tsvc.LEN}i", *(rng.randrange(tsvc.LEN) for _ in range(tsvc.LEN))
    )
    state["s1"] = floats(1)
    state["s2"] = floats(1)
    return state


def _run_kernel(ir_text: str, name: str, state: Dict[str, bytes]):
    from repro.ir import make_machine, parse_module

    module = parse_module(ir_text)
    machine = make_machine(module, "interp")
    for glob, data in state.items():
        machine.write_bytes(machine.global_addresses[glob], data)
    value = machine.call(module.get_function(name), [])
    memory = {
        glob: machine.read_bytes(machine.global_addresses[glob], len(data))
        for glob, data in state.items()
    }
    return value, memory, machine.steps


def check_tsvc(seed: int, jobs, results) -> dict:
    """Each rolled kernel must leave the same memory (and return the
    same value) as its unrolled input on the reference interpreter."""
    state = _tsvc_state(seed)
    failures: Dict[str, str] = {}
    base_steps = rolled_steps = 0
    for job, result in zip(jobs, results):
        label = f"{job.name}x{dict(job.metadata)['factor']}"
        if result.failed:
            failures[label] = f"{result.error_kind}: {result.error}"
            continue
        base = _run_kernel(job.ir_text, job.name, state)
        rolled = _run_kernel(result.optimized_ir, job.name, state)
        base_steps += base[2]
        rolled_steps += rolled[2]
        if base[:2] != rolled[:2]:
            differ = sorted(
                g for g in state if base[1][g] != rolled[1][g]
            )
            failures[label] = f"final state differs in {differ}"
    return {
        "failures": failures,
        "dyn_step_ratio": rolled_steps / base_steps,
    }
