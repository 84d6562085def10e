"""Statistics, correctness checks and per-layer metric assembly shared
by the workloads."""

from __future__ import annotations

import statistics
import zlib
from typing import Dict, List, Sequence, Tuple


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method, so it never lies
    outside the samples)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[pct - 1]


def check_semantics(
    input_ir: str, output_ir: str, fn_name: str, vector_key: str
) -> Tuple[bool, List[str], Tuple[int, int]]:
    """``check_module_semantics`` on the reference interpreter, plus
    the interpreter steps of input and output on the first vector.
    The vectors derive from ``vector_key`` (the pool function's name),
    so a function is always checked on the same vectors."""
    from repro.difftest.oracle import make_argument_vectors, observe_call
    from repro.difftest.runner import check_module_semantics
    from repro.ir import parse_module

    vector_seed = zlib.crc32(vector_key.encode()) & 0x7FFFFFFF
    original = parse_module(input_ir)
    candidate = parse_module(output_ir)
    ok, details = check_module_semantics(
        original, candidate, seed=vector_seed, evaluator="interp"
    )
    steps = (0, 0)
    fn = original.get_function(fn_name)
    try:
        vectors = make_argument_vectors(fn, vector_seed, 1)
    except ValueError:
        vectors = []
    if vectors:
        steps = (
            observe_call(original, fn_name, vectors[0]).steps,
            observe_call(candidate, fn_name, vectors[0]).steps,
        )
    return ok, list(details), steps


def layer_metrics(
    jobs: int,
    self_ms: Dict[str, float],
    calls: Dict[str, int],
    results: list,
) -> Dict[str, Tuple[float, str]]:
    """Per-job layer metrics from span totals and the executed jobs'
    ``FunctionResult`` counters.  ``self_ms`` and ``calls`` are totals
    over the traced jobs; every metric is divided by ``jobs``."""

    def ms(*layers: str) -> Tuple[float, str]:
        return (sum(self_ms.get(l, 0.0) for l in layers) / jobs, "ms")

    def count(layer: str) -> Tuple[float, str]:
        return (calls.get(layer, 0) / jobs, "count")

    def total(field: str) -> int:
        return sum(getattr(r, field) for r in results)

    attempted = total("attempted")
    rolled = total("rolag_rolled")
    return {
        "ir.parse_ms": ms("ir.parse"),
        "ir.parse_calls": count("ir.parse"),
        "ir.verify_ms": ms("ir.verify"),
        "ir.verify_calls": count("ir.verify"),
        "ir.print_ms": ms("ir.print"),
        "measure.ms": ms("measure"),
        "reroll.ms": ms("reroll"),
        "reroll.rolled": (total("llvm_rolled") / jobs, "count"),
        "transforms.txn_ms": ms("transforms.txn"),
        "rolag.ms": ms("rolag"),
        "rolag.seeds_ms": ms("rolag.seeds"),
        "rolag.alignment_ms": ms("rolag.alignment"),
        "rolag.scheduling_ms": ms("rolag.scheduling"),
        "rolag.codegen_ms": ms("rolag.codegen"),
        "rolag.sched_calls": count("rolag.scheduling"),
        "rolag.attempted": (attempted / jobs, "count"),
        "rolag.rolled": (rolled / jobs, "count"),
        "rolag.schedule_rejected": (total("schedule_rejected") / jobs, "count"),
        "rolag.unprofitable": (total("unprofitable") / jobs, "count"),
        "rolag.roll_rate": (rolled / attempted if attempted else 0.0, "ratio"),
        "validate.ms": ms("validate.begin", "validate.commit",
                          "validate.rollback"),
        "validate.txns": count("validate.begin"),
        "validate.rollbacks": (
            sum(len(r.guard_reports) for r in results) / jobs, "count"
        ),
        "eval.ms": ms("eval"),
        "frontend.compile_ms": ms("frontend.compile"),
        "frontend.calls": count("frontend.compile"),
        "driver.hash_ms": ms("driver.hash"),
        "driver.cache_read_ms": ms("driver.cache_read"),
        "driver.cache_write_ms": ms("driver.cache_write"),
    }


def trace_overhead(
    traced: Sequence[float], plain: Sequence[float]
) -> Dict[str, Tuple[float, str]]:
    """Traced against untraced per-job p50 latency."""
    traced_p50 = 1000 * statistics.median(traced)
    plain_p50 = 1000 * statistics.median(plain)
    return {
        "trace.job_ms_p50": (traced_p50, "ms"),
        "trace.untraced_job_ms_p50": (plain_p50, "ms"),
        "trace.overhead_pct": (100.0 * (traced_p50 / plain_p50 - 1), "%"),
    }
