"""The parallel, memoizing, fault-tolerant optimization driver.

:func:`optimize_functions` fans per-function RoLAG work out over a
process pool.  Each worker receives a picklable :class:`FunctionJob`
(IR or mini-C text), rebuilds the module in its own interpreter, runs
the standard measurement pipeline -- size before, LLVM-style reroll
baseline, RoLAG, verify, size after -- and sends back a plain
:class:`FunctionResult`.

Scheduling is chunked (one pickle round-trip per chunk, not per
function) and falls back to a deterministic in-process loop for
``workers=1``, so tests and small runs never pay pool startup.  With a
cache directory, results are memoized content-addressed under an
*alpha-invariant structural* key (see ``cache.py`` and
``repro.ir.structhash``): a warm rerun resolves entirely from disk
even if every value, label, and function in the corpus was renamed in
between.  The same fingerprints drive an in-batch dedupe pass --
structurally identical jobs are coalesced before they reach the pool,
one leader computes, and every follower receives a copy rewritten
into its own namespace via the canonical-renaming witness.

At corpus scale, one pathological function must cost one result, never
the run.  The resilience contract (see ``docs/robustness.md``):

* every job is guarded in its worker -- an exception or a cooperative
  :class:`~repro.faultinject.DeadlineExceeded` becomes a structured
  failure, never a lost batch;
* ``deadline`` bounds each function's wall clock; hangs that ignore
  the cooperative checkpoints are killed by the parent watchdog along
  with their pool, which is respawned (``max_pool_respawns`` times);
* failed jobs are retried (``retries`` times, exponential backoff) and
  functions that exhaust their retries are recorded in a persistent
  quarantine list so later runs skip them outright;
* a job that still fails degrades gracefully: its
  :class:`FunctionResult` carries the *original* function text plus a
  structured ``error``/``error_kind``, and the batch completes;
* when the pool keeps dying, the driver either falls back to the
  in-process serial path (``serial_fallback=True``) or abandons the
  remaining jobs as error results -- it never deadlocks.

Failures are counted on :class:`DriverStats` (``crashed``,
``timed_out``, ``retried``, ``quarantined``, ``cache_corrupt``, ...)
and surfaced in the CLI batch summary.  The whole machinery is driven
through the deterministic fault-injection sites in
``repro.faultinject`` (``driver.worker.start``, ``driver.worker.roll``,
``cache.read``, ``cache.write``, ``pipeline.pass``, ...).
"""

from __future__ import annotations

import os
import zlib
from collections import deque
from dataclasses import dataclass
from time import perf_counter, sleep
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..analysis.costmodel import CodeSizeCostModel
from ..difftest.runner import check_module_semantics
from ..faultinject import (
    DeadlineExceeded,
    FaultPlan,
    active_plan,
    checkpoint,
    deadline_scope,
    fire,
    install_plan,
    resolve_plan,
)
from ..frontend import compile_c
from ..ir import (
    ParseError,
    parse_module,
    print_module,
    rename_function_locals,
    rename_globals,
    verify_module,
)
from ..ir.module import Module
from ..ir.snapshot import ModuleSnapshot
from ..ir.structhash import StructuralSummary, compose_witness_renames
from ..rolag import RolagConfig, RolagStats, roll_loops_in_module
from ..transforms.reroll import reroll_loops
from .cache import ResultCache, job_key, job_struct_summary
from .quarantine import QuarantineList, quarantine_key
from .types import DriverReport, DriverStats, FunctionJob, FunctionResult

#: Pool sizes beyond this stop paying off for per-function work.
MAX_DEFAULT_WORKERS = 8


def default_worker_count() -> int:
    """``min(os.cpu_count(), 8)``, and at least 1."""
    return max(1, min(os.cpu_count() or 1, MAX_DEFAULT_WORKERS))


def _load_module(job: FunctionJob, verify: bool = True) -> Module:
    """Materialize the job's module in this process."""
    if job.ir_text is not None:
        module = parse_module(job.ir_text)
        if verify:
            verify_module(module)
        return module
    return compile_c(job.c_source, module_name=f"driver.{job.name}")


def _measure(
    module: Module, name: Optional[str], model: Optional[CodeSizeCostModel]
) -> int:
    # Imported here, not at module scope: ``repro.bench`` imports this
    # package back (its harness drives the pool), and a top-level import
    # made a cold ``import repro.driver`` fail with a circular-import
    # error unless the caller happened to import ``repro.bench`` first.
    from ..bench.objsize import function_size, measure_module

    if name is None:
        return measure_module(module, model).total
    return function_size(module.get_function(name), model)


def optimize_one(
    job: FunctionJob,
    config: Optional[RolagConfig] = None,
    measure_model: Optional[CodeSizeCostModel] = None,
    timed: bool = False,
    check_semantics: bool = False,
    evaluator: str = "interp",
) -> FunctionResult:
    """The per-function pipeline one worker runs for one job.

    The input is loaded (parsed and verified) once.  The reroll
    baseline runs on it in place; a :class:`ModuleSnapshot` taken
    before then restores the functions the baseline changed, and RoLAG
    runs on that same module.  Each pass's output is verified once,
    and sized only if the pass changed the module: the cost model is a
    pure function of the IR, so an unchanged module keeps
    ``size_before``.

    With ``check_semantics`` set, both transformed modules are
    differentially tested against a pristine second load of the input
    via the :mod:`repro.difftest` oracle (executed by ``evaluator``) --
    the baseline's output before the restore, RoLAG's after its run;
    the verdict and any mismatch details travel back (and into the
    cache) on the result.  Oracle time lands in the stats' ``eval``
    phase so timed runs show evaluation next to the rolling phases.

    With ``config.validate`` on, both the reroll baseline and every
    RoLAG rolling decision run transactionally through the online
    validation gate (see ``repro.validation``): rejected edits are
    rolled back to best-known-good IR and recorded on the result's
    ``guard_reports``.

    The pipeline checkpoints the ambient deadline between stages, so a
    budgeted run (see :func:`optimize_functions`) bails out of a slow
    function at the next stage boundary.
    """
    config = config or RolagConfig()
    start = perf_counter()
    parse_seconds = 0.0
    eval_seconds = 0.0

    def load(verify: bool = True) -> Module:
        # Parse/verify wall time books under the stats' ``parse`` phase
        # so timed runs attribute the Amdahl floor directly.
        nonlocal parse_seconds
        parse_start = perf_counter()
        loaded = _load_module(job, verify)
        parse_seconds += perf_counter() - parse_start
        return loaded

    validate = config.validate
    # Vector seed derives from the input text, so reruns replay the
    # same vectors (for both the oracle and the online validation gate)
    # and the cache entry stays meaningful.
    vector_seed = zlib.crc32(job.text.encode("utf-8")) & 0x7FFFFFFF
    guard_reports: List[Dict[str, object]] = []
    semantics_mismatches: List[str] = []
    original: Optional[Module] = None

    def check(label: str, candidate: Module) -> None:
        # Compares against a pristine second load of the input; the
        # text was verified above, so it is parsed but not re-verified.
        nonlocal original, eval_seconds
        if original is None:
            original = load(verify=False)
        eval_start = perf_counter()
        ok, details = check_module_semantics(
            original, candidate, seed=vector_seed, evaluator=evaluator
        )
        if not ok:
            semantics_mismatches.extend(
                f"{label}: {detail}" for detail in details
            )
        eval_seconds += perf_counter() - eval_start
        checkpoint("eval")

    module = load()
    size_before = _measure(module, job.name, measure_model)
    checkpoint("load")
    snapshot = ModuleSnapshot(module)

    # Baseline: LLVM-style rerolling, in place.  With validation on,
    # reroll runs as a transaction through the gate; with it off, the
    # historical direct path is kept bit-for-bit (including fault-site
    # hit counts).
    if validate != "off":
        from ..transforms.txn import TransactionalPassManager

        llvm_validator = _make_validator(config, vector_seed)
        reroll_pm = TransactionalPassManager(
            verify=False, validator=llvm_validator
        )
        reroll_pm.add("reroll", reroll_loops)
        llvm_rolled = reroll_pm.run(module)
        guard_reports.extend(
            report.to_json_dict() for report in llvm_validator.reports
        )
    else:
        llvm_rolled = sum(
            reroll_loops(f) for f in module.functions if not f.is_declaration
        )
    verify_module(module)
    baseline_changed = llvm_rolled > 0 or snapshot.changed()
    llvm_size = (
        _measure(module, job.name, measure_model)
        if baseline_changed
        else size_before
    )
    checkpoint("reroll")
    if check_semantics:
        check("reroll", module)
    if baseline_changed:
        snapshot.restore()

    # RoLAG on the restored input, measured after.
    stats = RolagStats(timed=timed)
    fire("driver.worker.roll")
    rolag_validator = (
        _make_validator(config, vector_seed) if validate != "off" else None
    )
    rolag_rolled = roll_loops_in_module(
        module, config=config, stats=stats, validator=rolag_validator
    )
    guard_reports.extend(stats.guard_reports)
    verify_module(module)
    rolag_size = (
        _measure(module, job.name, measure_model)
        if rolag_rolled > 0 or snapshot.changed()
        else size_before
    )
    checkpoint("rolag")

    semantics_ok: Optional[bool] = None
    if check_semantics:
        check("rolag", module)
        semantics_ok = not semantics_mismatches
        if timed:
            stats.add_phase_time("eval", eval_seconds)

    if timed:
        stats.add_phase_time("parse", parse_seconds)

    return FunctionResult(
        name=job.name,
        metadata=dict(job.metadata),
        size_before=size_before,
        llvm_size=llvm_size,
        rolag_size=rolag_size,
        llvm_rolled=llvm_rolled,
        rolag_rolled=rolag_rolled,
        attempted=stats.attempted,
        schedule_rejected=stats.schedule_rejected,
        unprofitable=stats.unprofitable,
        node_counts=dict(stats.node_counts),
        savings=list(stats.savings),
        optimized_ir=print_module(module),
        semantics_checked=check_semantics,
        semantics_ok=semantics_ok,
        semantics_mismatches=semantics_mismatches,
        guard_reports=guard_reports,
        phase_seconds=dict(stats.phase_seconds),
        wall_seconds=perf_counter() - start,
    )


def _make_validator(config: RolagConfig, seed: int):
    """The per-module-copy validation gate described by ``config``.

    Imported lazily: ``repro.validation`` transitively pulls in the
    difftest runner, which imports this package back.
    """
    from ..validation import Validator

    return Validator(
        config.validate,
        vectors=config.validate_vectors,
        step_limit=config.validate_step_limit,
        guard_dir=config.guard_dir,
        evaluator=config.validate_evaluator,
        seed=seed,
    )


# --- failure plumbing -------------------------------------------------------


@dataclass
class _Failure:
    """Picklable record of one failed attempt (travels pool -> parent)."""

    kind: str  # "crash" | "timeout"
    message: str


#: One worker-side attempt outcome.
Outcome = Union[FunctionResult, _Failure]


def run_one_guarded(
    job: FunctionJob,
    config: Optional[RolagConfig] = None,
    measure_model: Optional[CodeSizeCostModel] = None,
    timed: bool = False,
    check_semantics: bool = False,
    evaluator: str = "interp",
    deadline: Optional[float] = None,
) -> Outcome:
    """One attempt at one job, with crash/timeout containment.

    Runs :func:`optimize_one` under a cooperative deadline; any
    exception (including injected faults) becomes a :class:`_Failure`
    instead of propagating, so a worker never loses its whole chunk to
    one pathological function.  Hard deaths (``os._exit``, segfaults)
    cannot be caught here and are the parent pool's problem.
    """
    try:
        with deadline_scope(deadline):
            fire("driver.worker.start")
            return optimize_one(
                job, config, measure_model, timed, check_semantics, evaluator
            )
    except DeadlineExceeded as error:
        return _Failure("timeout", str(error))
    except Exception as error:
        return _Failure("crash", f"{type(error).__name__}: {error}")


def _error_result(
    job: FunctionJob, kind: str, message: str, attempts: int
) -> FunctionResult:
    """Graceful degradation: the original function plus a structured error."""
    return FunctionResult(
        name=job.name,
        metadata=dict(job.metadata),
        size_before=0,
        llvm_size=0,
        rolag_size=0,
        llvm_rolled=0,
        rolag_rolled=0,
        attempted=0,
        schedule_rejected=0,
        unprofitable=0,
        node_counts={},
        savings=[],
        optimized_ir=job.text,
        error=message,
        error_kind=kind,
        attempts=attempts,
    )


def _retarget_result(
    result: FunctionResult,
    producer: Optional[StructuralSummary],
    consumer: Optional[StructuralSummary],
) -> None:
    """Respell ``result`` (the producer's output) in the consumer's
    names, via the composed canonical-renaming witness.

    Rewrites the ``optimized_ir`` text and the per-function names in
    ``savings``.  Identity compositions (same spelling on both sides)
    are free, and any failure keeps the producer's text verbatim -- the
    result is still structurally correct, just spelled differently.
    """
    if producer is None or consumer is None:
        return
    locals_map, globals_map = compose_witness_renames(producer, consumer)
    if not locals_map and not globals_map:
        return
    try:
        text = result.optimized_ir
        if locals_map:
            text = rename_function_locals(text, locals_map)
        if globals_map:
            text = rename_globals(text, globals_map)
        result.optimized_ir = text
    except ParseError:  # pragma: no cover - output IR always lexes
        pass
    if globals_map:
        result.savings = [
            (globals_map.get(fn_name, fn_name), saved)
            for fn_name, saved in result.savings
        ]


def _follower_result(
    leader_result: FunctionResult,
    job: FunctionJob,
    leader_summary: Optional[StructuralSummary],
    summary: Optional[StructuralSummary],
    stats: DriverStats,
) -> FunctionResult:
    """Fan one computed leader result out to a structural duplicate.

    A failed leader degrades the follower identically (same error
    class, counted per follower) -- the follower *is* the same
    computation, so pretending it might have succeeded would be a lie.
    Successful results are deep-copied, restamped with the follower's
    identity, and their ``optimized_ir`` rewritten into the follower's
    namespace; ``guard_reports`` travel with the copy, so every
    rolled-back transaction is attributed to every duplicate.
    """
    if leader_result.failed:
        kind = leader_result.error_kind or "crash"
        if kind == "timeout":
            stats.timed_out += 1
        else:
            stats.crashed += 1
        result = _error_result(
            job, kind, leader_result.error or "", leader_result.attempts
        )
        result.dedupe_hit = True
        return result
    result = FunctionResult.from_json_dict(leader_result.to_json_dict())
    result.name = job.name
    result.metadata = dict(job.metadata)
    result.attempts = leader_result.attempts
    # The work happened once, in the leader: no wall/phase time here,
    # or timed aggregates would double-count it.
    result.wall_seconds = 0.0
    result.phase_seconds = {}
    result.dedupe_hit = True
    _retarget_result(result, leader_summary, summary)
    return result


# --- pool plumbing ----------------------------------------------------------
#
# The per-run knobs are shipped once per worker through the pool
# initializer instead of once per job through every pickle.

_WORKER_STATE: dict = {}

#: Exit code of a pool worker that noticed its parent process died.
ORPHANED_WORKER_EXIT_CODE = 87

#: Seconds between parent-liveness checks in each pool worker.
_PARENT_WATCH_INTERVAL = 1.0


def _watch_parent(parent_pid: int) -> None:
    """Exit the worker once its parent is gone (ppid changed).

    Forked siblings hold each other's call-queue pipe ends open, so a
    SIGKILLed parent (e.g. a serve daemon generation under the
    kill-chaos storm) would otherwise leave its workers blocked on
    ``get()`` forever -- orphans that also pin any inherited stdio
    pipes open.  Runs as a daemon thread started by the initializer.
    """
    import threading  # local: workers only

    def watch() -> None:
        while True:
            sleep(_PARENT_WATCH_INTERVAL)
            if os.getppid() != parent_pid:
                os._exit(ORPHANED_WORKER_EXIT_CODE)

    thread = threading.Thread(
        target=watch, name="parent-watch", daemon=True
    )
    thread.start()


def _init_worker(
    config: RolagConfig,
    measure_model: Optional[CodeSizeCostModel],
    timed: bool,
    check_semantics: bool,
    evaluator: str,
    deadline: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> None:
    if "parent_watch" not in _WORKER_STATE:
        _WORKER_STATE["parent_watch"] = True
        _watch_parent(os.getppid())
    _WORKER_STATE["config"] = config
    _WORKER_STATE["measure_model"] = measure_model
    _WORKER_STATE["timed"] = timed
    _WORKER_STATE["check_semantics"] = check_semantics
    _WORKER_STATE["evaluator"] = evaluator
    _WORKER_STATE["deadline"] = deadline
    # Fault-plan hit counters are per worker process by design: each
    # worker unpickles its own zeroed copy.
    install_plan(fault_plan)


def _run_chunk(jobs: Sequence[FunctionJob]) -> List[Outcome]:
    """Worker entry point: one guarded attempt per job in the chunk."""
    return [
        run_one_guarded(
            job,
            config=_WORKER_STATE["config"],
            measure_model=_WORKER_STATE["measure_model"],
            timed=_WORKER_STATE["timed"],
            check_semantics=_WORKER_STATE["check_semantics"],
            evaluator=_WORKER_STATE["evaluator"],
            deadline=_WORKER_STATE.get("deadline"),
        )
        for job in jobs
    ]


def _default_chunk_size(pending: int, workers: int) -> int:
    # ~4 chunks per worker balances pickle overhead against stragglers.
    return max(1, -(-pending // (workers * 4)))


def _terminate_pool_workers(executor) -> None:
    """SIGTERM every live worker of ``executor``; never raises.

    The hang-containment contract depends on this actually reaching
    the processes: a worker stuck in native code ignores
    ``shutdown(cancel_futures=True)`` and, being non-daemonic, would
    otherwise block interpreter exit.
    """
    procs = getattr(executor, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.terminate()
        except Exception:
            pass


def _attempt_serially(
    job: FunctionJob,
    qkey_fn: Callable[[], str],
    config: Optional[RolagConfig],
    measure_model: Optional[CodeSizeCostModel],
    timed: bool,
    check_semantics: bool,
    evaluator: str,
    deadline: Optional[float],
    retries: int,
    retry_backoff: float,
    quarantine: QuarantineList,
    stats: DriverStats,
) -> FunctionResult:
    """The in-process retry loop: attempt, back off, degrade.

    ``qkey_fn`` is lazy: deriving a quarantine key means fingerprinting
    the job (structurally when it builds), which only failure paths
    should ever pay for.
    """
    attempts = 0
    dispatch_start = perf_counter()
    while True:
        attempts += 1
        outcome = run_one_guarded(
            job, config, measure_model, timed, check_semantics, evaluator,
            deadline,
        )
        if isinstance(outcome, FunctionResult):
            outcome.attempts = attempts
            stats.record_latency(perf_counter() - dispatch_start)
            return outcome
        quarantine.record_failure(
            qkey_fn(), job.label, outcome.kind, outcome.message
        )
        if attempts <= retries:
            stats.retried += 1
            if retry_backoff > 0.0:
                sleep(retry_backoff * (2 ** (attempts - 1)))
            continue
        if outcome.kind == "timeout":
            stats.timed_out += 1
        else:
            stats.crashed += 1
        stats.record_latency(perf_counter() - dispatch_start)
        return _error_result(job, outcome.kind, outcome.message, attempts)


def _run_pool(
    jobs: Sequence[FunctionJob],
    pending: List[int],
    config: RolagConfig,
    measure_model: Optional[CodeSizeCostModel],
    timed: bool,
    check_semantics: bool,
    evaluator: str,
    deadline: Optional[float],
    retries: int,
    retry_backoff: float,
    quarantine: QuarantineList,
    qkey: Callable[[int], str],
    stats: DriverStats,
    workers: int,
    chunk_size: Optional[int],
    plan: Optional[FaultPlan],
    serial_fallback: bool,
    max_pool_respawns: int,
) -> Dict[int, FunctionResult]:
    """Crash/hang-isolated pool execution with respawn and retry.

    A worker that dies abruptly breaks the whole
    :class:`~concurrent.futures.ProcessPoolExecutor`; the executor
    cannot say *which* job killed it, so in-flight chunks are requeued
    uncharged and the pool is rebuilt -- the respawn budget bounds a
    poison job that kills every pool it meets.  A chunk observed
    running past its whole-chunk deadline budget is declared hung
    (non-cooperative stall): its jobs are charged a timeout, its
    workers are killed, and the pool is rebuilt.
    """
    from concurrent.futures import (
        FIRST_COMPLETED,
        ProcessPoolExecutor,
        wait,
    )
    from concurrent.futures.process import BrokenProcessPool

    computed: Dict[int, FunctionResult] = {}
    attempts: Dict[int, int] = {i: 0 for i in pending}
    not_before: Dict[int, float] = {i: 0.0 for i in pending}
    queue: deque = deque(pending)
    respawns = 0
    poll = 0.1 if deadline is None else max(0.002, min(0.05, deadline / 4.0))
    chunk = chunk_size or (
        1
        if (deadline is not None or plan is not None)
        else _default_chunk_size(len(pending), workers)
    )

    def finish_failure(index: int, kind: str, message: str) -> None:
        attempts[index] += 1
        quarantine.record_failure(
            qkey(index), jobs[index].label, kind, message
        )
        if attempts[index] <= retries:
            stats.retried += 1
            backoff = retry_backoff * (2 ** (attempts[index] - 1))
            not_before[index] = perf_counter() + backoff
            queue.append(index)
            return
        if kind == "timeout":
            stats.timed_out += 1
        else:
            stats.crashed += 1
        computed[index] = _error_result(
            jobs[index], kind, message, attempts[index]
        )

    def harvest(
        indices: List[int],
        outcomes: List[Outcome],
        submitted: Optional[float] = None,
    ) -> None:
        now = perf_counter()
        for index, outcome in zip(indices, outcomes):
            if isinstance(outcome, FunctionResult):
                outcome.attempts = attempts[index] + 1
                computed[index] = outcome
                if submitted is not None:
                    stats.record_latency(now - submitted)
            else:
                finish_failure(index, outcome.kind, outcome.message)

    executor: Optional[ProcessPoolExecutor] = None
    futures: Dict[object, dict] = {}

    def shutdown(kill: bool) -> None:
        nonlocal executor
        if executor is None:
            return
        if kill:
            _terminate_pool_workers(executor)
        try:
            executor.shutdown(wait=not kill, cancel_futures=True)
        except Exception:
            pass
        executor = None

    def drain_inflight(hung: set) -> None:
        """Settle every in-flight chunk after a pool teardown."""
        for future, info in list(futures.items()):
            if future in hung:
                for index in info["indices"]:
                    finish_failure(
                        index,
                        "timeout",
                        f"exceeded the {deadline:.3f}s wall-clock deadline "
                        "without yielding; worker killed",
                    )
            elif future.done():
                try:
                    outcomes = future.result(timeout=0)
                except Exception:
                    queue.extend(info["indices"])
                else:
                    harvest(info["indices"], outcomes, info.get("submitted"))
            else:
                queue.extend(info["indices"])
        futures.clear()

    pool_error: Optional[str] = None
    try:
        while queue or futures:
            if executor is None and queue:
                if respawns > max_pool_respawns:
                    break  # pool declared unhealthy; drained below
                executor = ProcessPoolExecutor(
                    max_workers=min(workers, max(1, len(queue))),
                    initializer=_init_worker,
                    initargs=(
                        config, measure_model, timed, check_semantics,
                        evaluator, deadline,
                        plan.fresh() if plan is not None else None,
                    ),
                )
            if executor is not None and queue:
                now = perf_counter()
                eligible: List[int] = []
                waiting: deque = deque()
                while queue:
                    index = queue.popleft()
                    if not_before[index] <= now:
                        eligible.append(index)
                    else:
                        waiting.append(index)
                queue = waiting
                for start in range(0, len(eligible), chunk):
                    indices = eligible[start:start + chunk]
                    future = executor.submit(
                        _run_chunk, [jobs[i] for i in indices]
                    )
                    futures[future] = {
                        "indices": indices,
                        "first_running": None,
                        "submitted": perf_counter(),
                    }
            if not futures:
                if queue:
                    sleep(poll)  # every queued job is inside its backoff
                continue

            done, _ = wait(
                set(futures), timeout=poll, return_when=FIRST_COMPLETED
            )
            now = perf_counter()
            broken = False
            for future in done:
                info = futures.pop(future)
                try:
                    outcomes = future.result()
                except BrokenProcessPool:
                    broken = True
                    queue.extend(info["indices"])
                except Exception:
                    # Executor infrastructure failure: treat like a death.
                    broken = True
                    queue.extend(info["indices"])
                else:
                    harvest(info["indices"], outcomes, info.get("submitted"))
            if broken:
                respawns += 1
                stats.pool_respawns += 1
                drain_inflight(hung=set())
                shutdown(kill=True)
                continue

            if deadline is not None and executor is not None:
                hung = set()
                for future, info in futures.items():
                    if info["first_running"] is None and future.running():
                        info["first_running"] = now
                    if info["first_running"] is None:
                        continue
                    budget = (
                        deadline * len(info["indices"])
                        + max(4 * poll, 0.05)
                    )
                    if now - info["first_running"] > budget:
                        hung.add(future)
                if hung:
                    respawns += 1
                    stats.pool_respawns += 1
                    drain_inflight(hung)
                    shutdown(kill=True)
    except Exception as error:
        # A parent-side failure mid-collect (executor plumbing, a
        # harvest gone wrong, a signal-interrupted wait) must never
        # leak the in-flight requeue: pull every uncomputed index back
        # out of the in-flight map so the post-loop degradation path
        # settles it.  The pool itself is no longer trustworthy, so
        # charge the whole respawn budget.
        pool_error = f"{type(error).__name__}: {error}"
        for info in futures.values():
            queue.extend(
                i for i in info["indices"] if i not in computed
            )
        respawns = max_pool_respawns + 1
    finally:
        shutdown(kill=bool(futures))
        futures.clear()

    if queue:
        # Respawn budget exhausted: the pool is unhealthy.  Either
        # degrade to the in-process path or abandon the leftovers as
        # structured errors -- never deadlock.
        remaining = list(queue)
        queue.clear()
        if serial_fallback:
            stats.serial_fallback = True
            for index in remaining:
                computed[index] = _attempt_serially(
                    jobs[index], lambda i=index: qkey(i), config, measure_model,
                    timed, check_semantics, evaluator, deadline,
                    retries, retry_backoff, quarantine, stats,
                )
        else:
            detail = f": {pool_error}" if pool_error else ""
            for index in remaining:
                stats.crashed += 1
                computed[index] = _error_result(
                    jobs[index],
                    "pool",
                    f"worker pool unhealthy after {respawns} respawn(s)"
                    f"{detail}; job abandoned (enable serial_fallback to "
                    "retry in-process)",
                    attempts[index],
                )
    return computed


def optimize_functions(
    jobs: Sequence[FunctionJob],
    config: Optional[RolagConfig] = None,
    *,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    measure_model: Optional[CodeSizeCostModel] = None,
    chunk_size: Optional[int] = None,
    timed: bool = False,
    check_semantics: bool = False,
    evaluator: str = "interp",
    deadline: Optional[float] = None,
    retries: int = 1,
    retry_backoff: float = 0.05,
    quarantine_file: Optional[str] = None,
    quarantine_after: int = 2,
    fault_plan: Union[None, str, FaultPlan] = None,
    serial_fallback: bool = False,
    max_pool_respawns: int = 2,
    dedupe: bool = True,
) -> DriverReport:
    """Optimize every job, in parallel, memoized, and fault-tolerant.

    ``workers`` defaults to :func:`default_worker_count`; ``workers=1``
    runs serially in-process (bit-identical to the pool path, since
    workers rebuild modules from text either way).  With ``cache_dir``
    set (and ``use_cache`` true), results are looked up before dispatch
    and newly computed ones written back.  Results come back in job
    order regardless of completion order.  ``check_semantics`` turns on
    the per-job differential oracle (see :func:`optimize_one`); it is
    part of the cache key, so checked and unchecked results never mix.
    ``evaluator`` picks the oracle's execution backend and is likewise
    fingerprinted into the key.

    The batch is scheduled through a warm-path partition.  With the
    cache on, every job is structurally fingerprinted (see
    ``repro.ir.structhash``) and split three ways: **cache hits** are
    served inline (rewritten into the job's namespace via the stored
    witness, no pool round-trip), **dedupe followers** -- jobs
    structurally identical to an earlier job in the same batch -- wait
    for their leader's single computation and receive a renamed copy,
    and only the **unique misses** reach the retry/pool machinery.
    Without a cache no fingerprinting happens (the no-cache fast path
    stays overhead-free) and dedupe degrades to coalescing textually
    identical jobs.  ``dedupe=False`` disables the coalescing
    entirely.

    Resilience knobs (see the module docstring and
    ``docs/robustness.md``): ``deadline`` bounds each function's wall
    clock; failed jobs are retried ``retries`` times with exponential
    ``retry_backoff``; functions that exhaust their retries are
    recorded in ``quarantine_file`` and skipped once they accumulate
    ``quarantine_after`` failed attempts.  ``fault_plan`` (a
    :class:`~repro.faultinject.FaultPlan`, a spec string, or ``None``
    to consult ``config.fault_plan`` and then ``ROLAG_FAULT_PLAN``)
    injects deterministic faults for testing.  Every job always yields
    a result: on unrecoverable failure, a degraded one carrying the
    original text and a structured ``error``.
    """
    config = config or RolagConfig()
    workers = default_worker_count() if workers is None else max(1, workers)
    start = perf_counter()
    plan = resolve_plan(
        fault_plan if fault_plan is not None else config.fault_plan
    )

    stats = DriverStats(jobs=len(jobs), workers=workers)
    quarantine = QuarantineList(quarantine_file, threshold=quarantine_after)
    summaries: Dict[int, Optional[StructuralSummary]] = {}
    hash_seconds = 0.0
    qkey_memo: Dict[int, str] = {}

    def summary_of(index: int) -> Optional[StructuralSummary]:
        """Memoized structural summary (None when the job won't build).

        Lazy on purpose: without a cache only failure/quarantine paths
        ever fingerprint a job, keeping the plain no-cache run at zero
        hashing overhead.
        """
        nonlocal hash_seconds
        if index not in summaries:
            hash_start = perf_counter()
            summaries[index] = job_struct_summary(jobs[index])
            hash_seconds += perf_counter() - hash_start
            if summaries[index] is None:
                stats.hash_fallbacks += 1
        return summaries[index]

    def qkey(index: int) -> str:
        if index not in qkey_memo:
            qkey_memo[index] = quarantine_key(
                jobs[index], summary_of(index)
            )
        return qkey_memo[index]

    with active_plan(plan):
        cache = (
            ResultCache(cache_dir) if (cache_dir and use_cache) else None
        )
        results: List[Optional[FunctionResult]] = [None] * len(jobs)
        pending: List[int] = []
        keys: List[Optional[str]] = [None] * len(jobs)
        # In-batch dedupe: leader index per content key, follower
        # indices per leader.  With the cache on, the content key is
        # the full structural job key; without it, exact text.
        leader_by_key: Dict[object, int] = {}
        followers_of: Dict[int, List[int]] = {}
        for i, job in enumerate(jobs):
            if cache is not None:
                summary = summary_of(i)
                keys[i] = job_key(
                    job, config, measure_model, check_semantics, evaluator,
                    summary=summary,
                )
                hit = cache.get(keys[i])
                if hit is not None:
                    # Structural hits may come from a differently-named
                    # producer: restamp the job's identity and respell
                    # the output via the envelope witness.
                    hit.name = job.name
                    hit.metadata = dict(job.metadata)
                    _retarget_result(
                        hit,
                        hit.producer_witness,  # type: ignore[arg-type]
                        summary,
                    )
                    results[i] = hit
                    stats.cache_hits += 1
                    continue
                stats.cache_misses += 1
            if len(quarantine) and quarantine.is_quarantined(qkey(i)):
                stats.quarantined += 1
                results[i] = _error_result(
                    job, "quarantined", quarantine.describe(qkey(i)),
                    attempts=0,
                )
                continue
            if dedupe:
                dkey: object = (
                    keys[i]
                    if keys[i] is not None
                    else ("text", job.format, job.name, job.text)
                )
                leader = leader_by_key.get(dkey)
                if leader is not None:
                    followers_of.setdefault(leader, []).append(i)
                    stats.dedupe_hits += 1
                    continue
                leader_by_key[dkey] = i
            pending.append(i)

        if pending:
            if workers == 1 or len(pending) == 1:
                computed = {
                    i: _attempt_serially(
                        jobs[i], lambda i=i: qkey(i), config, measure_model,
                        timed, check_semantics, evaluator, deadline, retries,
                        retry_backoff, quarantine, stats,
                    )
                    for i in pending
                }
            else:
                computed = _run_pool(
                    jobs, pending, config, measure_model, timed,
                    check_semantics, evaluator, deadline, retries,
                    retry_backoff, quarantine, qkey, stats, workers,
                    chunk_size, plan, serial_fallback, max_pool_respawns,
                )
            for i in pending:
                result = computed[i]
                results[i] = result
                # Error results are never cached: transient failures
                # must not poison warm reruns.
                if cache is not None and not result.failed:
                    cache.put(keys[i], result, summary=summaries.get(i))

        # Fan leaders out to their followers (same key, so never
        # cache-written twice; failed leaders degrade each follower).
        for leader, follower_indices in followers_of.items():
            leader_result = results[leader]
            assert leader_result is not None
            for i in follower_indices:
                results[i] = _follower_result(
                    leader_result, jobs[i],
                    summaries.get(leader), summaries.get(i), stats,
                )

        quarantine.save()
        if cache is not None:
            stats.cache_writes = cache.writes
            stats.cache_corrupt = cache.corrupt
            stats.cache_write_errors = cache.write_errors

    final: List[FunctionResult] = [r for r in results if r is not None]
    assert len(final) == len(jobs)
    stats.guard_failures = sum(len(r.guard_reports) for r in final)
    for result in final:
        for phase, seconds in result.phase_seconds.items():
            stats.phase_seconds[phase] = (
                stats.phase_seconds.get(phase, 0.0) + seconds
            )
    if timed:
        # Parent-side structural fingerprinting books under ``hash``.
        stats.phase_seconds["hash"] = (
            stats.phase_seconds.get("hash", 0.0) + hash_seconds
        )
    stats.wall_seconds = perf_counter() - start
    return DriverReport(results=final, stats=stats)


# --- the incremental front end ---------------------------------------------


class DriverSession:
    """Incremental submit/collect access to the driver machinery.

    Where :func:`optimize_functions` consumes a whole batch and
    returns, a session stays open: jobs arrive one at a time
    (:meth:`submit` returns a ticket immediately), results are
    harvested as they complete (:meth:`collect`), and the memo cache,
    quarantine list, structural-dedupe table, and worker pool persist
    across the session's lifetime.  This is the engine behind
    ``repro serve`` -- a streaming daemon needs admission to be cheap
    and non-blocking while computation proceeds elsewhere.

    Semantics mirror the batch entry point exactly:

    * with a cache, every job is structurally fingerprinted and cache
      hits are served at submit time, rewritten into the submitting
      job's namespace via the stored witness;
    * a job structurally identical to one still *in flight* coalesces
      onto that leader (even when the two came from different
      submitters): one computation, every follower gets a renamed
      copy, failures degrade every follower alike;
    * quarantined jobs are refused with a structured error result;
    * the resilience contract holds: deadlines, retries with backoff,
      pool respawn after crashes/hangs, graceful degradation -- every
      submitted ticket always resolves to exactly one result.

    With ``workers == 1`` jobs execute in-process at the next
    :meth:`pump`/:meth:`collect` (deterministic, pool-free -- the mode
    tests and single-core daemons run; deferring execution past
    :meth:`submit` is what lets back-to-back identical submissions
    coalesce even without a pool).  With more workers a persistent
    :class:`~concurrent.futures.ProcessPoolExecutor` computes jobs as
    single-job futures; :meth:`collect` (or :meth:`pump`) advances the
    event loop.  A session is *not* thread-safe: one owner thread
    (the serve scheduler) drives it.

    Always :meth:`close` a session (or use it as a context manager):
    closing drains or degrades every outstanding ticket and tears the
    pool down -- no orphaned workers, no leaked in-flight jobs, even
    when teardown itself hits an exception.
    """

    def __init__(
        self,
        config: Optional[RolagConfig] = None,
        *,
        workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        measure_model: Optional[CodeSizeCostModel] = None,
        timed: bool = False,
        check_semantics: bool = False,
        evaluator: str = "interp",
        deadline: Optional[float] = None,
        retries: int = 1,
        retry_backoff: float = 0.05,
        quarantine_file: Optional[str] = None,
        quarantine_after: int = 2,
        quarantine_fsync: bool = False,
        fault_plan: Union[None, str, FaultPlan] = None,
        serial_fallback: bool = True,
        max_pool_respawns: int = 2,
        dedupe: bool = True,
    ) -> None:
        self.config = config or RolagConfig()
        self.workers = (
            default_worker_count() if workers is None else max(1, workers)
        )
        self._measure_model = measure_model
        self._timed = timed
        self._check_semantics = check_semantics
        self._evaluator = evaluator
        self._deadline = deadline
        self._retries = retries
        self._retry_backoff = retry_backoff
        self._serial_fallback = serial_fallback
        self._max_pool_respawns = max_pool_respawns
        self._dedupe = dedupe

        self.stats = DriverStats(jobs=0, workers=self.workers)
        self._cache = (
            ResultCache(cache_dir) if (cache_dir and use_cache) else None
        )
        self._quarantine = QuarantineList(
            quarantine_file, threshold=quarantine_after,
            fsync=quarantine_fsync,
        )
        self._plan = resolve_plan(
            fault_plan if fault_plan is not None else self.config.fault_plan
        )
        # The serial path (and parent-side cache reads) fire fault
        # sites in this process; install the plan for the session's
        # lifetime and restore whatever was ambient on close.
        from ..faultinject.plan import get_active_plan

        self._prev_plan = get_active_plan()
        if self._plan is not None:
            install_plan(self._plan)

        #: Called as ``on_result(ticket, result)`` the moment a ticket
        #: resolves (from submit for cache hits / serial runs, from
        #: pump for pool completions).  The serve scheduler hooks this.
        self.on_result: Optional[Callable[[int, FunctionResult], None]] = None
        #: Called as ``on_respawn(count)`` each time the worker pool is
        #: torn down and rebuilt after a death or hang -- the session
        #: restart hook a supervising service uses to log and count
        #: partial restarts without polling the stats.
        self.on_respawn: Optional[Callable[[int], None]] = None

        self._next_ticket = 0
        self._jobs: Dict[int, FunctionJob] = {}
        self._keys: Dict[int, Optional[str]] = {}
        self._summaries: Dict[int, Optional[StructuralSummary]] = {}
        self._qkeys: Dict[int, str] = {}
        self._submitted_at: Dict[int, float] = {}
        self._ready: deque = deque()  # (ticket, result) awaiting collect
        self._done: Dict[int, bool] = {}
        # In-flight dedupe: content key -> leader ticket (only while
        # the leader is unresolved), plus follower lists per leader.
        self._leader_by_key: Dict[object, int] = {}
        self._dkey_of: Dict[int, object] = {}
        self._followers: Dict[int, List[int]] = {}
        # Pool state (workers > 1).
        self._queue: deque = deque()  # tickets awaiting dispatch
        self._attempts: Dict[int, int] = {}
        self._not_before: Dict[int, float] = {}
        self._inflight: Dict[object, dict] = {}  # future -> info
        self._executor = None
        self._respawns = 0
        self._closed = False
        self._started = perf_counter()

    # -- context management ------------------------------------------------

    def __enter__(self) -> "DriverSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # -- bookkeeping helpers -----------------------------------------------

    def _summary_of(self, ticket: int) -> Optional[StructuralSummary]:
        if ticket not in self._summaries:
            self._summaries[ticket] = job_struct_summary(self._jobs[ticket])
            if self._summaries[ticket] is None:
                self.stats.hash_fallbacks += 1
        return self._summaries[ticket]

    def _qkey(self, ticket: int) -> str:
        if ticket not in self._qkeys:
            self._qkeys[ticket] = quarantine_key(
                self._jobs[ticket], self._summary_of(ticket)
            )
        return self._qkeys[ticket]

    def _sync_cache_counters(self) -> None:
        if self._cache is not None:
            self.stats.cache_writes = self._cache.writes
            self.stats.cache_corrupt = self._cache.corrupt
            self.stats.cache_write_errors = self._cache.write_errors

    def _finish(self, ticket: int, result: FunctionResult) -> None:
        """Resolve one ticket: stats, ready queue, completion hook."""
        self._done[ticket] = True
        self.stats.guard_failures += len(result.guard_reports)
        for phase, seconds in result.phase_seconds.items():
            self.stats.phase_seconds[phase] = (
                self.stats.phase_seconds.get(phase, 0.0) + seconds
            )
        self._ready.append((ticket, result))
        if self.on_result is not None:
            self.on_result(ticket, result)

    def _fire_respawn(self) -> None:
        """Invoke the on_respawn hook; a raising hook never stops pump."""
        hook = self.on_respawn
        if hook is None:
            return
        try:
            hook(self._respawns)
        except Exception:  # pragma: no cover - defensive
            pass

    def _settle(self, ticket: int, result: FunctionResult) -> None:
        """A leader computed (or degraded): cache, finish, fan out."""
        if (
            self._cache is not None
            and not result.failed
            and self._keys.get(ticket) is not None
        ):
            self._cache.put(
                self._keys[ticket], result, summary=self._summaries.get(ticket)
            )
            self._sync_cache_counters()
        dkey = self._dkey_of.pop(ticket, None)
        if dkey is not None:
            self._leader_by_key.pop(dkey, None)
        self._finish(ticket, result)
        for follower in self._followers.pop(ticket, ()):  # type: ignore
            self._finish(
                follower,
                _follower_result(
                    result,
                    self._jobs[follower],
                    self._summaries.get(ticket),
                    self._summaries.get(follower),
                    self.stats,
                ),
            )

    # -- submission ---------------------------------------------------------

    def submit(self, job: FunctionJob) -> int:
        """Admit one job; returns its ticket immediately.

        Cache hits and quarantine refusals resolve before this
        returns; everything else resolves during a later
        :meth:`pump`/:meth:`collect`.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        ticket = self._next_ticket
        self._next_ticket += 1
        self._jobs[ticket] = job
        self._done[ticket] = False
        self._submitted_at[ticket] = perf_counter()
        self.stats.jobs += 1

        key: Optional[str] = None
        if self._cache is not None:
            summary = self._summary_of(ticket)
            key = job_key(
                job, self.config, self._measure_model,
                self._check_semantics, self._evaluator, summary=summary,
            )
            self._keys[ticket] = key
            hit = self._cache.get(key)
            if hit is not None:
                hit.name = job.name
                hit.metadata = dict(job.metadata)
                _retarget_result(
                    hit,
                    hit.producer_witness,  # type: ignore[arg-type]
                    summary,
                )
                self.stats.cache_hits += 1
                self._finish(ticket, hit)
                return ticket
            self.stats.cache_misses += 1
        else:
            self._keys[ticket] = None

        if len(self._quarantine) and self._quarantine.is_quarantined(
            self._qkey(ticket)
        ):
            self.stats.quarantined += 1
            self._finish(
                ticket,
                _error_result(
                    job, "quarantined",
                    self._quarantine.describe(self._qkey(ticket)),
                    attempts=0,
                ),
            )
            return ticket

        if self._dedupe:
            if key is not None:
                dkey: object = key
            else:
                # No cache key to coalesce on; fall back to the
                # alpha-invariant fingerprint (same respell machinery
                # as cache retargeting), then to exact text.
                summary = self._summary_of(ticket)
                dkey = (
                    ("struct", job.format, summary.fingerprint)
                    if summary is not None
                    else ("text", job.format, job.name, job.text)
                )
            leader = self._leader_by_key.get(dkey)
            if leader is not None and not self._done[leader]:
                self._followers.setdefault(leader, []).append(ticket)
                self.stats.dedupe_hits += 1
                return ticket
            self._leader_by_key[dkey] = ticket
            self._dkey_of[ticket] = dkey

        self._attempts[ticket] = 0
        self._not_before[ticket] = 0.0
        self._queue.append(ticket)
        if self.workers > 1:
            # Get the pool started; serial execution waits for the
            # next pump/collect so that structurally identical jobs
            # submitted back-to-back can still coalesce in flight.
            self.pump()
        return ticket

    # -- pool event loop ----------------------------------------------------

    def _spawn_executor(self):
        from concurrent.futures import ProcessPoolExecutor

        # Sized to ``workers``, not to the queue: the pool outlives the
        # jobs queued when it spawns, and a daemon submits one at a time.
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(
                self.config, self._measure_model, self._timed,
                self._check_semantics, self._evaluator, self._deadline,
                self._plan.fresh() if self._plan is not None else None,
            ),
        )

    def _kill_executor(self) -> None:
        """Tear the pool down hard; never raises."""
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        _terminate_pool_workers(executor)
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def _pool_failure(self, ticket: int, kind: str, message: str) -> None:
        """One failed pool attempt: retry with backoff or degrade."""
        self._attempts[ticket] += 1
        self._quarantine.record_failure(
            self._qkey(ticket), self._jobs[ticket].label, kind, message
        )
        self._quarantine.save()
        if self._attempts[ticket] <= self._retries:
            self.stats.retried += 1
            backoff = self._retry_backoff * (2 ** (self._attempts[ticket] - 1))
            self._not_before[ticket] = perf_counter() + backoff
            self._queue.append(ticket)
            return
        if kind == "timeout":
            self.stats.timed_out += 1
        else:
            self.stats.crashed += 1
        self._settle(
            ticket,
            _error_result(
                self._jobs[ticket], kind, message, self._attempts[ticket]
            ),
        )

    def _degrade_remaining(self, message: str) -> None:
        """Settle every queued ticket without a pool (fallback path)."""
        remaining = list(self._queue)
        self._queue.clear()
        if self._serial_fallback and not self._closed:
            self.stats.serial_fallback = True
            for ticket in remaining:
                result = _attempt_serially(
                    self._jobs[ticket], lambda t=ticket: self._qkey(t),
                    self.config, self._measure_model, self._timed,
                    self._check_semantics, self._evaluator, self._deadline,
                    self._retries, self._retry_backoff, self._quarantine,
                    self.stats,
                )
                self._quarantine.save()
                self._settle(ticket, result)
        else:
            for ticket in remaining:
                self.stats.crashed += 1
                self._settle(
                    ticket,
                    _error_result(
                        self._jobs[ticket], "pool", message,
                        self._attempts.get(ticket, 0),
                    ),
                )

    def pump(self) -> int:
        """Advance the pool without blocking; returns tickets resolved.

        Dispatches eligible queued tickets as single-job futures,
        harvests completions, requeues uncharged in-flight work when
        the pool dies (respawning it up to the budget), and kills
        non-cooperative hangs past their deadline budget.  With
        ``workers == 1`` it instead runs every queued ticket to
        completion in-process, in submission order.
        """
        if self.workers == 1:
            resolved = 0
            while self._queue:
                ticket = self._queue.popleft()
                result = _attempt_serially(
                    self._jobs[ticket], lambda t=ticket: self._qkey(t),
                    self.config, self._measure_model, self._timed,
                    self._check_semantics, self._evaluator, self._deadline,
                    self._retries, self._retry_backoff, self._quarantine,
                    self.stats,
                )
                self._quarantine.save()
                self._settle(ticket, result)
                resolved += 1
            return resolved
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        resolved = 0
        now = perf_counter()

        if self._queue and self._executor is None:
            if self._respawns > self._max_pool_respawns:
                before = len(self._ready)
                self._degrade_remaining(
                    f"worker pool unhealthy after {self._respawns} "
                    "respawn(s); job abandoned (serial_fallback off)"
                )
                return len(self._ready) - before
            self._executor = self._spawn_executor()

        if self._queue and self._executor is not None:
            waiting: deque = deque()
            while self._queue:
                ticket = self._queue.popleft()
                if self._not_before[ticket] <= now:
                    future = self._executor.submit(
                        _run_chunk, [self._jobs[ticket]]
                    )
                    self._inflight[future] = {
                        "ticket": ticket,
                        "first_running": None,
                        "submitted": perf_counter(),
                    }
                else:
                    waiting.append(ticket)
            self._queue = waiting

        if not self._inflight:
            return resolved

        done, _ = wait(
            set(self._inflight), timeout=0, return_when=FIRST_COMPLETED
        )
        now = perf_counter()
        broken = False
        for future in done:
            info = self._inflight.pop(future)
            ticket = info["ticket"]
            try:
                outcomes = future.result()
            except BrokenProcessPool:
                broken = True
                self._queue.append(ticket)
            except Exception:
                broken = True
                self._queue.append(ticket)
            else:
                outcome = outcomes[0]
                if isinstance(outcome, FunctionResult):
                    outcome.attempts = self._attempts[ticket] + 1
                    self.stats.record_latency(now - info["submitted"])
                    self._settle(ticket, outcome)
                    resolved += 1
                else:
                    self._pool_failure(ticket, outcome.kind, outcome.message)
                    if self._done[ticket]:
                        resolved += 1
        if broken:
            self._respawns += 1
            self.stats.pool_respawns += 1
            self._fire_respawn()
            for future, info in list(self._inflight.items()):
                self._queue.append(info["ticket"])
            self._inflight.clear()
            self._kill_executor()
            return resolved

        if self._deadline is not None and self._executor is not None:
            hung = []
            for future, info in self._inflight.items():
                if info["first_running"] is None and future.running():
                    info["first_running"] = now
                if info["first_running"] is None:
                    continue
                budget = self._deadline + 0.05
                if now - info["first_running"] > budget:
                    hung.append(future)
            if hung:
                self._respawns += 1
                self.stats.pool_respawns += 1
                self._fire_respawn()
                for future in hung:
                    info = self._inflight.pop(future)
                    self._pool_failure(
                        info["ticket"],
                        "timeout",
                        f"exceeded the {self._deadline:.3f}s wall-clock "
                        "deadline without yielding; worker killed",
                    )
                    if self._done[info["ticket"]]:
                        resolved += 1
                for future, info in list(self._inflight.items()):
                    self._queue.append(info["ticket"])
                self._inflight.clear()
                self._kill_executor()
        return resolved

    # -- harvesting ---------------------------------------------------------

    @property
    def pending(self) -> int:
        """Tickets submitted but not yet resolved."""
        return sum(1 for done in self._done.values() if not done)

    @property
    def unread(self) -> int:
        """Resolved results not yet collected."""
        return len(self._ready)

    def collect(
        self, timeout: Optional[float] = 0.0
    ) -> List[tuple]:
        """Harvest resolved tickets as ``[(ticket, result), ...]``.

        ``timeout=0`` polls once; a positive timeout waits up to that
        long for at least one result; ``None`` blocks until a result
        arrives or nothing is pending.  Results come back in
        resolution order (not submission order -- this is a stream).
        """
        poll = 0.005 if self._deadline is None else max(
            0.002, min(0.05, self._deadline / 4.0)
        )
        deadline_at = (
            None if timeout is None else perf_counter() + (timeout or 0.0)
        )
        while True:
            self.pump()
            if self._ready or self.pending == 0:
                break
            if deadline_at is not None and perf_counter() >= deadline_at:
                break
            sleep(poll)
        out = list(self._ready)
        self._ready.clear()
        return out

    def drain(self, timeout: Optional[float] = None) -> List[tuple]:
        """Collect until every submitted ticket has resolved."""
        deadline_at = (
            None if timeout is None else perf_counter() + timeout
        )
        out: List[tuple] = []
        while True:
            remaining = (
                None
                if deadline_at is None
                else max(0.0, deadline_at - perf_counter())
            )
            out.extend(self.collect(timeout=remaining))
            if self.pending == 0:
                return out
            if deadline_at is not None and perf_counter() >= deadline_at:
                return out

    # -- teardown -----------------------------------------------------------

    def close(
        self, drain: bool = True, drain_timeout: Optional[float] = None
    ) -> List[tuple]:
        """Tear the session down; every outstanding ticket resolves.

        With ``drain`` (the default) outstanding work is finished
        first (bounded by ``drain_timeout``); anything still pending
        after that -- or everything, with ``drain=False`` -- degrades
        to structured ``pool``-class error results.  The worker pool
        is always torn down, even if draining raises: no orphaned
        workers survive a closed session.  Idempotent.  Returns any
        results resolved during the close (uncollected ones remain
        available via :meth:`collect` on the closed session's ready
        queue -- but new submits are refused).
        """
        if self._closed:
            return []
        out: List[tuple] = []
        try:
            if drain and self.pending:
                out.extend(self.drain(timeout=drain_timeout))
        finally:
            self._closed = True
            try:
                # Whatever is still queued or in flight degrades; the
                # _closed flag above keeps the fallback path from
                # re-executing work during teardown.
                for info in self._inflight.values():
                    self._queue.append(info["ticket"])
                self._inflight.clear()
                self._degrade_remaining(
                    "session closed with the job still outstanding"
                )
                # Followers whose leader never resolved degrade too.
                for ticket, done in list(self._done.items()):
                    if not done:
                        self.stats.crashed += 1
                        self._finish(
                            ticket,
                            _error_result(
                                self._jobs[ticket], "pool",
                                "session closed with the job still "
                                "outstanding",
                                self._attempts.get(ticket, 0),
                            ),
                        )
            finally:
                self._kill_executor()
                try:
                    self._quarantine.save()
                except Exception:
                    pass
                self._sync_cache_counters()
                self.stats.wall_seconds = perf_counter() - self._started
                install_plan(self._prev_plan)
        return out
