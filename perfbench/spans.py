"""Span tracing from outside the program.

The traced run wraps public entry points of ``repro`` at the module
attributes their callers look up (and public methods on their
classes).  Each call made inside a job records one span: layer name,
start, end, parent span and job id.  Nothing under ``src/`` changes;
uninstalling restores every attribute.

Spans live in memory.  Pool workers inherit the wrappers when they
fork; a worker appends its spans to ``spans-<pid>.jsonl`` in the spill
directory each time its outermost span ends, so the parent can read
them back even if the pool is torn down with SIGTERM.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (span id, layer, start, end, parent span id or 0, job id)
Span = Tuple[int, str, float, float, int, str]


def _meta_job(metadata) -> Optional[str]:
    if isinstance(metadata, dict):
        return metadata.get("bench_id")
    for key, value in metadata or ():
        if key == "bench_id":
            return value
    return None


def job_of_arg(position: int) -> Callable[[tuple], Optional[str]]:
    """Job id read from the ``bench_id`` metadata of a job or result
    passed as positional argument ``position``."""

    def read(args: tuple) -> Optional[str]:
        if len(args) <= position:
            return None
        return _meta_job(getattr(args[position], "metadata", None))

    return read


class Recorder:
    """Span store plus the attribute patches that feed it."""

    def __init__(self, spill_dir: Optional[str] = None) -> None:
        self.spans: List[Span] = []
        self.captured: list = []
        self.spill_dir = spill_dir
        self._local = threading.local()
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[dict, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording -----------------------------------------------------------

    def _after_fork(self) -> None:
        self.spans = []
        self.captured = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        return (os.getpid() << 32) | next(self._ids)

    def call(self, layer: str, job_of, fn, args, kwargs):
        """Run ``fn`` inside a span (or bare, outside any job)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        job = job_of(args) if job_of is not None else None
        if job is None:
            if parent is None:
                return fn(*args, **kwargs)
            job = parent[1]
        sid = self._new_id()
        stack.append((sid, job))
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(
                (sid, layer, start, end, parent[0] if parent else 0, job)
            )
            if not stack and os.getpid() != self._pid:
                self._spill()

    @contextmanager
    def root(self, job: str):
        """The benchmark's own span around one job (layer ``job``)."""
        sid = self._new_id()
        stack = self._stack()
        stack.append((sid, job))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, "job", start, end, 0, job))

    def _spill(self) -> None:
        if self.spill_dir is None or not self.spans:
            return
        path = os.path.join(self.spill_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    def read_spills(self) -> List[Span]:
        """Spans the pool workers wrote (parent side)."""
        out: List[Span] = []
        if self.spill_dir is None:
            return out
        for name in sorted(os.listdir(self.spill_dir)):
            if not name.startswith("spans-"):
                continue
            with open(os.path.join(self.spill_dir, name)) as handle:
                out.extend(tuple(json.loads(line)) for line in handle)
        return out

    # -- patching ------------------------------------------------------------

    def _wrapper(self, fn, layer: str, job_of, capture=None):
        recorder = self

        def wrapper(*args, **kwargs):
            if capture is not None:
                recorder.captured.append(args[capture])
            return recorder.call(layer, job_of, fn, args, kwargs)

        wrapper.__name__ = getattr(fn, "__name__", layer)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def wrap_function(
        self, fn, layer: str, job_of=None, home: bool = False, capture=None
    ) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that imported
        it.  The defining module keeps the original unless ``home`` is
        set, so a layer's internal calls (and recursion) do not open
        nested spans of the same layer.  ``capture`` keeps positional
        argument ``capture`` of every traced call in ``captured``."""
        wrapper = self._wrapper(fn, layer, job_of, capture)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if not name.startswith("repro"):
                continue
            if name == fn.__module__ and not home:
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is fn:
                    namespace[attr] = wrapper
                    self._patches.append((namespace, attr, fn))

    def wrap_method(self, cls, attr: str, layer: str, job_of=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(original, layer, job_of))
        self._patches.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches = []

    def drain(self) -> List[Span]:
        spans, self.spans = self.spans, []
        return spans


def install_layers(recorder: Recorder) -> None:
    """Wrap every layer boundary the benchmark reports.

    Layer names follow the repository's modules: ``ir``, ``frontend``,
    ``transforms``, ``rolag`` (with its ``analysis`` scheduling
    step), ``validation`` (``validate``), ``difftest`` (``eval``),
    ``driver`` and ``serve``.
    """
    import repro.bench.objsize as objsize
    import repro.difftest.oracle as oracle
    import repro.driver.cache as cache
    import repro.driver.core as core
    import repro.frontend as frontend
    import repro.ir as ir
    import repro.rolag.pipeline as pipeline
    import repro.serve.scheduler as scheduler
    import repro.serve.service as service
    import repro.transforms.txn as txn
    import repro.validation as validation
    from repro.ir import verifier
    from repro.rolag.alignment import AlignmentGraph

    fn = recorder.wrap_function
    fn(ir.parse_module, "ir.parse")
    fn(ir.verify_module, "ir.verify")
    fn(verifier.verify_function, "ir.verify")
    fn(verifier.verify_blocks, "ir.verify")
    fn(ir.print_module, "ir.print")
    # ``_measure`` imports these from their home module at call time.
    fn(objsize.function_size, "measure", home=True)
    fn(objsize.measure_module, "measure", home=True)
    fn(frontend.compile_c, "frontend.compile")
    fn(core.reroll_loops, "reroll")
    fn(core.roll_loops_in_module, "rolag")
    fn(pipeline.collect_seed_groups, "rolag.seeds")
    fn(pipeline.find_joinable_groups, "rolag.seeds")
    fn(pipeline.analyze_scheduling, "rolag.scheduling")
    fn(pipeline.generate_rolled_loop, "rolag.codegen")
    fn(oracle.observe_call, "eval")
    fn(cache.job_struct_summary, "driver.hash")
    fn(core.optimize_one, "driver.execute", job_of_arg(0), home=True)
    # The results the daemon answers with, kept for their counters.
    fn(service.result_payload, "serve.respond", job_of_arg(0), home=True,
       capture=0)
    for attr in ("__init__", "build_from_seeds", "build_joint",
                 "build_reduction", "build_minmax_reduction"):
        recorder.wrap_method(AlignmentGraph, attr, "rolag.alignment")
    for attr, layer in (("begin", "validate.begin"),
                        ("commit_or_rollback", "validate.commit"),
                        ("rollback_exception", "validate.rollback")):
        recorder.wrap_method(validation.Validator, attr, layer)
    recorder.wrap_method(
        txn.TransactionalPassManager, "run_function", "transforms.txn"
    )
    recorder.wrap_method(cache.ResultCache, "get", "driver.cache_read")
    recorder.wrap_method(
        cache.ResultCache, "put", "driver.cache_write", job_of_arg(2)
    )
    recorder.wrap_method(
        scheduler.Scheduler, "offer", "serve.admit", job_of_arg(1)
    )
    recorder.wrap_method(
        core.DriverSession, "submit", "driver.submit", job_of_arg(1)
    )


def self_times(spans: List[Span]) -> Iterator[Tuple[Span, float]]:
    """Each span with its self time (duration minus its children's)."""
    child_time: Dict[int, float] = {}
    for span in spans:
        if span[4]:
            child_time[span[4]] = child_time.get(span[4], 0.0) + (
                span[3] - span[2]
            )
    for span in spans:
        yield span, (span[3] - span[2]) - child_time.get(span[0], 0.0)
