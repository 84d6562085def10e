"""Shared test utilities: differential execution of transforms."""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ir import (
    DEFAULT_LAYOUT,
    F32,
    F64,
    FloatType,
    I16,
    I32,
    I64,
    I8,
    IntType,
    Machine,
    Module,
    PointerType,
    parse_module,
    verify_module,
)


class Observation:
    """Everything observable about one execution."""

    def __init__(
        self,
        result: object,
        globals_content: Dict[str, bytes],
        extern_trace: List[Tuple[str, tuple]],
        buffers: List[bytes],
        steps: int,
    ) -> None:
        self.result = result
        self.globals_content = globals_content
        self.extern_trace = extern_trace
        self.buffers = buffers
        self.steps = steps

    def same_behaviour(self, other: "Observation") -> bool:
        # Transforms may add compiler-generated constant globals (e.g.
        # RoLAG mismatch tables); only the original globals are state.
        globals_match = all(
            other.globals_content.get(name) == content
            for name, content in self.globals_content.items()
        )
        return (
            self.result == other.result
            and globals_match
            and self.buffers == other.buffers
            and _normalize_trace(self.extern_trace)
            == _normalize_trace(other.extern_trace)
        )

    def explain_difference(self, other: "Observation") -> str:
        parts = []
        if self.result != other.result:
            parts.append(f"result {self.result!r} != {other.result!r}")
        if self.globals_content != other.globals_content:
            for name in self.globals_content:
                if self.globals_content[name] != other.globals_content.get(name):
                    parts.append(f"global @{name} differs")
        if self.buffers != other.buffers:
            parts.append("argument buffers differ")
        if _normalize_trace(self.extern_trace) != _normalize_trace(
            other.extern_trace
        ):
            parts.append(
                f"extern trace {self.extern_trace} != {other.extern_trace}"
            )
        return "; ".join(parts) or "identical"


def _normalize_trace(trace):
    # Pointer arguments differ in absolute address between runs; traces
    # are compared as sequences of (name, arity) plus non-huge ints.
    out = []
    for name, args in trace:
        out.append(
            (name, tuple(a if isinstance(a, int) and abs(a) < 4096 else "<ptr>"
                          for a in args))
        )
    return out


def execute(
    module: Module,
    fn_name: str,
    scalar_args: Sequence[object] = (),
    buffer_specs: Sequence[bytes] = (),
    externs: Optional[Dict[str, Callable]] = None,
    step_limit: int = 5_000_000,
) -> Observation:
    """Run a function with fresh buffers and capture the observation.

    ``buffer_specs`` are initial byte contents; each becomes a fresh
    allocation whose address is appended to the argument list.
    """
    machine = Machine(module, step_limit=step_limit)
    for name, handler in (externs or {}).items():
        machine.register_extern(name, handler)
    addresses = []
    for spec in buffer_specs:
        addr = machine.alloc(max(len(spec), 1))
        machine.write_bytes(addr, spec)
        addresses.append(addr)
    fn = module.get_function(fn_name)
    assert fn is not None, f"no function @{fn_name}"
    result = machine.call(fn, list(scalar_args) + addresses)
    buffers = [
        machine.read_bytes(addr, len(spec))
        for addr, spec in zip(addresses, buffer_specs)
    ]
    return Observation(
        result=result,
        globals_content=machine.global_contents(),
        extern_trace=machine.extern_trace,
        buffers=buffers,
        steps=machine.steps,
    )


def assert_transform_preserves(
    source: str,
    transform: Callable[[Module], object],
    fn_name: str,
    scalar_args: Sequence[object] = (),
    buffer_specs: Sequence[bytes] = (),
    externs: Optional[Dict[str, Callable]] = None,
) -> Tuple[object, Module]:
    """Parse, run, transform, verify, run again, compare observations.

    Returns (transform return value, transformed module).
    """
    module = parse_module(source)
    verify_module(module)
    before = execute(module, fn_name, scalar_args, buffer_specs, externs)
    outcome = transform(module)
    verify_module(module)
    after = execute(module, fn_name, scalar_args, buffer_specs, externs)
    assert before.same_behaviour(after), before.explain_difference(after)
    return outcome, module


def ints_to_bytes(values: Sequence[int], width: int = 4) -> bytes:
    fmt = {1: "b", 2: "h", 4: "i", 8: "q"}[width]
    return struct.pack(f"<{len(values)}{fmt}", *values)


def floats_to_bytes(values: Sequence[float], width: int = 4) -> bytes:
    fmt = {4: "f", 8: "d"}[width]
    return struct.pack(f"<{len(values)}{fmt}", *values)


def bytes_to_ints(raw: bytes, width: int = 4) -> List[int]:
    fmt = {1: "b", 2: "h", 4: "i", 8: "q"}[width]
    count = len(raw) // width
    return list(struct.unpack(f"<{count}{fmt}", raw[: count * width]))


# --- brute-force dependence oracles -------------------------------------
#
# The rolling search answers legality from transitive bitsets and checks
# only the edges that can break; these replay the whole edge set instead
# and are kept as the reference the fast path is tested against.


def transitive_predecessors(dg, roots) -> set:
    """Indices of every instruction the roots transitively depend on."""
    result: set = set()
    work = [dg.position[id(r)] for r in roots if id(r) in dg.position]
    while work:
        j = work.pop()
        for i in dg.edges[j]:
            if i not in result:
                result.add(i)
                work.append(i)
    return result


def respects(dg, new_order) -> bool:
    """Whether ``new_order`` keeps every dependence edge of ``dg``."""
    position = {id(inst): p for p, inst in enumerate(new_order)}
    for j, preds in enumerate(dg.edges):
        pj = position.get(id(dg.instructions[j]))
        if pj is None:
            continue
        for i in preds:
            pi = position.get(id(dg.instructions[i]))
            if pi is not None and pi >= pj:
                return False
    return True


def pairwise_dependence_edges(dg, aa, layout=DEFAULT_LAYOUT) -> List[set]:
    """Every edge of ``dg``'s block, rebuilt by asking the alias
    analysis about each pair of memory accesses in turn.

    The reference the per-object-pair build of ``DependenceGraph`` is
    tested against: SSA def-use edges, plus an edge between two
    accesses unless both only read or the alias analysis proves them
    disjoint; an opaque call conflicts with every access except in
    read-read pairs.
    """
    from repro.analysis.deps import _access_kind
    from repro.analysis.alias import AliasResult

    insts = dg.instructions
    position = {id(inst): i for i, inst in enumerate(insts)}
    edges = [set() for _ in insts]
    for j, inst in enumerate(insts):
        for op in inst.operands:
            i = position.get(id(op))
            if i is not None and i < j:
                edges[j].add(i)
    mem_ops = []
    for i, inst in enumerate(insts):
        reads, writes = _access_kind(inst)
        if reads or writes:
            mem_ops.append((i, writes, dg._location(inst, layout)))
    for a_pos, (i, writes_i, loc_i) in enumerate(mem_ops):
        for j, writes_j, loc_j in mem_ops[a_pos + 1:]:
            if not (writes_i or writes_j):
                continue
            if loc_i is None or loc_j is None:
                edges[j].add(i)
            elif aa.alias(*loc_i, *loc_j) is not AliasResult.NO:
                edges[j].add(i)
    return edges
