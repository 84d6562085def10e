"""Differential property test of the scheduling analysis.

The analysis checks only the dependence edges that can break once a
block is split into before / loop / after.  Here random blocks of
loads, stores, arithmetic and calls over a few pointer arguments (and
optionally a local and a global array), with random claimed sets
spread over random lanes, are judged both by it and by a full replay
of every edge against ``before + loop + after + terminator``; verdicts
and partitions must agree.  The graph's edges themselves must equal a
pairwise rebuild that asks the alias analysis about every access pair.
"""

from hypothesis import event, given, settings, strategies as st

from tests.helpers import (
    pairwise_dependence_edges,
    respects,
    transitive_predecessors,
)

from repro.analysis import AliasAnalysis, DependenceGraph
from repro.ir import parse_module
from repro.ir.instructions import Phi
from repro.rolag.scheduling import schedule_lanes

_HEADER = """
@gv = global [4 x i32] zeroinitializer
declare void @opaque()
declare i32 @peek(i32*) readonly
declare i32 @pure(i32) readnone
"""


@st.composite
def blocks(draw):
    """IR text of a function whose ``body`` block is the one under test."""
    n_ptrs = draw(st.integers(1, 3))
    ptrs = [f"%p{i}" for i in range(n_ptrs)]
    # Identified objects too, so some object pairs are provably
    # disjoint: a local array and a global one, addressed from entry.
    entry = []
    if draw(st.booleans()):
        entry += [
            "%loc = alloca [4 x i32]",
            "%l0 = getelementptr [4 x i32], [4 x i32]* %loc, i64 0, i64 0",
        ]
        ptrs.append("%l0")
    if draw(st.booleans()):
        entry.append(
            "%g0 = getelementptr [4 x i32], [4 x i32]* @gv, i64 0, i64 0"
        )
        ptrs.append("%g0")
    values = ["%x"]
    lines = []
    for k in range(draw(st.integers(0, 2))):
        lines.append(f"%ph{k} = phi i32 [ %x, %entry ]")
        values.append(f"%ph{k}")

    def operand():
        if draw(st.booleans()):
            return str(draw(st.integers(-2, 9)))
        return draw(st.sampled_from(values))

    def address(n):
        base = draw(st.sampled_from(ptrs))
        offset = draw(st.integers(0, 3))
        if offset == 0 and draw(st.booleans()):
            return base  # the argument itself, no GEP
        lines.append(f"%a{n} = getelementptr i32, i32* {base}, i64 {offset}")
        return f"%a{n}"

    for n in range(draw(st.integers(1, 14))):
        kind = draw(
            st.sampled_from(
                ["load", "store", "store", "arith", "opaque", "peek", "pure"]
            )
        )
        if kind == "load":
            lines.append(f"%v{n} = load i32, i32* {address(n)}")
        elif kind == "store":
            value = operand()
            lines.append(f"store i32 {value}, i32* {address(n)}")
            continue
        elif kind == "arith":
            op = draw(st.sampled_from(["add", "mul", "xor"]))
            lines.append(f"%v{n} = {op} i32 {operand()}, {operand()}")
        elif kind == "opaque":
            lines.append("call void @opaque()")
            continue
        elif kind == "peek":
            lines.append(f"%v{n} = call i32 @peek(i32* {address(n)})")
        else:
            lines.append(f"%v{n} = call i32 @pure(i32 {operand()})")
        values.append(f"%v{n}")
    params = ", ".join(f"i32* %p{i}" for i in range(n_ptrs))
    body = "\n  ".join(lines)
    setup = "".join(f"  {line}\n" for line in entry)
    return (
        f"{_HEADER}\ndefine void @f({params}, i32 %x) {{\n"
        f"entry:\n{setup}  br label %body\n\n"
        f"body:\n  {body}\n  ret void\n}}\n"
    )


def _replayed(dg, lanes):
    """The partition and verdict of replaying every edge (the reference)."""
    loop_order = [inst for lane in lanes for inst in lane]
    loop_ids = {id(inst) for inst in loop_order}
    depended = transitive_predecessors(dg, loop_order)
    before, after = [], []
    for position, inst in enumerate(dg.instructions):
        if id(inst) in loop_ids:
            continue
        if isinstance(inst, Phi):
            before.append(inst)
        elif inst.is_terminator:
            continue
        elif position in depended:
            before.append(inst)
        else:
            after.append(inst)
    new_order = before + loop_order + after + [dg.block.terminator]
    return respects(dg, new_order), before, after


@given(text=blocks(), data=st.data())
@settings(deadline=None, max_examples=300)
def test_cut_check_matches_full_edge_replay(text, data):
    fn = parse_module(text).get_function("f")
    block = fn.blocks[1]
    aa = AliasAnalysis(fn)
    dg = DependenceGraph(block, aa)
    assert dg.edges == pairwise_dependence_edges(dg, aa)
    lane_count = data.draw(st.integers(1, 4), label="lanes")
    lanes = [[] for _ in range(lane_count)]
    for inst in block.instructions:
        if isinstance(inst, Phi) or inst.is_terminator:
            continue
        lane = data.draw(st.integers(-1, lane_count - 1), label=inst.short_name())
        if lane >= 0:
            lanes[lane].append(inst)  # block order within each lane

    legal, before, after = _replayed(dg, lanes)
    event("legal" if legal else "rejected")
    schedule = schedule_lanes(dg, lanes)
    assert (schedule is not None) == legal
    if schedule is not None:
        assert schedule.loop_order == [i for lane in lanes for i in lane]
        assert schedule.before == before
        assert schedule.after == after


@given(text=blocks())
@settings(deadline=None, max_examples=100)
def test_closure_bitsets_match_graph_search(text):
    fn = parse_module(text).get_function("f")
    dg = DependenceGraph(fn.blocks[1], AliasAnalysis(fn))
    for j, inst in enumerate(dg.instructions):
        expected = transitive_predecessors(dg, [inst])
        assert dg.ancestors[j] == sum(1 << i for i in expected)
        for i in range(len(dg.instructions)):
            assert ((dg.descendants[i] >> j) & 1) == (i in expected)
