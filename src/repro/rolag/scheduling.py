"""Scheduling analysis (paper Section IV-D, Fig. 13).

Loop rolling reorders the basic block into

    [preceding code + mismatch/invariant setup]
    [iteration 0 instructions] [iteration 1 instructions] ...
    [succeeding code]

which is legal iff every dependence edge of the original block still
points forward.  *before* holds what the loop transitively depends on
(plus the phis) and *after* the rest, both in block order, so only two
kinds of edge can point backwards and only they are checked: a loop
instruction reaching *before* (a cycle across the loop boundary) and a
loop-to-loop edge from a later lane into an earlier one.  The argument
is spelled out in ``docs/rolag_internals.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Set, Tuple

from ..analysis.alias import AliasAnalysis
from ..analysis.deps import DependenceGraph
from ..ir.instructions import Instruction, Phi
from .alignment import (
    AlignmentGraph,
    AlignNode,
    BinOpNeutralNode,
    MatchNode,
    MinMaxReductionNode,
    PtrSeqNode,
    RecurrenceNode,
    ReductionNode,
)


@dataclass
class Schedule:
    """A legal rearrangement of the block around the future loop."""

    #: The block's position index and dependence graph.
    deps: DependenceGraph
    #: Claimed instructions in iteration-major execution order.
    loop_order: List[Instruction]
    #: Per-lane instruction lists (lane-major view of ``loop_order``).
    lanes: List[List[Instruction]]
    #: Block positions of the loop instructions, as a bitset.
    loop_bits: int
    #: Block positions of the other instructions the loop depends on.
    depended_bits: int

    @property
    def before(self) -> List[Instruction]:
        """Non-loop instructions that must run before the loop (block order)."""
        return self._partition[0]

    @property
    def after(self) -> List[Instruction]:
        """Non-loop instructions that run after the loop (block order)."""
        return self._partition[1]

    @cached_property
    def _partition(self) -> Tuple[List[Instruction], List[Instruction]]:
        # Built only when the code generator reads it: a rejected or
        # unprofitable candidate never walks the whole block.
        before: List[Instruction] = []
        after: List[Instruction] = []
        for position, inst in enumerate(self.deps.instructions):
            if (self.loop_bits >> position) & 1 or inst.is_terminator:
                continue  # the terminator is re-attached by codegen
            if isinstance(inst, Phi) or (self.depended_bits >> position) & 1:
                before.append(inst)
            else:
                after.append(inst)
        return before, after


def _iteration_order(ag: AlignmentGraph) -> Optional[List[List[Instruction]]]:
    """Claimed instructions per lane, each lane in block order.

    Assigns instructions to lanes the way the code generator's
    post-order emission does, so that the simulated order matches what
    will actually execute.
    """
    root = ag.roots[0] if ag.roots else None
    if root is None:
        return None

    lane_count = root.lane_count
    lanes: List[List[Instruction]] = [[] for _ in range(lane_count)]
    emitted: Set[int] = set()

    def place(inst: Instruction, lane: int) -> None:
        if id(inst) not in emitted:
            emitted.add(id(inst))
            lanes[lane].append(inst)

    def emit(node: AlignNode, seen: Set[int]) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        if isinstance(node, RecurrenceNode):
            return  # breaks the cycle: lowered to a phi
        for child in node.children:
            emit(child, seen)
        if isinstance(node, MatchNode):
            for lane, inst in enumerate(node.lanes):
                place(inst, lane)
        elif isinstance(node, BinOpNeutralNode):
            for lane, value in enumerate(node.lanes):
                claim = ag.claimed.get(id(value))
                if claim is not None and claim[0] is node:
                    place(value, lane)
        elif isinstance(node, PtrSeqNode):
            # Claimed GEP chains.
            for inst_id, (owner, lane) in ag.claimed.items():
                if owner is node:
                    inst = ag.find(inst_id)
                    if inst is not None:
                        place(inst, lane)
        elif isinstance(node, (ReductionNode, MinMaxReductionNode)):
            # The tree's internal ops are pure register arithmetic that
            # associativity lets us re-distribute one-per-iteration.
            # Model them conservatively in the *last* lane: every leaf
            # then precedes every accumulation and all original
            # internal-internal edges stay satisfied.
            for inst in node.internal:
                place(inst, lane_count - 1)

    emit(root, set())
    # Within each lane, follow the original block order: the original
    # iteration already executed in a legal order, and the code
    # generator emits the loop body position-ordered to match (which is
    # what lets joint groups interleave, e.g. all loads of an iteration
    # before its stores).
    position = ag.index.position
    return [sorted(lane, key=lambda i: position[id(i)]) for lane in lanes]


def analyze_scheduling(
    ag: AlignmentGraph,
    aa: Optional[AliasAnalysis] = None,
    deps: Optional[DependenceGraph] = None,
) -> Optional[Schedule]:
    """Check whether the block can be reordered for rolling.

    Returns the schedule on success, ``None`` when any dependence would
    be violated (including cyclic dependences across the loop
    boundary).  ``deps`` may be supplied to reuse one dependence graph
    across several candidate seed groups of the same (unmodified)
    block.
    """
    lanes = _iteration_order(ag)
    if lanes is None or sum(map(len, lanes)) != len(ag.claimed):
        return None  # no graph, or a claimed instruction was not scheduled
    if deps is None:
        deps = DependenceGraph(ag.block, aa or AliasAnalysis(ag.block.parent))
    return schedule_lanes(deps, lanes)


def schedule_lanes(
    deps: DependenceGraph, lanes: List[List[Instruction]]
) -> Optional[Schedule]:
    """Whether ``lanes`` (each in block order) can run as consecutive
    loop iterations, with the rest of the block split around them.

    Costs a few bitset operations per loop instruction, independent of
    the block's length once the block's closure bitsets exist.
    """
    position = deps.position
    ancestors = deps.ancestors
    descendants = deps.descendants
    later = 0  # loop instructions of the lanes after the current one
    needs = feeds = 0
    for lane in reversed(lanes):
        lane_bits = 0
        for inst in lane:
            p = position.get(id(inst))
            if p is None:
                continue
            if ancestors[p] & later:
                return None  # a later iteration feeds an earlier one
            lane_bits |= 1 << p
            needs |= ancestors[p]
            feeds |= descendants[p]
        later |= lane_bits
    depended = needs & ~later
    if feeds & depended:
        return None  # a cycle through code outside the loop
    loop_order = [inst for lane in lanes for inst in lane]
    return Schedule(deps, loop_order, lanes, later, depended)
