"""Block-level dependence graph.

The scheduling analysis of RoLAG (paper Section IV-D) must prove that
reordering a basic block into pre-loop / loop-iterations / post-loop
order preserves semantics.  That holds iff every dependence edge of the
original block still points forward in the new order.  This module
computes those edges: SSA def-use edges plus memory/side-effect
ordering edges refined by alias analysis, and their transitive closure.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Set, Tuple

from ..ir.instructions import Call, Instruction, Load, Store
from ..ir.module import BasicBlock
from ..ir.types import DataLayout, DEFAULT_LAYOUT
from ..ir.values import Value
from .alias import AliasAnalysis, AliasResult


def _access_kind(inst: Instruction) -> Tuple[bool, bool]:
    """(reads, writes) memory classification for ordering purposes."""
    if isinstance(inst, Load):
        return True, False
    if isinstance(inst, Store):
        return False, True
    if isinstance(inst, Call):
        if inst.is_readnone():
            return False, False
        if inst.is_readonly():
            return True, False
        return True, True
    return False, False


class _Object:
    """The accesses of one block to one underlying object, so far."""

    __slots__ = ("base", "overlapping", "located", "accesses", "writes")

    def __init__(self, base: Value) -> None:
        self.base = base
        #: Distinct objects an access to this one may overlap.
        self.overlapping: List["_Object"] = []
        #: (index, pointer, size, writes) per access.
        self.located: List[Tuple[int, Value, int, bool]] = []
        self.accesses: List[int] = []
        self.writes: List[int] = []


class BlockIndex:
    """Block-order positions of one block's instructions.

    Built once per visit of a block and shared by every question the
    rolling search asks about it, so no per-candidate query rescans the
    block.  Valid until the block is next rewritten.
    """

    def __init__(self, block: BasicBlock) -> None:
        self.block = block
        self.instructions: List[Instruction] = list(block.instructions)
        self.position: Dict[int, int] = {
            id(inst): i for i, inst in enumerate(self.instructions)
        }


class DependenceGraph(BlockIndex):
    """Pairwise must-precede relation over one basic block.

    ``edges[j]`` holds the set of earlier indices i such that the
    instruction at i must execute before the instruction at j.  The
    transitive closure is kept as int bitsets (bit i of
    ``ancestors[j]`` set iff j transitively depends on i; likewise
    ``descendants``), each built on first use: only blocks that reach
    the scheduling analysis pay for them.
    """

    def __init__(
        self,
        block: BasicBlock,
        aa: AliasAnalysis,
        layout: DataLayout = DEFAULT_LAYOUT,
    ) -> None:
        super().__init__(block)
        self.edges: List[Set[int]] = [set() for _ in self.instructions]
        self._build(aa, layout)

    def _build(self, aa: AliasAnalysis, layout: DataLayout) -> None:
        insts = self.instructions

        # SSA def-use edges within the block.
        for j, inst in enumerate(insts):
            for op in inst.operands:
                i = self.position.get(id(op))
                if i is not None and i < j:
                    self.edges[j].add(i)

        # Memory ordering edges, built per underlying object rather
        # than per access pair.  Between two *distinct* objects the
        # alias verdict depends on the two bases alone, so it is
        # decided once per object pair, when the later object first
        # appears, and an access then takes its edges wholesale from
        # the index lists of every object that may overlap its own.
        # Offsets are compared pairwise only between accesses to the
        # same object.  An opaque call conflicts with every access
        # except in read-read pairs.
        alias = aa.alias
        accesses: List[int] = []  # every earlier access
        writes_any: List[int] = []  # every earlier access that writes
        calls: List[int] = []  # earlier opaque calls
        calls_writing: List[int] = []  # ... of those, the writers
        objects: Dict[int, _Object] = {}
        for j, inst in enumerate(insts):
            reads, writes = _access_kind(inst)
            if not (reads or writes):
                continue
            deps = self.edges[j]
            loc = self._location(inst, layout)
            if loc is None:
                deps.update(accesses if writes else writes_any)
                calls.append(j)
                if writes:
                    calls_writing.append(j)
            else:
                pointer, size = loc
                base = aa.base_of(pointer)
                obj = objects.get(id(base))
                if obj is None:
                    obj = objects[id(base)] = _Object(base)
                    for other in objects.values():
                        if other is not obj and (
                            aa.objects_alias(base, other.base)
                            is not AliasResult.NO
                        ):
                            obj.overlapping.append(other)
                            other.overlapping.append(obj)
                deps.update(calls if writes else calls_writing)
                for other in obj.overlapping:
                    deps.update(other.accesses if writes else other.writes)
                for i, ptr_i, size_i, writes_i in obj.located:
                    if (writes or writes_i) and alias(
                        ptr_i, size_i, pointer, size
                    ) is not AliasResult.NO:
                        deps.add(i)
                obj.located.append((j, pointer, size, writes))
                obj.accesses.append(j)
                if writes:
                    obj.writes.append(j)
            accesses.append(j)
            if writes:
                writes_any.append(j)

    @staticmethod
    def _location(inst: Instruction, layout: DataLayout):
        if isinstance(inst, Load):
            return inst.pointer, layout.size_of(inst.type)
        if isinstance(inst, Store):
            return inst.pointer, layout.size_of(inst.value.type)
        return None  # call: unknown location

    def must_precede(self, a: Instruction, b: Instruction) -> bool:
        """Direct dependence edge a -> b (not transitive)."""
        i = self.position[id(a)]
        j = self.position[id(b)]
        if i > j:
            i, j = j, i
        return i in self.edges[j]

    @cached_property
    def ancestors(self) -> List[int]:
        """Per index, the bitset of indices it transitively depends on."""
        ancestors: List[int] = []
        for preds in self.edges:
            bits = 0
            for i in preds:
                bits |= ancestors[i] | (1 << i)
            ancestors.append(bits)
        return ancestors

    @cached_property
    def descendants(self) -> List[int]:
        """Per index, the bitset of indices transitively depending on it."""
        descendants = [0] * len(self.edges)
        for j in range(len(self.edges) - 1, -1, -1):
            below = descendants[j] | (1 << j)
            for i in self.edges[j]:
                descendants[i] |= below
        return descendants
