"""Lightweight alias analysis.

Good enough for the scheduling analysis of loop rolling: identifies the
*underlying object* of a pointer (alloca, global, argument, ...) and
tracks statically-known byte offsets through GEP chains, so that
accesses to distinct objects or to provably disjoint ranges of the same
object are recognised as independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Set, Tuple

from ..ir.instructions import Alloca, Call, Cast, GetElementPtr, Store
from ..ir.module import Function
from ..ir.types import ArrayType, DataLayout, DEFAULT_LAYOUT, StructType, Type
from ..ir.values import Argument, ConstantInt, GlobalVariable, Value


class AliasResult(Enum):
    """Outcome of an alias query."""

    NO = "no"
    MAY = "may"
    MUST = "must"


def underlying_object(pointer: Value) -> Value:
    """Strip GEPs and pointer casts down to the base object."""
    seen = 0
    while seen < 1000:
        seen += 1
        if isinstance(pointer, GetElementPtr):
            pointer = pointer.pointer
            continue
        if isinstance(pointer, Cast) and pointer.opcode == "bitcast":
            pointer = pointer.operands[0]
            continue
        return pointer
    return pointer


def constant_offset(
    pointer: Value, layout: DataLayout = DEFAULT_LAYOUT
) -> Optional[int]:
    """Byte offset of ``pointer`` from its underlying object, if constant."""
    offset = 0
    cursor = pointer
    while True:
        if isinstance(cursor, Cast) and cursor.opcode == "bitcast":
            cursor = cursor.operands[0]
            continue
        if isinstance(cursor, GetElementPtr):
            step = _gep_constant_offset(cursor, layout)
            if step is None:
                return None
            offset += step
            cursor = cursor.pointer
            continue
        return offset


def _gep_constant_offset(gep: GetElementPtr, layout: DataLayout) -> Optional[int]:
    indices = gep.indices
    if not all(isinstance(i, ConstantInt) for i in indices):
        return None
    offset = indices[0].value * layout.size_of(gep.source_type)
    ty: Type = gep.source_type
    for idx in indices[1:]:
        index = idx.value
        if isinstance(ty, ArrayType):
            offset += index * layout.size_of(ty.element)
            ty = ty.element
        elif isinstance(ty, StructType):
            offset += layout.field_offset(ty, index)
            ty = ty.fields[index]
        else:
            return None
    return offset


def _is_identified_object(value: Value) -> bool:
    return isinstance(value, (Alloca, GlobalVariable))


class AliasAnalysis:
    """Per-function alias queries with escaped-alloca tracking."""

    def __init__(self, fn: Function, layout: DataLayout = DEFAULT_LAYOUT) -> None:
        self.function = fn
        self.layout = layout
        self._escaped: Set[int] = self._compute_escaped(fn)
        # Memo tables keyed by value identity.  Valid for the lifetime
        # of this analysis because queries run while the function body
        # is unmodified (the rolling pipeline rebuilds the analysis
        # after any mutation).  Each entry also keeps the queried value
        # alive so a recycled id() can never resurrect a stale answer.
        self._bases: Dict[int, Tuple[Value, Value]] = {}
        self._offsets: Dict[int, Tuple[Value, Optional[int]]] = {}
        self._queries: Dict[Tuple[int, int, int, int], AliasResult] = {}

    def base_of(self, pointer: Value) -> Value:
        """Memoized :func:`underlying_object`."""
        key = id(pointer)
        hit = self._bases.get(key)
        if hit is None:
            hit = (pointer, underlying_object(pointer))
            self._bases[key] = hit
        return hit[1]

    def offset_of(self, pointer: Value) -> Optional[int]:
        """Memoized :func:`constant_offset` (layout-consistent)."""
        key = id(pointer)
        hit = self._offsets.get(key)
        if hit is None:
            hit = (pointer, constant_offset(pointer, self.layout))
            self._offsets[key] = hit
        return hit[1]

    @staticmethod
    def _compute_escaped(fn: Function) -> Set[int]:
        """Allocas whose address may be visible outside this function."""
        escaped: Set[int] = set()
        for inst in fn.instructions():
            if isinstance(inst, Store):
                base = underlying_object(inst.value)
                if isinstance(base, Alloca):
                    escaped.add(id(base))
            elif isinstance(inst, Call):
                for arg in inst.args:
                    if arg.type.is_pointer:
                        base = underlying_object(arg)
                        if isinstance(base, Alloca):
                            escaped.add(id(base))
        return escaped

    def alias(
        self,
        ptr_a: Value,
        size_a: int,
        ptr_b: Value,
        size_b: int,
    ) -> AliasResult:
        """Do ``[ptr_a, ptr_a+size_a)`` and ``[ptr_b, ptr_b+size_b)`` overlap?"""
        key = (id(ptr_a), size_a, id(ptr_b), size_b)
        cached = self._queries.get(key)
        if cached is not None:
            return cached
        result = self._alias_uncached(ptr_a, size_a, ptr_b, size_b)
        # The memoized base_of/offset_of entries already pin both
        # pointers, so the id-based key stays unambiguous.
        self._queries[key] = result
        self._queries[(id(ptr_b), size_b, id(ptr_a), size_a)] = result
        return result

    def _alias_uncached(
        self,
        ptr_a: Value,
        size_a: int,
        ptr_b: Value,
        size_b: int,
    ) -> AliasResult:
        base_a = self.base_of(ptr_a)
        base_b = self.base_of(ptr_b)

        if base_a is base_b:
            off_a = self.offset_of(ptr_a)
            off_b = self.offset_of(ptr_b)
            if off_a is None or off_b is None:
                return AliasResult.MAY
            if off_a == off_b and size_a == size_b:
                return AliasResult.MUST
            if off_a + size_a <= off_b or off_b + size_b <= off_a:
                return AliasResult.NO
            return AliasResult.MAY
        return self.objects_alias(base_a, base_b)

    def objects_alias(self, base_a: Value, base_b: Value) -> AliasResult:
        """May any access to object ``base_a`` overlap one to the
        *distinct* object ``base_b``?

        Offsets and sizes play no part once the bases differ, so a
        caller can decide this once per pair of underlying objects
        (see ``DependenceGraph``).
        """
        # Two distinct identified objects never overlap.
        if _is_identified_object(base_a) and _is_identified_object(base_b):
            return AliasResult.NO

        # A non-escaped alloca cannot alias anything the caller provided.
        for this, other in ((base_a, base_b), (base_b, base_a)):
            if isinstance(this, Alloca) and id(this) not in self._escaped:
                if isinstance(other, (Argument, GlobalVariable)):
                    return AliasResult.NO
                from ..ir.instructions import Load as _Load

                if isinstance(other, (Call, _Load)):
                    return AliasResult.NO

        return AliasResult.MAY
