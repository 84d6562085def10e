"""Cheap structural function snapshots for transactional passes.

A :class:`FunctionSnapshot` records enough of a function's mutable
structure -- block order, per-block instruction lists, operand lists
and names -- to restore the function to its captured state after a
misbehaving pass, without cloning a single value.  Capture is O(size)
tuple copies; no use lists are touched until :meth:`restore` runs.

Identity preservation is the load-bearing property: restore puts the
*original* block and instruction objects back, so worklists, id()-keyed
memo sets and analyses holding references across a rollback stay valid.
Values created by the rolled-back pass are detached (their operand
references dropped) and simply become garbage.

Because the snapshot records operand lists but not instruction
attributes, passes must follow the snapshot/commit contract (see
``docs/tutorial_new_pass.md``): mutate IR only by inserting/erasing
instructions and rewriting operands, never by reassigning attributes
like ``BinaryOp.opcode`` in place on pre-existing instructions.  Every
in-tree pass already works this way.

Module-level state is covered too: passes may append globals (RoLAG
emits ``__rolag*`` mismatch tables); restore removes globals that did
not exist at capture and rewinds the fresh-name counters.  A
:class:`ModuleSnapshot` covers every defined function of a module at
once, so one parsed module can serve several independent passes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .instructions import Instruction
from .module import BasicBlock, Function, Module
from .values import Value

#: One captured instruction: (object, name, operand list at capture).
_InstEntry = Tuple[Instruction, str, Tuple[Value, ...]]

#: One captured block: (object, name, captured instructions).
_BlockEntry = Tuple[BasicBlock, str, List[_InstEntry]]


class FunctionSnapshot:
    """The rollback point of one transaction over one function."""

    def __init__(self, fn: Function, *, with_module: bool = True) -> None:
        self.fn = fn
        self.next_temp = fn._next_temp
        self.blocks: List[_BlockEntry] = [
            (
                block,
                block.name,
                [
                    (inst, inst.name, tuple(inst.operands))
                    for inst in block.instructions
                ],
            )
            for block in fn.blocks
        ]
        self.module: Optional[Module] = fn.module
        self.module_state = (
            _ModuleState(self.module)
            if self.module is not None and with_module
            else None
        )

    # -- inspection --------------------------------------------------------

    def touched_blocks(self) -> List[BasicBlock]:
        """Current blocks whose structure differs from the snapshot.

        New blocks, blocks with inserted/erased/renamed instructions and
        blocks with rewritten operands all count.  Blocks the pass
        *erased* are not returned (they are no longer in the function);
        their disappearance always shows up as operand changes in the
        surviving branches and phis, so an incremental re-verify of the
        returned blocks still sees every edit site.
        """
        snapshot_of = {
            id(block): (name, entries) for block, name, entries in self.blocks
        }
        touched: List[BasicBlock] = []
        for block in self.fn.blocks:
            entry = snapshot_of.get(id(block))
            if entry is None:
                touched.append(block)
                continue
            name, entries = entry
            if block.name != name or len(block.instructions) != len(entries):
                touched.append(block)
                continue
            for inst, (snap_inst, snap_name, snap_ops) in zip(
                block.instructions, entries
            ):
                if (
                    inst is not snap_inst
                    or inst.name != snap_name
                    or len(inst.operands) != len(snap_ops)
                    or any(
                        a is not b for a, b in zip(inst.operands, snap_ops)
                    )
                ):
                    touched.append(block)
                    break
        return touched

    def changed(self) -> bool:
        """Whether the function (or its module's globals) was mutated."""
        if self.module_state is not None and self.module_state.changed():
            return True
        return self.body_changed()

    def body_changed(self) -> bool:
        """Whether the function's own blocks or instructions changed."""
        if [id(b) for b in self.fn.blocks] != [
            id(b) for b, _, _ in self.blocks
        ]:
            return True
        return bool(self.touched_blocks())

    # -- rollback ----------------------------------------------------------

    def restore(self) -> None:
        """Put the function back exactly as captured.

        Safe to call whatever the pass did in between: instructions and
        blocks it erased are re-attached, ones it created are detached,
        operand rewrites are undone, and use lists are rebuilt
        consistently.  Calling restore on an unchanged function is a
        (wasteful) no-op.
        """
        self.restore_body()
        # Remove globals the pass added (RoLAG mismatch tables and the
        # like) and rewind the module's fresh-name counter.
        if self.module_state is not None:
            self.module_state.restore()

    def restore_body(self) -> None:
        """:meth:`restore` for the function alone, leaving the module's
        globals and fresh-name counter as they are."""
        fn = self.fn
        # Phase 1: drop every operand reference held by an instruction
        # that exists now or existed at capture, so the rebuild below
        # starts from clean use lists on every value.
        captured = set()
        for _, _, entries in self.blocks:
            for inst, _, _ in entries:
                captured.add(id(inst))
                inst.drop_all_references()
        for block in fn.blocks:
            for inst in block.instructions:
                if id(inst) not in captured:
                    inst.drop_all_references()
                    inst.parent = None
        # Phase 2: rebuild block and instruction lists from the
        # snapshot, re-registering each captured operand.
        fn.blocks = []
        for block, name, entries in self.blocks:
            block.name = name
            block.parent = fn
            block.instructions = []
            fn.blocks.append(block)
            for inst, inst_name, operands in entries:
                inst.name = inst_name
                inst.parent = block
                block.instructions.append(inst)
                for operand in operands:
                    inst.add_operand(operand)
        fn._next_temp = self.next_temp


class _ModuleState:
    """A module's global list and global fresh-name counter."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self.global_ids = frozenset(id(g) for g in module.globals)
        self.global_count = len(module.globals)
        self.next_global = module._next_global

    def changed(self) -> bool:
        return len(self.module.globals) != self.global_count

    def restore(self) -> None:
        self.module.globals = [
            g for g in self.module.globals if id(g) in self.global_ids
        ]
        self.module._next_global = self.next_global


class ModuleSnapshot:
    """A restore point for a whole module: one :class:`FunctionSnapshot`
    per defined function plus the module's global state.

    Lets one parsed module serve several independent passes in turn:
    run a pass in place, then :meth:`restore` puts back only the
    functions it changed, and the globals once, instead of parsing the
    input again.
    """

    def __init__(self, module: Module) -> None:
        self.module_state = _ModuleState(module)
        self.functions = [
            FunctionSnapshot(fn, with_module=False)
            for fn in module.functions
            if not fn.is_declaration
        ]

    def changed_functions(self) -> List[FunctionSnapshot]:
        """Snapshots of the functions mutated or renamed since capture.

        A moved fresh-name counter counts as a change even when the
        body matches: restoring rewinds it, so later fresh names come
        out as they would on a fresh copy.
        """
        return [
            snapshot
            for snapshot in self.functions
            if snapshot.fn._next_temp != snapshot.next_temp
            or snapshot.body_changed()
        ]

    def changed(self) -> bool:
        """Whether any function, the module's globals or its global
        fresh-name counter changed."""
        state = self.module_state
        return (
            state.changed()
            or state.module._next_global != state.next_global
            or bool(self.changed_functions())
        )

    def restore(self) -> None:
        """Put the module back as captured: each changed function, then
        the module's globals and fresh-name counter once."""
        for snapshot in self.changed_functions():
            snapshot.restore_body()
        self.module_state.restore()
