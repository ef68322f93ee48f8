"""Status-check instrumentation — the traditional DSM baseline.

This is the JavaSplit-style alternative the paper compares against
(section III.C, Fig. 5 B1, Table V): before *every* object access, load
the reference, test its status, and branch; if the status says "remote",
call the object manager.  The test executes on every access whether or
not the object is local — that is precisely the overhead the paper's
object-faulting design eliminates.

Injected sequences (normal path in brackets):

* receiver ops (GETF/PUTF/ALOAD/ASTORE/LEN/INVOKEVIRT), inserted at the
  instruction's group start::

      [LOAD r] [ISREMOTE] [JZ skip]
      LOAD r / NATIVE ObjMan.check 1 / STORE r
      skip:  <original group>

* static read (after the GETS)::

      GETS [DUP] [ISREMOTE] [JZ skip]
      POP / CONST cls / CONST f / NATIVE ObjMan.checkStatic 2
      skip:  STORE t

* static write (before the group)::

      [GETS] [ISREMOTE] [JZ skip]
      CONST cls / CONST f / NATIVE ObjMan.checkStatic 2 / POP
      skip:  <original group>

The three bracketed instructions per access mirror the paper's four
added JVM instructions (dup / getfield status / iconst / if_icmpne).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.bytecode import opcodes as op
from repro.bytecode.code import (CodeObject, ExcEntry, Instr,
                                 remap_targets)
from repro.errors import VerifyError
from repro.preprocess.flatten import FlattenInfo

#: placeholder jump target meaning "the original instruction after this
#: inserted block"
_SKIP = -999


def _receiver_temp(ins: Instr, base: int, depth: int) -> int:
    """Temp slot holding the receiver of a faultable instruction."""
    pops, _ = op.stack_effect(ins.op, ins.a, ins.b)
    if ins.op in (op.GETF, op.LEN):
        pos = 0
    elif ins.op in (op.PUTF, op.ALOAD):
        pos = 0
    elif ins.op == op.ASTORE:
        pos = 0
    elif ins.op == op.INVOKEVIRT:
        pos = 0
    else:  # pragma: no cover
        raise VerifyError(f"not a receiver op: {ins.op}")
    # The receiver is the bottom-most popped operand for all these ops.
    return base + depth - pops + pos


def inject_status_checks(info: FlattenInfo) -> CodeObject:
    """Instrument a flattened method with per-access status checks."""
    code = info.code
    n = len(code.instrs)

    # inserts[old_bci] -> instructions placed immediately before it
    inserts: Dict[int, List[Instr]] = {}

    def add(pos: int, block: List[Instr]) -> None:
        inserts.setdefault(pos, []).extend(block)

    for bci, ins in enumerate(code.instrs):
        if bci not in info.group_start:
            continue  # not an original-op site (loads/stores/handlers)
        depth = info.depth_before[bci]
        if ins.op in (op.GETF, op.PUTF, op.ALOAD, op.ASTORE, op.LEN,
                      op.INVOKEVIRT):
            r = _receiver_temp(ins, info.base, depth)
            add(info.group_start[bci], [
                Instr(op.LOAD, r),
                Instr(op.ISREMOTE),
                Instr(op.JZ, _SKIP),
                Instr(op.LOAD, r),
                Instr(op.NATIVE, "ObjMan.check", 1),
                Instr(op.STORE, r),
            ])
        elif ins.op == op.GETS:
            cls, fname = ins.a
            add(bci + 1, [
                Instr(op.DUP),
                Instr(op.ISREMOTE),
                Instr(op.JZ, _SKIP),
                Instr(op.POP),
                Instr(op.CONST, cls),
                Instr(op.CONST, fname),
                Instr(op.NATIVE, "ObjMan.checkStatic", 2),
            ])
        elif ins.op == op.PUTS:
            cls, fname = ins.a
            add(info.group_start[bci], [
                Instr(op.GETS, (cls, fname)),
                Instr(op.ISREMOTE),
                Instr(op.JZ, _SKIP),
                Instr(op.CONST, cls),
                Instr(op.CONST, fname),
                Instr(op.NATIVE, "ObjMan.checkStatic", 2),
                Instr(op.POP),
            ])

    return _rebuild(code, inserts)


def _rebuild(code: CodeObject, inserts: Dict[int, List[Instr]]) -> CodeObject:
    """Splice insert-blocks into the method, remapping targets/tables.

    External branch targets map to the *block start* (checks re-execute,
    which is safe and matches DSM semantics); the ``_SKIP`` placeholders
    inside blocks map to the original instruction after the block.
    """
    n = len(code.instrs)
    block_start: List[int] = []
    pos = 0
    for old in range(n):
        block_start.append(pos)
        pos += len(inserts.get(old, ())) + 1
    block_start.append(pos)
    m = block_start.__getitem__

    # Original branch targets remap through the block starts; an
    # inserted ``_SKIP`` JZ lands on the original instruction its block
    # precedes.
    originals = remap_targets(code.instrs, dict(enumerate(block_start)))
    final: List[Instr] = []
    for old in range(n):
        block = inserts.get(old, ())
        after = block_start[old] + len(block)
        for b in block:
            skip = b.op == op.JZ and b.a == _SKIP
            final.append(Instr(op.JZ, after) if skip
                         else Instr(b.op, b.a, b.b))
        final.append(originals[old])

    exc_table = [ExcEntry(m(e.start), m(e.end), m(e.handler), e.exc_class)
                 for e in code.exc_table]
    line_table = [(m(bci), line) for bci, line in code.line_table]

    out = CodeObject(code.class_name, code.name, code.nparams,
                     code.max_locals, final, line_table, exc_table,
                     list(code.local_names), code.is_static,
                     version=code.version)
    out.msps = {m(b) for b in code.msps}
    return out
