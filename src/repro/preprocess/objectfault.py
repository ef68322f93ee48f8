"""Object-fault handler injection (paper section III.C).

For every instruction that dereferences an object (field get/put, array
load/store/length, virtual invoke) we append a tiny handler block::

    H:  CONST <receiver slot>     ; hardcoded, like the paper's slot id
        NATIVE ObjMan.resolve 2   ; fetch home object, patch frame + origin
        POP
        JMP <group start>         ; the paper's "goto label"

The receiver's temp slot is *hardcoded into the handler at preprocessing
time* — the paper does exactly this ("creates an object fault handler for
each instance variable with its slot id (or field name) being hardcoded
inside the code of the handler").  Patching the slot the re-executed
group actually reads is what guarantees forward progress.

and an exception-table row covering *just that instruction* with the
internal class ``__ObjectFault``.  Dispatch semantics (implemented in
:meth:`repro.vm.machine.Machine._dispatch` via
:data:`OBJECT_FAULT_CLASS`):

* a ``NullPointerException`` whose payload is a :class:`RemoteRef`
  matches ``__ObjectFault`` rows — the access faulted on an unresolved
  remote object;
* a genuine application null does **not** match, so it reaches the
  application's own handlers at the original bci, exactly like the
  paper's "throw another null pointer exception to indicate that this
  exception truly comes from the application level".

Convergence rule — a remote object faults once per frame that holds its
sentinel, not once per access.  ``ObjMan.resolve`` replaces the receiver
temp, every other slot of the *faulting frame* holding a sentinel of the
same ``(home_oid, home_node)`` (the operand stack is empty at every
faultable op, so the locals are the whole frame), and the sentinel's
origin (the local/field/static/element it was decoded into).  A sentinel
passed *by value* has its origin in the caller's frame: without the
middle step the callee's parameter re-faults on every load.  Not
covered: a sentinel the guest *stores* by value into another object's
field or element re-faults (a cache hit) on each read of that field.

In normal execution no extra instruction runs — that is the entire point
of the design ("we take this free ride to realize an object faulting
mechanism, analogous to page faults in OS"); the cost is code size only
(Fig. 5 / Table V).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.bytecode import opcodes as op
from repro.bytecode.code import CodeObject, ExcEntry, Instr
from repro.errors import VerifyError
from repro.preprocess.flatten import FlattenInfo


def receiver_temp(ins: Instr, base: int, depth_before: int) -> int:
    """The depth-indexed temp slot holding the receiver (the bottom-most
    popped operand) of a dereferencing instruction."""
    if ins.op not in FAULTABLE_OPS:
        raise VerifyError(f"not a faultable op: {ins.op}")
    pops, _ = op.stack_effect(ins.op, ins.a, ins.b)
    return base + depth_before - pops

#: the internal exception-table class name for fault handlers
OBJECT_FAULT_CLASS = "__ObjectFault"

#: opcodes that dereference an object reference
FAULTABLE_OPS = frozenset({
    op.GETF, op.PUTF, op.ALOAD, op.ASTORE, op.LEN, op.INVOKEVIRT,
})

#: natives may also dereference a heap argument (e.g. ``Sys.len`` on an
#: array); they raise the same provenance-carrying NPE and get the same
#: handler, keyed on their first argument's temp slot.
FAULTABLE_NATIVE = op.NATIVE


def inject_object_fault_handlers(info: FlattenInfo) -> CodeObject:
    """Append object-fault handlers to a flattened method (in place on a
    copy; returns the new code object)."""
    code = info.code.copy()
    instrs: List[Instr] = code.instrs
    new_entries: List[ExcEntry] = []

    fault_sites = [bci for bci, ins in enumerate(instrs)
                   if bci in info.group_start
                   and (ins.op in FAULTABLE_OPS
                        or (ins.op == FAULTABLE_NATIVE and ins.b))]
    for bci in fault_sites:
        ins = instrs[bci]
        if ins.op == FAULTABLE_NATIVE:
            slot = info.base + info.depth_before[bci] - ins.b
        else:
            slot = receiver_temp(ins, info.base, info.depth_before[bci])
        handler = len(instrs)
        instrs.append(Instr(op.CONST, slot))
        instrs.append(Instr(op.NATIVE, "ObjMan.resolve", 2))
        instrs.append(Instr(op.POP))
        instrs.append(Instr(op.JMP, info.group_start[bci]))
        new_entries.append(ExcEntry(bci, bci + 1, handler, OBJECT_FAULT_CLASS))

    # Fault rows go FIRST: a remote miss must be handled by the fault
    # handler even inside an application try/catch(NullPointerException).
    code.exc_table = new_entries + code.exc_table
    return code
