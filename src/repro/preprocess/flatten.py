"""Bytecode rearrangement ("flattening") — migration-safe-point creation.

The paper rearranges bytecode so that the operand stack is empty at the
start of every source line (adding "extra local variables tmp1, tmp2 to
store the intermediate values", Fig. 4a).  We implement the general form
of that rewrite: *stack-to-temporary conversion*.  Every value that would
cross an instruction boundary on the operand stack is spilled into a
numbered temporary local; each original instruction becomes a *group*::

    LOAD t_a  LOAD t_b   <operands from temps>
    <the instruction>
    STORE t_r            <result into a temp>

Consequences (all paper-aligned):

* the operand stack is empty at every group boundary, so every line
  start is a migration-safe point (MSP);
* the caller of a suspended call can be restored by *re-executing its
  call line* — the argument temps are part of the captured locals — which
  is exactly how the paper's per-frame restoration re-invokes the next
  method (Fig. 4b step 3-4);
* every call gets its **own line-table region** (the paper splits
  ``p.x = r.nextInt() + (int) p.getX()`` into three statements for the
  same reason): re-executing a call line never re-executes an earlier
  call of the same source line;
* the only normal-path overhead is extra LOAD/STOREs — the paper's
  measured C0 of 0.1%-1.45%.

Temps are *depth-indexed*: the value at operand-stack depth ``d`` always
lives in slot ``base + d``.  This makes flattening a single linear pass
driven by the verifier's per-bci stack depths (no general dataflow), and
it keeps the temp count equal to the method's max stack depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bytecode import opcodes as op
from repro.bytecode.code import (CodeObject, ExcEntry, Instr,
                                 remap_targets)
from repro.bytecode.verifier import stack_depths
from repro.errors import VerifyError


@dataclass
class FlattenInfo:
    """Result of flattening one method.

    Attributes:
        code: the rewritten method.
        base: first temp slot (== original ``max_locals``).
        group_start: new bci of each original instruction's group start,
            keyed by the *new* bci of the original instruction itself.
        depth_before: original symbolic stack depth before each original
            instruction, keyed by its new bci.
        old_to_new: mapping old bci -> group start (for the whole map).
    """

    code: CodeObject
    base: int
    group_start: Dict[int, int] = field(default_factory=dict)
    depth_before: Dict[int, int] = field(default_factory=dict)
    old_to_new: Dict[int, int] = field(default_factory=dict)


def flatten(code: CodeObject) -> FlattenInfo:
    """Flatten ``code`` into stack-to-temp form (returns new objects; the
    input is not modified)."""
    n = len(code.instrs)
    depths = stack_depths(code)
    base = code.max_locals
    handler_targets = {e.handler for e in code.exc_table}

    new_instrs: List[Instr] = []
    old_to_new: Dict[int, int] = {}
    group_start: Dict[int, int] = {}
    depth_before: Dict[int, int] = {}
    max_depth = 0

    for old in range(n):
        start = len(new_instrs)
        old_to_new[old] = start
        if old not in depths:
            # Unreachable (e.g. code after a return): keep a placeholder
            # so every old bci maps to a valid new bci.
            new_instrs.append(Instr(op.NOP))
            continue
        d = depths[old]
        ins = code.instrs[old]
        pops, pushes = op.stack_effect(ins.op, ins.a, ins.b)
        max_depth = max(max_depth, d, d - pops + pushes)

        if old in handler_targets:
            # At handler entry the exception object sits on the *real*
            # operand stack; spill it into its depth-indexed temp first.
            new_instrs.append(Instr(op.STORE, base + d - 1))

        # Load operands from temps (bottom-most popped value first).
        for i in range(pops):
            new_instrs.append(Instr(op.LOAD, base + d - pops + i))
        op_bci = len(new_instrs)
        new_instrs.append(Instr(ins.op, ins.a, ins.b))
        group_start[op_bci] = start
        depth_before[op_bci] = d
        # Store results back into temps (top of stack first).
        for i in reversed(range(pushes)):
            new_instrs.append(Instr(op.STORE, base + d - pops + i))

    # -- remap jump targets (the end-of-method bci maps to the new end) ------
    mapping = {**old_to_new, n: len(new_instrs)}
    m = mapping.__getitem__
    remapped = remap_targets(new_instrs, mapping)

    # -- rebuild tables ----------------------------------------------------------
    exc_table = [ExcEntry(m(e.start), m(e.end), m(e.handler), e.exc_class)
                 for e in code.exc_table]

    # Line table: original line starts, plus a fresh region for every
    # call group (so re-executing a call line re-runs only that call).
    new_to_old = {v: k for k, v in old_to_new.items()}
    lines: Dict[int, int] = {}
    for bci, line in code.line_table:
        lines[m(bci)] = line
    for new_bci, start in group_start.items():
        if op.is_call(remapped[new_bci].op):
            lines.setdefault(start, code.line_of(new_to_old[start]))
    line_table = sorted(lines.items())

    out = CodeObject(code.class_name, code.name, code.nparams,
                     base + max_depth,
                     remapped, line_table, exc_table,
                     list(code.local_names) + [f"$t{i}" for i in range(max_depth)],
                     code.is_static, version=code.version)

    # -- migration-safe points: line starts with empty operand stack ---------
    new_depths = stack_depths(out)
    out.msps = {bci for bci, _line in out.line_table
                if new_depths.get(bci, 1) == 0}
    if not out.msps:
        raise VerifyError(f"{code.qualname}: no migration-safe points")

    return FlattenInfo(code=out, base=base, group_start=group_start,
                       depth_before=depth_before, old_to_new=old_to_new)
