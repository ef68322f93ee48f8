"""Class-file size model (Fig. 5's 501 / 667 / 902 bytes comparison).

Our class files are Python objects, so "file size" is modeled with a
simple serialization size function: a fixed header per class/method/
field plus per-instruction encoding costs.  The absolute constants are
chosen so a Geometry-sized class lands near the paper's 501 bytes; what
the experiment checks is the *ratio* — status checks add moderate size,
object-fault handlers trade more code space for zero normal-path cost
(the paper's ~35% space premium over the checking build).
"""

from __future__ import annotations

from typing import Any

from repro.bytecode.code import ClassFile, CodeObject

_CLASS_HEADER = 260  # constant pool, class metadata (dominates small classes)
_FIELD_BYTES = 16
_METHOD_HEADER = 40
_INSTR_BYTES = 1
_EXC_ENTRY_BYTES = 16  # exception-table row + StackMapTable frame
_LINE_ENTRY_BYTES = 3
_LOCAL_NAME_BYTES = 1


def _arg_bytes(a: Any) -> int:
    """Encoded size of one instruction argument (constant-pool style:
    strings and composites are pool references)."""
    if a is None:
        return 0
    if isinstance(a, bool):
        return 1
    if isinstance(a, int):
        return 1
    if isinstance(a, float):
        return 4
    if isinstance(a, str):
        return 1  # pooled reference
    if isinstance(a, tuple):
        return sum(_arg_bytes(x) for x in a)
    if isinstance(a, dict):
        return 2 + 4 * len(a)  # lookupswitch: npairs + (key, target) pairs
    return 2


def method_size(code: CodeObject) -> int:
    """Modeled byte size of one method.

    Constants are fitted so the paper's Geometry class lands near its
    published sizes with the right ordering (original < status-checked <
    fault-handled); see EXPERIMENTS.md (Fig. 5)."""
    total = _METHOD_HEADER
    for ins in code.instrs:
        total += _INSTR_BYTES + _arg_bytes(ins.a) + _arg_bytes(ins.b)
    total += _EXC_ENTRY_BYTES * len(code.exc_table)
    total += _LINE_ENTRY_BYTES * len(code.line_table)
    total += _LOCAL_NAME_BYTES * len(code.local_names)
    return total


def class_size(cf: ClassFile) -> int:
    """Modeled byte size of a class file (the unit shipped during
    on-demand code migration).  A pure function of a file nobody
    edits once built, so it is computed once and kept on the object;
    the preprocessor's passes edit ``ClassFile.copy()``s, which start
    without the memo."""
    total = cf._size
    if total is None:
        total = _CLASS_HEADER + len(cf.name)
        if cf.superclass:
            total += 2
        total += _FIELD_BYTES * len(cf.fields)
        for m in cf.methods.values():
            total += method_size(m)
        cf._size = total
    return total
