"""The bytecode instruction set of the repro stack machine.

The ISA is a compact, Java-flavoured stack machine: operands live on a
per-frame operand stack, locals in numbered slots.  Every instruction is
an :class:`repro.bytecode.code.Instr` with an opcode string plus up to
two arguments.  Jump targets are instruction indices ("bci").

Opcodes and their stack behaviour (``[before] -> [after]``, stack top on
the right):

Stack / constants
    ``CONST v``        ``[] -> [v]``        push a literal (int/float/bool/str/None)
    ``LOAD s``         ``[] -> [x]``        push local slot ``s``
    ``STORE s``        ``[x] -> []``        pop into local slot ``s``
    ``POP``            ``[x] -> []``
    ``DUP``            ``[x] -> [x, x]``
    ``SWAP``           ``[x, y] -> [y, x]``
    ``NOP``            no effect

Objects / fields
    ``NEW c``          ``[] -> [obj]``      allocate instance of class ``c``
    ``GETF f``         ``[obj] -> [v]``     read instance field
    ``PUTF f``         ``[obj, v] -> []``   write instance field
    ``GETS (c, f)``    ``[] -> [v]``        read static field
    ``PUTS (c, f)``    ``[v] -> []``        write static field
    ``ISREMOTE``       ``[x] -> [b]``       status check: is ``x`` an unresolved remote ref?

Arrays
    ``NEWARR (kind, elem_bytes)`` ``[n] -> [arr]``  allocate array
    ``ALOAD``          ``[arr, i] -> [v]``
    ``ASTORE``         ``[arr, i, v] -> []``
    ``LEN``            ``[arr] -> [n]``

Arithmetic / comparison / logic
    ``ADD SUB MUL DIV MOD``  ``[a, b] -> [a op b]``
    ``NEG``            ``[a] -> [-a]``
    ``EQ NE LT LE GT GE``    ``[a, b] -> [bool]``
    ``NOT``            ``[a] -> [not a]``

Control flow
    ``JMP t``          unconditional jump to bci ``t``
    ``JZ t``           ``[c] -> []`` jump if ``c`` is falsy
    ``JNZ t``          ``[c] -> []`` jump if ``c`` is truthy
    ``LSWITCH (table, default)`` ``[k] -> []`` jump to ``table[k]`` or default
    ``RET``            return void (caller sees ``None``)
    ``RETV``           ``[v] -> ()`` return ``v``
    ``THROW``          ``[exc] -> ()`` raise guest exception object

Invocation
    ``INVOKESTATIC (c, m) n``  ``[a1..an] -> [r]``        static call
    ``INVOKEVIRT m n``         ``[obj, a1..an] -> [r]``   virtual call
    ``NATIVE name n``          ``[a1..an] -> [r]``        native (host) call

All invocations push exactly one result (void methods push ``None``);
expression statements compile a trailing ``POP``.
"""

from __future__ import annotations

from typing import Tuple

# -- opcode name constants -------------------------------------------------

CONST = "CONST"
LOAD = "LOAD"
STORE = "STORE"
POP = "POP"
DUP = "DUP"
SWAP = "SWAP"
NOP = "NOP"

NEW = "NEW"
GETF = "GETF"
PUTF = "PUTF"
GETS = "GETS"
PUTS = "PUTS"
ISREMOTE = "ISREMOTE"

NEWARR = "NEWARR"
ALOAD = "ALOAD"
ASTORE = "ASTORE"
LEN = "LEN"

ADD = "ADD"
SUB = "SUB"
MUL = "MUL"
DIV = "DIV"
MOD = "MOD"
NEG = "NEG"
EQ = "EQ"
NE = "NE"
LT = "LT"
LE = "LE"
GT = "GT"
GE = "GE"
NOT = "NOT"

JMP = "JMP"
JZ = "JZ"
JNZ = "JNZ"
LSWITCH = "LSWITCH"
RET = "RET"
RETV = "RETV"
THROW = "THROW"

INVOKESTATIC = "INVOKESTATIC"
INVOKEVIRT = "INVOKEVIRT"
NATIVE = "NATIVE"

#: the full ISA in canonical order — the *position* of an opcode in this
#: tuple is its dense integer code (see :data:`OP_IDS`), used by the
#: pre-decoded interpreter so dispatch compares small ints instead of
#: strings.  Append-only: decoded streams bake these ids in.
OPCODES = (
    CONST, LOAD, STORE, POP, DUP, SWAP, NOP,
    NEW, GETF, PUTF, GETS, PUTS, ISREMOTE,
    NEWARR, ALOAD, ASTORE, LEN,
    # binary operators are kept contiguous so the dispatch loop can
    # range-test them with two int compares
    ADD, SUB, MUL, DIV, MOD, EQ, NE, LT, LE, GT, GE,
    NEG, NOT,
    JMP, JZ, JNZ, LSWITCH, RET, RETV, THROW,
    INVOKESTATIC, INVOKEVIRT, NATIVE,
)

#: opcode name -> dense integer code
OP_IDS = {name: i for i, name in enumerate(OPCODES)}

#: first id available for synthetic superinstructions (fused opcodes
#: live above the base ISA; see :mod:`repro.preprocess.fuse`)
FUSED_BASE = len(OPCODES)


#: every opcode in the ISA
ALL_OPS = frozenset(OPCODES)

#: opcodes that transfer control unconditionally (no fallthrough)
TERMINATORS = frozenset({JMP, LSWITCH, RET, RETV, THROW})

#: opcodes with a single bci argument in slot ``a``
BRANCHES = frozenset({JMP, JZ, JNZ})

_BINOPS = frozenset({ADD, SUB, MUL, DIV, MOD, EQ, NE, LT, LE, GT, GE})
_UNOPS = frozenset({NEG, NOT})

#: fixed (pops, pushes) for opcodes with static stack effect
_STATIC_EFFECT = {
    CONST: (0, 1), LOAD: (0, 1), STORE: (1, 0), POP: (1, 0), DUP: (1, 2),
    SWAP: (2, 2), NOP: (0, 0),
    NEW: (0, 1), GETF: (1, 1), PUTF: (2, 0), GETS: (0, 1), PUTS: (1, 0),
    ISREMOTE: (1, 1),
    NEWARR: (1, 1), ALOAD: (2, 1), ASTORE: (3, 0), LEN: (1, 1),
    JMP: (0, 0), JZ: (1, 0), JNZ: (1, 0), LSWITCH: (1, 0),
    RET: (0, 0), RETV: (1, 0), THROW: (1, 0),
}
_STATIC_EFFECT.update({op: (2, 1) for op in _BINOPS})
_STATIC_EFFECT.update({op: (1, 1) for op in _UNOPS})


def stack_effect(op: str, a=None, b=None) -> Tuple[int, int]:
    """Return ``(pops, pushes)`` for one instruction.

    For invocation opcodes the effect depends on the argument count
    (stored in ``b``).
    """
    if op in _STATIC_EFFECT:
        return _STATIC_EFFECT[op]
    if op == INVOKESTATIC or op == NATIVE:
        return (int(b), 1)
    if op == INVOKEVIRT:
        return (int(b) + 1, 1)
    raise KeyError(f"unknown opcode {op!r}")


def is_call(op: str) -> bool:
    """True for opcodes that create a new frame or leave the VM."""
    return op in (INVOKESTATIC, INVOKEVIRT, NATIVE)


# -- the preemption rule ---------------------------------------------------
#
# A scheduler quantum (``Machine.run(quantum=N)``) expires only *before
# executing a safepoint instruction*, once the run has executed at least
# N instructions.  This is the only statement of which instructions
# those are; every execution loop (the hooked loop, tier 1, tier-2
# generated code) and the fuser's never-fuse check read it from here,
# so where a thread is preempted never depends on which loop ran it.

#: opcodes that are a safepoint wherever they appear
SAFEPOINT_OPS = frozenset({INVOKESTATIC, INVOKEVIRT, NATIVE, RET, RETV})


def is_safepoint(op: str, a, bci: int) -> bool:
    """True if the instruction ``op a`` at ``bci`` is a preemption
    safepoint: a call, a native, a return, or a loop back-edge (a
    ``JMP`` whose target is not ahead of it)."""
    return op in SAFEPOINT_OPS or (op == JMP and a <= bci)
