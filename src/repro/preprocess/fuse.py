"""Superinstruction fusion for the pre-decoded interpreter.

The fast dispatch loop (:meth:`repro.vm.machine.Machine._run_fast`)
executes a *decoded stream*: a list parallel to ``CodeObject.instrs``
where slot ``i`` describes the instruction at bci ``i`` as a tuple

    ``(opid, a, b, weight, count, aux, lead_weight)``

``opid`` is the dense integer opcode, ``weight``/``count`` feed the
batched clock/instr accounting, ``aux`` carries per-site state
(semantic helper functions, monomorphic inline-cache cells), and
``lead_weight`` is the summed weight of a fused group's components
*before* the last one (0.0 for plain instructions) — the amount charged
when the group's final component raises a guest exception that goes
uncaught, matching the legacy loop's charge-only-if-dispatched rule.

This module additionally *fuses* multi-instruction sequences into
single superinstructions.  The set is sized by the code the system
deploys, not by what the compiler emits: every build that can migrate
is flattened (:mod:`repro.preprocess.flatten`), so each instruction
reaches the interpreter as a group ``LOAD t..; op; STORE t`` and a
branch as ``LOAD t; JZ`` — a ``CONST``, a compare or a ``GETS`` is
always followed by a ``STORE``, never by its consumer.  The eight
patterns are the ones such a stream executes at a group start
(``LOAD+LOAD+arith``, ``LOAD+LOAD+ALOAD``, ``LOAD+LOAD``,
``LOAD+GETF``, ``CONST+STORE``, ``LOAD+JZ``/``JNZ``); the ``original``
build fuses with the same eight.  A test
(``tests/test_dispatch_equivalence.py``) replays a pc trace against
the streams and fails on a pattern that never fires there.

Coordinate invariant (what keeps migration working unchanged): the
decoded stream is indexed by **original** bci, and a fused tuple sits at
the bci of its *first* component while the interior slots keep their
plain decoded form.  ``frame.pc`` therefore always holds an original
bci — capture, restore, breakpoints, exception tables and line tables
never see fused coordinates, and control transfer *into* the middle of a
fused group (a jump target, or resumption after a hook-driven suspension
mid-sequence) simply executes the interior instructions unfused.  The
fused→original pc map is the identity on group-start slots; executing a
fused tuple advances the pc by its ``count``.

Safety rules for patterns:

* every component's observable effect is reproduced exactly — binops
  whose semantics need the machine (``ADD`` string concatenation,
  ``DIV``/``MOD`` guest exceptions) keep the legacy 3-arg helpers, the
  rest use 2-arg fast functions the machine certifies as equivalent;
* only the **last** component of a pattern may raise a guest exception —
  the fast loop charges the whole group and reports the fault at bci
  ``start + count - 1``, which is exactly what unfused execution would
  have charged and reported for a last-component fault;
* fused groups never include opcodes with frame effects (calls,
  returns, throws) or host-visible hooks (the ``PUTS`` static-write
  hook, ``NATIVE``) — in particular no preemption safepoint
  (:func:`repro.bytecode.opcodes.is_safepoint`; asserted below), so a
  quantum can expire before every safepoint of the fused stream exactly
  as it does in the unfused one.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.bytecode import opcodes as op
from repro.bytecode.code import CodeObject

#: decoded-slot layout: (opid, a, b, weight, count, aux, lead_weight)
DecodedSlot = Tuple[int, Any, Any, float, int, Any, float]

# -- fused opcode ids --------------------------------------------------------

F_LOAD_LOAD = op.FUSED_BASE + 0    # a=slot1, b=slot2
F_CONST_STORE = op.FUSED_BASE + 1  # a=value, b=slot
F_LOAD_GETF = op.FUSED_BASE + 2    # a=slot, b=field name
F_LL_OP2 = op.FUSED_BASE + 3       # a=slot1, b=slot2, aux=2-arg fn
F_LL_ARITH = op.FUSED_BASE + 4     # a=slot1, b=slot2, aux=3-arg fn
F_LL_ALOAD = op.FUSED_BASE + 5     # a=arr slot, b=index slot
F_LOAD_JZ = op.FUSED_BASE + 6      # a=slot, b=target
F_LOAD_JNZ = op.FUSED_BASE + 7     # a=slot, b=target

#: display names for tooling / tests
FUSED_NAMES = {
    F_LOAD_LOAD: "LOAD+LOAD", F_CONST_STORE: "CONST+STORE",
    F_LOAD_GETF: "LOAD+GETF",
    F_LL_OP2: "LOAD+LOAD+arith", F_LL_ARITH: "LOAD+LOAD+arith(m)",
    F_LL_ALOAD: "LOAD+LOAD+ALOAD",
    F_LOAD_JZ: "LOAD+JZ", F_LOAD_JNZ: "LOAD+JNZ",
}

_CMP_OPS = frozenset({op.EQ, op.NE, op.LT, op.LE, op.GT, op.GE})
_BIN_OPS = frozenset({op.ADD, op.SUB, op.MUL, op.DIV, op.MOD}) | _CMP_OPS

#: dense id -> opcode name of the binops
_BIN_IDS: Dict[int, str] = {op.OP_IDS[name]: name for name in _BIN_OPS}

#: opcodes that get a per-site monomorphic inline-cache cell (cell size)
_CACHED_OPS = {op.GETS: 1, op.PUTS: 1, op.INVOKESTATIC: 1, op.INVOKEVIRT: 2}


def decode_and_fuse(code: CodeObject, weights: Dict[str, float],
                    arith: Dict[str, Callable],
                    fast2: Dict[str, Callable],
                    fuse: bool = True) -> List[DecodedSlot]:
    """Build the decoded (and, by default, fused) stream for ``code``.

    ``arith`` maps binop opcode names to the interpreter's 3-arg
    semantic helpers (``fn(machine, a, b)``); ``fast2`` maps the subset
    whose semantics are machine-independent to plain 2-arg functions
    (the machine certifies this equivalence).  ``weights`` is the cost
    model's per-opcode weight table.  The result is machine-specific
    (inline-cache cells resolve against one loader) and is cached by the
    owning :class:`~repro.vm.machine.Machine`.
    """
    base = code.predecoded(weights)
    n = len(base)
    out: List[DecodedSlot] = []
    for i in range(n):
        slot = _fuse_at(base, i, n, arith, fast2) if fuse else None
        if slot is None:
            opid, a, b, w = base[i]
            name = code.instrs[i].op
            ncells = _CACHED_OPS.get(name)
            if ncells is not None:
                aux: Any = [None] * ncells
            elif name in _BIN_OPS:
                aux = arith[name]
            else:
                aux = None
            slot = (opid, a, b, w, 1, aux, 0.0)
        else:
            assert not any(
                op.is_safepoint(ins.op, ins.a, j) for j, ins in
                enumerate(code.instrs[i:i + slot[4]], i)), \
                f"{code.qualname}@{i}: safepoint fused into a group"
        out.append(slot)
    return out


def cache_seeds(stream: List[DecodedSlot],
                code: CodeObject) -> Dict[int, list]:
    """Warmed inline-cache cells of ``stream``, keyed by original bci.

    The tier-2 compiler reuses the monomorphic facts tier-1 execution
    has already proven instead of re-discovering them: every
    GETS/PUTS/INVOKESTATIC/INVOKEVIRT site (none leads a fused group,
    and component bcis keep their own plain slot) whose cell is bound
    contributes a seed.  The returned cells are the *live* tier-1
    cells, so a rebind by either tier is seen by both.
    """
    seeds: Dict[int, list] = {}
    for i, ins in enumerate(code.instrs):
        ncells = _CACHED_OPS.get(ins.op)
        if ncells is None or i >= len(stream):
            continue
        aux = stream[i][5]
        if isinstance(aux, list) and len(aux) == ncells \
                and aux[0] is not None:
            seeds[i] = aux
    return seeds


def _fuse_at(base: Sequence[Tuple[int, Any, Any, float]], i: int, n: int,
             arith: Dict[str, Callable], fast2: Dict[str, Callable],
             ) -> Any:
    """Longest fused pattern starting at slot ``i`` (or None)."""
    ids = op.OP_IDS
    LOAD, CONST = ids[op.LOAD], ids[op.CONST]
    o0, a0, _b0, w0 = base[i]
    if o0 != LOAD and o0 != CONST:
        return None

    # ---- 3-instruction patterns ----
    if i + 2 < n and o0 == LOAD:
        o1, a1, _b1, w1 = base[i + 1]
        o2, _a2, _b2, w2 = base[i + 2]
        w3 = w0 + w1 + w2
        if o1 == LOAD:
            name = _BIN_IDS.get(o2)
            if name is not None:
                if name in fast2:
                    return (F_LL_OP2, a0, a1, w3, 3, fast2[name], w0 + w1)
                return (F_LL_ARITH, a0, a1, w3, 3, arith[name], w0 + w1)
            if o2 == ids[op.ALOAD]:
                return (F_LL_ALOAD, a0, a1, w3, 3, None, w0 + w1)

    # ---- 2-instruction patterns ----
    if i + 1 < n:
        o1, a1, _b1, w1 = base[i + 1]
        w2 = w0 + w1
        if o0 == LOAD:
            if o1 == ids[op.GETF]:
                return (F_LOAD_GETF, a0, a1, w2, 2, None, w0)
            if o1 == LOAD:
                return (F_LOAD_LOAD, a0, a1, w2, 2, None, w0)
            if o1 == ids[op.JZ]:
                return (F_LOAD_JZ, a0, a1, w2, 2, None, w0)
            if o1 == ids[op.JNZ]:
                return (F_LOAD_JNZ, a0, a1, w2, 2, None, w0)
            return None
        if o0 == CONST and o1 == ids[op.STORE]:
            return (F_CONST_STORE, a0, a1, w2, 2, None, w0)
    return None


def fused_coverage(stream: Sequence[DecodedSlot]) -> Dict[str, int]:
    """How many *group-start* slots hold each superinstruction (for
    tests and benchmark reporting)."""
    counts: Dict[str, int] = {}
    for slot in stream:
        name = FUSED_NAMES.get(slot[0])
        if name is not None:
            counts[name] = counts.get(name, 0) + 1
    return counts
