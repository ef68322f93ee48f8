"""Superinstruction fusion for the pre-decoded interpreter.

The fast dispatch loop (:meth:`repro.vm.machine.Machine._run_fast`)
executes a *decoded stream*: a list parallel to ``CodeObject.instrs``
where slot ``i`` describes the instruction at bci ``i`` as a tuple

    ``(opid, a, b, count, aux, fault, c)``

``opid`` is the dense integer opcode, ``count`` the number of original
instructions the slot executes, ``aux`` per-site state (a fused
binop's semantic function, a monomorphic inline-cache cell), ``c`` the
destination local of a 4-wide group and ``fault`` the offset of the one
component that may raise (the fault rule below).  A plain slot
(:func:`plain_slot`) is one instruction: count 1, fault offset 0.  Tier
1 hand-writes an arm for the nine superinstructions and the plain
opcodes its streams dispatch often or poll at; every other plain slot
runs the hooked loop's handler for it (``machine._OPS``, through
``Machine._execute``) from one fallback arm.

**Accounting.** No slot carries a cost.  Beside each stream the
method stores its *tick prefix* ``P``: ``P[i]`` is the summed cost, in
whole ticks (:data:`repro.bytecode.code.TICKS_PER_WEIGHT`), of the
instructions before bci ``i``.  Tier 1 charges a straight-line run of
bcis ``[start, end)`` once, where control leaves it: ``P[end] -
P[start]`` ticks and ``end - start`` instructions.  Ticks are
integer-valued floats, so any grouping of the same instructions sums to
the same bits as the hooked loop's one add per instruction.

This module additionally *fuses* multi-instruction sequences into
single superinstructions.  The set is sized by the code the system
deploys, not by what the compiler emits: every build that can migrate
is flattened (:mod:`repro.preprocess.flatten`), so each instruction
reaches the interpreter as a group ``LOAD t..; op; STORE t`` and a
branch as ``LOAD t; JZ`` — a ``CONST``, a compare or a ``GETS`` is
always followed by a ``STORE``, never by its consumer.  The nine
patterns are the ones such a stream executes at a group start: the
group's closing ``STORE`` joins its superinstruction
(``LOAD+STORE``, ``CONST+STORE``, ``LOAD+LOAD+arith+STORE``,
``LOAD+LOAD+arith(m)+STORE``, ``LOAD+LOAD+ALOAD+STORE``), and
``LOAD+LOAD``, ``LOAD+GETF``, ``LOAD+JZ``/``JNZ``; the ``original``
build fuses with the same nine.  A test
(``tests/test_dispatch_equivalence.py``) replays a pc trace against
the streams and fails on a pattern that never fires there.

Coordinate invariant (what keeps migration working unchanged): the
decoded stream is indexed by **original** bci, and a fused tuple sits at
the bci of its *first* component while every other slot keeps the
decode that starts there.  ``frame.pc`` therefore always holds an
original bci — capture, restore, breakpoints, exception tables and line
tables never see fused coordinates, and control transfer *into* the
middle of a fused group (a jump target, or resumption after a
hook-driven suspension mid-sequence) simply executes the interior
instructions unfused.  Executing a fused tuple advances the pc by its
``count``.

Safety rules for patterns:

* every component's observable effect is reproduced exactly — binops
  whose semantics need the machine (``ADD`` string concatenation,
  ``DIV``/``MOD`` guest exceptions) keep the legacy 3-arg helpers, the
  rest use 2-arg fast functions the machine certifies as equivalent;
* **fault rule**: at most one component may raise — the binop or the
  ``ALOAD`` of a STORE-tailed group (second to last), the last one
  elsewhere — and ``fault`` names it.  The fast loop reports a guest or
  host-level fault at the slot's bci plus ``fault``, charges the run up
  to that component, and the component itself only once a handler is
  found: what the hooked loop charges and reports.  A fault writes
  nothing into the destination local ``c``;
* fused groups never include opcodes with frame effects (calls,
  returns, throws), host-visible hooks (the ``PUTS`` static-write hook,
  ``NATIVE``) or a ``GETS`` (:func:`cache_seeds` reads plain slots) —
  in particular no preemption safepoint
  (:func:`repro.bytecode.opcodes.is_safepoint`; asserted below), so a
  quantum can expire before every safepoint of the fused stream exactly
  as it does in the hooked loop.

Each method's stream and tick prefix are built once per weight table,
stored on its ``CodeObject`` (``_fused``; a hit needs the very
``predecoded()`` stream they were built from; ``invalidate_decoded()``
drops them) and hold no cell: a machine or namespace *links* it — copies
the list and gives each inline-cache site a fresh cell.  There is no
unfused stream: a trap point inside a group reverts the group's head to
its :func:`plain_slot` (``Machine._trap``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.bytecode import opcodes as op
from repro.bytecode.code import CodeObject

#: (opid, a, b, count, aux, fault, c): module docstring
DecodedSlot = Tuple[Any, ...]

# -- fused opcode ids --------------------------------------------------------

F_LOAD_LOAD = op.FUSED_BASE + 0    # a=slot1, b=slot2
F_CONST_STORE = op.FUSED_BASE + 1  # a=value, b=slot
F_LOAD_GETF = op.FUSED_BASE + 2    # a=slot, b=field name
F_LOAD_STORE = op.FUSED_BASE + 3   # a=from slot, b=to slot
F_LL_OP2_ST = op.FUSED_BASE + 4    # a=slot1, b=slot2, aux=2-arg fn, c=dest
F_LL_ARITH_ST = op.FUSED_BASE + 5  # a=slot1, b=slot2, aux=3-arg fn, c=dest
F_LL_ALOAD_ST = op.FUSED_BASE + 6  # a=arr slot, b=index slot, c=dest
F_LOAD_JZ = op.FUSED_BASE + 7      # a=slot, b=target
F_LOAD_JNZ = op.FUSED_BASE + 8     # a=slot, b=target

#: display names for tooling / tests
FUSED_NAMES = {
    F_LOAD_LOAD: "LOAD+LOAD", F_CONST_STORE: "CONST+STORE",
    F_LOAD_GETF: "LOAD+GETF", F_LOAD_STORE: "LOAD+STORE",
    F_LL_OP2_ST: "LOAD+LOAD+arith+STORE",
    F_LL_ARITH_ST: "LOAD+LOAD+arith(m)+STORE",
    F_LL_ALOAD_ST: "LOAD+LOAD+ALOAD+STORE",
    F_LOAD_JZ: "LOAD+JZ", F_LOAD_JNZ: "LOAD+JNZ",
}

_CMP_OPS = frozenset({op.EQ, op.NE, op.LT, op.LE, op.GT, op.GE})
_BIN_OPS = frozenset({op.ADD, op.SUB, op.MUL, op.DIV, op.MOD}) | _CMP_OPS

#: dense id -> opcode name of the binops
_BIN_IDS: Dict[int, str] = {op.OP_IDS[name]: name for name in _BIN_OPS}

#: opcodes that get a per-site monomorphic inline-cache cell (cell size):
#: the ones tier 1 binds itself (a ``PUTS`` runs its oracle handler)
_CACHED_OPS = {op.GETS: 1, op.INVOKESTATIC: 1, op.INVOKEVIRT: 2}


def decode_and_fuse(code: CodeObject, weights: Dict[str, float],
                    arith: Dict[str, Callable],
                    fast2: Dict[str, Callable]) -> List[DecodedSlot]:
    """The decoded and fused stream for ``code``, linked for one machine
    or namespace.

    ``arith`` maps binop opcode names to the interpreter's 3-arg
    semantic helpers (``fn(machine, a, b)``); ``fast2`` maps the subset
    whose semantics are machine-independent to plain 2-arg functions
    (the machine certifies this equivalence; both are its constant
    tables).  ``weights`` is the cost model's per-opcode weight table.
    The result is a fresh link of the stream stored on ``code``, cached
    by the owning :class:`~repro.vm.machine.Machine` per namespace.
    """
    tpl = template(code, weights, arith, fast2)
    stream = list(tpl[1])
    for i, ncells in tpl[2]:
        s = stream[i]
        stream[i] = s[:4] + ([None] * ncells,) + s[5:]
    return stream


def template(code: CodeObject, weights: Dict[str, float],
             arith: Dict[str, Callable], fast2: Dict[str, Callable],
             ) -> Tuple[Any, List[DecodedSlot], tuple, Tuple[float, ...]]:
    """``code``'s stored ``(predecoded base, cell-less stream, (bci,
    cell size) sites, tick prefix)`` for ``weights``, built on a miss
    (arguments as :func:`decode_and_fuse`)."""
    base = code.predecoded(weights)
    tpl = code._fused.get(id(weights))
    if tpl is None or tpl[0] is not base:
        tpl = code._fused[id(weights)] = (base,
                                          *_build(code, base, arith, fast2))
    return tpl


def plain_slot(base: Sequence[Tuple[int, Any, Any, float]],
               i: int) -> DecodedSlot:
    """The cell-less slot of the one instruction at ``base[i]``."""
    return (*base[i][:3], 1, None, 0, None)


def _build(code: CodeObject, base: Sequence[Tuple[int, Any, Any, float]],
           arith: Dict[str, Callable], fast2: Dict[str, Callable],
           ) -> Tuple[List[DecodedSlot], tuple, Tuple[float, ...]]:
    """``code``'s cell-less stream, its ``(bci, cell size)`` sites and
    its tick prefix."""
    n = len(base)
    out: List[DecodedSlot] = []
    sites = []
    for i in range(n):
        group = _fuse_at(base, i, n, arith, fast2)
        if group is None:
            ncells = _CACHED_OPS.get(code.instrs[i].op)
            if ncells is not None:
                sites.append((i, ncells))
            out.append(plain_slot(base, i))
            continue
        opid, a, b, count, aux, c = group
        assert not any(
            op.is_safepoint(ins.op, ins.a, j) for j, ins in
            enumerate(code.instrs[i:i + count], i)), \
            f"{code.qualname}@{i}: safepoint fused into a group"
        off = 2 if count == 4 else 1  # the fault rule's component
        out.append((opid, a, b, count, aux, off, c))
    prefix = [0.0]
    for slot in base:
        prefix.append(prefix[-1] + slot[3])
    return out, tuple(sites), tuple(prefix)


def cache_seeds(stream: List[DecodedSlot],
                code: CodeObject) -> Dict[int, list]:
    """Warmed inline-cache cells of ``stream``, keyed by original bci.

    The tier-2 compiler reuses the monomorphic facts tier-1 execution
    has already proven instead of re-discovering them: every
    GETS/INVOKESTATIC/INVOKEVIRT site (none leads a fused group,
    and component bcis keep their own plain slot) whose cell is bound
    contributes a seed.  The returned cells are the *live* tier-1
    cells, so a rebind by either tier is seen by both.
    """
    seeds: Dict[int, list] = {}
    for i, ins in enumerate(code.instrs):
        ncells = _CACHED_OPS.get(ins.op)
        if ncells is None or i >= len(stream):
            continue
        aux = stream[i][4]
        if isinstance(aux, list) and len(aux) == ncells \
                and aux[0] is not None:
            seeds[i] = aux
    return seeds


def _fuse_at(base: Sequence[Tuple[int, Any, Any, float]], i: int, n: int,
             arith: Dict[str, Callable], fast2: Dict[str, Callable],
             ) -> Any:
    """Longest fused pattern starting at slot ``i``, as ``(opid, a, b,
    count, aux, c)`` (or None)."""
    ids = op.OP_IDS
    LOAD, STORE = ids[op.LOAD], ids[op.STORE]
    o0, a0 = base[i][:2]
    if (o0 != LOAD and o0 != ids[op.CONST]) or i + 1 >= n:
        return None
    o1, a1 = base[i + 1][:2]

    # ---- 4-instruction patterns: LOAD; LOAD; op; STORE ----
    if i + 3 < n and o0 == LOAD and o1 == LOAD and base[i + 3][0] == STORE:
        o2, dest = base[i + 2][0], base[i + 3][1]
        name = _BIN_IDS.get(o2)
        if name is not None:
            if name in fast2:
                return (F_LL_OP2_ST, a0, a1, 4, fast2[name], dest)
            return (F_LL_ARITH_ST, a0, a1, 4, arith[name], dest)
        if o2 == ids[op.ALOAD]:
            return (F_LL_ALOAD_ST, a0, a1, 4, None, dest)

    # ---- 2-instruction patterns ----
    fused = {LOAD: F_LOAD_LOAD, STORE: F_LOAD_STORE, ids[op.GETF]:
             F_LOAD_GETF, ids[op.JZ]: F_LOAD_JZ, ids[op.JNZ]:
             F_LOAD_JNZ}.get(o1) if o0 == LOAD \
        else F_CONST_STORE if o1 == STORE else None
    if fused is None:
        return None
    return (fused, a0, a1, 2, None, None)


def fused_coverage(stream: Sequence[DecodedSlot]) -> Dict[str, int]:
    """How many *group-start* slots hold each superinstruction (for
    tests and benchmark reporting)."""
    counts: Dict[str, int] = {}
    for slot in stream:
        name = FUSED_NAMES.get(slot[0])
        if name is not None:
            counts[name] = counts.get(name, 0) + 1
    return counts
