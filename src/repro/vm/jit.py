"""Tier-2 specializing JIT: hot code objects become Python closures.

The interpreter already pre-decodes, fuses and inline-caches (tier 1,
:meth:`repro.vm.machine.Machine._run_fast`); this module adds the next
tier above it.  :func:`compile_code` turns one :class:`CodeObject` into
a *specialized Python closure*: the method's control-flow graph is
compiled to a ``while``-loop over *blocks*, the operand stack is
compiled away into single-assignment Python names (``v1``, ``v2``,
...), and every monomorphic fact the tier-1 inline caches have proven —
static-call targets, static-field home dicts, virtual receiver classes
— is baked in as a bound constant or a one-compare guard.

A block is sized for the code that is deployed: the preprocessor's
flattened builds reach the VM as ``LOAD t..; op; STORE t`` groups and
``LOAD t; JZ`` branches (:mod:`repro.preprocess.flatten`), so the
generator works on what a group *means*.  Within a block a ``LOAD``
names ``locs[a]`` once and a ``STORE`` only records which name the slot
now holds (the temp traffic costs nothing); a name a compare produced
is a host ``bool`` and branches raw; and a block ends only where the
method *body* branches.  The body is what
bci 0 reaches without exception edges: the migration machinery — the
restoration handler's ``LSWITCH`` to every source-line start, each
object-fault handler's ``JMP`` back to its retry point — lies outside
it, as in the paper, where it costs the normal path nothing.  So a
``JZ`` leaves only in its taken arm; calls, returns, back-edges, MSPs
and retry points are generated in line (each still an entry of its own
for a frame that resumes or is dispatched there); and a
compiled->compiled call that returns continues in line.  Blocks end at
the body's branch targets, at handler entries and around every
``NATIVE`` but the pure ``Sys`` math ones
(:data:`repro.vm.natives.PURE_MATH`: ``sqrt``, ``floatOf``, ...).
Those are generated in line, still safepoints that poll: while the
arguments are numbers and the registry still maps every pure name to
the table's own wrapper, the host function is called straight, with
no flush; otherwise the arm takes the generic path and leaves for the
entry after the native.  An ``ADD`` is in line for every operand pair
but a string one, the only case ``_add`` is not ``a + b``.

Templates cover the safepoints, ``JZ`` / ``JNZ`` and the plain opcodes
compiled code executes often; the other nine (``SWAP``, ``NOT``,
``LSWITCH``, ``PUTS``, ...) run the oracle's handler
(``machine._OPS``) through ``Machine._execute``
(:meth:`_Compiler.gen_oracle`), so a new one needs nothing here.

Deferred writes reach ``frame.locals`` exactly where it can be
observed (:meth:`_Compiler.write_back`): before an op arms its fault
record (a guest handler of this frame — the injected object-fault
handlers — reads the slots), in the yielding arm of every quantum
poll, before a call pushes a frame and before a registry native runs
(names read from ``locs`` are forgotten after either:
``ObjMan.resolve`` patches slots), and at every block exit — not at
``RET``/``RETV``, whose frame is gone, nor at a pure native's host
call.  So a capture, a guest handler or a deopt never
needs a write-back pass of its own.

Execution protocol
------------------

A compiled closure executes exactly ONE frame and returns control to
the fast loop's outer driver at every boundary that other subsystems
can observe; frames stay plain data, so SOD capture/restore, VMTI and
migration are oblivious to the tier:

``fn(m, thread, frame, frames, ql, w_acc, n_acc, rd=0)`` returns a
status tuple ``(st, w_acc, n_acc, aux, aux2)``; ``rd`` is the depth of
in-line (compiled->compiled) calls it runs under, 0 when the driver
called it:

=====  ==========================================================
``st``
=====  ==========================================================
0      guest call: callee frame pushed, caller suspended at the
       return bci with its live operand stack spilled
1      return: frame popped.  Called by the driver, the value is
       delivered to the caller's operand stack (or
       ``thread.result``); called in line, ``aux`` carries it to
       the compiled caller, which takes it with no stack round
       trip.  A status 1 its in-line caller's frame is not the top
       for is forwarded, and the closure the driver called
       delivers its value first
2      scheduler preemption: ``frame.pc`` at a safepoint bci, the
       full operand stack spilled (``"preempted"``)
3      guest throw: accounting flushed, ``frame.pc`` at the
       faulting bci; ``aux`` is the exception, ``aux2`` the
       faulting instruction's weight (charged only if a handler
       is found — same rule as both interpreter tiers)
4      a native set ``thread.pending_exception``; resume state
       materialized at the bci after the native
5      deopt: a native armed a trap in a live frame's method (this
       closure's, or a caller's, which forwards it); state
       materialized, the driver re-enters (on tier 1 where masked)
=====  ==========================================================

Tier 1 keeps the same protocol (:meth:`repro.vm.machine.Machine._run_fast`):
its inner loop runs one frame, and a call or return hands the next
frame to the same driver, which alone enters a frame and picks its
tier.

Safepoints and accounting
-------------------------

``frame.pc`` and ``frame.stack`` are materialized *only* at the
preemption safepoints (:func:`repro.bytecode.opcodes.is_safepoint` —
calls, returns, natives, loop back-edges; :meth:`_Compiler.safepoint`
refuses to emit a quantum check anywhere else, so compiled code is
preempted exactly where both interpreter loops are), at guest-throw
sites and around an opcode without a template.  Between safepoints
the closure runs pure Python with block-summed ``w_acc``/``n_acc``
accounting constants (a segment stays pending through a call or
back-edge poll, which reads its count as a constant, and is added once
where the code leaves or flushes): ``w_acc`` counts whole cost
ticks (:data:`repro.bytecode.code.TICKS_PER_WEIGHT`) as an
integer-valued float, and the flushes add it to ``m._ticks``, so
``instr_count`` and the clock are bit-equal to tier 1's and the hooked
loop's however the blocks group the sums.

Guest exceptions report a precise faulting bci through a per-closure
fault table (``f`` holds the index of the last armed fault record).
Host-level errors (LinkError, type confusion) reuse the last armed
record: after one, ``frame.pc`` is the faulting bci and that is *all*
that is defined — the accounting of the faulting group and locals
whose write-back was still pending are not (no caller reads them: the
run is aborted).  Guest throws, preemptions, calls, natives and deopts
are exact.

Compilation is two steps, with the shared/isolated boundary between
them.  *Generate* (:class:`_Compiler`) is a pure function of the code
object, the cost-weight table and a *link shape* — which
``GETS``/``INVOKESTATIC``/``NEW`` sites are bound and which stay
lazy.  It never sees a machine or a loader, and its result, a
:class:`_Template`, is memoised on the ``CodeObject`` beside the
predecoded streams (same lifetime, same ``invalidate_decoded()``).
*Link* (:func:`compile_code`) runs per ``(machine, namespace)`` on
every tier-up: it resolves the sites in the namespace whose loader is
swapped in, looks the template up by their shape, and instantiates a
closure over this namespace's values — statics dicts, linked classes,
fresh guard cells, the compiled map it was asked to compile into —
which the machine stores in that namespace's own map.  A fresh
namespace therefore links code, it does not regenerate it: code is
shared, cells never.  Shapes per method are not capped: classes link
in program order and a hot method tiers up at its first entry, so a
method sees few (2 at most in the benchmark, 4 in the fuzzers).
"""

from __future__ import annotations

import functools
import keyword
from typing import Any, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.bytecode import opcodes as op
from repro.bytecode.code import CodeObject, weight_ticks
from repro.bytecode.verifier import stack_depths
from repro.preprocess.fuse import cache_seeds
from repro.vm import machine as _machine
from repro.vm.frames import Frame
from repro.vm.natives import PURE_MATH
from repro.vm.objects import VMArray, VMInstance
from repro.vm.values import truthy

#: hotness (entries + loop back-edges) at which a code object tiers up
JIT_THRESHOLD = 16

#: refuse absurdly large methods (compile time is O(instrs))
_MAX_INSTRS = 3000

#: compiled->compiled direct calls nest at most this many host frames;
#: past the cap every call round-trips through the (stackless) driver,
#: so guest recursion depth is never limited by the host's
_MAX_INLINE_DEPTH = 100

#: binop opcode -> inline Python operator (certified equivalent to the
#: interpreter's semantic helpers for every guest value type: no guest
#: type overloads comparison/equality — see machine._FAST2)
_INLINE_BINOP = {
    op.SUB: "-", op.MUL: "*",
    op.EQ: "==", op.NE: "!=",
    op.LT: "<", op.LE: "<=", op.GT: ">", op.GE: ">=",
}

_CMP_OPS = frozenset({op.EQ, op.NE, op.LT, op.LE, op.GT, op.GE})

#: ops execution never falls through from
_NO_FALL = frozenset({op.JMP, op.LSWITCH, op.RET, op.RETV, op.THROW})

#: (status, test) a registry native can force on its way out: a deopt
#: (``mk``: ``m._masks`` before the call), an exception dispatch
_NATIVE_EXITS = ((5, "m._masks != mk"),
                 (4, "thread.pending_exception is not None"))


def _branches(ins: Any) -> Tuple[int, ...]:
    """Branch targets of one instruction (fall-through not included)."""
    if ins.op in op.BRANCHES:
        return (ins.a,)
    if ins.op == op.LSWITCH:
        return (*ins.a.values(), ins.b)
    return ()


def _pure(ins: Any) -> Optional[Tuple[Any, int]]:
    """The ``PURE_MATH`` entry of a ``NATIVE`` that names one with the
    table's arity — tier 2 generates it in line — else None."""
    entry = PURE_MATH.get(ins.a)
    return entry if entry is not None and entry[1] == (ins.b or 0) else None


class _Refuse(Exception):
    """Internal: this method is not tier-2 compilable."""


# -- runtime helpers bound into every closure ------------------------------------
#
# The in-line templates' failure and first-resolution branches
# (``machine._arr_fail``, ``_static_cell`` and friends) are the ones
# tier 1's own arms call, so a message or exception class is written
# once for both; the one tier-2 addition is the guard-miss counter.
# The opcodes without a template call no helper: they run their
# ``machine._OPS`` handler through ``Machine._execute``
# (:meth:`_Compiler.gen_oracle`).

def _resolve_virtual(m: Any, receiver: Any, name: str, nargs: int,
                     cell: List[Any]) -> Tuple[CodeObject, List[Any]]:
    """Virtual-call guard miss: count the bail, rebind the cell."""
    m.jit_guard_bails += 1
    return _machine._bind_virtual(m, receiver, name, nargs, cell)


def _forward(frames: List[Frame], res: tuple) -> tuple:
    """An in-line callee's status, on its way to the driver: a status 1
    whose value no in-line caller took goes onto the top frame's operand
    stack, as a return to the driver delivers it."""
    if res[0] == 1:
        frames[-1].stack.append(res[3])
        return res[:3]
    return res


#: what every closure of every template binds, built once: stateless
#: functions, classes and a sentinel (``_mk`` parameter name -> value)
_RUNTIME: Dict[str, Any] = {
    "T": truthy, "A": _machine._add, "D": _machine._div,
    "MO": _machine._mod, "MS": _machine._MISSING, "Inst": VMInstance,
    "Arr": VMArray, "F": Frame,
    "GT": _machine.GuestThrow, "AF": _machine._arr_fail,
    "IO": _machine._iobe, "FF": _machine._field_fail,
    "RS": _machine._resolve_static, "RV": _resolve_virtual,
    "RSF": _machine._static_cell, "FW": _forward,
}

#: the link sites: ops whose tier-2 code binds namespace state
_SITE_OPS = frozenset({op.GETS, op.INVOKESTATIC, op.INVOKEVIRT, op.NEW})


class _Template(NamedTuple):
    """Generated tier-2 code for one ``(CodeObject, weights, link
    shape)``: process-wide and immutable — no machine, loader, class,
    statics dict or cell.  Everything namespace-specific enters a
    closure through ``slots`` when :func:`compile_code` links it."""

    #: the factory: ``mk(NB, JM, *shared, *slot values)`` -> closure
    mk: Any
    #: resumable bci -> dispatch block id (``EN``, also in ``shared``)
    entries: Dict[int, int]
    #: ``_RUNTIME``, ``EN``, ``FT`` and the literal-less constants, in
    #: ``mk``'s parameter order
    shared: Tuple[Any, ...]
    #: link slots ``(bci, i)``: the resolved value of the site at
    #: ``bci`` (``i`` None) or element ``i`` of it; with no ``bci``, a
    #: fresh ``[None] * i`` guard cell
    slots: Tuple[Tuple[Optional[int], Optional[int]], ...]
    #: snapshot of the weight table the text carries as literals
    weights: Dict[str, float]


# -- the compiler ----------------------------------------------------------------

def _literal(v: Any) -> Optional[str]:
    """Source literal for a CONST argument, or None to bind it."""
    if v is None or v is True or v is False:
        return repr(v)
    t = type(v)
    if t is int or t is str:
        return repr(v)
    if t is float:
        if v != v or v in (float("inf"), float("-inf")):
            return None  # non-finite floats have no literal form
        return repr(v)
    return None


class _Compiler:
    """Generate: the state of one ``(code, weights, link shape)`` ->
    :class:`_Template` run.  The shape is the set of link-site bcis
    that are *bound* (the value arrives in a slot); the rest are lazy."""

    def __init__(self, code: CodeObject, weights: Dict[str, float],
                 shape: frozenset):
        self.code = code
        self.instrs = code.instrs
        self.weights = weights
        self.tick = weight_ticks(weights)
        self.shape = shape
        self.lines: List[str] = []
        self.consts: Dict[str, Any] = {}
        self._const_by_id: Dict[int, str] = {}
        #: link slots in parameter order: (name, site bci, element)
        self.slots: List[Tuple[str, Optional[int], Optional[int]]] = []
        self._kn = 0
        self._un = 0
        #: fault table: (bci, w_pre, n_pre, w_self); index 0 is the
        #: "nothing armed yet" sentinel
        self.faults: List[Tuple[int, float, int, float]] = [(0, 0.0, 0, 0.0)]
        self.seg_w = 0.0
        self.seg_n = 0
        # Per-block symbolic state (reset by :meth:`gen_block`).  Every
        # atom is a literal or a name assigned exactly once in the
        # block, so holding one — on the stack or as a pending write —
        # never goes stale.
        self.sym: List[str] = []
        #: local slot -> atom holding its current value in this block
        self.known: Dict[int, str] = {}
        #: the part of ``known`` that ``locs`` has not been told yet
        self.pending: Dict[int, str] = {}
        #: atoms that are a host ``bool``: ``JZ``/``JNZ`` branch on
        #: them raw
        self.bools: Set[str] = set()
        #: int literal atom -> its value
        self.ints: Dict[str, int] = {}
        #: atoms known to be an int or float: float literals and pure
        #: natives' results (reset per block: names are reused)
        self.nums: Set[str] = set()
        #: atom checked to be an array -> the name of its element list
        #: (``VMArray.data`` is never rebound: a fetched copy is wrapped
        #: before any guest code sees it)
        self.arrays: Dict[str, str] = {}
        self.indent = 16

    # -- plumbing ---------------------------------------------------------

    def bind(self, value: Any, prefix: str = "k") -> str:
        name = self._const_by_id.get(id(value))
        if name is not None and self.consts[name] is value:
            return name
        self._kn += 1
        name = f"{prefix}{self._kn}"
        self.consts[name] = value
        self._const_by_id[id(value)] = name
        return name

    def slot(self, prefix: str, bci: Optional[int],
             i: Optional[int] = None) -> str:
        """A link slot: a closure parameter carrying namespace state
        (see :attr:`_Template.slots`)."""
        self._kn += 1
        name = f"{prefix}{self._kn}"
        self.slots.append((name, bci, i))
        return name

    def emit(self, line: str, extra: int = 0) -> None:
        self.lines.append(" " * (self.indent + extra) + line)

    def fresh(self) -> str:
        """A name no earlier statement of this block assigns (blocks
        share the pool: nothing named survives a block exit)."""
        self._un += 1
        return f"v{self._un}"

    def push(self, expr: str, is_bool: bool = False) -> None:
        name = self.fresh()
        self.emit(f"{name} = {expr}")
        if is_bool:
            self.bools.add(name)
        self.sym.append(name)

    def is_num(self, atom: str) -> bool:
        """Is ``atom`` a known int or float?"""
        return atom in self.ints or atom in self.nums

    def named(self, atom: str) -> str:
        """``atom`` as something an attribute can hang off: a literal
        is given a name first (``5.data`` is not an expression)."""
        if atom.isidentifier():
            return atom
        name = self.fresh()
        self.emit(f"{name} = {atom}")
        return name

    def account(self, opname: str) -> None:
        self.seg_w += self.tick[opname]
        self.seg_n += 1

    def emit_acc(self, extra: int = 0) -> None:
        """Emit the pending block-summed accounting adds."""
        if self.seg_n:
            self.emit(f"w_acc += {self.seg_w!r}", extra)
            self.emit(f"n_acc += {self.seg_n}", extra)

    def flush_acc(self) -> None:
        self.emit_acc()
        self.seg_w = 0.0
        self.seg_n = 0

    def acc_plus(self, w: float = 0.0, n: int = 0) -> str:
        """``w_acc, n_acc`` with the pending segment and ``w`` / ``n``
        folded in as constants (two fields of a status tuple or of an
        in-line call's arguments)."""
        sw, sn = self.seg_w + w, self.seg_n + n
        return f"w_acc + {sw!r}, n_acc + {sn}" if sn else "w_acc, n_acc"

    def write_back(self, extra: int = 0) -> None:
        """Tell ``locs`` every deferred ``STORE``: emitted wherever
        ``frame.locals`` is about to be observable.  In a conditional
        arm (``extra``) the straight path still owes them."""
        for slot, atom in self.pending.items():
            self.emit(f"locs[{slot}] = {atom}", extra)
        if not extra:
            self.pending.clear()

    def marker(self, bci: int, opname: str, charged: bool = True,
               extra: int = 0) -> None:
        """Arm the fault record for a potentially-throwing op at
        ``bci``, locals written back first: a guest handler of this
        frame reads them (the injected object-fault handlers re-read
        the receiver from its slot).  The record's pre-fault sums must
        EXCLUDE the faulting op itself (it is charged only if a handler
        is found, the tier-1 rule): ``charged`` says whether
        :meth:`gen_op`'s up-front ``account`` of this op is still in
        the segment and must be backed out of the record."""
        self.write_back(extra)
        self.arm(bci, opname, charged, extra)

    def arm(self, bci: int, opname: str, charged: bool = True,
            extra: int = 0) -> None:
        """:meth:`marker` without the write-back."""
        w = self.tick[opname]
        idx = len(self.faults)
        if charged:
            self.faults.append((bci, self.seg_w - w, self.seg_n - 1, w))
        else:
            self.faults.append((bci, self.seg_w, self.seg_n, w))
        self.emit(f"f = {idx}", extra)

    def spill(self, atoms: List[str], extra: int = 0) -> None:
        if not atoms:
            return
        if len(atoms) == 1:
            self.emit(f"fstack.append({atoms[0]})", extra)
        else:
            self.emit("fstack.extend((" + ", ".join(atoms) + "))", extra)

    def safepoint(self, bci: int, frame_lives: bool = True,
                  charged: bool = True) -> float:
        """Open the safepoint instruction at ``bci``: it is charged on
        the way out, not in the segment (returns its weight; ``charged``
        says whether :meth:`gen_op` put it there), and a spent quantum
        yields *before* it, ``frame.pc`` at ``bci`` and the whole
        operand stack spilled.  The segment stays pending: the poll
        reads its count as a constant and the yielding arm returns it,
        so the straight path adds it once, where it leaves or charges
        (:meth:`acc_plus`).  Locals are written back for good first
        — a callee's natives may patch this frame, a call's resolution
        may throw into a handler of it — unless nothing reads them on
        the straight path (a return; a pure native's in-line call):
        then only the yielding arm needs them."""
        ins = self.instrs[bci]
        assert op.is_safepoint(ins.op, ins.a, bci), (bci, ins.op)
        w = self.tick[ins.op]
        if charged:
            self.seg_w -= w
            self.seg_n -= 1
        if frame_lives:
            self.write_back()
        ran = f" + {self.seg_n}" if self.seg_n else ""
        self.emit(f"if ql and m.instr_count + n_acc{ran} >= ql:")
        self.write_back(4)
        self.spill(self.sym, 4)
        self.emit(f"    frame.pc = {bci}")
        self.emit(f"    return (2, {self.acc_plus()})")
        return w

    def exit_to(self, target: int, extra: int = 0) -> None:
        """Leave the block for the one at ``target`` through the
        dispatch loop, everything materialized."""
        self.emit_acc(extra)
        self.write_back(extra)
        self.spill(self.sym, extra)
        self.emit(f"b = {self.block_id[target]}", extra)
        self.emit("continue", extra)

    # -- analysis ---------------------------------------------------------

    def analyze(self) -> None:
        code = self.code
        instrs = code.instrs
        n = len(instrs)
        if n == 0 or n > _MAX_INSTRS:
            raise _Refuse("size")
        self.depths = stack_depths(code)
        # The method *body*: what bci 0 reaches along fall-through and
        # branch edges, exception edges left out — so not the injected
        # restoration and object-fault handlers (module docstring).
        body: Set[int] = set()
        work = [0]
        while work:
            i = work.pop()
            if i < n and i not in body:
                body.add(i)
                work.extend(_branches(instrs[i]))
                if instrs[i].op not in _NO_FALL:
                    work.append(i + 1)
        handlers = {e.handler for e in code.exc_table}
        targets: Set[int] = set()
        #: targets of the body's own branches
        body_targets: Set[int] = set()
        #: the body's loops, as (head, back-edge bci)
        loops: List[Tuple[int, int]] = []
        #: bcis a frame can resume at without having branched there
        resumes: Set[int] = {0}
        for i, ins in enumerate(instrs):
            ts = _branches(ins)
            targets.update(ts)
            if i in body:
                body_targets.update(ts)
                loops.extend((t, i) for t in ts if t <= i)
            if op.is_call(ins.op):
                resumes.add(i + 1)  # return / after-native re-entry
            if op.is_safepoint(ins.op, ins.a, i):
                resumes.add(i)  # preemption re-entry
        #: every bci with a dispatch entry of its own
        self.leaders = {b for b in targets | handlers | resumes
                        if b < n and b in self.depths}
        #: the leaders a block that falls into them must stop at — the
        #: symbolic state of whoever falls into one cannot be carried
        #: over: bci 0 and the body's branch targets, handler entries,
        #: and both edges of every ``NATIVE`` but the pure math ones
        #: (restoration handlers are chains of ``CapturedState.read``
        #: natives: generating on through them would be quadratic in
        #: their length).  Every other leader — an MSP, a retry point,
        #: a call or preemption resume, a pure native and the bci after
        #: it — is *soft*: a block generates on through it, names and
        #: pending writes carried over, and its own entry block (for a
        #: frame that resumes or is dispatched there) stops at the next
        #: leader of any kind, so every instruction is generated at
        #: most twice: in line and in one soft entry.
        opaque = {i for i, ins in enumerate(instrs)
                  if ins.op == op.NATIVE and _pure(ins) is None}
        self.cuts = {b for b in self.leaders
                     if b == 0 or b in body_targets or b in handlers
                     or b in opaque or b - 1 in opaque}

        # Block order = who enters the ``if b == k`` chain: body entries
        # inside a body loop (a handler's retry ``JMP`` is no loop),
        # the other body entries, resumes, then what only handler code
        # reaches.
        def rank(b: int) -> int:
            if b in body and b in self.cuts:
                return 0 if any(t <= b <= i for t, i in loops) else 1
            return 2 if b in body and b in resumes else 3

        ordered = sorted(self.leaders, key=lambda b: (rank(b), b))
        self.block_id = {b: k for k, b in enumerate(ordered)}
        self.block_order = ordered

    # -- code generation --------------------------------------------------

    def compile(self) -> _Template:
        self.analyze()
        for k, start in enumerate(self.block_order):
            kw = "if" if k == 0 else "elif"
            self.lines.append(" " * 12 + f"{kw} b == {self.block_id[start]}:")
            self.gen_block(start)
        return self.assemble()

    def gen_block(self, start: int) -> None:
        """One dispatch entry: the code from ``start`` up to the first
        instruction that closes the block or is a cut — or, from a soft
        leader, any leader (``analyze``)."""
        n = len(self.instrs)
        self.stops = self.cuts if start in self.cuts else self.leaders
        self.seg_w = 0.0
        self.seg_n = 0
        self._un = 0
        self.known = {}
        self.arrays = {}
        self.pending = {}
        self.bools = {"True", "False"}
        self.nums = set()
        self.sym = [self.fresh() for _ in range(self.depths[start])]
        #: the block's leader and its first pop line (``gen_oracle``
        #: at the leader takes the pops back)
        self.entry = (start, len(self.lines))
        for name in reversed(self.sym):
            self.emit(f"{name} = fstack.pop()")
        bci = start
        while True:
            if bci >= n:
                raise _Refuse("fell off code end")
            if bci != start and bci in self.stops:
                self.exit_to(bci)
                return
            if self.gen_op(bci, self.instrs[bci]):
                return
            bci += 1

    # one op -> source lines; True when it closed the block
    def gen_op(self, bci: int, ins: Any) -> bool:
        o = ins.op
        sym = self.sym
        if o == op.NATIVE:  # charged after its call, never up front
            self.gen_native(bci, ins)
            return False
        self.account(o)

        if o == op.LOAD:
            atom = self.known.get(ins.a)
            if atom is None:
                atom = self.known[ins.a] = self.fresh()
                self.emit(f"{atom} = locs[{ins.a}]")
            sym.append(atom)
        elif o == op.CONST:
            lit = _literal(ins.a)
            if lit is not None and type(ins.a) is int:
                self.ints[lit] = ins.a
            elif lit is not None and type(ins.a) is float:
                self.nums.add(lit)
            sym.append(lit if lit is not None else self.bind(ins.a, "c"))
        elif o == op.STORE:
            # deferred: write_back tells locs where it can be observed
            self.pending.pop(ins.a, None)
            self.known[ins.a] = self.pending[ins.a] = sym.pop()
        elif o == op.POP:
            sym.pop()
        elif o == op.DUP:
            sym.append(sym[-1])

        elif o == op.ADD:
            # ``_add`` is ``a + b`` unless an operand is a string
            b = sym.pop()
            a = sym.pop()
            tests = [f"type({x}) is not str" for x in (a, b)
                     if not self.is_num(x)]
            self.push(f"({a} + {b}) if {' and '.join(tests)} "
                      f"else A(m, {a}, {b})" if tests else f"{a} + {b}")
        elif o in _INLINE_BINOP:
            b = sym.pop()
            a = sym.pop()
            # a compare yields a raw host bool (same certification as
            # tier-1's fused compare-jump superinstructions)
            self.push(f"{a} {_INLINE_BINOP[o]} {b}", o in _CMP_OPS)
        elif o == op.DIV or o == op.MOD:
            b = sym.pop()
            a = sym.pop()
            self.gen_divmod(bci, o, a, b)
        elif o == op.NEG:
            self.push(f"-({sym.pop()})")

        elif o == op.GETF:
            obj = self.named(sym.pop())
            self.marker(bci, o)
            fn = _literal(ins.a) or self.bind(ins.a)
            self.push(f"{obj}.fields.get({fn}, MS) "
                      f"if isinstance({obj}, Inst) else MS")
            self.emit(f"if {sym[-1]} is MS:")
            self.emit(f"    FF(m, {obj}, {fn}, 'getfield')")
        elif o == op.PUTF:
            v = sym.pop()
            obj = self.named(sym.pop())
            self.marker(bci, o)
            fn = _literal(ins.a) or self.bind(ins.a)
            self.emit(f"if isinstance({obj}, Inst) "
                      f"and {fn} in {obj}.fields:")
            self.emit(f"    {obj}.fields[{fn}] = {v}")
            self.emit("else:")
            self.emit(f"    FF(m, {obj}, {fn}, 'putfield')")
        elif o == op.GETS:
            if bci in self.shape:  # the home class's statics dict
                self.push(f"{self.slot('sd', bci, 0)}[{ins.a[1]!r}]")
            else:  # lazy: tier 1's ``_static_cell`` on first execution
                cell = self.slot("gc", None, 1)
                c = self.fresh()
                self.emit(f"{c} = {cell}[0]")
                self.emit(f"if {c} is None:")
                self.marker(bci, o, extra=4)
                self.emit(f"    {c} = {cell}[0] = RSF(m, {tuple(ins.a)!r})")
                self.push(f"{c}[0][{c}[1]]")
        elif o == op.NEW:
            self.marker(bci, o)
            k = self.slot("cls", bci) if bci in self.shape else \
                f"m.loader.load({_literal(ins.a) or self.bind(ins.a)})"
            self.push(f"m.heap.new_instance({k})")
        elif o == op.ALOAD:
            idx = sym.pop()
            u = self.gen_array_data(bci, o, sym.pop(), "arrayload")
            v = self.fresh()
            self.emit(f"if 0 <= {idx} < len({u}):")
            self.emit(f"    {v} = {u}[{idx}]")
            self.emit("else:")
            self.emit(f"    raise IO(m, {idx}, len({u}))")
            sym.append(v)
        elif o == op.ASTORE:
            v = sym.pop()
            idx = sym.pop()
            u = self.gen_array_data(bci, o, sym.pop(), "arraystore")
            self.emit(f"if not (0 <= {idx} < len({u})):")
            self.emit(f"    raise IO(m, {idx}, len({u}))")
            self.emit(f"{u}[{idx}] = {v}")

        elif o == op.JMP:
            if ins.a <= bci:
                # back-edge safepoint: frame.pc reports the JMP itself
                # (not yet charged), exactly like the tier-1 fast loop
                self.safepoint(bci)
                self.account(op.JMP)
            self.exit_to(ins.a)
            return True
        elif o == op.JZ or o == op.JNZ:
            return self.gen_branch(bci, ins, sym.pop())

        elif o == op.RET or o == op.RETV:
            # the frame is popped: nobody reads its locals, so pending
            # writes die here — except in the arm that yields instead
            w_ret = self.safepoint(bci, frame_lives=False)
            val = sym.pop() if o == op.RETV else "None"
            self.emit("frames.pop()")
            acc = self.acc_plus(w_ret, 1)
            self.emit("if rd:")  # an in-line caller takes the value
            self.emit(f"    return (1, {acc}, {val})")
            self.emit("if frames:")
            self.emit(f"    frames[-1].stack.append({val})")
            self.emit("else:")
            self.emit("    thread.finished = True")
            self.emit(f"    thread.result = {val}")
            self.emit(f"return (1, {acc})")
            return True

        elif o == op.INVOKESTATIC:
            self.gen_invokestatic(bci, ins)
        elif o == op.INVOKEVIRT:
            self.gen_invokevirt(bci, ins)
        else:
            return self.gen_oracle(bci, ins)
        return False

    def gen_oracle(self, bci: int, ins: Any) -> bool:
        """An opcode without a template runs its oracle handler through
        :meth:`Machine._execute` at a precise frame state: locals written back, fault record
        armed (what it raises reaches the ``except`` arms), operand
        stack in ``frame.stack``, ``frame.pc`` at ``bci``.  Then the
        stack is popped back into names, or, after ``LSWITCH`` /
        ``THROW``, the block leaves for ``EN[frame.pc]``.  At a block's
        first op the names are its untouched entry pops: they are not
        popped at all, so there is nothing to spill."""
        sym = self.sym
        self.marker(bci, ins.op)
        start, at = self.entry
        if bci == start:
            del self.lines[at:at + len(sym)]
        else:
            self.spill(sym)
        self.emit(f"frame.pc = {bci}")
        self.emit(f"m._execute(thread, frame, frame.code.instrs[{bci}])")
        if ins.op in _NO_FALL:
            self.emit_acc()
            self.emit("b = EN[frame.pc]")
            self.emit("continue")
            return True
        pops, pushes = op.stack_effect(ins.op, ins.a, ins.b)
        depth = len(sym) - pops + pushes
        sym[:] = [self.fresh() for _ in range(depth)]
        for name in reversed(sym):
            self.emit(f"{name} = fstack.pop()")
        return False

    def gen_divmod(self, bci: int, o: str, a: str, b: str) -> None:
        """``DIV``/``MOD``: for a non-negative int over a positive one
        Java's truncation is Python's floor, inline; anything else
        (negative, zero divisor, float, ``bool`` — which ``_div`` does
        not treat as an int) takes the interpreter's helper, and only
        that arm can throw."""
        pyop, fn = ("//", "D") if o == op.DIV else ("%", "MO")
        types: List[str] = []  # tested first: ``>=`` needs a number
        bounds: List[str] = []
        fast = True
        for x, bound, least in ((a, ">= 0", 0), (b, "> 0", 1)):
            if x not in self.ints:
                types.append(f"type({x}) is int")
                bounds.append(f"{x} {bound}")
            elif self.ints[x] < least:
                fast = False
        v = self.fresh()
        if fast and not types:
            self.emit(f"{v} = {a} {pyop} {b}")
        else:
            extra = 0
            if fast:
                self.emit(f"if {' and '.join(types + bounds)}:")
                self.emit(f"    {v} = {a} {pyop} {b}")
                self.emit("else:")
                extra = 4
            self.marker(bci, o, extra=extra)
            self.emit(f"{v} = {fn}(m, {a}, {b})", extra)
        self.sym.append(v)

    def gen_array_data(self, bci: int, o: str, arr: str, what: str) -> str:
        """Arm ``ALOAD``/``ASTORE`` and name the receiver's element
        list (``AF`` raises for anything but an array), once per atom
        and block."""
        arr = self.named(arr)
        self.marker(bci, o)
        u = self.arrays.get(arr)
        if u is None:
            u = self.arrays[arr] = self.fresh()
            self.emit(f"{u} = {arr}.data if isinstance({arr}, Arr) "
                      f"else AF(m, {arr}, {what!r})")
        return u

    def gen_branch(self, bci: int, ins: Any, cond: str) -> bool:
        """JZ/JNZ.  A fall-through this block does not stop at is no
        block boundary: only the taken arm leaves, materializing in the
        arm, and generation goes on with everything carried over."""
        fall = bci + 1
        if fall in self.stops:
            on_true, on_false = (fall, ins.a) if ins.op == op.JZ \
                else (ins.a, fall)
            self.emit_acc()
            self.write_back()
            self.spill(self.sym)
            self.emit(f"b = {self.block_id[on_true]} if {self.truth(cond)} "
                      f"else {self.block_id[on_false]}")
            self.emit("continue")
            return True
        self.emit(f"if {self.truth(cond, ins.op == op.JNZ)}:")
        self.exit_to(ins.a, 4)
        return False

    def truth(self, cond: str, want: bool = True) -> str:
        """A test that ``cond`` is guest-true (``want``) or guest-false:
        raw on a known bool, ``is True`` / ``is False`` before ``T``
        on any other name, ``T`` alone on a literal (``is`` with a
        literal is a ``SyntaxWarning``)."""
        if cond in self.bools:
            return cond if want else f"not {cond}"
        if not cond.isidentifier() or keyword.iskeyword(cond):
            return f"T({cond})" if want else f"not T({cond})"
        if want:
            return f"{cond} is True or {cond} is not False and T({cond})"
        return f"{cond} is False or {cond} is not True and not T({cond})"

    def gen_invokestatic(self, bci: int, ins: Any) -> None:
        nargs = ins.b or 0
        sym = self.sym
        w_call = self.safepoint(bci)
        args = [sym.pop() for _ in range(nargs)][::-1]
        live = list(sym)
        self.spill(live)
        self.emit(f"frame.pc = {bci + 1}")
        if bci in self.shape:  # (callee code, its locals padding)
            code_expr = self.slot("mc", bci, 0)
            pad_expr = self.slot("mp", bci, 1)
        else:
            cell = self.slot("ic", None, 1)
            u = self.fresh()
            self.emit(f"{u} = {cell}[0]")
            self.emit(f"if {u} is None:")
            idx = len(self.faults)
            self.faults.append((bci, self.seg_w, self.seg_n, w_call))
            self.emit(f"    f = {idx}")
            self.emit(f"    {u} = {cell}[0] = "
                      f"RS(m, {tuple(ins.a)!r}, {nargs})")
            code_expr, pad_expr = f"{u}[0]", f"{u}[1]"
        self.gen_push_frame(code_expr, pad_expr, args)
        self.gen_call_exit(code_expr, w_call, live)

    def gen_invokevirt(self, bci: int, ins: Any) -> None:
        nargs = ins.b or 0
        sym = self.sym
        w_call = self.safepoint(bci)
        args = [sym.pop() for _ in range(nargs)][::-1]
        recv = self.named(sym.pop())
        live = list(sym)
        # tier 1's warmed cell (both tiers keep it hot) or a fresh one
        cell = self.slot("vc", bci)
        mn = _literal(ins.a) or self.bind(ins.a)
        u = self.fresh()
        self.emit(f"if {recv}.__class__ is Inst "
                  f"and {recv}.vmclass is {cell}[0]:")
        self.emit(f"    {u} = {cell}[1]")
        self.emit("else:")
        idx = len(self.faults)
        self.faults.append((bci, self.seg_w, self.seg_n, w_call))
        self.emit(f"    f = {idx}")
        self.emit(f"    {u} = RV(m, {recv}, {mn}, {nargs}, {cell})")
        self.spill(live)
        self.emit(f"frame.pc = {bci + 1}")
        self.gen_push_frame(f"{u}[0]", f"{u}[1]", [recv] + args)
        self.gen_call_exit(f"{u}[0]", w_call, live)

    def gen_call_exit(self, code_expr: str, w_call: float,
                      live: List[str]) -> None:
        """Close a call site: try a compiled->compiled direct call of
        ``code_expr`` (host-level recursion, depth-capped so deep guest
        recursion still round-trips through the driver instead of
        blowing the host stack), else hand the pushed frame to the
        driver.

        Our state is fully materialized before the nested closure runs,
        so every non-return status simply forwards: the driver sees
        exactly what it would have seen had it made the call itself.
        A status-1 result from the direct callee carries the returned
        value (``rd > 0``) and, our own frame the top again, we take it
        and the spilled operands back off ``fstack`` and go on
        generating at the return bci — what the callee's natives may
        have patched in ``locs`` is re-read.  A status 1 for which our
        frame is not the top is forwarded as it came, and the closure
        the driver called (``rd == 0``) delivers its value first
        (``FW``), where a return to the driver puts it."""
        u = self.fresh()
        self.emit(f"{u} = JM.get({code_expr}) if rd < {_MAX_INLINE_DEPTH} "
                  f"else None")
        acc = self.acc_plus(w_call, 1)
        self.emit(f"if not {u}:")  # False (refused) or None (cold)
        self.emit(f"    return (0, {acc})")
        self.emit(f"res = {u}[0](m, thread, nf, frames, ql, {acc}, rd + 1)")
        self.seg_w = 0.0  # the callee's w_acc / n_acc include it
        self.seg_n = 0
        self.emit("if res[0] != 1 or frames[-1] is not frame:")
        self.emit("    return res if rd else FW(frames, res)")
        rv = self.fresh()
        self.emit(f"_, w_acc, n_acc, {rv} = res")
        if live:
            self.emit(f"del fstack[-{len(live)}:]")
        self.known.clear()
        self.sym.append(rv)

    def gen_push_frame(self, code_expr: str, pad_expr: str,
                       args: List[str]) -> None:
        self.emit("nf = F.__new__(F)")
        self.emit(f"nf.code = {code_expr}")
        self.emit(f"nf.locals = [{', '.join(args)}] + {pad_expr}")
        self.emit("nf.stack = []")
        self.emit("nf.pc = 0")
        self.emit("nf.pinned = False")
        self.emit("frames.append(nf)")

    def gen_native(self, bci: int, ins: Any) -> None:
        """A safepoint where a registry native runs: natives may read
        the clock, print, charge time or arm traps, so that path
        flushes the accounting and charges ``NB`` first, runs at a
        precise frame state, and the block ends after it.  A pure math
        native (:func:`_pure`) is generated in line instead: while its
        arguments are numbers (``_num``'s rule) and every pure name
        still maps to ``PURE_NATIVES``' own wrapper
        (``NativeRegistry.pure_intact``), the host function is called
        straight after tier 2's in-line ``Machine.charge(NB)``, with no
        flush — ticks sum apart from every charge, the poll reads
        ``m.instr_count + n_acc``, and a pure function cannot observe
        the machine — and its weight joins the segment.  Otherwise the
        arm takes the registry path, flush included, and leaves for
        the entry at ``bci + 1``: a re-registered native may have
        patched ``locs``."""
        nargs = ins.b or 0
        sym = self.sym
        pure = _pure(ins)
        wn = self.safepoint(bci, frame_lives=pure is None, charged=False)
        # a native's fault record and a host error raised by it (the
        # registry's or a pure host function's) both count from here
        self.flush_acc()
        args = [sym.pop() for _ in range(nargs)][::-1]
        live = list(sym)
        rv = self.fresh()
        self.arm(bci, op.NATIVE, charged=False)
        if pure is None:
            self.spill(live)
            self.gen_registry_call(bci, ins, args, rv)
            for st, test in _NATIVE_EXITS:
                self.emit(f"if {test}:")
                self.emit(f"    fstack.append({rv})")
                self.emit(f"    frame.pc = {bci + 1}")
                self.emit(f"    return ({st}, {wn!r}, 1)")
            if live:
                self.emit(f"del fstack[-{len(live)}:]")
            self.seg_w += wn
            self.seg_n += 1
            self.known.clear()  # the native may have patched locs
            sym.append(rv)
            return
        guard = [f"(type({x}) is int or type({x}) is float)"
                 for x in args if not self.is_num(x)]
        guard.append("m.natives.pure_intact")
        self.emit(f"if not ({' and '.join(guard)}):")
        self.write_back(4)
        self.spill(live, 4)
        self.gen_registry_call(bci, ins, args, rv, 4)
        self.emit(f"    fstack.append({rv})")
        self.emit(f"    frame.pc = {bci + 1}")
        for st, test in _NATIVE_EXITS:
            self.emit(f"    if {test}:")
            self.emit(f"        return ({st}, {wn!r}, 1)")
        self.emit(f"    w_acc += {wn!r}")
        self.emit("    n_acc += 1")
        self.emit(f"    b = {self.block_id[bci + 1]}")
        self.emit("    continue")
        self.emit("m._clock += NB * m._speed")  # legacy charges first
        self.emit(f"{rv} = {self.bind(pure[0])}({', '.join(args)})")
        self.seg_w += wn
        self.seg_n += 1
        self.nums.add(rv)
        sym.append(rv)

    def gen_registry_call(self, bci: int, ins: Any, args: List[str],
                          rv: str, extra: int = 0) -> None:
        """Flush, charge ``NB`` and call the registry's function at a
        precise frame state (``mk``: the masks a deopt is told by)."""
        nm = _literal(ins.a) or self.bind(ins.a)
        call = f"m.natives.lookup({nm})(m, [{', '.join(args)}])"
        for line in ("m._ticks += w_acc", "m.instr_count += n_acc",
                     "w_acc = 0.0", "n_acc = 0", "m.charge(NB)",
                     f"frame.pc = {bci}", "mk = m._masks", f"{rv} = {call}"):
            self.emit(line, extra)

    # -- assembly ---------------------------------------------------------

    def assemble(self) -> _Template:
        entries = {b: self.block_id[b] for b in self.block_order}
        shared = {**_RUNTIME, "EN": entries, "FT": tuple(self.faults),
                  **self.consts}
        # Everything enters through the factory's closure cells, not
        # keyword defaults: kwdefault filling costs one dict lookup per
        # missing argument on EVERY call, which dominates small
        # call-heavy methods; LOAD_DEREF is paid only where used.
        # ``NB`` is the machine's native base cost; ``JM`` the compiled
        # map being compiled into (this namespace's): direct
        # compiled->compiled calls resolve the callee through it.
        params = ", ".join(["NB", "JM", *shared,
                            *(slot[0] for slot in self.slots)])
        src_lines = [
            f"def _mk({params}):",
            "  def _cf(m, thread, frame, frames, ql, w_acc, n_acc, rd=0):",
            "    locs = frame.locals",
            "    fstack = frame.stack",
            "    f = 0",
            # an in-line call (rd > 0) enters its callee at bci 0
            f"    b = {self.block_id[0]} if rd else EN[frame.pc]",
            "    try:",
            "        while True:",
        ]
        src_lines.extend(self.lines)
        src_lines.extend([
            "    except GT as gt:",
            "        ft = FT[f]",
            "        m._ticks += w_acc + ft[1]",
            "        m.instr_count += n_acc + ft[2]",
            "        frame.pc = ft[0]",
            "        return (3, 0.0, 0, gt.exc, ft[3])",
            "    except BaseException:",
            "        m._ticks += w_acc",
            "        m.instr_count += n_acc",
            "        frame.pc = FT[f][0]",
            "        raise",
            "  return _cf",
        ])
        src = "\n".join(src_lines) + "\n"
        return _Template(_factory(f"<jit {self.code.qualname}>", src),
                         entries, tuple(shared.values()),
                         tuple(slot[1:] for slot in self.slots),
                         dict(self.weights))


@functools.lru_cache(maxsize=128)
def _factory(filename: str, src: str) -> Any:
    """The text level under the templates: one CPython ``compile()``
    (~4 ms) per distinct generated source, process-wide.  A template
    saves *generation* whenever the same ``CodeObject`` compiles again
    (every fresh ``req{rid}`` namespace: the ``serve_*`` workloads);
    this level saves ``compile()`` when equal text comes from
    *different* code objects, which no template can see — ``vm_solo``
    rebuilds its programs for every repetition so cold means cold, and
    two machines may hold separately built class files.  The key is
    the complete source text (cost weights are literals in it): a hit
    is a verified match, so nothing ever needs invalidating; the bound
    keeps the fuzzers' thousands of one-off methods from growing it."""
    ns: Dict[str, Any] = {}
    exec(compile(src, filename, "exec"), ns)
    mk = ns["_mk"]
    mk.__jit_source__ = src
    return mk


def _resolve_sites(m: Any, code: CodeObject,
                   sites: Tuple[Tuple[int, Any], ...]) -> Dict[int, Any]:
    """Link, step 1: every site's value (by bci) in the machine's
    *current* namespace, found tier 1's way — the warmed inline-cache
    seed, else resolution against an already linked class (never a
    load: ``load_listener`` charges virtual time), else ``None``: the
    site stays lazy and resolves on first execution, like tier 1."""
    stream = m._decoded.get(code)
    seeds = cache_seeds(stream, code) if stream else {}
    loader = m.loader
    vals: Dict[int, Any] = {}
    for bci, ins in sites:
        o, seed, v = ins.op, seeds.get(bci), None
        if o == op.INVOKEVIRT:
            # the live tier-1 cell when warmed (both tiers keep it
            # hot), else a fresh guard cell: bound either way
            v = seed if seed is not None else [None, None]
        elif o == op.NEW:
            if loader.is_loaded(ins.a):
                v = loader.load(ins.a)
        elif seed is not None:
            v = seed[0]
        elif loader.is_loaded(ins.a[0]):
            try:
                v = _machine._resolve_static(m, ins.a, ins.b or 0) \
                    if o == op.INVOKESTATIC \
                    else _machine._static_cell(m, ins.a)
            except Exception:
                pass  # unresolvable: raise at runtime exactly like tier 1
        vals[bci] = v
    return vals


def compile_code(machine: Any, code: CodeObject, jm: Dict[CodeObject, Any]
                 ) -> Optional[Tuple[Any, Dict[int, int]]]:
    """The one compile path: resolve ``code``'s link sites against
    ``machine``'s current loader and decoded map (the running thread's
    namespace during ``run``), look the template of their shape up on
    the code object — a hit is verified against the weight table, and
    trusts ``instrs`` as far as ``predecoded()`` does — generate it on
    a miss, and link a closure for the compiled map ``jm``.  Returns
    ``(closure, entries)`` — ``entries`` maps every resumable bci to
    its dispatch block id — or ``None`` when the method is refused
    (refusals are not memoised here: ``jm`` remembers them)."""
    n = len(code.instrs)
    memo = code._tier2
    if memo is None or memo[0] != n:
        memo = code._tier2 = (n, tuple(
            (i, ins) for i, ins in enumerate(code.instrs)
            if ins.op in _SITE_OPS), {})
    templates = memo[2]
    vals = _resolve_sites(machine, code, memo[1])
    shape = frozenset(bci for bci, v in vals.items() if v is not None)
    weights = machine.cost.op_weights
    tpl = templates.get(shape)
    if tpl is None or tpl.weights != weights:
        try:
            tpl = templates[shape] = _Compiler(code, weights, shape).compile()
        except _Refuse:
            return None
    fn = tpl.mk(machine.cost.native_base, jm, *tpl.shared,
                *[[None] * i if bci is None else vals[bci] if i is None
                  else vals[bci][i] for bci, i in tpl.slots])
    fn.__jit_source__ = tpl.mk.__jit_source__  # debugging aid (shared)
    return fn, tpl.entries


def compile_into(machine: Any, code: CodeObject,
                 jm: Dict[CodeObject, Any]) -> Any:
    """Tier-up entry used by the fast loop's driver: compile ``code``
    into the compiled-code map ``jm``.  Failures are cached as
    ``False`` so the driver never retries a refused method; anything
    but a refusal is a code-generator bug — the method stays on tier 1,
    but ``machine.jit_compile_errors`` says so (0 in every suite)."""
    if machine._traps is not None and machine._trap(code):
        return False  # masked for this run only (the undo log forgets it)
    try:
        cf = compile_code(machine, code, jm)
    except Exception:
        machine.jit_compile_errors += 1
        cf = None
    if cf is None:
        jm[code] = False
        return False
    jm[code] = cf
    machine.jit_compiles += 1
    return cf
