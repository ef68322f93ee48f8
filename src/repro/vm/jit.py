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
now holds (the temp traffic costs nothing); a name a compare, ``NOT``
or ``ISREMOTE`` produced is a host ``bool`` and branches raw; and a
block does not end at a leader nobody branches to — a ``JZ`` leaves
only in its taken arm, calls, returns and back-edges are generated in
line (each still an entry of its own for a frame that *resumes*
there), and a compiled->compiled call that returns continues in line.
Blocks end at branch targets (every source-line start and fault-retry
point of a migratable build is one: restoration ``LSWITCH``es to them)
and around every ``NATIVE``.

Deferred writes reach ``frame.locals`` exactly where it can be
observed (:meth:`_Compiler.write_back`): before an op arms its fault
record (a guest handler of this frame — the injected object-fault
handlers — reads the slots), in the yielding arm of every quantum
poll, before a call pushes a frame and before a native runs (names
read from ``locs`` are forgotten after either: ``ObjMan.resolve``
patches slots), and at every block exit — not at ``RET``/``RETV``,
whose frame is gone.  So a capture, a guest handler or a deopt never
needs a write-back pass of its own.

Execution protocol
------------------

A compiled closure executes exactly ONE frame and returns control to
the fast loop's outer driver at every boundary that other subsystems
can observe; frames stay plain data, so SOD capture/restore, VMTI and
migration are oblivious to the tier:

``fn(m, thread, frame, frames, ql, w_acc, n_acc, opc)`` returns a
status tuple ``(st, w_acc, n_acc, aux, aux2)``:

=====  ==========================================================
``st``
=====  ==========================================================
0      guest call: callee frame pushed, caller suspended at the
       return bci with its live operand stack spilled
1      return: frame popped, value delivered to the caller's
       operand stack (or ``thread.result``)
2      scheduler preemption: ``frame.pc`` at a safepoint bci, the
       full operand stack spilled (``"preempted"``)
3      guest throw: accounting flushed, ``frame.pc`` at the
       faulting bci; ``aux`` is the exception, ``aux2`` the
       faulting instruction's weight (charged only if a handler
       is found — same rule as both interpreter tiers)
4      a native set ``thread.pending_exception``; resume state
       materialized at the bci after the native
5      deopt: a native installed a breakpoint mid-run; state
       materialized, the driver retreats to the hooked loop
=====  ==========================================================

Safepoints and accounting
-------------------------

``frame.pc`` and ``frame.stack`` are materialized *only* at the
preemption safepoints (:func:`repro.bytecode.opcodes.is_safepoint` —
calls, returns, natives, loop back-edges; :meth:`_Compiler.safepoint`
refuses to emit a quantum check anywhere else, so compiled code is
preempted exactly where both interpreter loops are) and at guest-throw
sites.  Between safepoints the closure runs pure Python with block-summed
``w_acc``/``n_acc`` accounting constants, so ``instr_count`` is
integer-exact against tier 1 while the clock agrees to float
re-association (every clock comparison in the tree uses
``math.isclose``; the cost weights are non-dyadic, so any summation
order differs in ulps).

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
``GETS``/``PUTS``/``INVOKESTATIC``/``NEW`` sites are bound and which
stay lazy.  It never sees a machine or a loader, and its result, a
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
from typing import Any, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.bytecode import opcodes as op
from repro.bytecode.code import CodeObject
from repro.bytecode.verifier import stack_depths
from repro.preprocess.fuse import cache_seeds
from repro.vm import machine as _machine
from repro.vm.frames import Frame
from repro.vm.objects import VMArray, VMInstance
from repro.vm.values import RemoteRef, truthy

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


class _Refuse(Exception):
    """Internal: this method is not tier-2 compilable."""


# -- runtime helpers bound into every closure ------------------------------------
#
# Failure and first-resolution branches are tier 1's own
# (``machine._arr_fail`` and friends), so the differential suite cannot
# tell the tiers apart; the one tier-2 addition is the guard-miss
# counter.

def _resolve_virtual(m: Any, receiver: Any, name: str, nargs: int,
                     cell: List[Any]) -> Tuple[CodeObject, List[Any]]:
    """Virtual-call guard miss: count the bail, rebind the cell."""
    m.jit_guard_bails += 1
    return _machine._bind_virtual(m, receiver, name, nargs, cell)


#: what every closure of every template binds, built once: stateless
#: functions, classes and a sentinel (``_mk`` parameter name -> value)
_RUNTIME: Dict[str, Any] = {
    "T": truthy, "A": _machine._add, "D": _machine._div,
    "MO": _machine._mod, "MS": _machine._MISSING, "Inst": VMInstance,
    "Arr": VMArray, "RR": RemoteRef, "F": Frame,
    "GT": _machine.GuestThrow, "AF": _machine._arr_fail,
    "IO": _machine._iobe, "FF": _machine._field_fail,
    "TH": _machine._throw_carrier, "NA": _machine._newarr,
    "RS": _machine._resolve_static, "RV": _resolve_virtual,
    "RSF": _machine._static_cell, "PS": _machine._put_static,
}

#: the link sites: ops whose tier-2 code binds namespace state
_SITE_OPS = frozenset({op.GETS, op.PUTS, op.INVOKESTATIC, op.INVOKEVIRT,
                       op.NEW})


class _Template(NamedTuple):
    """Generated tier-2 code for one ``(CodeObject, weights, link
    shape)``: process-wide and immutable — no machine, loader, class,
    statics dict or cell.  Everything namespace-specific enters a
    closure through ``slots`` when :func:`compile_code` links it."""

    #: the factory: ``mk(NB, JM, *shared, *slot values)`` -> closure
    mk: Any
    #: resumable bci -> dispatch block id (``EN``, also in ``shared``)
    entries: Dict[int, int]
    #: ``_RUNTIME``, ``EN``, ``FT``, the literal-less constants and
    #: ``LSWITCH`` tables, in ``mk``'s parameter order
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
        self.wt = weights.get
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

    def named(self, atom: str) -> str:
        """``atom`` as something an attribute can hang off: a literal
        is given a name first (``5.data`` is not an expression)."""
        if atom.isidentifier():
            return atom
        name = self.fresh()
        self.emit(f"{name} = {atom}")
        return name

    def account(self, opname: str) -> None:
        self.seg_w += self.wt(opname, 1.0)
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
        w = self.wt(opname, 1.0)
        idx = len(self.faults)
        if charged:
            self.faults.append((bci, self.seg_w - w, self.seg_n - 1, w))
        else:
            self.faults.append((bci, self.seg_w, self.seg_n, w))
        self.write_back(extra)
        self.emit(f"f = {idx}", extra)

    def spill(self, atoms: List[str], extra: int = 0) -> None:
        if not atoms:
            return
        if len(atoms) == 1:
            self.emit(f"fstack.append({atoms[0]})", extra)
        else:
            self.emit("fstack.extend((" + ", ".join(atoms) + "))", extra)

    def safepoint(self, bci: int, frame_lives: bool = True) -> float:
        """Open the safepoint instruction at ``bci``: it is charged on
        the way out, not in the segment (returns its weight), and a
        spent quantum yields *before* it, ``frame.pc`` at ``bci`` and
        the whole operand stack spilled.  Locals are written back for
        good first — a callee's natives may patch this frame, a call's
        resolution may throw into a handler of it — unless the frame
        dies here (a return): then only the yielding arm needs them."""
        ins = self.instrs[bci]
        assert op.is_safepoint(ins.op, ins.a, bci), (bci, ins.op)
        w = self.wt(ins.op, 1.0)
        self.seg_w -= w
        self.seg_n -= 1
        self.flush_acc()
        if frame_lives:
            self.write_back()
        self.emit("if ql and m.instr_count + n_acc >= ql:")
        self.write_back(4)
        self.spill(self.sym, 4)
        self.emit(f"    frame.pc = {bci}")
        self.emit("    return (2, w_acc, n_acc)")
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
        n = len(code.instrs)
        if n == 0 or n > _MAX_INSTRS:
            raise _Refuse("size")
        self.depths = stack_depths(code)
        #: bcis with a branch predecessor (or a handler's throw): the
        #: symbolic state of whoever falls into one cannot be carried
        #: over, so they are always reached through the dispatch loop
        targets: Set[int] = {e.handler for e in code.exc_table}
        #: bcis a frame can resume at without having branched there
        resumes: Set[int] = {0}
        self.backward: Set[int] = set()
        for i, ins in enumerate(code.instrs):
            o = ins.op
            if o in (op.JMP, op.JZ, op.JNZ):
                targets.add(ins.a)
                if ins.a <= i:
                    self.backward.add(i)
            elif o == op.LSWITCH:
                targets.update(ins.a.values())
                targets.add(ins.b)
            elif op.is_call(o):
                resumes.add(i + 1)  # return / after-native re-entry
            if op.is_safepoint(o, ins.a, i):
                resumes.add(i)  # preemption re-entry
        self.leaders = {b for b in targets | resumes
                        if b < n and b in self.depths}
        #: the leaders a block that falls into them must stop at (the
        #: others it goes on generating through, names and pending
        #: writes carried over — they are entries of their own only
        #: for a frame that resumes there): branch targets, and both
        #: edges of every ``NATIVE`` — each is an entry that would
        #: generate the whole suffix again, and restoration handlers
        #: are chains of ``CapturedState.read`` natives, quadratic in
        #: their length
        self.cuts = {b for b in self.leaders if b in targets
                     or op.NATIVE in (code.instrs[b].op,
                                      code.instrs[b - 1].op)}
        # Block order: loop bodies first (shorter dispatch scans on the
        # hot path), then everything else in bci order.
        hot: Set[int] = set()
        for i in self.backward:
            t = code.instrs[i].a
            for b in self.leaders:
                if t <= b <= i:
                    hot.add(b)
        ordered = sorted(b for b in self.leaders if b in hot) + \
            sorted(b for b in self.leaders if b not in hot)
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
        instruction that closes the block or is a cut (``analyze``)."""
        n = len(self.instrs)
        self.seg_w = 0.0
        self.seg_n = 0
        self._un = 0
        self.known = {}
        self.pending = {}
        self.bools = {"True", "False"}
        self.sym = [self.fresh() for _ in range(self.depths[start])]
        for name in reversed(self.sym):
            self.emit(f"{name} = fstack.pop()")
        bci = start
        while True:
            if bci >= n:
                raise _Refuse("fell off code end")
            if bci != start and bci in self.cuts:
                self.exit_to(bci)
                return
            if self.gen_op(bci, self.instrs[bci]):
                return
            bci += 1

    # one op -> source lines; True when it closed the block
    def gen_op(self, bci: int, ins: Any) -> bool:
        o = ins.op
        sym = self.sym
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
            sym.append(lit if lit is not None else self.bind(ins.a, "c"))
        elif o == op.STORE:
            # deferred: write_back tells locs where it can be observed
            self.pending.pop(ins.a, None)
            self.known[ins.a] = self.pending[ins.a] = sym.pop()
        elif o == op.POP:
            sym.pop()
        elif o == op.DUP:
            sym.append(sym[-1])
        elif o == op.SWAP:
            sym[-1], sym[-2] = sym[-2], sym[-1]
        elif o == op.NOP:
            pass

        elif o == op.ADD:
            b = sym.pop()
            a = sym.pop()
            tests = [f"type({x}) is int" for x in (a, b)
                     if x not in self.ints]
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
        elif o == op.NOT:
            a = sym.pop()
            self.push(f"not {a}" if a in self.bools else f"not T({a})",
                      True)
        elif o == op.ISREMOTE:
            self.push(f"isinstance({sym.pop()}, RR)", True)

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
            else:
                c = self.gen_lazy_static(bci, o, ins.a)
                self.push(f"{c}[0][{c}[1]]")
        elif o == op.PUTS:
            v = sym.pop()
            c = self.slot("sc", bci) if bci in self.shape \
                else self.gen_lazy_static(bci, o, ins.a)
            self.emit(f"PS(m, {c}, {v})")
        elif o == op.NEW:
            self.marker(bci, o)
            k = self.slot("cls", bci) if bci in self.shape else \
                f"m.loader.load({_literal(ins.a) or self.bind(ins.a)})"
            self.push(f"m.heap.new_instance({k})")
        elif o == op.NEWARR:
            cnt = sym.pop()
            self.marker(bci, o)
            kn = _literal(ins.a) or self.bind(ins.a)
            self.push(f"NA(m, {cnt}, {kn}, {ins.b or 8})")
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
        elif o == op.LEN:
            arr = self.named(sym.pop())
            self.marker(bci, o)
            self.push(f"len({arr}.data) if isinstance({arr}, Arr) "
                      f"else AF(m, {arr}, 'arraylength')")

        elif o == op.JMP:
            if bci in self.backward:
                # back-edge safepoint: frame.pc reports the JMP itself
                # (not yet charged), exactly like the tier-1 fast loop
                self.safepoint(bci)
                self.account(op.JMP)
            self.exit_to(ins.a)
            return True
        elif o == op.JZ or o == op.JNZ:
            return self.gen_branch(bci, ins, sym.pop())
        elif o == op.LSWITCH:
            key = sym.pop()
            self.emit_acc()
            self.write_back()
            self.spill(sym)
            table = {k: self.block_id[t] for k, t in ins.a.items()}
            tb = self.bind(table, "tb")
            self.emit(f"b = {tb}.get({key}, {self.block_id[ins.b]})")
            self.emit("continue")
            return True

        elif o == op.RET or o == op.RETV:
            # the frame is popped: nobody reads its locals, so pending
            # writes die here — except in the arm that yields instead
            w_ret = self.safepoint(bci, frame_lives=False)
            val = sym.pop() if o == op.RETV else "None"
            self.emit("frames.pop()")
            self.emit("if frames:")
            self.emit(f"    frames[-1].stack.append({val})")
            self.emit("else:")
            self.emit("    thread.finished = True")
            self.emit(f"    thread.result = {val}")
            self.emit(f"return (1, w_acc + {w_ret!r}, n_acc + 1)")
            return True
        elif o == op.THROW:
            v = sym.pop()
            self.seg_w -= self.wt(o, 1.0)
            self.seg_n -= 1
            self.marker(bci, o, charged=False)
            self.emit(f"raise TH(m, {v})")
            return True

        elif o == op.INVOKESTATIC:
            self.gen_invokestatic(bci, ins)
        elif o == op.INVOKEVIRT:
            self.gen_invokevirt(bci, ins)
        elif o == op.NATIVE:
            self.gen_native(bci, ins)
        else:  # pragma: no cover - ISA is closed
            raise _Refuse(f"op {o}")
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
        list (``AF`` raises for anything but an array)."""
        arr = self.named(arr)
        self.marker(bci, o)
        u = self.fresh()
        self.emit(f"{u} = {arr}.data if isinstance({arr}, Arr) "
                  f"else AF(m, {arr}, {what!r})")
        return u

    def gen_branch(self, bci: int, ins: Any, cond: str) -> bool:
        """JZ/JNZ.  A fall-through nobody else branches to is not a
        block boundary: only the taken arm leaves, materializing in the
        arm, and generation goes on with everything carried over."""
        test = cond if cond in self.bools else f"T({cond})"
        fall = bci + 1
        if fall in self.cuts:
            on_true, on_false = (fall, ins.a) if ins.op == op.JZ \
                else (ins.a, fall)
            self.emit_acc()
            self.write_back()
            self.spill(self.sym)
            self.emit(f"b = {self.block_id[on_true]} if {test} "
                      f"else {self.block_id[on_false]}")
            self.emit("continue")
            return True
        self.emit(f"if not {test}:" if ins.op == op.JZ else f"if {test}:")
        self.exit_to(ins.a, 4)
        return False

    def gen_lazy_static(self, bci: int, opname: str,
                        key: Tuple[str, str]) -> str:
        """A static-field site the link left lazy (class not linked
        yet, or unresolvable): the name of a temp holding tier 1's
        ``_static_cell`` content (statics dict, field name, home
        class), filled on first execution through a fresh per-closure
        cell.  Bound sites get that tuple, or its dict, in a slot."""
        cell = self.slot("gc", None, 1)
        u = self.fresh()
        self.emit(f"{u} = {cell}[0]")
        self.emit(f"if {u} is None:")
        self.marker(bci, opname, extra=4)
        self.emit(f"    {u} = {cell}[0] = RSF(m, {tuple(key)!r})")
        return u

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
            self.faults.append((bci, 0.0, 0, w_call))
            self.emit(f"    f = {idx}")
            self.emit(f"    {u} = {cell}[0] = "
                      f"RS(m, {tuple(ins.a)!r}, {nargs})")
            code_expr, pad_expr = f"{u}[0]", f"{u}[1]"
        self.gen_push_frame(code_expr, pad_expr, args)
        self.gen_call_exit(w_call, live)

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
        self.faults.append((bci, 0.0, 0, w_call))
        self.emit(f"    f = {idx}")
        self.emit(f"    {u} = RV(m, {recv}, {mn}, {nargs}, {cell})")
        self.spill(live)
        self.emit(f"frame.pc = {bci + 1}")
        self.gen_push_frame(f"{u}[0]", f"{u}[1]", [recv] + args)
        self.gen_call_exit(w_call, live)

    def gen_call_exit(self, w_call: float, live: List[str]) -> None:
        """Close a call site: try a compiled->compiled direct call
        (host-level recursion, depth-capped so deep guest recursion
        still round-trips through the driver instead of blowing the
        host stack), else hand the pushed frame to the driver.

        Our state is fully materialized before the nested closure runs,
        so every non-return status simply forwards: the driver sees
        exactly what it would have seen had it made the call itself.
        A status-1 result from the direct callee means our own frame is
        the top again: take the value it delivered and the spilled
        operands back off ``fstack`` and go on generating at the return
        bci — what the callee's natives may have patched in ``locs``
        is re-read."""
        u = self.fresh()
        self.emit(f"{u} = JM.get(nf.code) if rd < {_MAX_INLINE_DEPTH} "
                  f"else None")
        self.emit(f"if {u}.__class__ is not tuple:")
        self.emit(f"    return (0, w_acc + {w_call!r}, n_acc + 1)")
        self.emit(f"res = {u}[0](m, thread, nf, frames, ql, "
                  f"w_acc + {w_call!r}, n_acc + 1, opc, rd + 1)")
        self.emit("if res[0] != 1 or frames[-1] is not frame:")
        self.emit("    return res")
        self.emit("w_acc = res[1]")
        self.emit("n_acc = res[2]")
        rv = self.fresh()
        self.emit(f"{rv} = fstack.pop()")
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
        nargs = ins.b or 0
        sym = self.sym
        wn = self.safepoint(bci)
        args = [sym.pop() for _ in range(nargs)][::-1]
        live = list(sym)
        # Safepoint: natives may read the clock, print, charge time or
        # install hooks — flush hard and expose a precise frame state.
        self.spill(live)
        self.emit("m.clock += opc * w_acc")
        self.emit("m.instr_count += n_acc")
        self.emit("w_acc = 0.0")
        self.emit("n_acc = 0")
        self.emit(f"frame.pc = {bci}")
        self.marker(bci, op.NATIVE, charged=False)
        nm = _literal(ins.a) or self.bind(ins.a)
        rv = self.fresh()
        self.emit("m.charge(NB)")
        self.emit(f"{rv} = m.natives.lookup({nm})(m, [{', '.join(args)}])")
        self.emit("if m.breakpoints or m.on_breakpoint is not None:")
        self.emit(f"    fstack.append({rv})")
        self.emit(f"    frame.pc = {bci + 1}")
        self.emit(f"    return (5, {wn!r}, 1)")
        self.emit("if thread.pending_exception is not None:")
        self.emit(f"    fstack.append({rv})")
        self.emit(f"    frame.pc = {bci + 1}")
        self.emit(f"    return (4, {wn!r}, 1)")
        if live:
            self.emit(f"del fstack[-{len(live)}:]")
        self.seg_w += wn
        self.seg_n += 1
        self.known.clear()  # the native may have patched locs
        sym.append(rv)

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
            "  def _cf(m, thread, frame, frames, ql, w_acc, n_acc, opc,",
            "          rd=0):",
            "    locs = frame.locals",
            "    fstack = frame.stack",
            "    f = 0",
            "    b = EN[frame.pc]",
            "    try:",
            "        while True:",
        ]
        src_lines.extend(self.lines)
        src_lines.extend([
            "    except GT as gt:",
            "        ft = FT[f]",
            "        m.clock += opc * (w_acc + ft[1])",
            "        m.instr_count += n_acc + ft[2]",
            "        frame.pc = ft[0]",
            "        return (3, 0.0, 0, gt.exc, ft[3])",
            "    except BaseException:",
            "        m.clock += opc * w_acc",
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
