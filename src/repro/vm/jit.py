"""Tier-2 specializing JIT: hot code objects become Python closures.

The interpreter already pre-decodes, fuses and inline-caches (tier 1,
:meth:`repro.vm.machine.Machine._run_fast`); this module adds the next
tier above it.  :func:`compile_code` turns one :class:`CodeObject` into
a *specialized Python closure*: the method's control-flow graph is
compiled to a ``while``-loop over basic blocks, the operand stack is
compiled away into Python local temporaries (``s0``, ``s1``, ...),
guest locals stay in ``frame.locals`` (so deoptimization never needs a
write-back pass), and every monomorphic fact the tier-1 inline caches
have proven — static-call targets, static-field home dicts, virtual
receiver classes — is baked in as a bound constant or a one-compare
guard.

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
calls, returns, natives, loop back-edges; :meth:`_Compiler.poll`
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
record best-effort — they abort the run, so the guest can never observe
the approximation.

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

#: value-producing ops whose result assignment is the last action that
#: can raise — safe to fuse with a following STORE (write straight to
#: the local slot, skipping the temp)
_STORE_FUSABLE = frozenset({
    op.ADD, op.SUB, op.MUL, op.DIV, op.MOD, op.EQ, op.NE, op.LT, op.LE,
    op.GT, op.GE, op.NEG, op.NOT, op.ISREMOTE, op.LEN, op.ALOAD,
    op.GETF, op.GETS, op.NEW, op.NEWARR,
})

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
        self.sym: List[Tuple[str, Optional[int]]] = []
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
        self._un += 1
        return f"u{self._un}"

    def target_name(self, pos: int) -> str:
        """Assignment target for a push at stack position ``pos`` —
        positional naming reuses temps, but SWAP/DUP can keep an alias
        of ``s<pos>`` live elsewhere on the symbolic stack."""
        name = f"s{pos}"
        if any(e[0] == name for e in self.sym):
            return self.fresh()
        return name

    def account(self, opname: str) -> None:
        self.seg_w += self.wt(opname, 1.0)
        self.seg_n += 1

    def flush_acc(self, extra: int = 0) -> None:
        """Emit the pending block-summed accounting adds."""
        if self.seg_n:
            self.emit(f"w_acc += {self.seg_w!r}", extra)
            self.emit(f"n_acc += {self.seg_n}", extra)
            self.seg_w = 0.0
            self.seg_n = 0

    def marker(self, bci: int, opname: str, charged: bool = True) -> None:
        """Arm the fault record for a potentially-throwing op at
        ``bci``.  The record's pre-fault sums must EXCLUDE the faulting
        op itself (it is charged only if a handler is found, the tier-1
        rule): ``charged`` says whether :meth:`gen_op`'s up-front
        ``account`` of this op is still in the segment and must be
        backed out of the record."""
        w = self.wt(opname, 1.0)
        idx = len(self.faults)
        if charged:
            self.faults.append((bci, self.seg_w - w, self.seg_n - 1, w))
        else:
            self.faults.append((bci, self.seg_w, self.seg_n, w))
        self.emit(f"f = {idx}")

    def spill(self, atoms: List[Tuple[str, Optional[int]]],
              extra: int = 0) -> None:
        if not atoms:
            return
        if len(atoms) == 1:
            self.emit(f"fstack.append({atoms[0][0]})", extra)
        else:
            self.emit(
                "fstack.extend((" + ", ".join(e[0] for e in atoms) + "))",
                extra)

    def poll(self, bci: int, extra: int = 0,
             spill_sym: bool = False) -> None:
        """Quantum safepoint: yield with ``frame.pc`` at ``bci``."""
        ins = self.instrs[bci]
        assert op.is_safepoint(ins.op, ins.a, bci), (bci, ins.op)
        self.emit(f"if ql and m.instr_count + n_acc >= ql:", extra)
        if spill_sym:
            self.spill(self.sym, extra + 4)
        self.emit(f"    frame.pc = {bci}", extra)
        self.emit(f"    return (2, w_acc, n_acc)", extra)

    def materialize_slot(self, slot: int) -> None:
        """Before ``locs[slot]`` is written, copy any symbolic-stack
        aliases of it into temps."""
        for p, (expr, s) in enumerate(self.sym):
            if s == slot:
                name = self.target_name(p)
                self.emit(f"{name} = {expr}")
                self.sym[p] = (name, None)

    def push_temp(self, expr: str) -> None:
        name = self.target_name(len(self.sym))
        self.emit(f"{name} = {expr}")
        self.sym.append((name, None))

    def store_fused_slot(self, bci: int) -> Optional[int]:
        """If the next instruction is a STORE in the same block, return
        its slot (the caller writes its result straight to the local)."""
        nxt = bci + 1
        if nxt < len(self.instrs) and nxt not in self.leaders \
                and self.instrs[nxt].op == op.STORE:
            return self.instrs[nxt].a
        return None

    def push_value(self, bci: int, expr: str) -> int:
        """Deliver a fusable op's result: either straight into a local
        (STORE fusion) or onto the symbolic stack.  Returns the number
        of extra instructions consumed (0 or 1)."""
        slot = self.store_fused_slot(bci)
        if slot is not None:
            self.materialize_slot(slot)
            self.emit(f"locs[{slot}] = {expr}")
            self.account(op.STORE)
            return 1
        self.push_temp(expr)
        return 0

    # -- analysis ---------------------------------------------------------

    def analyze(self) -> None:
        code = self.code
        n = len(code.instrs)
        if n == 0 or n > _MAX_INSTRS:
            raise _Refuse("size")
        self.depths = stack_depths(code)
        leaders: Set[int] = {0}
        self.backward: Set[int] = set()
        for i, ins in enumerate(code.instrs):
            o = ins.op
            if o in (op.JMP, op.JZ, op.JNZ):
                leaders.add(ins.a)
                if o != op.JMP:
                    leaders.add(i + 1)
                if ins.a <= i:
                    self.backward.add(i)
            elif o == op.LSWITCH:
                for t in ins.a.values():
                    leaders.add(t)
                leaders.add(ins.b)
                if i + 1 < n:
                    leaders.add(i + 1)
            elif op.is_call(o):
                leaders.add(i + 1)  # return / after-native re-entry
            if op.is_safepoint(o, ins.a, i):
                # preemption re-entry; a back-edge JMP is its own
                # block so the poll reports frame.pc at the JMP itself
                leaders.add(i)
        for e in code.exc_table:
            leaders.add(e.handler)
        self.leaders = {b for b in leaders
                        if b < n and b in self.depths}
        # Block order: loop bodies first (shorter dispatch scans on the
        # hot path), then everything else in bci order.
        hot: Set[int] = set()
        for i in self.backward:
            t = code.instrs[i].a if code.instrs[i].op == op.JMP \
                else code.instrs[i].a
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
        code = self.code
        n = len(self.instrs)
        self.seg_w = 0.0
        self.seg_n = 0
        d = self.depths[start]
        self.sym = [(f"s{i}", None) for i in range(d)]
        for i in range(d - 1, -1, -1):
            self.emit(f"s{i} = fstack.pop()")
        bci = start
        while True:
            if bci >= n:
                raise _Refuse("fell off code end")
            if bci != start and bci in self.leaders:
                self.flush_acc()
                self.spill(self.sym)
                self.emit(f"b = {self.block_id[bci]}")
                self.emit("continue")
                return
            closed, extra = self.gen_op(bci, self.instrs[bci])
            if closed:
                return
            bci += 1 + extra

    # one op -> source lines; returns (block_closed, extra_consumed)
    def gen_op(self, bci: int, ins: Any) -> Tuple[bool, int]:
        o = ins.op
        sym = self.sym
        self.account(o)

        if o == op.LOAD:
            sym.append((f"locs[{ins.a}]", ins.a))
        elif o == op.CONST:
            lit = _literal(ins.a)
            sym.append((lit if lit is not None
                        else self.bind(ins.a, "c"), None))
        elif o == op.STORE:
            v = sym.pop()
            self.materialize_slot(ins.a)
            self.emit(f"locs[{ins.a}] = {v[0]}")
        elif o == op.POP:
            sym.pop()
        elif o == op.DUP:
            sym.append(sym[-1])
        elif o == op.SWAP:
            sym[-1], sym[-2] = sym[-2], sym[-1]
        elif o == op.NOP:
            pass

        elif o == op.ADD:
            b = sym.pop()[0]
            a = sym.pop()[0]
            return (False, self.push_value(
                bci, f"({a} + {b}) if type({a}) is int "
                     f"and type({b}) is int else A(m, {a}, {b})"))
        elif o in _INLINE_BINOP:
            b = sym.pop()[0]
            a = sym.pop()[0]
            expr = f"{a} {_INLINE_BINOP[o]} {b}"
            if o in _CMP_OPS:
                nxt = bci + 1
                if nxt < len(self.instrs) and nxt not in self.leaders \
                        and self.instrs[nxt].op in (op.JZ, op.JNZ):
                    # compare+branch fusion: the raw bool drives the
                    # branch (same certification as tier-1's fused
                    # compare-jump superinstructions — no truthy call)
                    return (True, self.gen_branch(
                        nxt, self.instrs[nxt], expr, raw=True))
            return (False, self.push_value(bci, expr))
        elif o == op.DIV or o == op.MOD:
            b = sym.pop()[0]
            a = sym.pop()[0]
            self.marker(bci, o)
            fn = "D" if o == op.DIV else "MO"
            return (False, self.push_value(bci, f"{fn}(m, {a}, {b})"))
        elif o == op.NEG:
            a = sym.pop()[0]
            return (False, self.push_value(bci, f"-({a})"))
        elif o == op.NOT:
            a = sym.pop()[0]
            return (False, self.push_value(bci, f"not T({a})"))
        elif o == op.ISREMOTE:
            a = sym.pop()[0]
            return (False, self.push_value(bci, f"isinstance({a}, RR)"))

        elif o == op.GETF:
            obj = sym.pop()[0]
            self.marker(bci, o)
            slot = self.store_fused_slot(bci)
            fn = _literal(ins.a) or self.bind(ins.a)
            # Guard in a temp, never in the destination: the faulting
            # build's injected NPE handlers re-read the receiver from
            # its *local slot* (ObjMan.resolve + retry), so a fused
            # store must not clobber the slot before GFF raises.
            u = self.fresh()
            self.emit(f"{u} = {obj}.fields.get({fn}, MS) "
                      f"if isinstance({obj}, Inst) else MS")
            self.emit(f"if {u} is MS:")
            self.emit(f"    FF(m, {obj}, {fn}, 'getfield')")
            if slot is not None:
                self.materialize_slot(slot)
                self.emit(f"locs[{slot}] = {u}")
                self.account(op.STORE)
                return (False, 1)
            sym.append((u, None))
        elif o == op.PUTF:
            v = sym.pop()[0]
            obj = sym.pop()[0]
            self.marker(bci, o)
            fn = _literal(ins.a) or self.bind(ins.a)
            self.emit(f"if isinstance({obj}, Inst) "
                      f"and {fn} in {obj}.fields:")
            self.emit(f"    {obj}.fields[{fn}] = {v}")
            self.emit("else:")
            self.emit(f"    FF(m, {obj}, {fn}, 'putfield')")
        elif o == op.GETS:
            if bci in self.shape:  # the home class's statics dict
                expr = f"{self.slot('sd', bci, 0)}[{ins.a[1]!r}]"
            else:
                c = self.gen_lazy_static(bci, o, ins.a)
                expr = f"{c}[0][{c}[1]]"
            return (False, self.push_value(bci, expr))
        elif o == op.PUTS:
            v = sym.pop()[0]
            c = self.slot("sc", bci) if bci in self.shape \
                else self.gen_lazy_static(bci, o, ins.a)
            self.emit(f"PS(m, {c}, {v})")
        elif o == op.NEW:
            self.marker(bci, o)
            k = self.slot("cls", bci) if bci in self.shape else \
                f"m.loader.load({_literal(ins.a) or self.bind(ins.a)})"
            return (False, self.push_value(
                bci, f"m.heap.new_instance({k})"))
        elif o == op.NEWARR:
            cnt = sym.pop()[0]
            self.marker(bci, o)
            kn = _literal(ins.a) or self.bind(ins.a)
            return (False, self.push_value(
                bci, f"NA(m, {cnt}, {kn}, {ins.b or 8})"))
        elif o == op.ALOAD:
            idx = sym.pop()[0]
            arr = sym.pop()[0]
            self.marker(bci, o)
            u = self.fresh()
            self.emit(f"{u} = {arr}.data if isinstance({arr}, Arr) "
                      f"else AF(m, {arr}, 'arrayload')")
            slot = self.store_fused_slot(bci)
            tgt = f"locs[{slot}]" if slot is not None \
                else self.target_name(len(sym))
            if slot is not None:
                self.materialize_slot(slot)
            self.emit(f"if 0 <= {idx} < len({u}):")
            self.emit(f"    {tgt} = {u}[{idx}]")
            self.emit("else:")
            self.emit(f"    raise IO(m, {idx}, len({u}))")
            if slot is not None:
                self.account(op.STORE)
                return (False, 1)
            sym.append((tgt, None))
        elif o == op.ASTORE:
            v = sym.pop()[0]
            idx = sym.pop()[0]
            arr = sym.pop()[0]
            self.marker(bci, o)
            u = self.fresh()
            self.emit(f"{u} = {arr}.data if isinstance({arr}, Arr) "
                      f"else AF(m, {arr}, 'arraystore')")
            self.emit(f"if not (0 <= {idx} < len({u})):")
            self.emit(f"    raise IO(m, {idx}, len({u}))")
            self.emit(f"{u}[{idx}] = {v}")
        elif o == op.LEN:
            arr = sym.pop()[0]
            self.marker(bci, o)
            return (False, self.push_value(
                bci, f"len({arr}.data) if isinstance({arr}, Arr) "
                     f"else AF(m, {arr}, 'arraylength')"))

        elif o == op.JMP:
            if bci in self.backward:
                # back-edge safepoint: frame.pc reports the JMP itself
                # (not yet charged), exactly like the tier-1 fast loop
                self.seg_w -= self.wt(op.JMP, 1.0)
                self.seg_n -= 1
                self.flush_acc()
                self.poll(bci, spill_sym=True)
                self.emit(f"w_acc += {self.wt(op.JMP, 1.0)!r}")
                self.emit("n_acc += 1")
            else:
                self.flush_acc()
            self.spill(self.sym)
            self.emit(f"b = {self.block_id[ins.a]}")
            self.emit("continue")
            return (True, 0)
        elif o == op.JZ or o == op.JNZ:
            cond = sym.pop()[0]
            self.gen_branch(bci, ins, cond, raw=False)
            return (True, 0)
        elif o == op.LSWITCH:
            key = sym.pop()[0]
            self.flush_acc()
            self.spill(self.sym)
            table = {k: self.block_id[t] for k, t in ins.a.items()}
            tb = self.bind(table, "tb")
            self.emit(f"b = {tb}.get({key}, {self.block_id[ins.b]})")
            self.emit("continue")
            return (True, 0)

        elif o == op.RET or o == op.RETV:
            self.seg_w -= self.wt(o, 1.0)
            self.seg_n -= 1
            self.flush_acc()
            self.poll(bci, spill_sym=True)
            val = sym.pop()[0] if o == op.RETV else "None"
            self.emit("frames.pop()")
            self.emit("if frames:")
            self.emit(f"    frames[-1].stack.append({val})")
            self.emit("else:")
            self.emit("    thread.finished = True")
            self.emit(f"    thread.result = {val}")
            self.emit(f"return (1, w_acc + {self.wt(o, 1.0)!r}, "
                      f"n_acc + 1)")
            return (True, 0)
        elif o == op.THROW:
            v = sym.pop()[0]
            self.seg_w -= self.wt(o, 1.0)
            self.seg_n -= 1
            self.marker(bci, o, charged=False)
            self.emit(f"raise TH(m, {v})")
            return (True, 0)

        elif o == op.INVOKESTATIC:
            return (True, self.gen_invokestatic(bci, ins))
        elif o == op.INVOKEVIRT:
            return (True, self.gen_invokevirt(bci, ins))
        elif o == op.NATIVE:
            return (False, self.gen_native(bci, ins))
        else:  # pragma: no cover - ISA is closed
            raise _Refuse(f"op {o}")
        return (False, 0)

    def gen_branch(self, bci: int, ins: Any, cond: str,
                   raw: bool) -> int:
        """JZ/JNZ (optionally fused with a preceding compare: ``raw``
        conditions skip the truthy coercion, like tier-1 fusion)."""
        if raw:
            self.account(ins.op)
        self.flush_acc()
        self.spill(self.sym)
        taken = self.block_id[ins.a]
        fall = self.block_id[bci + 1]
        test = cond if raw else f"T({cond})"
        if ins.op == op.JZ:
            self.emit(f"if {test}:")
            self.emit(f"    b = {fall}")
            self.emit("else:")
            self.emit(f"    b = {taken}")
        else:
            self.emit(f"if {test}:")
            self.emit(f"    b = {taken}")
            self.emit("else:")
            self.emit(f"    b = {fall}")
        self.emit("continue")
        return 1 if raw else 0

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
        self.marker(bci, opname)
        # marker emits at base indent; re-emit inside the if
        self.lines[-1] = self.lines[-1].replace("f =", "    f =", 1)
        self.emit(f"    {u} = {cell}[0] = RSF(m, {tuple(key)!r})")
        return u

    def gen_invokestatic(self, bci: int, ins: Any) -> int:
        nargs = ins.b or 0
        sym = self.sym
        # the call itself is charged on the return tuple, not the segment
        self.seg_w -= self.wt(op.INVOKESTATIC, 1.0)
        self.seg_n -= 1
        self.flush_acc()
        self.poll(bci, spill_sym=True)
        args = [sym.pop()[0] for _ in range(nargs)][::-1]
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
            self.faults.append((bci, 0.0, 0,
                                self.wt(op.INVOKESTATIC, 1.0)))
            self.emit(f"    f = {idx}")
            self.emit(f"    {u} = {cell}[0] = "
                      f"RS(m, {tuple(ins.a)!r}, {nargs})")
            code_expr, pad_expr = f"{u}[0]", f"{u}[1]"
        self.gen_push_frame(code_expr, pad_expr, args)
        self.gen_call_exit(bci, self.wt(op.INVOKESTATIC, 1.0))
        return 0

    def gen_invokevirt(self, bci: int, ins: Any) -> int:
        nargs = ins.b or 0
        sym = self.sym
        self.seg_w -= self.wt(op.INVOKEVIRT, 1.0)
        self.seg_n -= 1
        self.flush_acc()
        self.poll(bci, spill_sym=True)
        args = [sym.pop()[0] for _ in range(nargs)][::-1]
        recv = sym.pop()[0]
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
        self.faults.append((bci, 0.0, 0, self.wt(op.INVOKEVIRT, 1.0)))
        self.emit(f"    f = {idx}")
        self.emit(f"    {u} = RV(m, {recv}, {mn}, {nargs}, {cell})")
        self.spill(live)
        self.emit(f"frame.pc = {bci + 1}")
        self.gen_push_frame(f"{u}[0]", f"{u}[1]", [recv] + args)
        self.gen_call_exit(bci, self.wt(op.INVOKEVIRT, 1.0))
        return 0

    def gen_call_exit(self, bci: int, w_call: float) -> None:
        """Close a call site: try a compiled->compiled direct call
        (host-level recursion, depth-capped so deep guest recursion
        still round-trips through the driver instead of blowing the
        host stack), else hand the pushed frame to the driver.

        Our state is fully materialized before the nested closure runs,
        so every non-return status simply forwards: the driver sees
        exactly what it would have seen had it made the call itself.
        A status-1 result from the direct callee means our own frame is
        the top again — re-enter this region at the return-continuation
        block without leaving the closure."""
        ret_blk = self.block_id.get(bci + 1)
        if ret_blk is not None:
            u = self.fresh()
            self.emit(f"if rd < {_MAX_INLINE_DEPTH}:")
            self.emit(f"    {u} = JM.get(nf.code)")
            self.emit(f"    if {u}.__class__ is tuple:")
            self.emit(f"        res = {u}[0](m, thread, nf, frames, ql, "
                      f"w_acc + {w_call!r}, n_acc + 1, opc, rd + 1)")
            self.emit("        if res[0] == 1 and frames[-1] is frame:")
            self.emit("            w_acc = res[1]")
            self.emit("            n_acc = res[2]")
            self.emit(f"            b = {ret_blk}")
            self.emit("            continue")
            self.emit("        return res")
        self.emit(f"return (0, w_acc + {w_call!r}, n_acc + 1)")

    def gen_push_frame(self, code_expr: str, pad_expr: str,
                       args: List[str]) -> None:
        self.emit("nf = F.__new__(F)")
        self.emit(f"nf.code = {code_expr}")
        self.emit(f"nf.locals = [{', '.join(args)}] + {pad_expr}")
        self.emit("nf.stack = []")
        self.emit("nf.pc = 0")
        self.emit("nf.pinned = False")
        self.emit("frames.append(nf)")

    def gen_native(self, bci: int, ins: Any) -> int:
        nargs = ins.b or 0
        sym = self.sym
        wn = self.wt(op.NATIVE, 1.0)
        self.seg_w -= wn
        self.seg_n -= 1
        self.flush_acc()
        self.poll(bci, spill_sym=True)
        args = [sym.pop()[0] for _ in range(nargs)][::-1]
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
        self.emit(f"m.charge(NB)")
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
        # no STORE fusion across the native's spill/refill bookkeeping;
        # rv was assigned under a fresh name, so it is its own temp.
        sym.append((rv, None))
        return 0

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
