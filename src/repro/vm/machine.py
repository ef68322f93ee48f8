"""The stack-machine VM.

:class:`Machine` executes guest bytecode with real frames, a real heap,
guest exception tables, breakpoints, and a virtual clock.  It is the
substrate that migration engines manipulate through the debug interface
(:mod:`repro.vm.vmti`).

Execution model per instruction:

1. deliver any pending (asynchronously injected) exception;
2. fire a breakpoint event if one is set at the current location;
3. execute the instruction, charging its cost weight to the clock
   (scaled by the hosting node's CPU speed factor).

Guest exceptions unwind through per-method exception tables; the
interpreter never uses host recursion for guest calls, so frames are
plain data that can be captured, shipped and rebuilt.

Dispatch
--------

:meth:`Machine.run` is the only way to execute a thread, and its
contract does not depend on which of three loops does the work:

* the **hooked loop** (:meth:`Machine._run_loop`) handles one
  instruction at a time — breakpoint checks and ``stop``/``max_instrs``
  polling — and calls that opcode's handler in :data:`_OPS`, the one
  place each opcode's semantics is written whole.  It executes the
  instructions that carry a hook — one per trap hit, all of them under
  ``max_instrs``, an undeclared ``stop`` or ``dispatch="legacy"`` — and
  is the oracle of the differential suites;
* **tier 1** (:meth:`Machine._run_fast`) runs the rest: a per-machine
  linked *decoded stream* (:mod:`repro.preprocess.fuse`) of dense
  integer opcodes, pre-resolved cost weights, fused superinstructions
  (the nine a flattened stream executes — its groups are ``LOAD t..;
  op; STORE t``, closing STORE included) and monomorphic inline
  caches, with clock / instruction accounting batched in locals and
  flushed at natives, exception dispatch and loop exit.  It writes an
  arm for the nine, the safepoint opcodes and the plain opcodes the
  deployed streams dispatch often, tested in their measured order;
  every other opcode runs its :data:`_OPS` handler through
  :meth:`_execute` from one fallback arm.  A call or return hands the
  next frame to the loop's driver, the one place a frame is entered
  (its stream linked, hotness bumped, tier chosen);
* **tier 2** (:mod:`repro.vm.jit`; ``jit=``, default on, off under
  ``REPRO_JIT=0``) replaces hot code objects of a tier-1 run by
  specialized Python closures, one frame at a time, under the same
  driver.  It writes a template for the safepoint opcodes, ``JZ`` /
  ``JNZ`` and the plain opcodes compiled code executes often; the nine
  others run their :data:`_OPS` handler through :meth:`_execute` from
  one arm, the frame materialized.

What selects a loop is host-side state only (``stop``,
``max_instrs``, ``dispatch=``, ``jit=``, hotness).  A
*trap point* is ``(class, method, bci)``: every breakpoint is one, and
a ``stop`` may *declare* ``at``, the points where alone it can be true.
A run without ``max_instrs``, an undeclared ``stop`` or
``dispatch="legacy"`` keeps the fast tiers and traps every point in the
running streams (:meth:`Machine._run_trapped`; one armed mid-run too);
a hit hands the hooked loop exactly one instruction — it asks the
``stop``, fires the breakpoint and delivers what the callback injected
— and the fast tiers resume.  What no selection may change:

* the **result**, ``stdout``, uncaught exception, ``instr_count`` and
  the **clock** — equal, always: instructions are charged in whole
  cost ticks, whose sums are exact in any order (:attr:`clock`);
* the **preemption points**.  A scheduler ``quantum`` expires only
  *before executing a safepoint instruction*
  (:func:`repro.bytecode.opcodes.is_safepoint`: a call, a native, a
  return, or a backward ``JMP``) once the run has executed at least
  ``quantum`` instructions.  The set is declared there and nowhere
  else; each loop tests it at exactly those instructions, the fuser
  asserts none is ever fused, and the tier-2 compiler refuses to emit
  a check anywhere else.  So the sequence of ``(frame, pc,
  instr_count)`` at which a time-sliced thread stops — and everything
  a cluster model derives from it — is the same in every loop.

``frame.pc`` always holds an *original* bytecode index (fused
superinstructions live in a parallel stream — see
:mod:`repro.preprocess.fuse`), so VMTI, capture/restore, exception
tables and line tables are oblivious to fusion and to the tier.

Inline caches are valid because classes cannot be redefined once linked
(:meth:`repro.vm.classloader.ClassLoader.define` refuses) and method
tables/static homes are immutable after linking; caches live in the
per-machine linked stream, never in the one a ``CodeObject`` stores.
Swapping ``machine.cost`` (or mutating its weight table) or mutating a
method's ``instrs`` after execution started requires
:meth:`Machine.invalidate_caches`.

Namespaces
----------

A thread whose :attr:`~repro.vm.frames.ThreadState.namespace` tag is
set executes inside that class-loader namespace
(:class:`repro.vm.classloader.Namespace`): for the duration of
:meth:`run`, ``machine.loader`` *is* the namespace loader and the
decoded-stream cache is the namespace's own map, so the
``GETS``/``INVOKESTATIC`` inline caches bind per
``(code, namespace)`` and never leak one context's static cells into
another.  Root-namespace threads (``namespace=None``, the default)
take none of that indirection — the swap is a single ``is None`` test,
which is how the fast loop's throughput is preserved.
"""

from __future__ import annotations

import math
import operator
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bytecode import opcodes as op
from repro.bytecode.code import (TICKS_PER_WEIGHT, ClassFile, CodeObject,
                                 weight_ticks)
from repro.errors import LinkError, VMError
from repro.preprocess.fuse import (F_CONST_STORE, F_LL_ALOAD_ST,
                                   F_LL_ARITH_ST, F_LL_OP2_ST, F_LOAD_GETF,
                                   F_LOAD_JNZ, F_LOAD_JZ, F_LOAD_LOAD,
                                   F_LOAD_STORE, decode_and_fuse, plain_slot)
from repro.vm.classloader import ClassLoader, Namespace
from repro.vm.costmodel import CostModel
from repro.vm.frames import Frame, ThreadState
from repro.vm.heap import Heap
from repro.vm.natives import NativeRegistry
from repro.vm.objects import VMArray, VMClass, VMInstance
from repro.vm.values import RemoteRef, is_nullish, truthy


class GuestThrow(Exception):
    """Internal unwinding carrier for guest exceptions (host-side)."""

    def __init__(self, exc: VMInstance):
        super().__init__(exc.class_name)
        self.exc = exc


class UncaughtGuestException(VMError):
    """Raised by :meth:`Machine.call` when the guest program lets an
    exception escape ``main`` and no uncaught-handler consumed it."""

    def __init__(self, exc: VMInstance):
        msg = exc.fields.get("msg", "")
        super().__init__(f"uncaught {exc.class_name}: {msg}")
        self.exc = exc


#: dispatch modes accepted by :class:`Machine`
DISPATCH_MODES = ("fast", "legacy")


class Machine:
    """One virtual machine instance placed on a (simulated) node."""

    #: never assigned (the hook is gone); the frozen ``bench/trace.py``
    #: still reads it to label ``vm.run`` spans
    on_write = None

    def __init__(self, classpath: Optional[Dict[str, ClassFile]] = None,
                 cost: Optional[CostModel] = None,
                 node: Any = None, fs: Any = None,
                 name: str = "vm",
                 dispatch: str = "fast",
                 jit: Optional[bool] = None):
        if dispatch not in DISPATCH_MODES:
            raise VMError(f"unknown dispatch mode {dispatch!r}")
        self.loader = ClassLoader(classpath)
        self.heap = Heap()
        self.natives = NativeRegistry()
        self.cost = cost or CostModel()
        #: the hosting cluster node (or None for standalone use)
        self.node = node
        #: the cluster file system (or None)
        self.fs = fs
        self.name = name
        #: :attr:`clock` parts: seconds charged (:meth:`charge` ...),
        #: instructions since then in cost ticks (every loop's flushes
        #: add exactly) and seconds per tick as of the last :meth:`run`
        self._clock = self._ticks = self._unit = 0.0
        #: executed instruction count
        self.instr_count = 0
        #: worst scheduler-quantum overshoot seen (instructions executed
        #: beyond the budget before a safepoint poll fired) — the
        #: fairness-coverage meter for leaf-method straight-line tails
        self.max_quantum_overshoot = 0
        #: guest console output lines
        self.stdout: List[str] = []
        #: breakpoints: (class_name, method_name, bci); written only by
        #: :meth:`set_breakpoint` / :meth:`clear_breakpoint`
        self.breakpoints: frozenset = frozenset()
        #: callback fired on breakpoint hit: fn(machine, thread)
        self.on_breakpoint: Optional[Callable[["Machine", ThreadState], None]] = None
        #: callback fired after a guest ``PUTS``: fn(home_class) — an
        #: object manager attributes static writes to a segment's home
        #: with it; never read by loop selection
        self.on_static_write: Optional[Callable[[VMClass], None]] = None
        #: uncaught-exception hook: fn(machine, thread, exc) -> handled?
        self.on_uncaught: Optional[
            Callable[["Machine", ThreadState, VMInstance], bool]] = None
        #: scratch space for attached runtimes (object manager, etc.)
        self.extras: Dict[str, Any] = {}
        #: interpreter selection: "fast" (pre-decoded, inline-cached)
        #: or "legacy" (the hooked loop, one handler per opcode)
        self.dispatch = dispatch
        #: per-machine decoded-stream cache (holds the inline caches).
        #: This is the *root namespace's* map; while a namespaced
        #: thread runs, :meth:`run` swaps in the namespace's own map
        #: from ``_decoded_ns`` so cache cells stay per-namespace.
        self._decoded: Dict[CodeObject, List[tuple]] = {}
        #: class-loader namespaces by tag, and their decoded streams
        self._namespaces: Dict[str, Namespace] = {}
        self._decoded_ns: Dict[str, Dict[CodeObject, List[tuple]]] = {}
        #: tier-2 JIT: compile hot code objects into specialized Python
        #: closures above the inline caches (see :mod:`repro.vm.jit`).
        #: ``REPRO_JIT=0`` disables it fleet-wide for triage.
        if jit is None:
            jit = os.environ.get("REPRO_JIT", "1") not in (
                "0", "false", "False", "")
        self.jit = jit and dispatch == "fast"
        #: per-machine compiled-closure cache: CodeObject ->
        #: (closure, entries) | False (refused).  Mirrors ``_decoded``:
        #: the root namespace's map, swapped per namespaced thread so
        #: baked-in static cells stay namespace-private.
        self._compiled: Dict[CodeObject, Any] = {}
        self._compiled_ns: Dict[str, Dict[CodeObject, Any]] = {}
        #: tier-2 telemetry (surfaced by serve stats and benchmarks)
        self.jit_compiles = 0
        self.jit_deopts = 0
        self.jit_guard_bails = 0
        #: tier-2 compiles that died of anything but a refusal (a
        #: code-generator bug: the method silently stays on tier 1)
        self.jit_compile_errors = 0
        #: the thread :meth:`run` is executing right now (natives and
        #: object managers read it), None between runs
        self.current_thread: Optional[ThreadState] = None
        self._speed = node.spec.speed_factor if node is not None else 1.0
        self._bp_guard: Optional[Tuple[int, int]] = None
        #: during :meth:`_run_trapped`: ({(class, method): bcis}, undo log)
        self._traps: Optional[Tuple[Dict[Any, set], List[tuple]]] = None
        #: closures masked while their method had a live frame (tier 2's
        #: status 5); the hooked loop's (weights, ticks) table
        self._masks, self._ticks_of = 0, (None, {})

    # -- time ------------------------------------------------------------

    @property
    def clock(self) -> float:
        """Simulated seconds consumed by this VM: its charges plus its
        ticks at the last run's price (a new price folds them in)."""
        return self._clock + self._unit * self._ticks

    def charge(self, reference_seconds: float) -> None:
        """Add CPU time (scaled by the node's speed factor).  Tier 2
        emits a copy of this line before a pure native's in-line host
        call (``repro.vm.jit._Compiler.gen_native``): change both."""
        self._clock += reference_seconds * self._speed

    def charge_raw(self, seconds: float) -> None:
        """Add wall time not subject to CPU scaling (I/O, network)."""
        self._clock += seconds

    # -- namespaces ------------------------------------------------------

    def namespace(self, tag: Optional[str],
                  create: bool = True) -> Optional[ClassLoader]:
        """The class loader for namespace ``tag`` (created on first
        use); ``None`` is the root loader.  Namespaces share the root
        classpath and hooks but link classes — and hold static cells —
        independently (see :mod:`repro.vm.classloader`).

        ``create=False`` is the read-only peek: it returns None when
        the tag does not exist here.  Callers that only want to *look
        at* another machine's cells must use it — materializing an
        empty namespace as a side effect of a query would make
        ``has_namespace`` claim this machine holds cells it never
        wrote (which e.g. ``resync_statics`` trusts to decide whose
        values are authoritative)."""
        root = self._root_loader()
        if tag is None:
            return root
        ns = self._namespaces.get(tag)
        if ns is None:
            if not create:
                return None
            ns = self._namespaces[tag] = Namespace(root, tag)
            self._decoded_ns[tag] = {}
            self._compiled_ns[tag] = {}
        return ns

    def _root_loader(self) -> ClassLoader:
        """The machine's root loader.  While a namespaced thread runs,
        ``self.loader`` IS that thread's namespace; resolve through
        its parent so tags always name the same loader regardless of
        when they are asked for."""
        root = self.loader
        if isinstance(root, Namespace):
            root = root.parent
        return root

    def has_namespace(self, tag: str) -> bool:
        return tag in self._namespaces

    def loaders(self) -> List[ClassLoader]:
        """Every class loader on this machine: the root first, then
        each namespace (insertion order)."""
        return [self._root_loader()] + list(self._namespaces.values())

    def drop_namespace(self, tag: str) -> None:
        """Discard a namespace's linked classes, decoded streams, and
        tier-2 compiled closures (end of a request's life; no-op if
        never created).  The shared classpath keeps any class files it
        fetched.  Long serving runs rely on this to not pin dead
        ``req{rid}`` static cells through cache maps."""
        self._namespaces.pop(tag, None)
        self._decoded_ns.pop(tag, None)
        self._compiled_ns.pop(tag, None)

    # -- guest exception construction ----------------------------------------

    def make_exception(self, class_name: str, msg: str = "",
                       payload: Any = None) -> VMInstance:
        """Allocate a guest exception object."""
        cls = self.loader.load(class_name)
        exc = self.heap.new_instance(cls)
        if "msg" in exc.fields:
            exc.fields["msg"] = msg
        exc.host_payload = payload
        return exc

    def throw(self, class_name: str, msg: str = "",
              payload: Any = None) -> GuestThrow:
        """Build a guest exception and return the host carrier to raise."""
        return GuestThrow(self.make_exception(class_name, msg, payload))

    # -- threads --------------------------------------------------------------

    def spawn(self, class_name: str, method_name: str,
              args: Optional[List[Any]] = None,
              thread_name: str = "main",
              namespace: Optional[str] = None) -> ThreadState:
        """Create a thread whose first frame invokes a static method.
        With ``namespace``, the entry class (and everything the thread
        touches while running) resolves in that namespace — its own
        static cells, created on first use."""
        cls = self.namespace(namespace).load(class_name)
        code = cls.find_method(method_name)
        if code is None:
            raise LinkError(f"no method {class_name}.{method_name}")
        if not code.is_static:
            raise VMError(f"{class_name}.{method_name} is not static")
        thread = ThreadState(thread_name, namespace=namespace)
        thread.frames.append(Frame(code, list(args or [])))
        return thread

    def call(self, class_name: str, method_name: str,
             args: Optional[List[Any]] = None) -> Any:
        """Run a static method to completion and return its value."""
        thread = self.spawn(class_name, method_name, args)
        self.run(thread)
        if thread.uncaught is not None:
            raise UncaughtGuestException(thread.uncaught)
        return thread.result

    # -- decoded-stream cache --------------------------------------------------

    def decoded(self, code: CodeObject) -> List[tuple]:
        """The (cached) decoded+fused stream for ``code`` on this machine."""
        stream = self._decoded.get(code)
        if stream is None:
            stream = decode_and_fuse(code, self.cost.op_weights, _ARITH,
                                     _FAST2)
            self._decoded[code] = stream
            if self._traps is not None:
                self._trap(code)
        return stream

    def set_breakpoint(self, key: Tuple[str, str, int]) -> None:
        """Arm ``(class, method, bci)``; mid-run, trap it at once."""
        self.breakpoints = self.breakpoints | {key}
        if self._traps is not None:
            self._plant((key,))

    def clear_breakpoint(self, key: Tuple[str, str, int]) -> None:
        """Disarm; mid-run, a hit of the trap left behind fires nothing."""
        self.breakpoints = self.breakpoints - {key}

    def invalidate_caches(self) -> None:
        """Drop all decoded streams and the inline caches they carry
        (every namespace's — cost weights are machine-global).

        Needed only after host-level surgery the VM cannot see: swapping
        ``machine.cost`` (or mutating its weight table) after execution
        started, or mutating a ``CodeObject.instrs`` list in place.
        Also drops the per-CodeObject predecoded streams and tier-2
        templates of the code this machine still maps, so re-decoding
        observes current weights and instrs.
        """
        for code in self._decoded:
            code.invalidate_decoded()
        self._decoded.clear()
        for ns_map in self._decoded_ns.values():
            for code in ns_map:
                code.invalidate_decoded()
            ns_map.clear()
        # tier-2 closures bake in cost weights and static cells too
        self._compiled.clear()
        for ns_map in self._compiled_ns.values():
            ns_map.clear()

    def precompile(self, class_name: str, method: str,
                   namespace: Optional[str] = None) -> bool:
        """Tier-2 compile a method ahead of its hotness threshold, against
        ``namespace``'s loader/caches (the root's when ``None``).
        Returns True when a compiled closure is available afterwards."""
        if not self.jit:
            return False
        compile_into = _jit_module().compile_into
        prev_loader = self.loader
        prev_decoded = self._decoded
        try:
            if namespace is not None:
                self.loader = self.namespace(namespace)
                self._decoded = self._decoded_ns[namespace]
                jm = self._compiled_ns[namespace]
            else:
                self.loader = self._root_loader()
                jm = self._compiled
            cls = self.loader.load(class_name)
            code = cls.find_method(method)
            if code is None:
                return False
            cf = jm.get(code)
            if cf is None:
                cf = compile_into(self, code, jm)
            return bool(cf)
        finally:
            self.loader = prev_loader
            self._decoded = prev_decoded

    # -- main loop --------------------------------------------------------------

    def run(self, thread: ThreadState,
            stop: Optional[Callable[[ThreadState], bool]] = None,
            max_instrs: Optional[int] = None,
            quantum: Optional[int] = None) -> str:
        """Execute ``thread`` until it finishes, ``stop`` returns True,
        ``max_instrs`` run, or a scheduler ``quantum`` expires.  Returns
        ``"finished"`` / ``"stopped"`` / ``"limit"`` / ``"preempted"``.
        ``stop(thread)`` is asked before every instruction; one that
        declares ``at`` only at those trap points, and the run keeps
        the fast tiers ("Dispatch" above).

        ``quantum`` is the cluster scheduler's preemption budget, in
        executed instructions.  It expires before the first safepoint
        instruction (:func:`repro.bytecode.opcodes.is_safepoint`)
        reached with the budget spent — in whichever loop is running
        (see "Dispatch" in the module docstring) — so preemption
        overshoots by at most one loop body / a leaf method's
        straight-line tail (``max_quantum_overshoot`` records the
        worst), never lands mid-instruction, and is exactly
        reproducible.  A preempted thread resumes with another ``run``
        call; ``frame.pc`` is synced and accounting flushed.

        After a *host-level* error (``LinkError``, ``VMError``, a host
        ``TypeError``: the run is aborted, not a guest throw) only
        ``frame.pc`` — the faulting bci — is defined.  Tier 1 charges
        what the hooked loop does, but tier 2 may not have charged what
        ran since its last flush nor written its latest temps to
        ``frame.locals``; no caller reads either.
        Guest throws, preemptions, calls, natives and deopts are exact
        in every loop."""
        if quantum is not None and quantum < 1:
            raise VMError(f"bad scheduler quantum {quantum}")
        unit = self.cost.unit_op_cost() * self._speed / TICKS_PER_WEIGHT
        if unit != self._unit:
            # A new price (a straggle, a cost-model swap): fold the
            # ticks run at the old one.  Nothing else folds, so a run
            # sliced into quanta sums the same bits as one unsliced.
            self._clock, self._ticks, self._unit = self.clock, 0.0, unit
        start_count = self.instr_count
        prev_thread = self.current_thread
        self.current_thread = thread
        # Namespace entry: for a namespaced thread, the namespace
        # loader and its decoded-stream map *become* the machine's for
        # the duration of the run — every resolution path (fast-loop
        # cache fills, the legacy loop, natives, exception allocation)
        # sees the thread's own static cells with no per-instruction
        # cost.  Root threads pay one None test.
        prev_loader = None
        if thread.namespace is not None:
            prev_loader = self.loader
            prev_decoded = self._decoded
            prev_compiled = self._compiled
            self.loader = self.namespace(thread.namespace)
            self._decoded = self._decoded_ns[thread.namespace]
            self._compiled = self._compiled_ns[thread.namespace]
        try:
            if (max_instrs is None and self.dispatch == "fast"
                    and (stop is None or hasattr(stop, "at"))):
                return self._run_trapped(thread, stop, quantum)
            return self._run_loop(thread, stop, max_instrs, 0, quantum)
        finally:
            self.current_thread = prev_thread
            if prev_loader is not None:
                self.loader = prev_loader
                self._decoded = prev_decoded
                self._compiled = prev_compiled
            if quantum is not None:
                over = (self.instr_count - start_count) - quantum
                if over > self.max_quantum_overshoot:
                    self.max_quantum_overshoot = over

    def _run_trapped(self, thread: ThreadState, stop: Any,
                     quantum: Optional[int]) -> str:
        """:meth:`_run_fast` with the ``stop``'s ``at`` and every breakpoint
        trapped ("Dispatch" above); re-entries after a hit get what is
        left of ``quantum``: one absolute watermark."""
        start = self.instr_count
        prev = self._traps
        undo: List[tuple] = []
        self._traps = ({}, undo)
        self._bp_guard = None
        try:
            self._plant(self.breakpoints if stop is None
                        else self.breakpoints | stop.at)
            while True:
                ran = self.instr_count - start
                status = self._run_fast(
                    thread, None if quantum is None else quantum - ran)
                if status != "trap":
                    return status
                # the fast tiers ran: a breakpoint hit again fires again
                ran = self.instr_count - start
                self._bp_guard = None
                status = self._run_loop(thread, stop, ran + 1, ran, quantum)
                if status != "limit":
                    return status
        finally:
            self._traps = prev
            while undo:
                box, key, old = undo.pop()
                if old is None:  # a tier-up declined during the run
                    box.pop(key, None)
                else:
                    box[key] = old

    def _plant(self, points: Any) -> None:
        """Add ``points`` to the trap set; trap their methods, mapped or not."""
        for cls, meth, bci in points:
            bcis = self._traps[0].setdefault((cls, meth), set())
            if bci in bcis:  # planted already (re-armed)
                continue
            bcis.add(bci)
            if self.loader.has_classfile(cls):
                code = self.loader.classfile(cls).methods.get(meth)
                if code is not None:
                    self._trap(code)

    def _trap(self, code: CodeObject) -> bool:
        """Does ``code`` hold a running trap point?  Then trap each in its
        running stream (a fused group around one reverts its head to its
        plain slot: any arrival traps) and mask its closure."""
        by_method, undo = self._traps
        bcis = by_method.get((code.class_name, code.name))
        if bcis is None:
            return False
        stream = self._decoded.get(code) or ()
        for bci in bcis:
            if not 0 <= bci < len(stream) or stream[bci] is _TRAP:
                continue
            for head in range(max(0, bci - 3), bci):  # groups: <= 4 wide
                if stream[head][4] > bci - head:
                    undo.append((stream, head, stream[head]))
                    stream[head] = plain_slot(
                        code.predecoded(self.cost.op_weights), head)
            undo.append((stream, bci, stream[bci]))
            stream[bci] = _TRAP
        cf = self._compiled.get(code)
        if cf is not False:
            undo.append((self._compiled, code, cf))
            self._compiled[code] = False
            if cf is not None and any(
                    f.code is code for f in self.current_thread.frames):
                self._masks += 1  # its closure may be running
        return True

    # -- the fast loop -----------------------------------------------------------

    def _run_fast(self, thread: ThreadState,
                  quantum: Optional[int] = None) -> str:
        """Zero-overhead interpretation of ``thread`` under
        :meth:`_run_trapped` (no ``max_instrs``, no undeclared ``stop``).
        Returns ``"finished"``, ``"preempted"`` (``quantum`` expired at a
        safepoint) or ``"trap"`` (``frame.pc`` synced, accounting flushed).

        The driver (the top of ``while frames:``) enters every frame; the
        inner loop runs the top frame alone, as a tier-2 closure does: a
        call or return breaks back to the driver, so ``frame``, ``stream``
        and the stack registers never change inside it.
        """
        # Localize everything the hot path touches.
        frames = thread.frames
        decoded = self._decoded
        tr = truthy
        Inst = VMInstance
        Arr = VMArray
        Frm = Frame
        miss = _MISSING
        w_acc = 0.0
        n_acc = 0
        # Scheduler-preemption safepoint polling: the budget is turned
        # into an absolute executed-instruction watermark so the check
        # stays valid across accounting flushes (instr_count absorbs
        # n_acc at safepoints).
        q = quantum
        q_limit = self.instr_count + q if q is not None else 0
        # Tier-2: per-(machine, namespace) compiled-closure map and the
        # tier-up machinery.
        jm = None
        if self.jit:
            jit = _jit_module()
            TH = jit.JIT_THRESHOLD
            _ci = jit.compile_into
            jm = self._compiled
        # dense opcode ids as locals (LOAD_FAST beats LOAD_GLOBAL)
        I_LOAD = _I_LOAD; I_CONST = _I_CONST; I_STORE = _I_STORE
        I_JMP = _I_JMP; I_GETS = _I_GETS; I_ASTORE = _I_ASTORE
        I_DUP = _I_DUP; I_POP = _I_POP
        I_INVOKESTATIC = _I_INVOKESTATIC; I_INVOKEVIRT = _I_INVOKEVIRT
        I_NATIVE = _I_NATIVE; I_RET = _I_RET; I_RETV = _I_RETV
        FI_LL_OP2_ST = F_LL_OP2_ST; FI_LL_ARITH_ST = F_LL_ARITH_ST
        FI_LL_ALOAD_ST = F_LL_ALOAD_ST; FI_LOAD_LOAD = F_LOAD_LOAD
        FI_LOAD_STORE = F_LOAD_STORE
        FI_CONST_STORE = F_CONST_STORE; FI_LOAD_GETF = F_LOAD_GETF
        FI_LOAD_JZ = F_LOAD_JZ; FI_LOAD_JNZ = F_LOAD_JNZ
        # how the inner loop last broke: 1 a tier-1 call, 2 a tier-1
        # return (both hand the driver the next frame), 0 otherwise
        handed = 0
        try:
            while frames:
                via, handed = handed, 0
                if thread.pending_exception is not None:
                    exc = thread.pending_exception
                    thread.pending_exception = None
                    self._ticks += w_acc
                    self.instr_count += n_acc
                    w_acc = 0.0
                    n_acc = 0
                    if not self._dispatch(thread, exc):
                        return "finished"
                    continue
                frame = frames[-1]
                code = frame.code
                stream = decoded.get(code)
                if stream is None and via:
                    # a tier-1 call or return links the stream of the
                    # frame it hands over, whichever tier runs it next
                    stream = self.decoded(code)
                if jm is not None:
                    # Tier-up: an entry (a tier-1 return is none) bumps
                    # a cold method; an entry at a compiled entry point
                    # runs the closure, everything else tier 1.
                    cf = jm.get(code)
                    if cf is None and via != 2:
                        h = code.hotness = code.hotness + 1
                        if h >= TH:
                            cf = _ci(self, code, jm)
                    if cf and frame.pc in cf[1]:
                        res = cf[0](self, thread, frame, frames, q_limit,
                                    w_acc, n_acc)
                        st = res[0]
                        w_acc = res[1]
                        n_acc = res[2]
                        if st <= 1:       # call / return
                            continue
                        if st == 2:       # quantum safepoint
                            return "preempted"
                        if st == 3:       # guest throw (pre-flushed)
                            if not self._dispatch(thread, res[3]):
                                return "finished"
                            # the faulting instruction is charged only
                            # once a handler is found (tier-1 rule)
                            w_acc = res[4]
                            n_acc = 1
                            continue
                        if st == 5:       # a native masked a closure:
                            # state is materialized; re-enter the top
                            # frame (on tier 1 if it is the masked one)
                            self.jit_deopts += 1
                        continue          # st 4: pending exception armed
                if stream is None:
                    stream = self.decoded(code)
                pc = frame.pc
                stack = frame.stack
                locs = frame.locals
                push = stack.append
                pop = stack.pop
                try:
                    while True:
                        ins = stream[pc]
                        oid = ins[0]
                        # Arm order = dispatch share on the flattened
                        # build every migratable path runs (faulting,
                        # four registry programs, 3,050,197 dispatches
                        # for 6,632,609 instructions;
                        # tests/helpers.tier1_dispatches): LOAD+STORE
                        # 37.4%, LOAD+LOAD+arith+STORE 10.7, CONST+STORE
                        # 8.1, LOAD+JZ 6.4, STORE 6.2, LOAD 6.0,
                        # LOAD+LOAD+arith(m)+STORE 5.9,
                        # LOAD+LOAD+ALOAD+STORE 4.0, LOAD+LOAD 2.9, GETS
                        # 2.5, JMP 2.1, INVOKESTATIC 2.0, RETV + RET 2.0
                        # (1.6 + 0.3, one arm), ASTORE 1.8, the rest
                        # under 1 each.  A serve workload's tier 1 runs
                        # restoration handlers (tier 2 runs the hot
                        # code): NATIVE, STORE, CONST and LSWITCH are
                        # 52-79% of its 11-15 k dispatches per bench
                        # stream, too few to move the order.  Plain
                        # CONST comes last: flattened code pairs it with
                        # a STORE outside handlers.  The 27 opcodes of
                        # the fallback arm reach tier 1 at most 586
                        # times per bench stream (plain ALOAD / binop /
                        # JZ / JNZ / GETF only after a jump or resume
                        # into a group; the original build pays).
                        if oid == FI_LOAD_STORE:
                            locs[ins[2]] = locs[ins[1]]
                            pc += 2
                        elif oid == FI_LL_OP2_ST:
                            locs[ins[7]] = ins[5](locs[ins[1]], locs[ins[2]])
                            pc += 4
                        elif oid == FI_CONST_STORE:
                            locs[ins[2]] = ins[1]
                            pc += 2
                        elif oid == FI_LOAD_JZ:
                            pc = pc + 2 if tr(locs[ins[1]]) else ins[2]
                        elif oid == I_STORE:
                            locs[ins[1]] = pop()
                            pc += 1
                        elif oid == I_LOAD:
                            push(locs[ins[1]])
                            pc += 1
                        elif oid == FI_LL_ARITH_ST:
                            locs[ins[7]] = ins[5](self, locs[ins[1]],
                                                  locs[ins[2]])
                            pc += 4
                        elif oid == FI_LL_ALOAD_ST:
                            arr = locs[ins[1]]
                            idx = locs[ins[2]]
                            if not isinstance(arr, Arr):
                                _arr_fail(self, arr, "arrayload")
                            data = arr.data
                            if 0 <= idx < len(data):
                                locs[ins[7]] = data[idx]
                            else:
                                raise _iobe(self, idx, len(data))
                            pc += 4
                        elif oid == FI_LOAD_LOAD:
                            push(locs[ins[1]])
                            push(locs[ins[2]])
                            pc += 2
                        elif oid == I_GETS:
                            cell = ins[5]
                            c = cell[0]
                            if c is None:
                                c = cell[0] = _static_cell(self, ins[1])
                            push(c[0][c[1]])
                            pc += 1
                        elif oid == I_JMP:
                            # Backward jumps are loop back-edges (the
                            # codegen compiles every loop top-tested
                            # with a JMP to the condition, and JMP is
                            # never fused), so polling here bounds
                            # quantum overshoot to one loop body even
                            # in call-free loops.
                            if q is not None and ins[1] <= pc \
                                    and self.instr_count + n_acc >= q_limit:
                                frame.pc = pc
                                return "preempted"
                            if jm is not None and ins[1] <= pc:
                                # OSR: loops tier up at the back edge
                                cf2 = jm.get(code)
                                if cf2 is None:
                                    h = code.hotness = code.hotness + 1
                                    if h >= TH:
                                        cf2 = _ci(self, code, jm)
                                if cf2 and ins[1] in cf2[1]:
                                    w_acc += ins[3]
                                    n_acc += ins[4]
                                    frame.pc = ins[1]
                                    break
                            pc = ins[1]
                        elif oid == I_INVOKESTATIC:
                            if q is not None and \
                                    self.instr_count + n_acc >= q_limit:
                                # Safepoint poll: yield to the scheduler
                                # before the call executes (resume
                                # re-dispatches this instruction).
                                frame.pc = pc
                                return "preempted"
                            cell = ins[5]
                            c = cell[0]
                            if c is None:
                                c = cell[0] = _resolve_static(
                                    self, ins[1], ins[2])
                            nargs = ins[2]
                            if nargs:
                                args = stack[-nargs:]
                                del stack[-nargs:]
                            else:
                                args = []
                            frame.pc = pc + 1
                            # pre-validated arity: build the frame without
                            # re-running Frame.__init__'s checks
                            callee = Frm.__new__(Frm)
                            callee.code = c[0]
                            callee.locals = args + c[1]
                            callee.stack = []
                            callee.pc = 0
                            callee.pinned = False
                            frames.append(callee)
                            handed = 1
                            w_acc += ins[3]
                            n_acc += ins[4]
                            break
                        elif oid == I_RETV or oid == I_RET:
                            if q is not None and \
                                    self.instr_count + n_acc >= q_limit:
                                frame.pc = pc
                                return "preempted"
                            value = pop() if oid == I_RETV else None
                            frames.pop()
                            if frames:
                                frames[-1].stack.append(value)
                            else:
                                thread.finished = True
                                thread.result = value
                            handed = 2
                            w_acc += ins[3]
                            n_acc += ins[4]
                            break
                        elif oid == I_ASTORE:
                            value = pop()
                            idx = pop()
                            arr = pop()
                            if not isinstance(arr, Arr):
                                _arr_fail(self, arr, "arraystore")
                            data = arr.data
                            if 0 <= idx < len(data):
                                data[idx] = value
                            else:
                                raise _iobe(self, idx, len(data))
                            pc += 1
                        elif oid == FI_LOAD_GETF:
                            obj = locs[ins[1]]
                            fname = ins[2]
                            v = obj.fields.get(fname, miss) \
                                if isinstance(obj, Inst) else miss
                            if v is miss:
                                _field_fail(self, obj, fname, "getfield")
                            push(v)
                            pc += 2
                        elif oid == I_POP:
                            pop()
                            pc += 1
                        elif oid == I_DUP:
                            push(stack[-1])
                            pc += 1
                        elif oid == FI_LOAD_JNZ:
                            pc = ins[2] if tr(locs[ins[1]]) else pc + 2
                        elif oid == I_NATIVE:
                            if q is not None and \
                                    self.instr_count + n_acc >= q_limit:
                                frame.pc = pc
                                return "preempted"
                            nargs = ins[2]
                            if nargs:
                                args = stack[-nargs:]
                                del stack[-nargs:]
                            else:
                                args = []
                            # Safepoint: natives may read the clock, print,
                            # charge time, or arm traps — flush batched
                            # accounting and expose a precise frame.pc.
                            self._ticks += w_acc
                            self.instr_count += n_acc
                            w_acc = 0.0
                            n_acc = 0
                            frame.pc = pc
                            fn = self.natives.lookup(ins[1])
                            self.charge(self.cost.native_base)
                            push(fn(self, args))
                            pc += 1
                            if thread.pending_exception is not None:
                                w_acc += ins[3]
                                n_acc += 1
                                frame.pc = pc
                                break
                        elif oid == I_INVOKEVIRT:
                            if q is not None and \
                                    self.instr_count + n_acc >= q_limit:
                                frame.pc = pc
                                return "preempted"
                            nargs = ins[2]
                            if nargs:
                                args = stack[-nargs:]
                                del stack[-nargs:]
                            else:
                                args = []
                            receiver = pop()
                            cell = ins[5]
                            if isinstance(receiver, Inst) \
                                    and receiver.vmclass is cell[0]:
                                c = cell[1]
                            else:
                                c = _bind_virtual(self, receiver, ins[1],
                                                  nargs, cell)
                            frame.pc = pc + 1
                            callee = Frm.__new__(Frm)
                            callee.code = c[0]
                            callee.locals = [receiver] + args + c[1]
                            callee.stack = []
                            callee.pc = 0
                            callee.pinned = False
                            frames.append(callee)
                            handed = 1
                            w_acc += ins[3]
                            n_acc += ins[4]
                            break
                        elif oid == I_CONST:
                            push(ins[1])
                            pc += 1
                        else:
                            # The other 27 opcodes run the oracle's own
                            # body: frame.pc in, frame.pc out.
                            frame.pc = pc
                            if oid < 0:  # _TRAP: the hooked loop's turn
                                return "trap"
                            self._execute(thread, frame, code.instrs[pc])
                            pc = frame.pc
                        w_acc += ins[3]
                        n_acc += ins[4]
                except GuestThrow as gt:
                    # The slot names the one component that may raise
                    # (fuse's fault rule): report the precise faulting
                    # bci and charge the components before it, then
                    # dispatch.  The faulting component itself is
                    # charged only when a handler is found — the legacy
                    # loop returns before charging a fatally-throwing
                    # instruction.
                    off, lead, own = ins[6]
                    frame.pc = pc + off
                    self._ticks += w_acc + lead
                    self.instr_count += n_acc + off
                    w_acc = 0.0
                    n_acc = 0
                    if not self._dispatch(thread, gt.exc):
                        return "finished"
                    w_acc = own
                    n_acc = 1
                except BaseException:
                    # Host-level error (LinkError, VMError, TypeError...):
                    # report the same component and charge the ones
                    # before it like the legacy loop, then propagate.
                    frame.pc = pc + ins[6][0]
                    w_acc += ins[6][1]
                    n_acc += ins[6][0]
                    raise
            thread.finished = True
            return "finished"
        finally:
            self._ticks += w_acc
            self.instr_count += n_acc

    # -- the legacy (hook-aware) loop ---------------------------------------------

    def _run_loop(self, thread: ThreadState,
                  stop: Optional[Callable[[ThreadState], bool]],
                  max_instrs: Optional[int], executed: int,
                  quantum: Optional[int] = None) -> str:
        weights = self.cost.op_weights
        if self._ticks_of[0] != weights:  # a new or edited table
            self._ticks_of = (dict(weights), weight_ticks(weights))
        tick = self._ticks_of[1]
        frames = thread.frames
        ops = _OPS
        safepoint = op.is_safepoint
        # stop / max_instrs / quantum are this call's arguments, fixed
        # for the run; breakpoints and pending exceptions may change
        # mid-run, so those two are tested at every instruction
        hooked = not (stop is None and max_instrs is None and quantum is None)
        # 3.11 quickens after 8 entries or 8 *unconditional* back edges
        while True:
            if not frames:
                break
            if thread.pending_exception is not None:
                exc = thread.pending_exception
                thread.pending_exception = None
                if not self._dispatch(thread, exc):
                    return "finished"
                continue
            if hooked:
                if stop is not None and stop(thread):
                    return "stopped"
                if max_instrs is not None and executed >= max_instrs:
                    return "limit"
            frame = frames[-1]
            pc = frame.pc
            ins = frame.code.instrs[pc]
            o = ins.op
            if (hooked and quantum is not None and executed >= quantum
                    and safepoint(o, ins.a, pc)):
                return "preempted"
            if self.breakpoints:
                key = (frame.code.class_name, frame.code.name, pc)
                if key in self.breakpoints:
                    guard = (id(frame), pc)
                    if self._bp_guard != guard:
                        self._bp_guard = guard
                        if self.on_breakpoint is not None:
                            self.on_breakpoint(self, thread)
                        continue  # re-check pending exception etc.
                else:
                    self._bp_guard = None
            try:
                ops[o](self, thread, frame, ins)
            except GuestThrow as gt:
                if not self._dispatch(thread, gt.exc):
                    return "finished"
            self._ticks += tick[o]
            self.instr_count += 1
            executed += 1
        thread.finished = True
        return "finished"

    # -- exception dispatch ------------------------------------------------------

    def _dispatch(self, thread: ThreadState, exc: VMInstance) -> bool:
        """Unwind ``thread`` looking for a handler for ``exc``.  Returns
        False if the thread died (uncaught)."""
        first = True
        while thread.frames:
            frame = thread.frames[-1]
            # For frames suspended at a call, the raising bci is pc-1.
            pc = frame.pc if first else max(0, frame.pc - 1)
            first = False
            for entry in frame.code.exc_table:
                if entry.start <= pc < entry.end and self._matches(
                        exc, entry.exc_class):
                    frame.stack.clear()
                    frame.stack.append(exc)
                    frame.pc = entry.handler
                    self._bp_guard = None
                    return True
            thread.frames.pop()
        thread.finished = True
        thread.uncaught = exc
        if self.on_uncaught is not None and self.on_uncaught(self, thread, exc):
            thread.uncaught = None
        return False

    def _matches(self, exc: VMInstance, handler_class: str) -> bool:
        if handler_class == "__ObjectFault":
            # Injected object-fault rows match only a NullPointerException
            # that carries remote-ref provenance; a genuine application
            # null falls through to application handlers (paper III.C).
            return (isinstance(exc.host_payload, RemoteRef)
                    and exc.vmclass.is_subclass_of("NullPointerException"))
        if handler_class == "Throwable":
            return True
        return exc.vmclass.is_subclass_of(handler_class)

    # -- helpers -----------------------------------------------------------------

    def _npe(self, ref: Any, what: str) -> GuestThrow:
        """NullPointerException carrying remote-ref provenance (if any)."""
        return self.throw("NullPointerException", what, payload=ref)

    def _resolve_method(self, receiver: Any, name: str) -> CodeObject:
        if not isinstance(receiver, VMInstance):
            raise VMError(
                f"virtual call {name!r} on non-object {type(receiver).__name__}")
        code = receiver.vmclass.find_method(name)
        if code is None:
            raise LinkError(f"no method {receiver.class_name}.{name}")
        if code.is_static:
            raise VMError(f"{receiver.class_name}.{name} is static")
        return code

    # -- the legacy interpreter ---------------------------------------------------

    def _execute(self, thread: ThreadState, frame: Frame, ins: Any) -> None:
        """Execute one instruction by its handler in :data:`_OPS`: the
        single entry for tier 1's fallback arm and tier 2's
        ``gen_oracle``."""
        _OPS[ins.op](self, thread, frame, ins)

    def _return(self, thread: ThreadState, value: Any) -> None:
        """Pop the top frame, delivering ``value`` to the caller (or
        finishing the thread)."""
        thread.frames.pop()
        self._bp_guard = None
        if thread.frames:
            thread.frames[-1].stack.append(value)
        else:
            thread.finished = True
            thread.result = value


_jit = None


def _jit_module() -> Any:
    """:mod:`repro.vm.jit`, imported on first use: it imports this
    module.  Callers read its attributes at each use (tests and the
    tracer patch ``JIT_THRESHOLD`` / ``compile_into`` on the module)."""
    global _jit
    if _jit is None:
        from repro.vm import jit
        _jit = jit
    return _jit


def _tname(v: Any) -> str:
    if isinstance(v, VMInstance):
        return v.class_name
    if isinstance(v, VMArray):
        return f"{v.kind}[]"
    return type(v).__name__


#: missing-field sentinel for the fast GETF path
_MISSING = object()


def _arity_pad(code: CodeObject, nargs: int) -> List[Any]:
    """Validate a call site's arity against ``code`` once (at inline-
    cache bind time) and return the shared locals padding the fast loop
    concatenates after the arguments (callers copy, never mutate it)."""
    if nargs != code.nparams:
        raise ValueError(
            f"{code.qualname}: expected {code.nparams} args, got {nargs}")
    return [None] * (code.max_locals - nargs)


# -- failure and first-resolution branches shared by tier 1 and tier 2 ------------
#
# The fast loop and the tier-2 closures keep their hot paths inline and
# call these for everything else, so a message or exception class is
# written once for both (the ``_OPS`` handlers stay the independent
# oracle the differential suites compare them with).  An opcode a tier
# writes no arm for runs its ``_OPS`` handler through ``_execute`` —
# 27 on tier 1 (its fallback arm), nine on tier 2
# (``jit._Compiler.gen_oracle``) — so for those the differentials check
# only the dispatch glue (pc, charges, fault record, and on tier 2 the
# materialized operand stack).

def _arr_fail(m: "Machine", arr: Any, what: str) -> Any:
    """``what`` ("arrayload", ...) on a non-array: NullPointerException
    for a nullish reference, a host VMError otherwise."""
    if is_nullish(arr):
        raise m._npe(arr, what)
    raise VMError(f"{what} on {_tname(arr)}")


def _iobe(m: "Machine", idx: Any, n: int) -> GuestThrow:
    return m.throw("IndexOutOfBoundsException", f"index {idx} length {n}")


def _field_fail(m: "Machine", obj: Any, fname: str, what: str) -> Any:
    """``what`` ("getfield"/"putfield") ``fname`` missed on ``obj``."""
    if is_nullish(obj):
        raise m._npe(obj, f"{what} {fname}")
    raise LinkError(f"no field {fname!r} on {_tname(obj)}")


def _static_cell(m: "Machine", key: Tuple[str, str]
                 ) -> Tuple[Dict[str, Any], str]:
    """Inline-cache content for a ``GETS`` site: the home class's
    statics dict and the field name."""
    cls_name, fname = key
    home = m.loader.load(cls_name).find_static_home(fname)
    return (home.statics, fname)


def _resolve_static(m: "Machine", key: Tuple[str, str], nargs: int
                    ) -> Tuple[CodeObject, List[Any]]:
    """Inline-cache content for an ``INVOKESTATIC`` site."""
    cls_name, mname = key
    code = m.loader.load(cls_name).find_method(mname)
    if code is None:
        raise LinkError(f"no method {cls_name}.{mname}")
    if not code.is_static:
        raise VMError(f"{cls_name}.{mname} is not static")
    return (code, _arity_pad(code, nargs))


def _bind_virtual(m: "Machine", receiver: Any, name: str, nargs: int,
                  cell: List[Any]) -> Tuple[CodeObject, List[Any]]:
    """``INVOKEVIRT`` cache miss: resolve ``name`` on ``receiver`` and
    rebind the site's cell.  The cell is written only once fully
    resolved: ``_arity_pad`` may raise, and a half-written cell would
    mis-dispatch later receivers."""
    if is_nullish(receiver):
        raise m._npe(receiver, f"invoke {name}")
    code = m._resolve_method(receiver, name)
    c = (code, _arity_pad(code, nargs + 1))
    cell[0] = receiver.vmclass
    cell[1] = c
    return c


# -- arithmetic helpers (Java semantics for int division) ------------------------

def _add(m: Machine, a: Any, b: Any) -> Any:
    if isinstance(a, str) or isinstance(b, str):
        from repro.vm.natives import _to_str
        return _to_str(a) + _to_str(b) if not (
            isinstance(a, str) and isinstance(b, str)) else a + b
    return a + b


def _div(m: Machine, a: Any, b: Any) -> Any:
    if b == 0 and isinstance(a, int) and isinstance(b, int):
        raise m.throw("ArithmeticException", "/ by zero")
    if isinstance(a, int) and isinstance(b, int) and not isinstance(a, bool):
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    return a / b


def _mod(m: Machine, a: Any, b: Any) -> Any:
    if b == 0 and isinstance(a, int) and isinstance(b, int):
        raise m.throw("ArithmeticException", "% by zero")
    if isinstance(a, int) and isinstance(b, int):
        return a - _div(m, a, b) * b
    return math.fmod(a, b)


def _eq(m: Machine, a: Any, b: Any) -> bool:
    if isinstance(a, (VMInstance, VMArray)) or isinstance(b, (VMInstance, VMArray)):
        return a is b
    if isinstance(a, RemoteRef) or isinstance(b, RemoteRef):
        # Identity comparison against an unfetched object cannot be
        # answered locally; a remote ref equals nothing but itself.
        return a is b
    return a == b


_ARITH: Dict[str, Callable[[Machine, Any, Any], Any]] = {
    op.ADD: _add,
    op.SUB: lambda m, a, b: a - b,
    op.MUL: lambda m, a, b: a * b,
    op.DIV: _div,
    op.MOD: _mod,
    op.EQ: _eq,
    op.NE: lambda m, a, b: not _eq(m, a, b),
    op.LT: lambda m, a, b: a < b,
    op.LE: lambda m, a, b: a <= b,
    op.GT: lambda m, a, b: a > b,
    op.GE: lambda m, a, b: a >= b,
}

#: 2-arg fast equivalents used by fused superinstructions.  ``EQ``/``NE``
#: reduce to ``operator.eq``/``ne`` because no guest value type defines
#: ``__eq__``: VMInstance/VMArray/RemoteRef fall back to identity, which
#: is exactly what :func:`_eq` computes, and primitives compare by value.
#: ``ADD`` (string coercion) and ``DIV``/``MOD`` (guest exceptions) are
#: deliberately absent — they keep the 3-arg machine helpers.
_FAST2: Dict[str, Callable[[Any, Any], Any]] = {
    op.SUB: operator.sub,
    op.MUL: operator.mul,
    op.EQ: operator.eq,
    op.NE: operator.ne,
    op.LT: operator.lt,
    op.LE: operator.le,
    op.GT: operator.gt,
    op.GE: operator.ge,
}


# -- the oracle: one handler per opcode ------------------------------------------
#
# Each opcode's reference semantics.  The hooked loop calls them
# through ``_OPS``; tier 1's fallback arm and tier 2's ``gen_oracle``
# through :meth:`Machine._execute`.  A handler leaves ``frame.pc`` at
# the next bci and updates it only after its last raise point, so a
# throwing instruction leaves ``pc`` at its own bci (a call advances it
# before it builds the callee's frame).

_Handler = Callable[[Machine, ThreadState, Frame, Any], None]


def _do_const(m: Machine, thread: ThreadState, frame: Frame, ins: Any) -> None:
    frame.stack.append(ins.a)
    frame.pc += 1


def _do_load(m: Machine, thread: ThreadState, frame: Frame, ins: Any) -> None:
    frame.stack.append(frame.locals[ins.a])
    frame.pc += 1


def _do_store(m: Machine, thread: ThreadState, frame: Frame, ins: Any) -> None:
    frame.locals[ins.a] = frame.stack.pop()
    frame.pc += 1


def _do_pop(m: Machine, thread: ThreadState, frame: Frame, ins: Any) -> None:
    frame.stack.pop()
    frame.pc += 1


def _do_dup(m: Machine, thread: ThreadState, frame: Frame, ins: Any) -> None:
    stack = frame.stack
    stack.append(stack[-1])
    frame.pc += 1


def _do_swap(m: Machine, thread: ThreadState, frame: Frame, ins: Any) -> None:
    stack = frame.stack
    stack[-1], stack[-2] = stack[-2], stack[-1]
    frame.pc += 1


def _do_nop(m: Machine, thread: ThreadState, frame: Frame, ins: Any) -> None:
    frame.pc += 1


def _do_new(m: Machine, thread: ThreadState, frame: Frame, ins: Any) -> None:
    frame.stack.append(m.heap.new_instance(m.loader.load(ins.a)))
    frame.pc += 1


def _do_getf(m: Machine, thread: ThreadState, frame: Frame, ins: Any) -> None:
    stack = frame.stack
    obj = stack.pop()
    if is_nullish(obj):
        raise m._npe(obj, f"getfield {ins.a}")
    if not isinstance(obj, VMInstance) or ins.a not in obj.fields:
        raise LinkError(f"no field {ins.a!r} on {_tname(obj)}")
    stack.append(obj.fields[ins.a])
    frame.pc += 1


def _do_putf(m: Machine, thread: ThreadState, frame: Frame, ins: Any) -> None:
    stack = frame.stack
    value = stack.pop()
    obj = stack.pop()
    if is_nullish(obj):
        raise m._npe(obj, f"putfield {ins.a}")
    if not isinstance(obj, VMInstance) or ins.a not in obj.fields:
        raise LinkError(f"no field {ins.a!r} on {_tname(obj)}")
    obj.fields[ins.a] = value
    frame.pc += 1


def _do_gets(m: Machine, thread: ThreadState, frame: Frame, ins: Any) -> None:
    cls_name, fname = ins.a
    home = m.loader.load(cls_name).find_static_home(fname)
    frame.stack.append(home.statics[fname])
    frame.pc += 1


def _do_puts(m: Machine, thread: ThreadState, frame: Frame, ins: Any) -> None:
    cls_name, fname = ins.a
    home = m.loader.load(cls_name).find_static_home(fname)
    home.statics[fname] = frame.stack.pop()
    if m.on_static_write is not None:
        m.on_static_write(home)
    frame.pc += 1


def _do_isremote(m: Machine, thread: ThreadState, frame: Frame,
                 ins: Any) -> None:
    stack = frame.stack
    stack.append(isinstance(stack.pop(), RemoteRef))
    frame.pc += 1


def _do_newarr(m: Machine, thread: ThreadState, frame: Frame,
               ins: Any) -> None:
    stack = frame.stack
    n = stack.pop()
    if not isinstance(n, int) or n < 0:
        raise m.throw("IndexOutOfBoundsException", f"array length {n}")
    need = n * (ins.b or 8) + 16
    if m.node is not None and (
            m.heap.allocated_bytes + need > m.node.spec.ram_bytes):
        raise m.throw("OutOfMemoryError",
                      f"array of {need} bytes exceeds node RAM")
    stack.append(m.heap.new_array(ins.a, n, ins.b or 8))
    frame.pc += 1


def _do_aload(m: Machine, thread: ThreadState, frame: Frame, ins: Any) -> None:
    stack = frame.stack
    idx = stack.pop()
    arr = stack.pop()
    if is_nullish(arr):
        raise m._npe(arr, "arrayload")
    if not isinstance(arr, VMArray):
        raise VMError(f"arrayload on {_tname(arr)}")
    if not (0 <= idx < len(arr.data)):
        raise m.throw("IndexOutOfBoundsException",
                      f"index {idx} length {len(arr.data)}")
    stack.append(arr.data[idx])
    frame.pc += 1


def _do_astore(m: Machine, thread: ThreadState, frame: Frame,
               ins: Any) -> None:
    stack = frame.stack
    value = stack.pop()
    idx = stack.pop()
    arr = stack.pop()
    if is_nullish(arr):
        raise m._npe(arr, "arraystore")
    if not isinstance(arr, VMArray):
        raise VMError(f"arraystore on {_tname(arr)}")
    if not (0 <= idx < len(arr.data)):
        raise m.throw("IndexOutOfBoundsException",
                      f"index {idx} length {len(arr.data)}")
    arr.data[idx] = value
    frame.pc += 1


def _do_len(m: Machine, thread: ThreadState, frame: Frame, ins: Any) -> None:
    stack = frame.stack
    arr = stack.pop()
    if is_nullish(arr):
        raise m._npe(arr, "arraylength")
    if not isinstance(arr, VMArray):
        raise VMError(f"arraylength on {_tname(arr)}")
    stack.append(len(arr.data))
    frame.pc += 1


def _binop(fn: Callable[[Machine, Any, Any], Any]) -> _Handler:
    """The handler of one ``_ARITH`` operator."""
    def run(m: Machine, thread: ThreadState, frame: Frame, ins: Any) -> None:
        stack = frame.stack
        b = stack.pop()
        a = stack.pop()
        stack.append(fn(m, a, b))
        frame.pc += 1
    return run


def _do_neg(m: Machine, thread: ThreadState, frame: Frame, ins: Any) -> None:
    stack = frame.stack
    stack.append(-stack.pop())
    frame.pc += 1


def _do_not(m: Machine, thread: ThreadState, frame: Frame, ins: Any) -> None:
    stack = frame.stack
    stack.append(not truthy(stack.pop()))
    frame.pc += 1


def _do_jmp(m: Machine, thread: ThreadState, frame: Frame, ins: Any) -> None:
    frame.pc = ins.a


def _do_jz(m: Machine, thread: ThreadState, frame: Frame, ins: Any) -> None:
    if truthy(frame.stack.pop()):
        frame.pc += 1
    else:
        frame.pc = ins.a


def _do_jnz(m: Machine, thread: ThreadState, frame: Frame, ins: Any) -> None:
    if truthy(frame.stack.pop()):
        frame.pc = ins.a
    else:
        frame.pc += 1


def _do_lswitch(m: Machine, thread: ThreadState, frame: Frame,
                ins: Any) -> None:
    frame.pc = ins.a.get(frame.stack.pop(), ins.b)


def _do_ret(m: Machine, thread: ThreadState, frame: Frame, ins: Any) -> None:
    m._return(thread, None)


def _do_retv(m: Machine, thread: ThreadState, frame: Frame, ins: Any) -> None:
    m._return(thread, frame.stack.pop())


def _do_throw(m: Machine, thread: ThreadState, frame: Frame,
              ins: Any) -> None:
    exc = frame.stack.pop()
    if is_nullish(exc):
        raise m._npe(exc, "throw")
    if not isinstance(exc, VMInstance) or not exc.vmclass.is_subclass_of(
            "Throwable"):
        raise VMError(f"throw of non-Throwable {_tname(exc)}")
    raise GuestThrow(exc)


def _do_invokestatic(m: Machine, thread: ThreadState, frame: Frame,
                     ins: Any) -> None:
    cls_name, mname = ins.a
    stack, nargs = frame.stack, ins.b
    args = stack[len(stack) - nargs:] if nargs else []
    del stack[len(stack) - nargs:]
    code = m.loader.load(cls_name).find_method(mname)
    if code is None:
        raise LinkError(f"no method {cls_name}.{mname}")
    if not code.is_static:
        raise VMError(f"{cls_name}.{mname} is not static")
    frame.pc += 1
    thread.frames.append(Frame(code, args))


def _do_invokevirt(m: Machine, thread: ThreadState, frame: Frame,
                   ins: Any) -> None:
    stack, nargs = frame.stack, ins.b
    args = stack[len(stack) - nargs:] if nargs else []
    del stack[len(stack) - nargs:]
    receiver = stack.pop()
    if is_nullish(receiver):
        raise m._npe(receiver, f"invoke {ins.a}")
    code = m._resolve_method(receiver, ins.a)
    frame.pc += 1
    thread.frames.append(Frame(code, [receiver] + args))


def _do_native(m: Machine, thread: ThreadState, frame: Frame,
               ins: Any) -> None:
    stack, nargs = frame.stack, ins.b
    args = stack[len(stack) - nargs:] if nargs else []
    del stack[len(stack) - nargs:]
    fn = m.natives.lookup(ins.a)
    m.charge(m.cost.native_base)
    stack.append(fn(m, args))
    frame.pc += 1


#: opcode name -> its handler; built once, covering the ISA exactly
_OPS: Dict[str, _Handler] = {
    op.CONST: _do_const, op.LOAD: _do_load, op.STORE: _do_store,
    op.POP: _do_pop, op.DUP: _do_dup, op.SWAP: _do_swap, op.NOP: _do_nop,
    op.NEW: _do_new, op.GETF: _do_getf, op.PUTF: _do_putf,
    op.GETS: _do_gets, op.PUTS: _do_puts, op.ISREMOTE: _do_isremote,
    op.NEWARR: _do_newarr, op.ALOAD: _do_aload, op.ASTORE: _do_astore,
    op.LEN: _do_len, op.NEG: _do_neg, op.NOT: _do_not,
    op.JMP: _do_jmp, op.JZ: _do_jz, op.JNZ: _do_jnz,
    op.LSWITCH: _do_lswitch, op.RET: _do_ret, op.RETV: _do_retv,
    op.THROW: _do_throw, op.INVOKESTATIC: _do_invokestatic,
    op.INVOKEVIRT: _do_invokevirt, op.NATIVE: _do_native,
    **{name: _binop(fn) for name, fn in _ARITH.items()},
}
assert set(_OPS) == op.ALL_OPS, sorted(set(_OPS) ^ op.ALL_OPS)


# -- dense opcode ids used by the fast loop --------------------------------------

_I_CONST = op.OP_IDS[op.CONST]
_I_LOAD = op.OP_IDS[op.LOAD]
_I_STORE = op.OP_IDS[op.STORE]
_I_POP = op.OP_IDS[op.POP]
_I_DUP = op.OP_IDS[op.DUP]
_I_GETS = op.OP_IDS[op.GETS]
_I_ASTORE = op.OP_IDS[op.ASTORE]
_I_JMP = op.OP_IDS[op.JMP]
_I_RET = op.OP_IDS[op.RET]
_I_RETV = op.OP_IDS[op.RETV]
_I_INVOKESTATIC = op.OP_IDS[op.INVOKESTATIC]
_I_INVOKEVIRT = op.OP_IDS[op.INVOKEVIRT]
_I_NATIVE = op.OP_IDS[op.NATIVE]

#: the slot ``Machine._trap`` plants at a trap point: an opcode id no
#: instruction has (below every real one), so it falls through every arm
#: into the fallback, which returns ``"trap"`` before it executes
_TRAP = (-1, None, None, 0.0, 1, None, (0, 0.0, 0.0), None, None)
