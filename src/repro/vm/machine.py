"""The stack-machine VM.

:class:`Machine` executes guest bytecode with real frames, a real heap,
guest exception tables, breakpoints, and a virtual clock.  It is the
substrate that migration engines manipulate through the debug interface
(:mod:`repro.vm.vmti`).

Execution model per instruction:

1. deliver any pending (asynchronously injected) exception;
2. fire a breakpoint event if one is set at the current location;
3. execute the instruction, charging ``cost.op_cost`` to the clock
   (scaled by the hosting node's CPU speed factor).

Guest exceptions unwind through per-method exception tables; the
interpreter never uses host recursion for guest calls, so frames are
plain data that can be captured, shipped and rebuilt.

Dispatch
--------

:meth:`Machine.run` is the only way to execute a thread, and its
contract does not depend on which of three loops does the work:

* the **hooked loop** (:meth:`Machine._run_loop` + :meth:`_execute`)
  handles one instruction at a time — breakpoint checks and
  ``stop``/``max_instrs`` polling.  It executes the instructions that
  carry a hook — all of them under a breakpoint, ``max_instrs``, an
  undeclared ``stop`` or ``dispatch="legacy"`` — and is the
  hand-written oracle of the differential suites;
* **tier 1** (:meth:`Machine._run_fast`) runs the rest: a per-machine
  cached *decoded stream* (:mod:`repro.preprocess.fuse`) of dense
  integer opcodes, pre-resolved cost weights, fused superinstructions
  (the eight a flattened stream executes — its groups are ``LOAD t..;
  op; STORE t`` — tested in that stream's measured order) and
  monomorphic inline caches, with clock / instruction accounting
  batched in locals and flushed at natives, exception dispatch and
  loop exit;
* **tier 2** (:mod:`repro.vm.jit`; ``jit=``, default on, off under
  ``REPRO_JIT=0``) replaces hot code objects of a tier-1 run by
  specialized Python closures, one frame at a time.

What selects a loop is host-side state only (breakpoints, ``stop``,
``max_instrs``, ``dispatch=``, ``fuse=``, ``jit=``, hotness).  A
``stop`` may *declare* ``entry_of``, a frozenset of ``(class,
method)`` at whose bci 0 alone it can be true; :meth:`run` then asks
it exactly there — after pending-exception delivery, before the
instruction, where the hooked loop would — by trapping slot 0 of those
methods' decoded streams for the call (:meth:`Machine._run_declared`):
a hit syncs ``frame.pc``, flushes and asks; on "no" the hooked loop
executes that one instruction and the fast tiers resume — the retreat
is two-way.  Only a breakpoint a native installs *mid-run* retreats
for good.  What no selection may change:

* the **result**, ``stdout``, uncaught exception and ``instr_count`` —
  equal, always;
* the **preemption points**.  A scheduler ``quantum`` expires only
  *before executing a safepoint instruction*
  (:func:`repro.bytecode.opcodes.is_safepoint`: a call, a native, a
  return, or a backward ``JMP``) once the run has executed at least
  ``quantum`` instructions.  The set is declared there and nowhere
  else; each loop tests it at exactly those instructions, the fuser
  asserts none is ever fused, and the tier-2 compiler refuses to emit
  a check anywhere else.  So the sequence of ``(frame, pc,
  instr_count)`` at which a time-sliced thread stops — and everything
  a cluster model derives from it — is the same in every loop;
* the **clock**, to float re-association (tiers sum the same
  instruction weights in different orders; every comparison in the
  tree is ``math.isclose`` at 1e-9).

``frame.pc`` always holds an *original* bytecode index (fused
superinstructions live in a parallel stream — see
:mod:`repro.preprocess.fuse`), so VMTI, capture/restore, exception
tables and line tables are oblivious to fusion and to the tier.

Inline caches are valid because classes cannot be redefined once linked
(:meth:`repro.vm.classloader.ClassLoader.define` refuses) and method
tables/static homes are immutable after linking; caches live in the
per-machine decoded stream, never on shared ``CodeObject``s.  Swapping
``machine.cost`` (or mutating its weight table) or mutating a method's
``instrs`` after execution started requires
:meth:`Machine.invalidate_caches`.

Namespaces
----------

A thread whose :attr:`~repro.vm.frames.ThreadState.namespace` tag is
set executes inside that class-loader namespace
(:class:`repro.vm.classloader.Namespace`): for the duration of
:meth:`run`, ``machine.loader`` *is* the namespace loader and the
decoded-stream cache is the namespace's own map, so the
``GETS``/``PUTS``/``INVOKESTATIC`` inline caches bind per
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
from repro.bytecode.code import ClassFile, CodeObject
from repro.errors import LinkError, NativeError, VMError
from repro.preprocess.fuse import (F_CONST_STORE, F_LL_ALOAD, F_LL_ARITH,
                                   F_LL_OP2, F_LOAD_GETF, F_LOAD_JNZ,
                                   F_LOAD_JZ, F_LOAD_LOAD, decode_and_fuse)
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
                 fuse: bool = True,
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
        #: simulated seconds consumed by this VM
        self.clock = 0.0
        #: executed instruction count
        self.instr_count = 0
        #: worst scheduler-quantum overshoot seen (instructions executed
        #: beyond the budget before a safepoint poll fired) — the
        #: fairness-coverage meter for leaf-method straight-line tails
        self.max_quantum_overshoot = 0
        #: guest console output lines
        self.stdout: List[str] = []
        #: breakpoints: (class_name, method_name, bci)
        self.breakpoints: set[Tuple[str, str, int]] = set()
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
        #: or "legacy" (string-dispatched reference loop)
        self.dispatch = dispatch
        #: fuse superinstructions in the decoded stream
        self.fuse = fuse
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
        #: during :meth:`_run_declared`: (``entry_of``, undo log)
        self._traps: Optional[Tuple[frozenset, List[tuple]]] = None

    # -- time ------------------------------------------------------------

    def charge(self, reference_seconds: float) -> None:
        """Add CPU time (scaled by the node's speed factor)."""
        self.clock += reference_seconds * self._speed

    def charge_raw(self, seconds: float) -> None:
        """Add wall time not subject to CPU scaling (I/O, network)."""
        self.clock += seconds

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

    def spawn_on_instance(self, receiver: VMInstance, method_name: str,
                          args: Optional[List[Any]] = None,
                          thread_name: str = "main") -> ThreadState:
        """Create a thread invoking an instance method on ``receiver``
        (in the namespace that linked the receiver's class)."""
        code = receiver.vmclass.find_method(method_name)
        if code is None or code.is_static:
            raise LinkError(
                f"no instance method {receiver.class_name}.{method_name}")
        thread = ThreadState(thread_name,
                             namespace=receiver.vmclass.namespace)
        thread.frames.append(Frame(code, [receiver] + list(args or [])))
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
                                     _FAST2, fuse=self.fuse)
            self._decoded[code] = stream
            if self._traps is not None:
                self._trap(code)
        return stream

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
        """Tier-2 compile a method ahead of its hotness threshold.

        The serve scheduler calls this when ``WorkProfile`` already
        knows a program is heavy: there is no point interpreting the
        first ``JIT_THRESHOLD`` activations of a request that will run
        millions of instructions.  Compiles against ``namespace``'s
        loader/caches (the root's when ``None``).  Returns True when a
        compiled closure is available afterwards."""
        if not self.jit:
            return False
        from repro.vm.jit import compile_into
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
        declares ``entry_of`` only at bci 0 of the methods it names,
        and the run keeps the fast tiers ("Dispatch" above).

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
        ``frame.pc`` — the faulting bci — is defined.  How much of the
        faulting group was charged differs by loop (tier 1 has not
        charged a fused group's leading components, tier 2 nothing
        since its last flush) and tier 2 may not have written its
        latest temps to ``frame.locals``; no caller reads either.
        Guest throws, preemptions, calls, natives and deopts are exact
        in every loop."""
        if quantum is not None and quantum < 1:
            raise VMError(f"bad scheduler quantum {quantum}")
        op_cost = self.cost.unit_op_cost() * self._speed
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
            if ((stop is None or getattr(stop, "entry_of", None))
                    and max_instrs is None
                    and self.dispatch == "fast"
                    and not self.breakpoints
                    and self.on_breakpoint is None):
                self._bp_guard = None
                status = self._run_fast(thread, op_cost, quantum) \
                    if stop is None else \
                    self._run_declared(thread, stop, op_cost, quantum)
                if status is not None:
                    return status
                # A native installed a breakpoint mid-run: the fast loop
                # synced frame.pc and flushed accounting — continue
                # under the hooked loop.
            return self._run_loop(thread, stop, max_instrs, op_cost,
                                  self.instr_count - start_count, quantum)
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

    def _run_declared(self, thread: ThreadState, stop: Any, op_cost: float,
                      quantum: Optional[int]) -> Optional[str]:
        """:meth:`_run_fast` under a declared ``stop`` ("Dispatch" above);
        re-entries get what is left of ``quantum``: one absolute watermark."""
        start = self.instr_count
        undo: List[tuple] = []
        self._traps = (stop.entry_of, undo)
        try:
            for code in [*self._decoded, *self._compiled]:
                self._trap(code)
            while True:
                ran = self.instr_count - start
                try:
                    return self._run_fast(
                        thread, op_cost,
                        None if quantum is None else quantum - ran)
                except _EntryTrap:  # frame.pc synced, accounting flushed
                    if stop(thread):
                        return "stopped"
                    ran = self.instr_count - start
                    status = self._run_loop(thread, None, ran + 1, op_cost,
                                            ran, quantum)
                    if status != "limit":
                        return status
        finally:
            self._traps = None
            for box, key, old in undo:
                if old is None:  # a tier-up declined during the run
                    box.pop(key, None)
                else:
                    box[key] = old

    def _trap(self, code: CodeObject) -> bool:
        """Is ``code`` named by the running declared ``stop``?  Then, in
        the running maps, trap its stream and mask its closure (if any)."""
        names, undo = self._traps
        if (code.class_name, code.name) not in names:
            return False
        stream = self._decoded.get(code)
        if stream is not None and stream[0] is not _TRAP:
            undo.append((stream, 0, stream[0]))
            stream[0] = _TRAP
        if self._compiled.get(code) is not False:
            undo.append((self._compiled, code, self._compiled.get(code)))
            self._compiled[code] = False
        return True

    # -- the fast loop -----------------------------------------------------------

    def _run_fast(self, thread: ThreadState, op_cost: float,
                  quantum: Optional[int] = None) -> Optional[str]:
        """Zero-overhead interpretation of ``thread``.

        Preconditions (enforced by :meth:`run`): no breakpoints, no
        breakpoint callback, no ``stop`` but a declared one (its traps
        raise :class:`_EntryTrap` through here), no instruction limit.
        Returns ``"finished"``, ``"preempted"`` (``quantum`` expired at
        a safepoint), or ``None`` if a native call armed hooks and the
        loop retreated (``frame.pc`` synced, accounting flushed) for
        :meth:`run` to continue on the legacy loop.
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
        # tier-up machinery (lazy import: jit.py leans on this module).
        jm = None
        if self.jit:
            from repro.vm.jit import JIT_THRESHOLD as TH
            from repro.vm.jit import compile_into as _ci
            jm = self._compiled
        # dense opcode ids as locals (LOAD_FAST beats LOAD_GLOBAL)
        I_LOAD = _I_LOAD; I_CONST = _I_CONST; I_STORE = _I_STORE
        I_JMP = _I_JMP; I_JZ = _I_JZ; I_JNZ = _I_JNZ
        I_GETF = _I_GETF; I_PUTF = _I_PUTF; I_GETS = _I_GETS
        I_ALOAD = _I_ALOAD; I_ASTORE = _I_ASTORE
        I_DUP = _I_DUP; I_POP = _I_POP
        I_INVOKESTATIC = _I_INVOKESTATIC; I_INVOKEVIRT = _I_INVOKEVIRT
        I_NATIVE = _I_NATIVE; I_RET = _I_RET; I_RETV = _I_RETV
        BIN_LO = _I_BINOP_LO; BIN_HI = _I_BINOP_HI
        FI_LL_OP2 = F_LL_OP2; FI_LL_ARITH = F_LL_ARITH
        FI_LL_ALOAD = F_LL_ALOAD; FI_LOAD_LOAD = F_LOAD_LOAD
        FI_CONST_STORE = F_CONST_STORE; FI_LOAD_GETF = F_LOAD_GETF
        FI_LOAD_JZ = F_LOAD_JZ; FI_LOAD_JNZ = F_LOAD_JNZ
        try:
            while frames:
                if thread.pending_exception is not None:
                    exc = thread.pending_exception
                    thread.pending_exception = None
                    self.clock += op_cost * w_acc
                    self.instr_count += n_acc
                    w_acc = 0.0
                    n_acc = 0
                    if not self._dispatch(thread, exc):
                        return "finished"
                    continue
                frame = frames[-1]
                if jm is not None:
                    # Tier-up driver: every frame (re)entry at a
                    # compiled entry point runs the closure; everything
                    # else falls through to tier-1 interpretation.
                    code = frame.code
                    cf = jm.get(code)
                    if cf is None:
                        h = code.hotness = code.hotness + 1
                        if h >= TH:
                            cf = _ci(self, code, jm)
                    if cf and frame.pc in cf[1]:
                        res = cf[0](self, thread, frame, frames, q_limit,
                                    w_acc, n_acc, op_cost)
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
                        if st == 4:       # pending exception armed
                            continue
                        # st == 5: a native installed hooks mid-region —
                        # deoptimize (state is materialized) and retreat
                        self.jit_deopts += 1
                        return None
                stream = decoded.get(frame.code)
                if stream is None:
                    stream = self.decoded(frame.code)
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
                        # four registry programs, 4,818,128 dispatches
                        # for 6,632,609 instructions): LOAD 27.4% and
                        # STORE 40.6 (swapping the two measures the
                        # same; LOAD leads every unflattened stream),
                        # LOAD+LOAD+arith 6.8, CONST+STORE 5.1, LOAD+JZ
                        # 4.0, LOAD+LOAD+arith(m) 3.7, LOAD+LOAD+ALOAD
                        # 2.5, LOAD+LOAD 1.8, GETS 1.6, JMP 1.3,
                        # INVOKESTATIC 1.2, ASTORE 1.1, RETV 1.0, the
                        # rest under 0.5 each.  Plain CONST / ALOAD /
                        # binop / JZ / JNZ / GETF come last: flattened
                        # code pairs each with a LOAD or a STORE, so
                        # they run only after a jump or a resume into
                        # the middle of a group (0 dispatches there;
                        # the original build pays for it).
                        if oid == I_LOAD:
                            push(locs[ins[1]])
                            pc += 1
                        elif oid == I_STORE:
                            locs[ins[1]] = pop()
                            pc += 1
                        elif oid == FI_LL_OP2:
                            push(ins[5](locs[ins[1]], locs[ins[2]]))
                            pc += 3
                        elif oid == FI_CONST_STORE:
                            locs[ins[2]] = ins[1]
                            pc += 2
                        elif oid == FI_LOAD_JZ:
                            pc = pc + 2 if tr(locs[ins[1]]) else ins[2]
                        elif oid == FI_LL_ARITH:
                            push(ins[5](self, locs[ins[1]], locs[ins[2]]))
                            pc += 3
                        elif oid == FI_LL_ALOAD:
                            arr = locs[ins[1]]
                            idx = locs[ins[2]]
                            if not isinstance(arr, Arr):
                                _arr_fail(self, arr, "arrayload")
                            data = arr.data
                            if 0 <= idx < len(data):
                                push(data[idx])
                            else:
                                raise _iobe(self, idx, len(data))
                            pc += 3
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
                                code2 = frame.code
                                cf2 = jm.get(code2)
                                if cf2 is None:
                                    h = code2.hotness = code2.hotness + 1
                                    if h >= TH:
                                        cf2 = _ci(self, code2, jm)
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
                            code2 = c[0]
                            nargs = ins[2]
                            if nargs:
                                args = stack[-nargs:]
                                del stack[-nargs:]
                            else:
                                args = []
                            frame.pc = pc + 1
                            # pre-validated arity: build the frame without
                            # re-running Frame.__init__'s checks
                            frame = Frm.__new__(Frm)
                            frame.code = code2
                            frame.locals = locs = args + c[1]
                            frame.stack = stack = []
                            frame.pc = pc = 0
                            frame.pinned = False
                            frames.append(frame)
                            push = stack.append
                            pop = stack.pop
                            stream = decoded.get(code2)
                            if stream is None:
                                stream = self.decoded(code2)
                            if jm is not None:
                                # Tier-up at the call site: charge the
                                # invoke, then enter via the driver.
                                cf2 = jm.get(code2)
                                if cf2 is None:
                                    h = code2.hotness = code2.hotness + 1
                                    if h >= TH:
                                        cf2 = _ci(self, code2, jm)
                                if cf2:
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
                        elif oid == I_RETV:
                            if q is not None and \
                                    self.instr_count + n_acc >= q_limit:
                                frame.pc = pc
                                return "preempted"
                            value = pop()
                            frames.pop()
                            if frames:
                                frame = frames[-1]
                                stack = frame.stack
                                stack.append(value)
                                locs = frame.locals
                                pc = frame.pc
                                push = stack.append
                                pop = stack.pop
                                code2 = frame.code
                                stream = decoded.get(code2)
                                if stream is None:
                                    stream = self.decoded(code2)
                                if jm is not None:
                                    # Re-enter a compiled caller at its
                                    # return-continuation entry point.
                                    cf2 = jm.get(code2)
                                    if cf2 and pc in cf2[1]:
                                        w_acc += ins[3]
                                        n_acc += ins[4]
                                        break
                            else:
                                thread.finished = True
                                thread.result = value
                                w_acc += ins[3]
                                n_acc += 1
                                break
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
                        elif oid == I_RET:
                            if q is not None and \
                                    self.instr_count + n_acc >= q_limit:
                                frame.pc = pc
                                return "preempted"
                            frames.pop()
                            if frames:
                                frame = frames[-1]
                                stack = frame.stack
                                stack.append(None)
                                locs = frame.locals
                                pc = frame.pc
                                push = stack.append
                                pop = stack.pop
                                code2 = frame.code
                                stream = decoded.get(code2)
                                if stream is None:
                                    stream = self.decoded(code2)
                                if jm is not None:
                                    cf2 = jm.get(code2)
                                    if cf2 and pc in cf2[1]:
                                        w_acc += ins[3]
                                        n_acc += ins[4]
                                        break
                            else:
                                thread.finished = True
                                thread.result = None
                                w_acc += ins[3]
                                n_acc += 1
                                break
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
                            # charge time, or install hooks — flush batched
                            # accounting and expose a precise frame.pc.
                            self.clock += op_cost * w_acc
                            self.instr_count += n_acc
                            w_acc = 0.0
                            n_acc = 0
                            frame.pc = pc
                            fn = self.natives.lookup(ins[1])
                            self.charge(self.cost.native_base)
                            push(fn(self, args))
                            pc += 1
                            if (self.breakpoints
                                    or self.on_breakpoint is not None):
                                # Loop-selection guard: breakpoints appeared.
                                w_acc += ins[3]
                                n_acc += 1
                                frame.pc = pc
                                return None
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
                            code2 = c[0]
                            frame.pc = pc + 1
                            frame = Frm.__new__(Frm)
                            frame.code = code2
                            frame.locals = locs = [receiver] + args + c[1]
                            frame.stack = stack = []
                            frame.pc = pc = 0
                            frame.pinned = False
                            frames.append(frame)
                            push = stack.append
                            pop = stack.pop
                            stream = decoded.get(code2)
                            if stream is None:
                                stream = self.decoded(code2)
                            if jm is not None:
                                cf2 = jm.get(code2)
                                if cf2 is None:
                                    h = code2.hotness = code2.hotness + 1
                                    if h >= TH:
                                        cf2 = _ci(self, code2, jm)
                                if cf2:
                                    w_acc += ins[3]
                                    n_acc += ins[4]
                                    break
                        elif oid == I_PUTF:
                            value = pop()
                            obj = pop()
                            fname = ins[1]
                            if isinstance(obj, Inst) and fname in obj.fields:
                                obj.fields[fname] = value
                            else:
                                _field_fail(self, obj, fname, "putfield")
                            pc += 1
                        elif oid == I_CONST:
                            push(ins[1])
                            pc += 1
                        elif oid == I_ALOAD:
                            idx = pop()
                            arr = pop()
                            if not isinstance(arr, Arr):
                                _arr_fail(self, arr, "arrayload")
                            data = arr.data
                            if 0 <= idx < len(data):
                                push(data[idx])
                            else:
                                raise _iobe(self, idx, len(data))
                            pc += 1
                        elif BIN_LO <= oid <= BIN_HI:
                            b = pop()
                            a = pop()
                            push(ins[5](self, a, b))
                            pc += 1
                        elif oid == I_JZ:
                            pc = pc + 1 if tr(pop()) else ins[1]
                        elif oid == I_JNZ:
                            pc = ins[1] if tr(pop()) else pc + 1
                        elif oid == I_GETF:
                            obj = pop()
                            fname = ins[1]
                            v = obj.fields.get(fname, miss) \
                                if isinstance(obj, Inst) else miss
                            if v is miss:
                                _field_fail(self, obj, fname, "getfield")
                            push(v)
                            pc += 1
                        else:
                            h = _COLD.get(oid)
                            if h is None:  # pragma: no cover
                                raise VMError(
                                    f"unimplemented opcode "
                                    f"{frame.code.instrs[pc].op}")
                            pc = h(self, frame, stack, ins, pc)
                        w_acc += ins[3]
                        n_acc += ins[4]
                except GuestThrow as gt:
                    # Guest exceptions always originate from the last
                    # component of a (super)instruction: report the
                    # precise faulting bci and charge the group's leading
                    # components, then dispatch.  The faulting component
                    # itself is charged only when a handler is found —
                    # the legacy loop returns before charging a fatally-
                    # throwing instruction.
                    frame.pc = pc + ins[4] - 1
                    self.clock += op_cost * (w_acc + ins[6])
                    self.instr_count += n_acc + ins[4] - 1
                    w_acc = 0.0
                    n_acc = 0
                    if not self._dispatch(thread, gt.exc):
                        return "finished"
                    w_acc = ins[3] - ins[6]
                    n_acc = 1
                except BaseException:
                    # Host-level error (LinkError, VMError, TypeError...):
                    # report the faulting bci like the legacy loop before
                    # propagating — a group's last component, as above.
                    frame.pc = pc + ins[4] - 1
                    raise
            thread.finished = True
            return "finished"
        finally:
            self.clock += op_cost * w_acc
            self.instr_count += n_acc

    # -- the legacy (hook-aware) loop ---------------------------------------------

    def _run_loop(self, thread: ThreadState,
                  stop: Optional[Callable[[ThreadState], bool]],
                  max_instrs: Optional[int],
                  op_cost: float, executed: int,
                  quantum: Optional[int] = None) -> str:
        weight = self.cost.op_weights.get
        while thread.frames:
            if thread.pending_exception is not None:
                exc = thread.pending_exception
                thread.pending_exception = None
                if not self._dispatch(thread, exc):
                    return "finished"
                continue
            if stop is not None and stop(thread):
                return "stopped"
            if max_instrs is not None and executed >= max_instrs:
                return "limit"
            frame = thread.frames[-1]
            pc = frame.pc
            if quantum is not None and executed >= quantum:
                ins = frame.code.instrs[pc]
                if op.is_safepoint(ins.op, ins.a, pc):
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
            ins = frame.code.instrs[pc]
            try:
                self._execute(thread, frame, ins)
            except GuestThrow as gt:
                if not self._dispatch(thread, gt.exc):
                    return "finished"
            self.clock += op_cost * weight(ins.op, 1.0)
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
        o = ins.op
        stack = frame.stack

        if o == op.LOAD:
            stack.append(frame.locals[ins.a])
        elif o == op.STORE:
            frame.locals[ins.a] = stack.pop()
        elif o == op.CONST:
            stack.append(ins.a)
        elif o == op.JMP:
            frame.pc = ins.a
            return
        elif o == op.JZ:
            if not truthy(stack.pop()):
                frame.pc = ins.a
                return
        elif o == op.JNZ:
            if truthy(stack.pop()):
                frame.pc = ins.a
                return
        elif o in _ARITH:
            b = stack.pop()
            a = stack.pop()
            stack.append(_ARITH[o](self, a, b))
        elif o == op.NEG:
            stack.append(-stack.pop())
        elif o == op.NOT:
            stack.append(not truthy(stack.pop()))
        elif o == op.POP:
            stack.pop()
        elif o == op.DUP:
            stack.append(stack[-1])
        elif o == op.SWAP:
            stack[-1], stack[-2] = stack[-2], stack[-1]
        elif o == op.NOP:
            pass
        elif o == op.GETF:
            obj = stack.pop()
            if is_nullish(obj):
                raise self._npe(obj, f"getfield {ins.a}")
            if not isinstance(obj, VMInstance) or ins.a not in obj.fields:
                raise LinkError(f"no field {ins.a!r} on {_tname(obj)}")
            stack.append(obj.fields[ins.a])
        elif o == op.PUTF:
            value = stack.pop()
            obj = stack.pop()
            if is_nullish(obj):
                raise self._npe(obj, f"putfield {ins.a}")
            if not isinstance(obj, VMInstance) or ins.a not in obj.fields:
                raise LinkError(f"no field {ins.a!r} on {_tname(obj)}")
            obj.fields[ins.a] = value
        elif o == op.GETS:
            cls_name, fname = ins.a
            home = self.loader.load(cls_name).find_static_home(fname)
            stack.append(home.statics[fname])
        elif o == op.PUTS:
            cls_name, fname = ins.a
            home = self.loader.load(cls_name).find_static_home(fname)
            home.statics[fname] = stack.pop()
            if self.on_static_write is not None:
                self.on_static_write(home)
        elif o == op.ISREMOTE:
            stack.append(isinstance(stack.pop(), RemoteRef))
        elif o == op.NEW:
            stack.append(self.heap.new_instance(self.loader.load(ins.a)))
        elif o == op.NEWARR:
            n = stack.pop()
            if not isinstance(n, int) or n < 0:
                raise self.throw("IndexOutOfBoundsException",
                                 f"array length {n}")
            need = n * (ins.b or 8) + 16
            if self.node is not None and (
                    self.heap.allocated_bytes + need
                    > self.node.spec.ram_bytes):
                raise self.throw(
                    "OutOfMemoryError",
                    f"array of {need} bytes exceeds node RAM")
            stack.append(self.heap.new_array(ins.a, n, ins.b or 8))
        elif o == op.ALOAD:
            idx = stack.pop()
            arr = stack.pop()
            if is_nullish(arr):
                raise self._npe(arr, "arrayload")
            if not isinstance(arr, VMArray):
                raise VMError(f"arrayload on {_tname(arr)}")
            if not (0 <= idx < len(arr.data)):
                raise self.throw("IndexOutOfBoundsException",
                                 f"index {idx} length {len(arr.data)}")
            stack.append(arr.data[idx])
        elif o == op.ASTORE:
            value = stack.pop()
            idx = stack.pop()
            arr = stack.pop()
            if is_nullish(arr):
                raise self._npe(arr, "arraystore")
            if not isinstance(arr, VMArray):
                raise VMError(f"arraystore on {_tname(arr)}")
            if not (0 <= idx < len(arr.data)):
                raise self.throw("IndexOutOfBoundsException",
                                 f"index {idx} length {len(arr.data)}")
            arr.data[idx] = value
        elif o == op.LEN:
            arr = stack.pop()
            if is_nullish(arr):
                raise self._npe(arr, "arraylength")
            if not isinstance(arr, VMArray):
                raise VMError(f"arraylength on {_tname(arr)}")
            stack.append(len(arr.data))
        elif o == op.INVOKESTATIC:
            cls_name, mname = ins.a
            nargs = ins.b
            args = stack[len(stack) - nargs:] if nargs else []
            del stack[len(stack) - nargs:]
            cls = self.loader.load(cls_name)
            code = cls.find_method(mname)
            if code is None:
                raise LinkError(f"no method {cls_name}.{mname}")
            if not code.is_static:
                raise VMError(f"{cls_name}.{mname} is not static")
            frame.pc += 1
            thread.frames.append(Frame(code, args))
            return
        elif o == op.INVOKEVIRT:
            nargs = ins.b
            args = stack[len(stack) - nargs:] if nargs else []
            del stack[len(stack) - nargs:]
            receiver = stack.pop()
            if is_nullish(receiver):
                raise self._npe(receiver, f"invoke {ins.a}")
            code = self._resolve_method(receiver, ins.a)
            frame.pc += 1
            thread.frames.append(Frame(code, [receiver] + args))
            return
        elif o == op.NATIVE:
            nargs = ins.b
            args = stack[len(stack) - nargs:] if nargs else []
            del stack[len(stack) - nargs:]
            fn = self.natives.lookup(ins.a)
            self.charge(self.cost.native_base)
            stack.append(fn(self, args))
        elif o == op.RET:
            self._return(thread, None)
            return
        elif o == op.RETV:
            self._return(thread, stack.pop())
            return
        elif o == op.THROW:
            exc = stack.pop()
            if is_nullish(exc):
                raise self._npe(exc, "throw")
            if not isinstance(exc, VMInstance) or not exc.vmclass.is_subclass_of("Throwable"):
                raise VMError(f"throw of non-Throwable {_tname(exc)}")
            raise GuestThrow(exc)
        elif o == op.LSWITCH:
            key = stack.pop()
            frame.pc = ins.a.get(key, ins.b)
            return
        else:  # pragma: no cover
            raise VMError(f"unimplemented opcode {o}")
        frame.pc += 1

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
# written once for both (``_execute`` stays the independent oracle the
# differential suites compare them with).

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


def _throw_carrier(m: "Machine", exc: Any) -> Exception:
    """The host exception to raise for a guest ``THROW`` of ``exc``."""
    if is_nullish(exc):
        return m._npe(exc, "throw")
    if not isinstance(exc, VMInstance) \
            or not exc.vmclass.is_subclass_of("Throwable"):
        return VMError(f"throw of non-Throwable {_tname(exc)}")
    return GuestThrow(exc)


def _newarr(m: "Machine", n: Any, kind: str, elem_bytes: int) -> VMArray:
    if not isinstance(n, int) or n < 0:
        raise m.throw("IndexOutOfBoundsException", f"array length {n}")
    need = n * elem_bytes + 16
    if m.node is not None and (
            m.heap.allocated_bytes + need > m.node.spec.ram_bytes):
        raise m.throw("OutOfMemoryError",
                      f"array of {need} bytes exceeds node RAM")
    return m.heap.new_array(kind, n, elem_bytes)


def _static_cell(m: "Machine", key: Tuple[str, str]
                 ) -> Tuple[Dict[str, Any], str, VMClass]:
    """Inline-cache content for a ``GETS``/``PUTS`` site: the home
    class's statics dict, the field name, and the home class."""
    cls_name, fname = key
    home = m.loader.load(cls_name).find_static_home(fname)
    return (home.statics, fname, home)


def _put_static(m: "Machine", c: Tuple[Dict[str, Any], str, VMClass],
                value: Any) -> None:
    """The ``PUTS`` body of tier 1 and tier 2 over a bound
    :func:`_static_cell`: store, then tell the static-write hook."""
    c[0][c[1]] = value
    if m.on_static_write is not None:
        m.on_static_write(c[2])


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


# -- dense opcode ids used by the fast loop --------------------------------------

_I_CONST = op.OP_IDS[op.CONST]
_I_LOAD = op.OP_IDS[op.LOAD]
_I_STORE = op.OP_IDS[op.STORE]
_I_POP = op.OP_IDS[op.POP]
_I_DUP = op.OP_IDS[op.DUP]
_I_GETF = op.OP_IDS[op.GETF]
_I_PUTF = op.OP_IDS[op.PUTF]
_I_GETS = op.OP_IDS[op.GETS]
_I_ALOAD = op.OP_IDS[op.ALOAD]
_I_ASTORE = op.OP_IDS[op.ASTORE]
_I_JMP = op.OP_IDS[op.JMP]
_I_JZ = op.OP_IDS[op.JZ]
_I_JNZ = op.OP_IDS[op.JNZ]
_I_RET = op.OP_IDS[op.RET]
_I_RETV = op.OP_IDS[op.RETV]
_I_INVOKESTATIC = op.OP_IDS[op.INVOKESTATIC]
_I_INVOKEVIRT = op.OP_IDS[op.INVOKEVIRT]
_I_NATIVE = op.OP_IDS[op.NATIVE]
_I_BINOP_LO = op.OP_IDS[op.ADD]
_I_BINOP_HI = op.OP_IDS[op.GE]


# -- cold-path handlers for the fast loop ----------------------------------------
#
# Rarely executed opcodes are dispatched through this table instead of
# bloating the hot if/elif chain.  Signature: fn(machine, frame, stack,
# ins, pc) -> new pc; guest exceptions propagate as GuestThrow.

def _cold_new(m: "Machine", frame: Frame, stack: list, ins: tuple,
              pc: int) -> int:
    stack.append(m.heap.new_instance(m.loader.load(ins[1])))
    return pc + 1


def _cold_newarr(m: "Machine", frame: Frame, stack: list, ins: tuple,
                 pc: int) -> int:
    stack.append(_newarr(m, stack.pop(), ins[1], ins[2] or 8))
    return pc + 1


def _cold_len(m: "Machine", frame: Frame, stack: list, ins: tuple,
              pc: int) -> int:
    arr = stack.pop()
    if not isinstance(arr, VMArray):
        _arr_fail(m, arr, "arraylength")
    stack.append(len(arr.data))
    return pc + 1


def _cold_puts(m: "Machine", frame: Frame, stack: list, ins: tuple,
               pc: int) -> int:
    cell = ins[5]
    c = cell[0]
    if c is None:
        c = cell[0] = _static_cell(m, ins[1])
    _put_static(m, c, stack.pop())
    return pc + 1


def _cold_isremote(m: "Machine", frame: Frame, stack: list, ins: tuple,
                   pc: int) -> int:
    stack.append(isinstance(stack.pop(), RemoteRef))
    return pc + 1


def _cold_neg(m: "Machine", frame: Frame, stack: list, ins: tuple,
              pc: int) -> int:
    stack.append(-stack.pop())
    return pc + 1


def _cold_not(m: "Machine", frame: Frame, stack: list, ins: tuple,
              pc: int) -> int:
    stack.append(not truthy(stack.pop()))
    return pc + 1


def _cold_swap(m: "Machine", frame: Frame, stack: list, ins: tuple,
               pc: int) -> int:
    stack[-1], stack[-2] = stack[-2], stack[-1]
    return pc + 1


def _cold_nop(m: "Machine", frame: Frame, stack: list, ins: tuple,
              pc: int) -> int:
    return pc + 1


def _cold_throw(m: "Machine", frame: Frame, stack: list, ins: tuple,
                pc: int) -> int:
    raise _throw_carrier(m, stack.pop())


def _cold_lswitch(m: "Machine", frame: Frame, stack: list, ins: tuple,
                  pc: int) -> int:
    return ins[1].get(stack.pop(), ins[2])


class _EntryTrap(Exception):
    """Tier 1 dispatched :data:`_TRAP` (see ``Machine._run_declared``)."""


def _cold_trap(m: "Machine", frame: Frame, stack: list, ins: tuple,
               pc: int) -> int:
    raise _EntryTrap


#: the slot ``Machine._trap`` plants at bci 0: an opcode id no
#: instruction has, so it falls through every hot test into ``_COLD``
#: (count 1: the handler that syncs ``frame.pc`` reads it as a width)
_TRAP = (-1, None, None, 0.0, 1, None, 0.0)

_COLD: Dict[int, Callable[..., int]] = {
    _TRAP[0]: _cold_trap,
    op.OP_IDS[op.NEW]: _cold_new,
    op.OP_IDS[op.NEWARR]: _cold_newarr,
    op.OP_IDS[op.LEN]: _cold_len,
    op.OP_IDS[op.PUTS]: _cold_puts,
    op.OP_IDS[op.ISREMOTE]: _cold_isremote,
    op.OP_IDS[op.NEG]: _cold_neg,
    op.OP_IDS[op.NOT]: _cold_not,
    op.OP_IDS[op.SWAP]: _cold_swap,
    op.OP_IDS[op.NOP]: _cold_nop,
    op.OP_IDS[op.THROW]: _cold_throw,
    op.OP_IDS[op.LSWITCH]: _cold_lswitch,
}
