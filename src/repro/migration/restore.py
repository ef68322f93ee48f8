"""State restoration at the destination (paper section III.B.2, Fig. 4b).

The :class:`RestoreDriver` replays the paper's per-frame restoration
dance using only VMTI facilities plus the injected restoration handlers:

1. arm a breakpoint at bci 0 of the segment's outermost method and
   invoke it (with empty locals — they are about to be overwritten);
2. the breakpoint fires immediately; the callback arms the breakpoint
   for the *next* frame's method and injects ``InvalidStateException``;
3. the injected handler (see :mod:`repro.preprocess.restoration`) reloads
   every local slot from the ``CapturedState`` and ``lookupswitch``-jumps
   to the saved pc;
4. the frame resumes at its call line, re-invokes its callee, whose
   breakpoint fires — repeat until the innermost frame is restored.

Captured object references come back as provenance-carrying
:class:`RemoteRef` sentinels; the first use of each faults it in through
the object manager.

On devices without VMTI (the paper's JamVM/iPhone case, section IV.D),
:func:`java_level_restore` rebuilds the frames directly — the paper's
"pure Java worker using reflection" — at a much higher per-frame cost
charged on the (slow) device CPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.errors import MigrationError
from repro.migration.state import CapturedState, decode_value
from repro.preprocess.restoration import RESTORE_EXCEPTION
from repro.vm.frames import Frame, ThreadState
from repro.vm.machine import Machine
from repro.vm.values import LOC_LOCAL, LOC_STATIC
from repro.vm.vmti import VMTI


@dataclass
class RestoreContext:
    """Shared state between the driver, the breakpoint callback and the
    ``CapturedState.*`` natives."""

    state: CapturedState
    index: int = -1           # frame record being restored
    complete: bool = False
    current_frame: Optional[Frame] = None


class RestoreDriver:
    """Rebuilds a captured segment on a worker machine."""

    def __init__(self, machine: Machine, vmti: VMTI, state: CapturedState):
        self.machine = machine
        self.vmti = vmti
        self.state = state
        self.ctx = RestoreContext(state=state)
        self._armed: List[tuple] = []

    # -- natives -------------------------------------------------------------

    def install_natives(self) -> None:
        """Bind the ``CapturedState.*`` natives used by the injected
        restoration handlers."""

        def cs_read(machine: Machine, args: List[Any]) -> Any:
            slot = args[0]
            rec = self.state.frames[self.ctx.index]
            frame = machine.current_thread.frames[-1]
            enc = rec.locals[slot] if slot < len(rec.locals) else None
            return decode_value(enc, (LOC_LOCAL, frame, slot))

        def cs_pc(machine: Machine, args: List[Any]) -> Any:
            rec = self.state.frames[self.ctx.index]
            if self.ctx.index == len(self.state.frames) - 1:
                self.ctx.complete = True
            return rec.pc

        self.machine.natives.register("CapturedState.read", cs_read)
        self.machine.natives.register("CapturedState.pc", cs_pc)

    # -- statics ---------------------------------------------------------------

    def restore_statics(self) -> None:
        """Load the segment's classes and restore static fields (like JNI
        ``SetStatic<Type>Field`` in the paper) inside the segment's
        class-loader namespace; object statics become remote refs that
        fault on first use."""
        ns = self.state.namespace
        loader = self.machine.namespace(ns)
        for cname in self.state.class_names:
            loader.load(cname)
        for (cname, fname), enc in self.state.statics.items():
            self.vmti.set_static(
                cname, fname, decode_value(enc, (LOC_STATIC, cname, fname)),
                namespace=ns)

    # -- the breakpoint dance -----------------------------------------------------

    def _method_entry(self, i: int) -> tuple:
        rec = self.state.frames[i]
        return (rec.class_name, rec.method_name, 0)

    def _cb(self, machine: Machine, thread: ThreadState) -> None:
        i = self.ctx.index + 1
        if i >= len(self.state.frames):  # pragma: no cover - defensive
            raise MigrationError("breakpoint after restoration completed")
        self.ctx.index = i
        self.vmti.clear_breakpoint(*self._method_entry(i))
        if i + 1 < len(self.state.frames):
            self.vmti.set_breakpoint(*self._method_entry(i + 1))
            self._armed.append(self._method_entry(i + 1))
        self.vmti.raise_exception(thread, RESTORE_EXCEPTION, "restore")

    def start_thread(self) -> ThreadState:
        """Create the worker thread poised to restore: first frame pushed
        with empty locals, breakpoint armed at its entry.  The thread
        joins the segment's namespace, so the whole restoration dance
        (and everything after) runs against the right static cells."""
        rec = self.state.frames[0]
        cls = self.machine.namespace(self.state.namespace).load(
            rec.class_name)
        code = cls.find_method(rec.method_name)
        if code is None:
            raise MigrationError(
                f"restored method {rec.class_name}.{rec.method_name} missing")
        thread = ThreadState(self.state.thread_name,
                             namespace=self.state.namespace)
        thread.frames.append(Frame(code))
        self.vmti.set_breakpoint(*self._method_entry(0))
        self._armed.append(self._method_entry(0))
        self.vmti.set_breakpoint_callback(self._cb)
        return thread

    def finish(self) -> None:
        """Disarm everything after restoration completes."""
        for key in self._armed:
            self.machine.breakpoints.discard(key)
        self._armed.clear()
        self.vmti.set_breakpoint_callback(None)

    def restore(self, run_after: bool = False,
                max_instrs: int = 50_000_000) -> ThreadState:
        """Run the full restoration.

        With ``run_after=False`` the thread is left suspended exactly at
        the innermost frame's restored pc (segment ready to execute);
        with ``run_after=True`` it keeps running to completion.
        """
        self.install_natives()
        self.restore_statics()
        thread = self.start_thread()

        def restored(t: ThreadState) -> bool:
            return (self.ctx.complete
                    and len(t.frames) == len(self.state.frames)
                    and t.frames[-1].pc in t.frames[-1].code.msps)

        status = self.machine.run(thread, stop=restored, max_instrs=max_instrs)
        if status != "stopped":
            raise MigrationError(f"restoration did not converge: {status}")
        self.finish()
        if run_after:
            self.machine.run(thread)
        return thread


def java_level_restore(machine: Machine, state: CapturedState
                       ) -> ThreadState:
    """VMTI-less restore (JamVM-style device): rebuild frames directly at
    Java level via reflection.  Functionally identical result; the cost
    model charges the much slower per-frame reflective path
    (``SystemCosts.java_restore_per_frame`` scaled by device speed)."""
    ns = state.namespace
    loader = machine.namespace(ns)
    for cname in state.class_names:
        loader.load(cname)
    for (cname, fname), enc in state.statics.items():
        cls = loader.load(cname).find_static_home(fname)
        cls.statics[fname] = decode_value(enc, (LOC_STATIC, cname, fname))
    thread = ThreadState(state.thread_name, namespace=ns)
    last = len(state.frames) - 1
    for i, rec in enumerate(state.frames):
        cls = loader.load(rec.class_name)
        code = cls.find_method(rec.method_name)
        if code is None:
            raise MigrationError(
                f"restored method {rec.class_name}.{rec.method_name} missing")
        frame = Frame(code)
        for slot, enc in enumerate(rec.locals):
            if slot < len(frame.locals):
                frame.locals[slot] = decode_value(enc, (LOC_LOCAL, frame, slot))
        # Direct restore keeps callee frames on the stack, so suspended
        # callers resume *after* their call (raw_pc), not at the call
        # line (which the breakpoint-driven restore re-executes).
        frame.pc = rec.pc if i == last else rec.raw_pc
        thread.frames.append(frame)
    return thread
