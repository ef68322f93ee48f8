"""VMTI — the VM Tool Interface.

The faithful analog of JVMTI (paper section III): migration managers are
written *against this interface only*, never against VM internals, which
is exactly the paper's portability argument.  Every call charges its
measured cost (section IV.A: most JVMTI calls ≈ 1 µs, ``GetLocal<Type>``
≈ 30 µs), so capture/restore latency emerges from the number of calls
the algorithms make.

Like JVMTI, the interface exposes frame inspection (`get_frame_count`,
`get_frame_location`, `get_local_variable_table`, `get_local`),
breakpoints, asynchronous exception injection, `pop_frame` /
`force_early_return`, and static-field access.  Also like JVMTI, it does
**not** expose operand stacks — which is why migration-safe points exist
(section III.B.1).

Interaction with ``Machine.run`` (see "Dispatch" in
:mod:`repro.vm.machine`): a breakpoint or breakpoint callback puts the
whole ``run`` on the hooked loop — unlike a ``stop`` that declares its
``entry_of``, which traps at those entries and keeps the fast tiers.
One installed between ``run()`` calls (the normal case) takes effect at
the next; one installed *mid-run* from a native is seen at that
native's safepoint, where tier 1 / tier 2 sync ``frame.pc``, flush and
hand the thread over for good.  Either way ``get_frame_location`` sees
a precise original bytecode index, and nothing the guest or a scheduler
can observe — result, ``instr_count``, where a quantum expires —
depends on which loop ran.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.errors import VMError
from repro.vm.frames import Frame, ThreadState
from repro.vm.machine import Machine
from repro.vm.objects import VMClass


class VMTI:
    """A costed debugging session attached to one machine."""

    def __init__(self, machine: Machine):
        if machine.node is not None and not machine.node.spec.has_vmti:
            raise VMError(
                f"node {machine.node.name} has no VMTI support (JamVM-style)")
        self.machine = machine
        self._c = machine.cost.vmti
        #: number of interface calls made (for overhead accounting/tests)
        self.calls = 0

    def _charge(self, seconds: float) -> None:
        self.calls += 1
        self.machine.charge(seconds)

    # -- frame inspection ---------------------------------------------------

    def get_frame_count(self, thread: ThreadState) -> int:
        """Number of frames on the thread's stack."""
        self._charge(self._c.get_frame_location)
        return len(thread.frames)

    def _frame(self, thread: ThreadState, depth: int) -> Frame:
        """depth 0 = top frame (JVMTI convention)."""
        if not (0 <= depth < len(thread.frames)):
            raise VMError(f"bad frame depth {depth}")
        return thread.frames[len(thread.frames) - 1 - depth]

    def get_frame_location(self, thread: ThreadState,
                           depth: int) -> Tuple[Tuple[str, str], int]:
        """((class, method), bci) of the frame at ``depth``."""
        self._charge(self._c.get_frame_location)
        f = self._frame(thread, depth)
        return f.method_id, f.pc

    def get_method_name(self, method_id: Tuple[str, str]) -> str:
        """Qualified name for a method id."""
        self._charge(self._c.get_method_name)
        return f"{method_id[0]}.{method_id[1]}"

    def get_local_variable_table(self, thread: ThreadState,
                                 depth: int) -> List[Tuple[int, str]]:
        """(slot, name) pairs for the frame's locals."""
        self._charge(self._c.get_local_variable_table)
        f = self._frame(thread, depth)
        return list(enumerate(f.code.local_names))

    def get_local(self, thread: ThreadState, depth: int, slot: int) -> Any:
        """Read one local slot (the expensive call: ~30 µs)."""
        self._charge(self._c.get_local)
        f = self._frame(thread, depth)
        if not (0 <= slot < len(f.locals)):
            raise VMError(f"bad slot {slot}")
        return f.locals[slot]

    def set_local(self, thread: ThreadState, depth: int, slot: int,
                  value: Any) -> None:
        """Write one local slot."""
        self._charge(self._c.set_local)
        f = self._frame(thread, depth)
        if not (0 <= slot < len(f.locals)):
            raise VMError(f"bad slot {slot}")
        f.locals[slot] = value

    def is_operand_stack_empty(self, thread: ThreadState, depth: int) -> bool:
        """JVMTI cannot *read* operand stacks, but our restore driver may
        assert emptiness (the real system guarantees it structurally via
        MSPs; we keep the check for test strength)."""
        self._charge(self._c.get_frame_location)
        return not self._frame(thread, depth).stack

    # -- statics --------------------------------------------------------------

    def get_static(self, class_name: str, field: str,
                   namespace: Optional[str] = None) -> Any:
        """Read a static field of a *loaded* class (in ``namespace``;
        ``None`` = the root loader)."""
        self._charge(self._c.get_static)
        cls = self.machine.namespace(namespace).load(class_name)
        return cls.find_static_home(field).statics[field]

    def set_static(self, class_name: str, field: str, value: Any,
                   namespace: Optional[str] = None) -> None:
        """Write a static field (used during restoration, like JNI
        ``SetStatic<Type>Field``) — namespaced like :meth:`get_static`."""
        self._charge(self._c.set_static)
        cls = self.machine.namespace(namespace).load(class_name)
        cls.find_static_home(field).statics[field] = value

    def loaded_classes(self) -> List[VMClass]:
        """All classes linked in the VM."""
        self._charge(self._c.get_method_name)
        return list(self.machine.loader.loaded_classes().values())

    # -- breakpoints / control ---------------------------------------------------

    def set_breakpoint(self, class_name: str, method: str, bci: int) -> None:
        """Arm a breakpoint at (class, method, bci)."""
        self._charge(self._c.set_breakpoint)
        self.machine.breakpoints.add((class_name, method, bci))

    def clear_breakpoint(self, class_name: str, method: str, bci: int) -> None:
        """Disarm a breakpoint."""
        self._charge(self._c.clear_breakpoint)
        self.machine.breakpoints.discard((class_name, method, bci))

    def set_breakpoint_callback(
            self, fn: Optional[Callable[[Machine, ThreadState], None]]) -> None:
        """Install the JVMTI_EVENT_BREAKPOINT callback."""
        self.machine.on_breakpoint = fn

    def raise_exception(self, thread: ThreadState, class_name: str,
                        msg: str = "", payload: Any = None) -> None:
        """Inject an asynchronous guest exception into ``thread`` (like
        JVMTI ``StopThread``); delivered before its next instruction."""
        self._charge(self._c.raise_exception)
        thread.pending_exception = self.machine.make_exception(
            class_name, msg, payload)

    def pop_frame(self, thread: ThreadState) -> None:
        """Discard the top frame without delivering a return value."""
        self._charge(self._c.pop_frame)
        if not thread.frames:
            raise VMError("pop_frame on empty stack")
        thread.frames.pop()

    def force_early_return(self, thread: ThreadState, value: Any) -> None:
        """Pop the top frame and deliver ``value`` as its return value to
        the invoker (paper section III.A uses ``ForceEarlyReturn<type>``
        to pop outdated frames after a migrated segment completes)."""
        self._charge(self._c.force_early_return)
        if not thread.frames:
            raise VMError("force_early_return on empty stack")
        thread.frames.pop()
        if thread.frames:
            thread.frames[-1].stack.append(value)
        else:
            thread.finished = True
            thread.result = value
