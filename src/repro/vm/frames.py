"""Activation records, and the ``stop`` predicates that watch them.

A :class:`Frame` is exactly the paper's stack frame: local variable
slots, an operand stack, the method (with its runtime constant pool via
the code object), and the program counter.  Frames are plain data —
migration captures and rebuilds them.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.bytecode.code import CodeObject


class Frame:
    """One method activation."""

    __slots__ = ("code", "locals", "stack", "pc", "pinned")

    def __init__(self, code: CodeObject, args: Optional[List[Any]] = None):
        self.code = code
        # Frame construction sits on the interpreter's call hot path:
        # build the locals in one concatenation instead of allocating a
        # None-filled list and slice-assigning into it.
        if args is not None:
            if len(args) != code.nparams:
                raise ValueError(
                    f"{code.qualname}: expected {code.nparams} args, "
                    f"got {len(args)}")
            self.locals: List[Any] = args + [None] * (
                code.max_locals - len(args))
        else:
            self.locals = [None] * code.max_locals
        self.stack: List[Any] = []
        self.pc = 0
        #: pinned frames must not migrate (e.g. they hold sockets, paper
        #: section IV.D); the segmenter refuses to include them.
        self.pinned = False

    @property
    def method_id(self) -> tuple[str, str]:
        """(class name, method name) identity used by VMTI."""
        return (self.code.class_name, self.code.name)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Frame {self.code.qualname} pc={self.pc} "
                f"stack={len(self.stack)}>")


class ThreadState:
    """A guest thread: a stack of frames plus pending-exception state.

    ``pending_exception`` supports JVMTI-style asynchronous exception
    injection (the restore driver throws ``InvalidStateException`` into
    the thread from a breakpoint callback).

    ``namespace`` names the class-loader namespace the thread executes
    in (``None`` = the machine's root loader): the machine resolves the
    thread's classes — and therefore its static cells — through that
    namespace for as long as the thread runs, and a migrated segment
    carries the tag so the destination rebuilds it in the same
    namespace.
    """

    __slots__ = ("frames", "pending_exception", "name", "finished",
                 "result", "uncaught", "namespace")

    def __init__(self, name: str = "main",
                 namespace: Optional[str] = None):
        self.frames: List[Frame] = []
        self.pending_exception: Any = None
        self.name = name
        self.finished = False
        self.result: Any = None
        self.uncaught: Any = None
        self.namespace = namespace

    @property
    def top(self) -> Frame:
        return self.frames[-1]

    def depth(self) -> int:
        return len(self.frames)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Thread {self.name} depth={len(self.frames)}>"


# -- stop predicates (migration triggers) -----------------------------------

Trigger = Callable[[ThreadState], bool]


def on_method_entry(class_name: str, method: str,
                    min_depth: int = 0) -> Trigger:
    """Fires when the named method becomes the top frame at its entry
    (with at least ``min_depth`` frames on the stack).  *Declared*
    (``entry_of``): ``Machine.run`` asks it only there and keeps the
    fast tiers; a bare ``fn(thread) -> bool`` is polled everywhere."""
    def trig(t: ThreadState) -> bool:
        f = t.frames[-1]
        return (f.pc == 0 and f.code.name == method
                and f.code.class_name == class_name
                and len(t.frames) >= min_depth)
    trig.entry_of = frozenset({(class_name, method)})
    return trig


def on_depth(depth: int) -> Trigger:
    """Fires when the stack reaches ``depth`` frames."""
    return lambda t: t.depth() >= depth


def after_instrs(machine: Any, budget: int) -> Trigger:
    """Fires once the machine has executed ``budget`` more instructions."""
    start = machine.instr_count
    return lambda t: machine.instr_count - start >= budget


def after_clock(machine: Any, budget: float) -> Trigger:
    """Fires once the machine's virtual clock has advanced ``budget``
    simulated seconds."""
    start = machine.clock
    return lambda t: machine.clock - start >= budget


def any_of(*triggers: Trigger) -> Trigger:
    """Fires when any sub-trigger fires; declared when every part is."""
    def trig(t: ThreadState) -> bool:
        return any(part(t) for part in triggers)
    if all(hasattr(part, "entry_of") for part in triggers):
        trig.entry_of = frozenset().union(*(p.entry_of for p in triggers))
    return trig
