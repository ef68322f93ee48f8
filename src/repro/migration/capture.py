"""State capture via the debug interface (paper section III.B.1, Fig. 3).

The capture loop is the paper's Fig. 3 pseudocode: for each of the top
``nframes`` frames, read the method, the pc, and every local slot via
costed VMTI calls (``GetLocal<Type>`` at ~30 µs dominates).  Object
references are left behind as descriptors; primitive statics of the
classes referenced by the segment travel by value, object statics as
descriptors (which is why a 64 MB static array does not slow SOD down,
section IV.A).

Capture is only legal at a migration-safe point; :func:`run_to_msp`
resumes execution until the next one ("If the execution is suspended at
locations other than a MSP, it will be resumed immediately until hitting
an upcoming one").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import MigrationError
from repro.migration.state import (CapturedFrame, CapturedState,
                                   encode_value)
from repro.vm.frames import ThreadState
from repro.vm.machine import Machine
from repro.vm.vmti import VMTI


def run_to_msp(machine: Machine, thread: ThreadState,
               max_instrs: int = 1_000_000) -> None:
    """Resume ``thread`` until its top frame sits at a migration-safe
    point (no-op if it already does)."""

    def at_msp(t: ThreadState) -> bool:
        f = t.frames[-1]
        return f.pc in f.code.msps

    status = machine.run(thread, stop=at_msp, max_instrs=max_instrs)
    if status == "finished":
        raise MigrationError("thread finished before reaching an MSP")
    if status == "limit":
        raise MigrationError(
            f"no MSP reached within {max_instrs} instructions "
            f"(was the code preprocessed?)")


def capture_segment(vmti: VMTI, thread: ThreadState, nframes: int,
                    home_node: str,
                    return_to: Optional[str] = None,
                    top_is_caller: bool = False,
                    identity=None) -> CapturedState:
    """Capture the top ``nframes`` frames of ``thread`` (which must be
    suspended at an MSP) into a :class:`CapturedState`.

    ``identity`` maps ``id(obj) -> (home_oid, home_node)`` for fetched
    copies on an intermediate hop (see :func:`encode_value`).

    Raises :class:`MigrationError` if the segment would include a pinned
    frame (paper section IV.D: frames holding socket connections are
    pinned down) or if the top frame is not at an MSP.
    """
    machine = vmti.machine
    if nframes < 1 or nframes > len(thread.frames):
        raise MigrationError(
            f"bad segment size {nframes} (stack depth {len(thread.frames)})")
    top = thread.frames[-1]
    if not top_is_caller and top.pc not in top.code.msps:
        raise MigrationError(
            f"top frame {top.code.qualname} at bci {top.pc} is not at an MSP")
    for depth in range(nframes):
        if thread.frames[len(thread.frames) - 1 - depth].pinned:
            raise MigrationError(
                f"segment includes a pinned frame at depth {depth}")

    frames: List[CapturedFrame] = []
    class_names: Set[str] = set()
    # Walk from the segment's outermost frame to the top (restore order).
    for depth in reversed(range(nframes)):
        method_id, pc = vmti.get_frame_location(thread, depth)
        frame = thread.frames[len(thread.frames) - 1 - depth]
        code = frame.code
        if depth == 0 and not top_is_caller:
            restore_pc = pc
        else:
            # Suspended at a call: restart from the call's line start so
            # the restored frame re-invokes its callee (Fig. 4b).
            restore_pc = code.line_start(max(0, pc - 1))
        locals_enc: List[object] = []
        table = vmti.get_local_variable_table(thread, depth)
        for slot, _name in table:
            value = vmti.get_local(thread, depth, slot)
            enc, _bytes = encode_value(value, home_node, identity)
            locals_enc.append(enc)
        frames.append(CapturedFrame(
            class_name=code.class_name, method_name=code.name,
            pc=restore_pc, raw_pc=pc, locals=locals_enc))
        class_names.add(code.class_name)

    # Statics of the classes the segment references (superclass chains
    # included): primitives by value, objects as descriptors — read
    # from the thread's own class-loader namespace, whose cells are the
    # segment's static state.
    loader = machine.namespace(thread.namespace)
    statics: Dict[Tuple[str, str], object] = {}
    for cname in sorted(class_names):
        walk = loader.load(cname)
        while walk is not None:
            for fname in walk.statics:
                value = vmti.get_static(walk.name, fname,
                                        namespace=thread.namespace)
                statics[(walk.name, fname)], _b = encode_value(
                    value, home_node, identity)
            walk = walk.superclass
    return CapturedState(
        frames=frames, statics=statics, class_names=sorted(class_names),
        home_node=home_node, return_to=return_to or home_node,
        thread_name=thread.name, namespace=thread.namespace)
