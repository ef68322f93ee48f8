"""G-JavaMPI-style eager-copy process migration (paper ref [9]).

The whole process moves: every stack frame is captured through a
JVMDI-era debugger interface (slow fixed + per-frame costs) and the
*entire heap plus statics* is serialized eagerly with Java serialization
(the paper: "the whole process data is captured with eager-copy, and
worse still, all objects are exported using Java serialization").

Mechanically we clone the thread and the full object graph into the
destination machine, so correctness is real; costs follow the calibrated
G-JavaMPI constants (Table IV's fixed/per-frame/per-byte structure).
After migration the process lives entirely at the destination — there is
no residual home stack and no faulting.

A known G-JavaMPI restriction reproduced here: a process holding pinned
frames (open sockets) cannot migrate at all (section IV.D).
"""

from __future__ import annotations

from typing import Tuple

from repro.baselines.base import BaselineEngine, BaselineRecord, heap_nominal_bytes
from repro.errors import MigrationError
from repro.migration.state import decode_eager_image, encode_eager_image
from repro.vm.frames import ThreadState
from repro.vm.machine import Machine


class GJavaMPIEngine(BaselineEngine):
    """Eager-copy process migration."""

    name = "G-JavaMPI"

    def migrate(self, src_machine: Machine, thread: ThreadState,
                dst_node: str) -> Tuple[Machine, ThreadState, BaselineRecord]:
        """Move the whole process to ``dst_node``."""
        if any(f.pinned for f in thread.frames):
            raise MigrationError(
                "G-JavaMPI cannot migrate a process with pinned frames "
                "(active socket connections)")
        src_node = src_machine.node.name
        rec = BaselineRecord(system=self.name, src=src_node, dst=dst_node,
                             nframes=thread.depth())

        # -- capture: all frames via the debugger + eager heap serialize --
        t0 = src_machine.clock
        src_machine.charge(self.sys.gj_capture_fixed)
        src_machine.charge(self.sys.gj_capture_per_frame * thread.depth())
        for f in thread.frames:
            for _slot in range(f.code.max_locals):
                src_machine.charge(src_machine.cost.vmti.get_local)
        heap_bytes = heap_nominal_bytes(src_machine)
        src_machine.charge(src_machine.cost.serialize_cost(heap_bytes))
        rec.capture_time = src_machine.clock - t0

        # -- transfer: serialized process image --
        rec.moved_bytes = src_machine.cost.wire_bytes(heap_bytes) + 4096
        rec.transfer_time = (self.sys.gj_transfer_fixed
                             + self.transfer_time(src_node, dst_node,
                                                  rec.moved_bytes))

        # -- restore: deserialize everything, rebuild all frames --
        dst_machine = self.machine_on(dst_node)
        t0 = dst_machine.clock
        dst_machine.charge(self.sys.gj_restore_fixed)
        dst_machine.charge(self.sys.gj_restore_per_frame * thread.depth())
        dst_machine.charge(dst_machine.cost.deserialize_cost(heap_bytes))
        # Mechanically: deep-copy the heap graph reachable from the
        # stack + statics, then rebuild the frames against the copies.
        new_thread = decode_eager_image(
            encode_eager_image(thread, src_machine.loader),
            dst_machine.heap, dst_machine.loader)
        rec.restore_time = dst_machine.clock - t0

        self.timeline += rec.latency
        self.records.append(rec)
        return dst_machine, new_thread, rec
