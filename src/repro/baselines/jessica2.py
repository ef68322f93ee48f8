"""JESSICA2-style in-JVM thread migration (paper ref [6]).

JESSICA2 modifies the JVM (Kaffe) itself: state is read straight out of
the JVM kernel, so capture is extremely fast (no debugger interface) —
but the JIT is an old Kaffe JIT, ~4x slower than Sun JDK 1.6 in raw
execution (Table II), and static arrays are allocated **at class-load
time**, which makes its FFT restore dominated by a 64 MB allocation
(Table IV and the paper's analysis).

The heap stays home in a global object space; remote access fetches
objects on demand.  We reuse the repro object-fault machinery as the
stand-in for its DSM layer (same fetch granularity, same home-based
protocol), while the cost model carries the system-specific constants.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.baselines.base import BaselineEngine, BaselineRecord
from repro.errors import MigrationError
from repro.migration.capture import capture_segment, run_to_msp
from repro.migration.object_manager import (HomeObjectServer,
                                            WorkerObjectManager)
from repro.migration.restore import java_level_restore
from repro.migration.state import CapturedState
from repro.vm.frames import ThreadState
from repro.vm.machine import Machine
from repro.vm.objects import VMArray
from repro.vm.vmti import VMTI


class Jessica2Engine(BaselineEngine):
    """In-JVM thread migration over a home-based global object space."""

    name = "JESSICA2"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.servers: Dict[str, HomeObjectServer] = {}

    def start(self, class_name: str, method: str,
              args: Optional[List[Any]] = None,
              at: str = "node0") -> Tuple[Machine, ThreadState]:
        machine = self.machine_on(at)
        self.servers[at] = HomeObjectServer(machine, at)
        return machine, machine.spawn(class_name, method, args)

    def _static_alloc_bytes(self, machine: Machine) -> int:
        """Bytes of static arrays that class loading must allocate at the
        destination (JESSICA2 allocates static arrays at load time)."""
        total = 0
        for cls in machine.loader.loaded_classes().values():
            for v in cls.statics.values():
                if isinstance(v, VMArray):
                    total += v.nominal_bytes()
        return total

    def migrate(self, src_machine: Machine, thread: ThreadState,
                dst_node: str) -> Tuple[Machine, ThreadState, BaselineRecord]:
        """Migrate the whole thread (all frames); heap stays home."""
        src_node = src_machine.node.name
        rec = BaselineRecord(system=self.name, src=src_node, dst=dst_node,
                             nframes=thread.depth())
        run_to_msp(src_machine, thread)

        # -- capture: direct JVM-kernel access, no debugger interface --
        t0 = src_machine.clock
        src_machine.charge(self.sys.j2_capture_fixed)
        src_machine.charge(self.sys.j2_capture_per_frame * thread.depth())
        vmti = VMTI(src_machine)
        free = src_machine.cost.vmti
        saved = (free.get_local, free.get_frame_location,
                 free.get_local_variable_table, free.get_static)
        # Kernel-level reads are ~free compared to JVMTI calls.
        free.get_local = free.get_frame_location = 0.0
        free.get_local_variable_table = free.get_static = 0.0
        try:
            state = capture_segment(vmti, thread, thread.depth(),
                                    home_node=src_node)
        finally:
            (free.get_local, free.get_frame_location,
             free.get_local_variable_table, free.get_static) = saved
        rec.capture_time = src_machine.clock - t0

        # -- transfer: raw thread context --
        rec.moved_bytes = state.state_bytes()
        rec.transfer_time = (self.sys.j2_transfer_fixed
                             + self.transfer_time(src_node, dst_node,
                                                  rec.moved_bytes))

        # -- restore: direct frame rebuild + load-time static allocation --
        dst_machine = self.machine_on(dst_node)
        t0 = dst_machine.clock
        dst_machine.charge(self.sys.j2_restore_fixed)
        dst_machine.charge(self.sys.j2_restore_per_frame * thread.depth())
        alloc = self._static_alloc_bytes(src_machine)
        dst_machine.charge(alloc * dst_machine.cost.alloc_spb)
        new_thread = java_level_restore(dst_machine, state)
        objman = WorkerObjectManager(
            dst_machine, dst_node,
            fetch_service=self._fetch, rtt_service=self._rtt)
        objman.service_fixed = self.sys.fault_service_fixed
        objman.install_natives()
        objman.register_thread_home(new_thread, src_node)
        dst_machine.extras["objman"] = objman
        rec.restore_time = dst_machine.clock - t0
        # The migrated thread now runs under the global-object-space
        # access checks of the destination JVM.
        dst_machine.cost = dst_machine.cost.copy(
            exec_factor=dst_machine.cost.exec_factor
            * (1.0 + self.sys.j2_dsm_exec_overhead))

        self.timeline += rec.latency
        self.records.append(rec)
        return dst_machine, new_thread, rec

    # -- global object space services ------------------------------------

    def _fetch(self, requester: str, ref) -> Tuple[Any, int, str]:
        server = self.servers.get(ref.home_node)
        if server is None:
            raise MigrationError(f"no object server on {ref.home_node}")
        payload, nbytes = server.fetch(ref.home_oid)
        return payload, nbytes, ref.home_node

    def _rtt(self, src: str, dst: str, req: int, reply: int) -> float:
        return self.cluster.network.rtt(src, dst, req, reply)

    def finish(self, machine: Machine, thread: ThreadState,
               home_machine: Optional[Machine] = None,
               home_thread: Optional[ThreadState] = None) -> Any:
        """Run the migrated thread to completion; write results back to
        the home space and retire the home thread."""
        self.run(machine, thread)
        if thread.uncaught is not None:
            raise MigrationError(f"thread died: {thread.uncaught.class_name}")
        objman = machine.extras.get("objman")
        if objman is not None and home_machine is not None:
            message, nbytes = objman.build_writeback(thread.result)
            self.timeline += self.transfer_time(
                machine.node.name, home_machine.node.name,
                machine.cost.wire_bytes(nbytes))
            server = self.servers[home_machine.node.name]
            value = server.apply_writeback(
                message["updates"], message["elem_updates"],
                message["static_updates"], message["graph"],
                message["return"])
            if home_thread is not None:
                home_thread.frames.clear()
                home_thread.finished = True
                home_thread.result = value
            return value
        return thread.result
