"""Xen-style live VM migration (paper ref [5], Clark et al. NSDI'05).

The entire guest OS image moves by iterative pre-copy: RAM is copied
while the VM keeps running, dirtied pages are re-sent for a few rounds,
then a short stop-and-copy finishes.  Freeze time is therefore small,
but *migration latency* is the full image transfer ("it starts capturing
and pre-copying dirty pages to the destination well ahead of execution
stoppage ... so it is not considered as lightweight migration and
excluded from the [latency] comparison"), and *migration overhead* is
several seconds of interference + stop-copy (Table III's 3.7-7.2 s).

Mechanically nothing inside the guest changes: the same Machine keeps
running, its hosting node is swapped, and the cost model charges the
pre-copy traffic, interference and freeze.  Because the node changes,
data locality effects (Table VI) are real: NFS reads that were remote
become local after migration.
"""

from __future__ import annotations

from typing import Tuple

from repro.baselines.base import BaselineEngine, BaselineRecord, heap_nominal_bytes
from repro.vm.frames import ThreadState
from repro.vm.machine import Machine


class XenEngine(BaselineEngine):
    """Pre-copy live migration of the whole VM."""

    name = "Xen"

    def migrate(self, machine: Machine, thread: ThreadState,
                dst_node: str) -> Tuple[Machine, ThreadState, BaselineRecord]:
        """Live-migrate the VM under the running thread."""
        src_node = machine.node.name
        rec = BaselineRecord(system=self.name, src=src_node, dst=dst_node,
                             nframes=thread.depth())

        image = self.sys.xen_working_set_bytes + heap_nominal_bytes(machine)
        rec.moved_bytes = int(image * self.sys.xen_dirty_rounds)
        precopy = self.transfer_time(src_node, dst_node, rec.moved_bytes)
        freeze = self.sys.xen_stop_copy

        # Latency = pre-copy + stop-and-copy; freeze time is only the
        # stop-and-copy, but the paper's Table III overhead reflects
        # interference during pre-copy plus the freeze.
        rec.capture_time = precopy          # pre-copy phase (VM running)
        rec.transfer_time = freeze          # stop-and-copy (VM frozen)
        rec.restore_time = 0.0
        overhead = precopy * self.sys.xen_interference + freeze
        machine.charge_raw(overhead)
        self.timeline += overhead

        # Relocate the VM: the same machine now runs on the new node.
        machine.node = self.cluster.node(dst_node)
        machine._speed = machine.node.spec.speed_factor
        self.machines.pop(src_node, None)
        self.machines[dst_node] = machine
        self.records.append(rec)
        return machine, thread, rec
