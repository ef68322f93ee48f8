"""Migration policies and triggers.

The paper leaves "migration, prefetching and task distribution policies"
as the tuning surface of SOD (section VI); this module supplies the ones
its scenarios need:

* the trigger combinators (:func:`on_method_entry`, :func:`on_depth`,
  :func:`after_instrs`, ...) the experiment harnesses use to decide
  *when* to freeze, re-exported from :mod:`repro.vm.frames`;
* :class:`LocalityPolicy` — migrate a data-access method to the node
  hosting its data (the text-search / roaming studies);
* :class:`SpeculativeCloudPolicy` — the section II.B scenario: "if
  exceptions like ClassNotFoundException or OutOfMemoryException are
  thrown, the exception handler will capture the execution state and
  rocket it into the Cloud".  We trigger *just before* a doomed
  allocation (the allocation would exceed the device's RAM), freeze at
  the MSP, and rocket the active segment to the cloud node where the
  retry succeeds.
* :class:`BandwidthAwarePolicy` — size segments against a link budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.bytecode import opcodes as op
from repro.errors import MigrationError
from repro.migration.segments import max_migratable, segment_bytes_estimate
from repro.migration.sodee import Host, SODEngine
from repro.vm.frames import (ThreadState, Trigger, after_clock,  # noqa: F401
                             after_instrs, any_of, on_depth,
                             on_method_entry)


def rewind_to_line_start(thread: ThreadState) -> None:
    """Rewind the top frame to the start of its current line and clear
    the (transient) operand stack.  Legal on flattened code: re-executing
    a line region from its start only re-runs loads/stores of temps that
    are still live (call groups are their own regions, so no call is ever
    re-executed)."""
    frame = thread.frames[-1]
    frame.pc = frame.code.line_start(frame.pc)
    frame.stack.clear()


# -- locality ------------------------------------------------------------------

@dataclass
class LocalityPolicy:
    """Choose the migration destination by data locality: given the file
    path the top frame is about to read (extracted by ``path_of``), send
    the segment to the node hosting that file."""

    engine: SODEngine
    path_of: Callable[[ThreadState], Optional[str]]

    def destination(self, thread: ThreadState) -> Optional[str]:
        path = self.path_of(thread)
        if path is None or not self.engine.cluster.fs.exists(path):
            return None
        return self.engine.cluster.fs.stat(path).host


# -- speculative cloud retry ---------------------------------------------------------

class SpeculativeCloudPolicy:
    """Run on a resource-poor device; when the next allocation would blow
    the device's RAM (the OutOfMemoryError the paper's try-catch wrapper
    would catch), freeze and migrate the active segment to the cloud.

    Usage::

        policy = SpeculativeCloudPolicy(engine, device_host, "cloud")
        result = policy.run(thread)
    """

    def __init__(self, engine: SODEngine, device: Host, cloud_node: str,
                 headroom_bytes: int = 0, nframes: Optional[int] = None):
        self.engine = engine
        self.device = device
        self.cloud_node = cloud_node
        self.headroom = headroom_bytes
        self.nframes = nframes
        #: set when a migration was triggered (for tests/reporting)
        self.migrated = False

    def _doomed(self, thread: ThreadState) -> bool:
        frame = thread.frames[-1]
        ins = frame.code.instrs[frame.pc]
        if ins.op != op.NEWARR:
            return False
        if not frame.stack:
            return False
        length = frame.stack[-1]
        if not isinstance(length, int):
            return False
        node = self.device.machine.node
        if node is None:
            return False
        need = length * (ins.b or 8)
        budget = node.spec.ram_bytes - node.ram_used - self.headroom
        return need > budget

    def run(self, thread: ThreadState) -> Any:
        """Execute to completion, rocketing to the cloud if doomed."""
        status = self.engine.run(self.device, thread, stop=self._doomed)
        if status == "finished":
            if thread.uncaught is not None:
                raise MigrationError(
                    f"device thread died: {thread.uncaught.class_name}")
            return thread.result
        # Rewind to the line start (the paper's try-block wrapper catches
        # the OutOfMemoryError before the line commits; re-executing a
        # line from its start is safe by the flattening invariants) and
        # rocket the migratable segment to the cloud.
        rewind_to_line_start(thread)
        self.migrated = True
        nframes = self.nframes or max_migratable(thread)
        nframes = max(1, min(nframes, thread.depth()))
        if nframes == thread.depth():
            from repro.migration.workflow import total_migration
            if nframes > 1:
                rep = total_migration(self.engine, self.device, thread,
                                      self.cloud_node,
                                      top_frames=1)
                return rep.result
        result, _rec = self.engine.run_segment_remote(
            self.device, thread, self.cloud_node, nframes)
        return result


# -- bandwidth-aware segment sizing ----------------------------------------------------

@dataclass
class BandwidthAwarePolicy:
    """Pick the largest top segment whose estimated transfer time fits a
    latency budget on the (possibly slow) link to ``dst``."""

    engine: SODEngine
    dst: str
    latency_budget: float

    def choose_nframes(self, src: str, thread: ThreadState) -> int:
        best = 1
        for n in range(1, max_migratable(thread) + 1):
            est = segment_bytes_estimate(thread, n)
            t = self.engine.transfer_time(src, self.dst, est)
            if t <= self.latency_budget:
                best = n
            else:
                break
        return best
