"""Flexible SOD execution flows (paper Fig. 1) and task roaming.

Three flows over the :class:`~repro.migration.sodee.SODEngine`:

* :func:`partial_return` — Fig. 1a: migrate the top segment, execute it
  remotely, return the value home, resume the residual stack there.
  (This is :meth:`SODEngine.migrate` + :meth:`SODEngine.finish`,
  re-exported for symmetry.)
* :func:`total_migration` — Fig. 1b: migrate the top frame, then push
  the residual frames to the same destination *while the top frame
  executes*; after the top segment pops, execution continues purely
  locally at the destination.
* :func:`multi_hop` — Fig. 1c: the top segment goes to one node and the
  next segment concurrently to another; when the top segment finishes,
  its return value is forwarded to the second node (not home), hiding
  the second hop's freeze time behind the first segment's execution.

Residual segments restored at a destination are left suspended at their
re-invoke point; :func:`deliver_value` satisfies the pending call with
the arrived value using only VMTI facilities (a breakpoint-style
intercept of the re-invoked callee plus ``ForceEarlyReturn``).

Also here: :func:`roam` — autonomous task roaming across a node
itinerary (the 10-NFS-server study, section IV.C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import MigrationError
from repro.migration.sodee import Host, MigrationRecord, SODEngine
from repro.vm.frames import ThreadState


@dataclass
class FlowReport:
    """Timeline accounting for one flow run."""

    result: Any = None
    total_time: float = 0.0
    records: List[MigrationRecord] = field(default_factory=list)
    #: seconds of second-hop latency hidden behind first-hop execution
    hidden_latency: float = 0.0
    phases: List[Tuple[str, float]] = field(default_factory=list)

    def phase(self, name: str, dt: float) -> None:
        self.phases.append((name, dt))


def partial_return(engine: SODEngine, home: Host, thread: ThreadState,
                   dst_node: str, nframes: int = 1) -> FlowReport:
    """Fig. 1a — migrate, execute remotely, return home, resume."""
    rep = FlowReport()
    t0 = engine.timeline
    result, rec = engine.run_segment_remote(home, thread, dst_node, nframes)
    rep.result = result
    rep.records.append(rec)
    rep.total_time = engine.timeline - t0
    return rep


def _restore_residual(engine: SODEngine, home: Host, thread: ThreadState,
                      dst_node: str, nframes: int,
                      skip_top: int) -> Tuple[Host, ThreadState, MigrationRecord]:
    """Capture frames below the already-migrated top ``skip_top`` frames
    and restore them on ``dst_node``, suspended at the re-invoke point.

    Implementation note: capture reads depths ``skip_top ..
    skip_top+nframes-1`` of the *home* stack (stale top frames still
    present, as the paper's home keeps them).
    """
    # Temporarily drop the stale top frames from view: the residual
    # segment's top frame must look like the thread's top.  It is
    # suspended at a call (not an MSP), so it is captured as a caller
    # and restores to its re-invoke line.
    saved = thread.frames[len(thread.frames) - skip_top:]
    del thread.frames[len(thread.frames) - skip_top:]
    try:
        worker, [(residual_thread, rec)] = engine._ship(
            home, [(thread, nframes)], dst_node, home, top_is_caller=True)
    finally:
        thread.frames.extend(saved)
    return worker, residual_thread, rec


def deliver_value(engine: SODEngine, worker: Host, residual: ThreadState,
                  value: Any) -> float:
    """Satisfy the residual segment's pending call with ``value``.

    The suspended frame re-executes its call line; the freshly created
    callee frame is intercepted and popped with ``ForceEarlyReturn`` —
    the arrived value takes the place of the call's result."""
    if worker.vmti is None:
        raise MigrationError("deliver_value requires VMTI")
    base_depth = residual.depth()
    t0 = worker.machine.clock
    status = worker.machine.run(
        residual, stop=lambda t: t.depth() > base_depth,
        max_instrs=10_000_000)
    if status != "stopped":
        raise MigrationError(f"residual did not re-invoke (status {status})")
    worker.vmti.force_early_return(residual, value)
    dt = worker.machine.clock - t0
    engine.timeline += dt
    return dt


def total_migration(engine: SODEngine, home: Host, thread: ThreadState,
                    dst_node: str, top_frames: int = 1) -> FlowReport:
    """Fig. 1b — the whole stack ends up at the destination.

    The top segment migrates first and starts executing; the residual
    frames are pushed concurrently, hiding their transfer behind the top
    segment's execution.  When the top segment finishes, its value is
    delivered locally and execution continues at the destination."""
    rep = FlowReport()
    depth = thread.depth()
    if top_frames >= depth:
        raise MigrationError("total migration needs a residual below the top")
    residual_n = depth - top_frames

    t_start = engine.timeline
    worker, top_thread, rec1 = engine.migrate(home, thread, dst_node,
                                              top_frames)
    engine._segments.pop(top_thread)  # its value goes to the residual
    rep.records.append(rec1)
    rep.phase("top segment migration", rec1.latency)

    # Residual push happens while the top segment executes: overlap.
    worker2, residual_thread, rec2 = _restore_residual(
        engine, home, thread, dst_node, residual_n, skip_top=top_frames)
    assert worker2 is worker
    rep.records.append(rec2)

    t0 = worker.machine.clock
    engine.run(worker, top_thread)
    exec_time = worker.machine.clock - t0
    rep.phase("top segment execution", exec_time)

    # The shipment accounted the push in full; the part overlapped with
    # the top segment's execution was never exposed.
    hidden = min(exec_time, rec2.latency)
    rep.hidden_latency = hidden
    engine.timeline -= hidden
    rep.phase("residual push (exposed part)", rec2.latency - hidden)

    if top_thread.uncaught is not None:
        raise MigrationError(
            f"top segment died: {top_thread.uncaught.class_name}")
    deliver_value(engine, worker, residual_thread, top_thread.result)
    engine.run(worker, residual_thread)
    if residual_thread.uncaught is not None:
        raise MigrationError(
            f"residual died: {residual_thread.uncaught.class_name}")
    # The process now lives at the destination; leave the home heap
    # consistent with the final state, then end both segments' epochs.
    engine.flush_segment_effects(worker, home)
    worker.objman.release_thread(top_thread)
    worker.objman.release_thread(residual_thread)
    # The home stack is now entirely stale; discard it (total migration).
    thread.frames.clear()
    thread.finished = True
    thread.result = residual_thread.result
    rep.result = residual_thread.result
    rep.total_time = engine.timeline - t_start
    return rep


def multi_hop(engine: SODEngine, home: Host, thread: ThreadState,
              first_node: str, second_node: str,
              top_frames: int = 1,
              second_frames: Optional[int] = None) -> FlowReport:
    """Fig. 1c — distributed workflow across three nodes.

    Top segment -> ``first_node``; next segment -> ``second_node`` in
    parallel; the first segment's return value is forwarded to
    ``second_node``; whatever remains below stays home and receives the
    final value."""
    rep = FlowReport()
    depth = thread.depth()
    if second_frames is None:
        second_frames = depth - top_frames
    if top_frames + second_frames > depth:
        raise MigrationError("segments exceed stack depth")
    residual_at_home = depth - top_frames - second_frames

    t_start = engine.timeline
    worker1, top_thread, rec1 = engine.migrate(home, thread, first_node,
                                               top_frames)
    engine._segments.pop(top_thread)  # its value goes to the second hop
    rep.records.append(rec1)

    worker2, mid_thread, rec2 = _restore_residual(
        engine, home, thread, second_node, second_frames,
        skip_top=top_frames)
    rep.records.append(rec2)

    t0 = worker1.machine.clock
    engine.run(worker1, top_thread)
    exec1 = worker1.machine.clock - t0
    rep.phase("segment-1 execution", exec1)
    if top_thread.uncaught is not None:
        raise MigrationError(
            f"segment 1 died: {top_thread.uncaught.class_name}")

    # Second-hop migration latency (accounted in full by the shipment)
    # is hidden behind segment-1 execution.
    hidden = min(exec1, rec2.latency)
    rep.hidden_latency = hidden
    engine.timeline -= hidden

    # Flush segment-1 effects home and refresh the second hop's statics
    # (it restored before segment 1 ran), then forward the value
    # first-hop -> second-hop (not via home).
    engine.flush_segment_effects(worker1, home)
    worker1.objman.release_thread(top_thread)
    engine.resync_statics(worker2, home)
    fwd = engine.transfer_time(first_node, second_node, 64)
    engine.timeline += fwd
    rep.phase("value forward", fwd)
    deliver_value(engine, worker2, mid_thread, top_thread.result)
    engine.run(worker2, mid_thread)
    if mid_thread.uncaught is not None:
        raise MigrationError(
            f"segment 2 died: {mid_thread.uncaught.class_name}")
    engine.flush_segment_effects(worker2, home)
    worker2.objman.release_thread(mid_thread)

    if residual_at_home > 0:
        # Pop the stale migrated frames at home, deliver the value there.
        stale = top_frames + second_frames
        if home.vmti is None:
            raise MigrationError("home lacks VMTI")
        for _ in range(stale - 1):
            home.vmti.pop_frame(thread)
        engine.timeline += engine.transfer_time(second_node,
                                                home.node_name, 64)
        home.vmti.force_early_return(thread, mid_thread.result)
        engine.run(home, thread)
        rep.result = thread.result
    else:
        thread.frames.clear()
        thread.finished = True
        thread.result = mid_thread.result
        rep.result = mid_thread.result
    rep.total_time = engine.timeline - t_start
    return rep


def roam(engine: SODEngine, home: Host, thread: ThreadState,
         itinerary: Callable[[ThreadState], Optional[str]],
         trigger: Callable[[ThreadState], bool],
         nframes: int = 1,
         max_hops: int = 1000) -> FlowReport:
    """Autonomous task roaming: whenever ``trigger`` fires, ship the top
    segment to the node chosen by ``itinerary`` (None = stay), execute
    there, return home, and continue until the program completes.

    Used by the roaming study (section IV.C): the itinerary sends each
    file-search call to the node hosting the file."""
    rep = FlowReport()
    t_start = engine.timeline
    hops = 0
    while True:
        status = engine.run(home, thread, stop=trigger)
        if status == "finished":
            break
        if hops >= max_hops:
            raise MigrationError("roaming exceeded max hops")
        dst = itinerary(thread)
        if dst is None or dst == home.node_name:
            # Forced progress: execute one instruction locally, re-arm.
            engine.run(home, thread, max_instrs=1)
            continue
        # Migrate, execute remotely, return the value home — but leave
        # the home thread suspended so the next trigger can fire.
        worker, worker_thread, rec = engine.migrate(home, thread, dst,
                                                    nframes)
        engine.run(worker, worker_thread)
        engine.complete_segment(worker, worker_thread, home, thread,
                                nframes)
        rep.records.append(rec)
        hops += 1
        if thread.finished:
            break
    if thread.uncaught is not None:
        raise MigrationError(f"roaming thread died: "
                             f"{thread.uncaught.class_name}")
    rep.result = thread.result
    rep.total_time = engine.timeline - t_start
    return rep
