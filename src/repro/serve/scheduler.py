"""The elastic cluster scheduler.

Each node runs a kernel process that time-slices the guest threads in
its run queue: a quantum of guest instructions executes on the node's
machine (the VM's safepoint-polled preemption keeps fast dispatch), the
consumed virtual CPU time is yielded back to the event kernel, and the
offload policy then decides whether the node is hot enough to push work
away.  Two mechanisms provide the elasticity:

* **request handoff** — a request that has not started yet is just a
  descriptor; it moves to an underloaded node for the price of one
  small message.
* **SOD offload** — a *running* thread's top frames are captured via
  VMTI, shipped, and restored on the target (the paper's
  stack-on-demand migration); the worker-side segment is scheduled like
  any other work, and its completion writes results back and requeues
  the parent's residual stack at home.  Hot batches ship as one bulk
  message (:meth:`repro.migration.sodee.SODEngine.migrate_many`).

Scale-out design (dozens of nodes, thousands of requests): every load
question is answered by an incrementally-maintained
:class:`repro.serve.loadindex.LoadIndex` — event-driven per-node
counters, a scan of the picking node's own rack, and a
bounded-staleness cross-rack gossip digest — so placement/handoff/
offload decisions read one rack and the digest's first rows instead
of scanning every node.  Offload victims are ranked by *estimated
remaining work* (an online per-program profile), and all deliveries
ride the network's link resources, so an offload storm queues on the
wire instead of transferring for free.

Everything runs under the discrete-event kernel with deterministic
tie-breaking, so a serving run is a pure function of (cluster, mix,
seed, knobs) and replays bit-identically in CI.

Faults and recovery (the chaos layer, :mod:`repro.chaos`): a node may
*crash* mid-run (:meth:`ClusterScheduler.crash_node`) and links may
fail, so every delivery carries a bounded retry/backoff budget with a
requeue-at-origin fallback, and lost work is recovered from clean
state: a first-hop segment lost with its worker is *re-executed from
home state* (the home thread kept its full stack, and release
consistency means the dead worker's dirty writes never landed — they
are discarded atomically with the machine), while a chain-hop segment
(whose earlier hops already flushed partial effects home) or a request
whose *home* died is retried from scratch under a fresh namespace,
bounded by ``max_retries``.  Because requests are pure functions of
their spec and recovery only ever discards un-published state, a
completed response under any fault schedule still matches its solo
oracle.  Faults arrive as deterministic kernel events, so chaos runs
replay byte-identically too.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.topology import Cluster, serve_cluster
from repro.errors import ClusterError, MigrationError
from repro.migration.segments import max_migratable
from repro.migration.sodee import Host, SODEngine
from repro.serve.loadgen import LoadGenerator, Request
from repro.serve.loadindex import (DEFAULT_STALENESS, LoadIndex, WorkProfile)
from repro.serve.policies import (AdaptiveShed, FrontDoorPlacement,
                                  QueueDepthPolicy, ShedWhenSaturated,
                                  WeightedRoundRobinPlacement)
from repro.serve.tenants import TenantSet
from repro.serve.wfq import FairStore
from repro.sim.kernel import Store
from repro.vm.costmodel import CostModel, sodee_model
from repro.workloads.mixes import (MIXES, expected_request_result,
                                   needs_isolation, serve_classpath)

#: serving-scale per-instruction time: one request is milliseconds of
#: guest compute, so the fixed VMTI/transfer costs of an offload are
#: small relative to the work it moves (the regime the paper's
#: mobility scenarios assume)
SERVE_INSTR_SECONDS = 1e-6

#: wire size of a handed-off request descriptor (entry point + args)
DESCRIPTOR_BYTES = 192

#: sentinel shutting down a node process
_STOP = object()

#: base backoff before a failed delivery is retransmitted (doubles per
#: attempt) — long enough that a healed blip succeeds on retry, short
#: enough that the requeue-at-origin fallback fires well inside one
#: request's service time
DELIVERY_BACKOFF = 250e-6

#: retransmissions of one failed delivery before a descriptor is
#: requeued at its origin and a segment is written off as lost
DELIVERY_RETRIES = 2

#: queued threads one offload decision may examine when gathering batch
#: victims: keeps the decision cost independent of queue depth (a
#: thousand-deep backlog must not make every offload an O(queue) walk)
VICTIM_SCAN_WINDOW = 64

#: The public ``stats`` keys after ``quanta`` (the sum of
#: :attr:`ClusterScheduler.quanta`), in report order, each with its
#: source: a tuple names the event counts it sums (an event counts under
#: ``kind``, or ``kind:sub`` for its ``fault`` / ``mode`` sub-kind; see
#: :meth:`ClusterScheduler._trace`), and None marks a plain counter in
#: :attr:`ClusterScheduler.stats`, bumped where no event records the fact.
STATS: Dict[str, Optional[Tuple[str, ...]]] = {
    "handoffs": ("handoff",),
    "sod_offloads": ("offload", "offload:batch", "rehop"),
    "batched_threads": ("offload:batch",), "offload_aborts": None,
    "completions": ("seg_complete",), "failed": ("fail",),
    "decisions": None, "decision_ops": None, "victim_vetoes": None,
    "seg_rehops": ("rehop",), "shed": ("shed",), "isolated": None,
    "crashes": ("fault:crash",),
    "link_failures": ("fault:link", "fault:partition"),
    "straggles": ("fault:straggle",), "retries": ("retry",),
    "seg_recoveries": ("recover:home-requeue", "recover:retry"),
    "home_requeues": ("recover:home-requeue",),
    "cancelled_segments": None, "fault_aborts": ("fault_abort",),
    "delivery_retries": None, "delivery_drops": None,
    "requeued_home": ("delivery_failed",),
}


def latency_summary(served: List[Request]) -> Dict[str, float]:
    """Mean / P50 / P95 / max of served requests' end-to-end latency
    (``finished_at - arrival``; all 0.0 when none was served)."""
    lat = sorted(r.finished_at - r.arrival for r in served)
    if not lat:
        return {"mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}

    def pct(p: float) -> float:
        return lat[int(p * (len(lat) - 1))]
    return {"mean": sum(lat) / len(lat), "p50": pct(0.50),
            "p95": pct(0.95), "max": lat[-1]}


@dataclass
class ServeReport:
    """Outcome of one serving run (JSON-friendly via :meth:`to_dict`)."""

    n_nodes: int
    submitted: int
    served: int
    failed: int
    unserved: int
    correct: int
    makespan: float
    throughput: float
    latency_mean: float
    latency_p50: float
    latency_p95: float
    latency_max: float
    per_node: Dict[str, Dict[str, Any]]
    stats: Dict[str, int]
    quantum: int
    mix: str = ""
    seed: int = 0
    #: per-tenant outcome blocks (admitted/shed/done, P50/P95, quanta);
    #: empty in single-tenant runs
    tenants: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        d = {
            "mix": self.mix, "seed": self.seed, "n_nodes": self.n_nodes,
            "quantum": self.quantum, "submitted": self.submitted,
            "served": self.served, "failed": self.failed,
            "unserved": self.unserved, "correct": self.correct,
            "makespan_s": self.makespan,
            "throughput_rps": self.throughput,
            "latency_s": {
                "mean": self.latency_mean, "p50": self.latency_p50,
                "p95": self.latency_p95, "max": self.latency_max,
            },
            "per_node": self.per_node,
            "sched": dict(self.stats),
        }
        # Only multi-tenant runs carry the block: a tenant-free run's
        # dict stays byte-identical to pre-tenant builds.
        if self.tenants:
            d["tenants"] = self.tenants
        return d


class ClusterScheduler:
    """Serves a stream of guest-program requests across a cluster."""

    def __init__(self, cluster: Cluster, classes: Dict[str, Any],
                 cost: Optional[CostModel] = None,
                 quantum: int = 2500,
                 placement: Optional[Any] = None,
                 offload: Optional[QueueDepthPolicy] = None,
                 front: Optional[str] = None,
                 staleness: float = DEFAULT_STALENESS,
                 isolation: str = "auto",
                 admission: Optional[Any] = None,
                 max_retries: int = 3,
                 tenants: Optional[TenantSet] = None):
        if isolation not in ("auto", "all", "off"):
            raise ClusterError(f"unknown isolation mode {isolation!r}")
        if not cluster.nodes:
            raise ClusterError("cannot schedule on an empty cluster")
        self.cluster = cluster
        self.env = cluster.env
        self.network = cluster.network
        self.node_names: List[str] = list(cluster.names())
        self.front = front or self.node_names[0]
        if self.front not in cluster.nodes:
            raise ClusterError(f"front node {self.front!r} not in cluster")
        self.engine = SODEngine(
            cluster, classes,
            cost=cost or sodee_model(SERVE_INSTR_SECONDS))
        # Fresh tier-up profile per serving run: classpaths are cached
        # (lru) across runs in one process, and hotness carried over
        # from an earlier run would tier methods up at different times
        # — breaking the byte-identical record/replay contract.
        for cf in classes.values():
            for code in cf.methods.values():
                code.hotness = 0
        self.quantum = quantum
        self.placement = placement or WeightedRoundRobinPlacement()
        self.offload = offload
        #: per-request static isolation: "auto" gives every request of
        #: a non-reentrant program (FFT/TSP — statics carry request
        #: state) a fresh class-loader namespace; "all" isolates every
        #: request; "off" restores the PR 2 shared-cells behavior
        #: (reentrant-only mixes)
        self.isolation = isolation
        #: front-door admission control (None = admit everything)
        self.admission = admission
        #: the tenant tier (None/empty = legacy single-tenant mode:
        #: plain FIFO queues and no per-tenant accounting — structurally
        #: the pre-tenant code paths, byte-identical runs)
        self.tenants = tenants if tenants else None
        #: per-node run queues (both expose .items for load inspection);
        #: with tenants configured each queue is a weighted fair store —
        #: stride scheduling over Tenant.weight, so one tenant's backlog
        #: cannot starve another's quanta on any node it shares
        if self.tenants:
            tw = {t.name: t.weight for t in self.tenants}
            self.stores: Dict[str, Any] = {
                n: FairStore(self.env, name=f"runq:{n}", weights=tw)
                for n in self.node_names}
        else:
            self.stores = {
                n: Store(self.env, name=f"runq:{n}") for n in self.node_names}
        #: the request currently holding each node's CPU (or None)
        self.running: Dict[str, Optional[Request]] = {
            n: None for n in self.node_names}
        #: handoffs/segments in flight toward each node — counted as
        #: load so simultaneous offload decisions don't dogpile one
        #: idle target before any delivery lands
        self.pending: Dict[str, int] = {n: 0 for n in self.node_names}
        #: the incremental load index answering every load question the
        #: policies ask; all mutations of stores/running/pending go
        #: through :meth:`_bump` to keep it exact
        self.load_index = LoadIndex(cluster, staleness=staleness)
        #: online per-program instructions-per-request profile
        self.profile = WorkProfile()
        self.requests: List[Request] = []
        self.finished: List[Request] = []
        #: the event sink (duck-typed ``emit(now, kind, fields)``; a
        #: :class:`~repro.migration.tracing.Tracer` attaches itself
        #: here; None = events are only counted) and the per-request
        #: retry budget
        self.tracer: Optional[Any] = None
        self.max_retries = max_retries
        #: permanently crashed nodes (their processes idle forever)
        self.dead: set = set()
        #: bumped by :meth:`crash_node`; a node process compares the
        #: epoch before and after a quantum's virtual span to learn its
        #: machine died under the running request
        self.crash_epoch: Dict[str, int] = {n: 0 for n in self.node_names}
        #: segments whose parent is still ``"remote"``, keyed by rid —
        #: a dict (not a set) so recovery iteration order is insertion
        #: order, never id-hash order (replay determinism)
        self.active_segments: Dict[int, Request] = {}
        #: the counters no event records (:data:`STATS` rows of None)
        self.stats: Dict[str, int] = {
            k: 0 for k, kinds in STATS.items() if kinds is None}
        #: events recorded by :meth:`_trace`, by ``kind[:sub]``
        self.event_counts: Counter = Counter()
        #: quanta run, by the tenant they billed (None = untagged)
        self.quanta: Counter = Counter()
        self._expected: Optional[int] = None
        self._next_rid = 0
        self._stopped = False
        for n in self.node_names:
            self.env.process(self._node_proc(n), name=f"node:{n}")

    def _trace(self, kind: str, **fields: Any) -> None:
        """Record one serving fact at the current virtual time: count
        it — under ``kind:sub`` when it names a ``fault`` / ``mode``
        sub-kind; an offload once per thread it ships, under
        ``offload:batch`` when that is more than one — and hand it to
        the tracer, if one is attached.  :meth:`report` folds the
        counts into ``stats`` through :data:`STATS`."""
        n = 1
        sub = fields.get("fault") or fields.get("mode")
        if kind == "offload":
            n = len(fields["segs"])
            sub = "batch" if n > 1 else None
        self.event_counts[kind if sub is None else f"{kind}:{sub}"] += n
        if self.tracer is not None:
            self.tracer.emit(self.env.now, kind, fields)

    # -- admission ---------------------------------------------------------

    def submit(self, spec, tenant: Optional[str] = None) -> Request:
        """Admit one request now; placement picks its first queue.
        With admission control installed and the controller refusing it
        (digest saturation, or the tenant over its fair share), the
        request is *shed* instead: finished on arrival with state
        ``"shed"`` and counted, never queued — the client got a fast
        overload signal rather than an unbounded queueing delay."""
        req = Request(rid=self._take_rid(), spec=spec, arrival=self.env.now,
                      tenant=tenant)
        self.requests.append(req)
        if self.admission is not None and not self.admission.admit(self, req):
            req.state = "shed"
            req.finished_at = self.env.now
            self._trace("shed", rid=req.rid, program=spec.program,
                        tenant=tenant)
            self.finished.append(req)
            self._maybe_stop()
            return req
        node = self._place_live(req)
        self._trace("submit", rid=req.rid, program=spec.program, node=node)
        self._enqueue(req, node)
        return req

    def serve(self, load: LoadGenerator) -> ServeReport:
        """Admit ``load``'s stream, run to completion, report.

        One-shot: the node processes exit when the stream completes, so
        a scheduler cannot be reused (a second call would enqueue onto
        queues nobody consumes and silently serve nothing)."""
        if self._stopped:
            raise ClusterError(
                "ClusterScheduler is one-shot: build a fresh scheduler "
                "for another serving run")
        self._expected = (self._expected or 0) + load.n_requests
        self.env.process(load.admit_proc(self), name="loadgen")
        self.env.run()
        rep = self.report()
        rep.mix, rep.seed = load.mix.name, load.seed
        return rep

    # -- the load index ----------------------------------------------------

    def _bump(self, node: str, delta: int,
              req: Optional[Request] = None) -> None:
        """Apply a runnable-count change to the incremental index,
        billing ``req``'s tenant when it carries one (segments carry
        their parent's tenant, so offloaded work keeps billing to the
        tenant that caused it)."""
        self.load_index.add(node, delta,
                            tenant=req.tenant if req is not None else None)

    def pick_underloaded(self, src: str, src_load: float,
                         min_gap: float) -> Optional[str]:
        """Policy entry point for target picking: one index query,
        with the decision count and its cost (index entries examined)
        accounted for the scale benchmark."""
        idx = self.load_index
        ops0 = idx.ops
        target = idx.pick_underloaded(self.env.now, src, src_load, min_gap)
        self.stats["decisions"] += 1
        self.stats["decision_ops"] += idx.ops - ops0
        return target

    # -- scheduling core ---------------------------------------------------

    def _node_proc(self, name: str):
        """One node's serving loop: pop, maybe hand off, run a quantum,
        maybe offload, requeue."""
        store = self.stores[name]
        env = self.env
        policy = self.offload
        while True:
            req = yield store.get()
            if req is _STOP:
                break
            self._bump(name, -1, req)  # left the queue; in hand now
            if req.kind == "segment" and req.cancelled:
                # Its parent was recovered elsewhere while this segment
                # sat queued: void it, never run it.
                self._end_segment(name, req)
                continue
            if (policy is not None and req.kind == "request"
                    and req.thread is None and req.hops < policy.max_hops):
                target = policy.handoff_target(self, name)
                if target is not None:
                    req.hops += 1
                    self._trace("handoff", rid=req.rid, src=name,
                                dst=target)
                    self._dispatch(name, target, [(req, 0.0)],
                                   self.network.transfer_proc,
                                   DESCRIPTOR_BYTES)
                    continue
            epoch = self.crash_epoch[name]
            self.running[name] = req
            self._bump(name, +1, req)
            req.state = "running"
            try:
                dt, status = self._run_quantum(name, req)
            except MigrationError as e:
                # A dependency crashed out from under the running guest
                # (e.g. an object's home host died mid-fetch): the
                # thread state is beyond saving — recover from clean
                # state instead.
                self.running[name] = None
                self._bump(name, -1, req)
                self._recover_faulted(name, req, str(e))
                continue
            self.quanta[req.tenant] += 1
            if dt > 0:
                # Hold the busy slot across the quantum's virtual span
                # so other nodes' load probes see this CPU occupied.
                yield env.timeout(dt)
            self.running[name] = None
            self._bump(name, -1, req)
            if self.crash_epoch[name] != epoch:
                # The machine died under this quantum.  The crash
                # handler already recovered (or cancelled) the request
                # in the running slot, and even a "finished" status is
                # void — the response never left the dying node.
                continue
            if req.kind == "segment" and req.cancelled:
                self._end_segment(name, req)
                continue
            if status == "finished":
                done_dt = self._on_finished(name, req)
                if done_dt > 0:
                    yield env.timeout(done_dt)
            else:  # preempted at a safepoint
                target = None
                if policy is not None:
                    if req.kind == "segment":
                        # Fig. 1c chains: an overloaded worker may push
                        # a preempted segment another hop — but never
                        # "onward" to the home that will complete it
                        # anyway (that is just the completion path).
                        target = policy.rehop_target(self, name, req)
                        if (target is not None
                                and target != req.parent.host_node):
                            yield env.timeout(
                                self._seg_rehop(name, req, target))
                            continue
                        target = None
                    else:
                        target = policy.offload_target(self, name, req)
                if target is not None:
                    yield env.timeout(self._sod_offload(name, req, target))
                else:
                    self._enqueue(req, name)

    def _run_quantum(self, node: str, req: Request):
        """Run one quantum of ``req`` on ``node``; returns (virtual
        seconds consumed, run status)."""
        machine = self._host(node).machine
        t0 = machine.clock
        i0 = machine.instr_count
        if req.thread is None:
            req.started_at = self.env.now
            req.host_node = node
            cls, meth = req.spec.main
            if self.isolation == "all" or (
                    self.isolation == "auto"
                    and needs_isolation(req.spec.program)):
                # Static isolation: this request gets its own class-
                # loader namespace — fresh static cells here and on
                # every node a migrated segment of it lands on (the
                # captured state carries the tag).  Reentrant programs
                # skip this entirely and share the root cells.
                req.namespace = f"req{req.rid}"
                self.engine.note_namespace_site(req.namespace, node)
                self.stats["isolated"] += 1
            req.thread = machine.spawn(cls, meth, list(req.spec.args),
                                       thread_name=req.label(),
                                       namespace=req.namespace)
        req.quanta += 1
        status = machine.run(req.thread, quantum=self.quantum)
        req.instrs += machine.instr_count - i0
        return machine.clock - t0, status

    # -- deliveries (contention-aware: they ride the link resources) -------

    def _dispatch(self, src: str, target: str,
                  items: List[Tuple[Request, float]],
                  send: Any, amount: float) -> None:
        """Start one message toward ``target`` — a handed-off request
        descriptor, or a bulk of restored segments — with everything in
        it counted as pending load immediately (before the wire time
        elapses).  ``send(src, target, amount)`` is the network process
        that occupies the link for one transmission
        (``transfer_proc`` of bytes, or ``occupy_proc`` of seconds the
        engine already priced)."""
        self.pending[target] += len(items)
        for r, _ready_at in items:
            self._bump(target, +1, r)
        self.env.process(
            self._delivery_proc(src, target, items, send, amount),
            name=f"deliver:{src}->{target}")

    def _delivery_proc(self, src: str, target: str,
                       items: List[Tuple[Request, float]],
                       send: Any, amount: float):
        """One message in flight: it rides the (src, target) link —
        queueing FIFO behind any transfer already on the wire, so an
        offload storm serializes instead of transferring for free —
        while the source keeps serving, and each item becomes runnable
        ``ready_at`` seconds after the message lands (a bulk's segments
        restore sequentially on the worker; a descriptor is ready at
        once).

        Delivery is leased, not assumed: a drop (link down, endpoint
        crashed) is retransmitted after an exponential backoff up to
        :data:`DELIVERY_RETRIES` times.  After that a descriptor is
        requeued at its origin — the request is never lost, only its
        trip — and a segment is *lost in flight*: its restored worker
        thread is abandoned (live target) or died with the machine
        (dead target), and its parent re-executes from clean state."""
        attempt = 0
        while True:
            ok = yield from send(src, target, amount)
            delivered = ok and target not in self.dead
            if (delivered or target in self.dead  # a dead peer never acks
                    or attempt >= DELIVERY_RETRIES):
                break
            attempt += 1
            self.stats["delivery_retries"] += 1
            yield self.env.timeout(DELIVERY_BACKOFF * (2 ** (attempt - 1)))
        if not delivered:
            self.stats["delivery_drops"] += 1
        done = 0.0
        for r, ready_at in items:
            if delivered and ready_at > done:
                yield self.env.timeout(ready_at - done)
                done = ready_at
            self.pending[target] -= 1
            self._bump(target, -1, r)
            if r.kind == "segment":
                if r.cancelled:
                    self._end_segment(target, r)
                elif not delivered or target in self.dead:
                    # (the node may also die between the message landing
                    # and this segment's restore completing)
                    self._end_segment(target, r, "delivery-failed")
                else:
                    self._enqueue(r, target)
            elif delivered:
                self._enqueue(r, target)
            else:
                fallback = (src if src not in self.dead
                            else self._place_live(r))
                self._trace("delivery_failed", rid=r.rid, src=src,
                            dst=target, fallback=fallback)
                self._enqueue(r, fallback)

    # -- completion --------------------------------------------------------

    def _on_finished(self, node: str, req: Request) -> float:
        if req.kind == "segment":
            return self._complete_segment(node, req)
        req.finished_at = self.env.now
        t = req.thread
        if t.uncaught is not None:
            self._trace("fail", rid=req.rid, error=t.uncaught.class_name)
            self._fail(req, t.uncaught.class_name)
        else:
            req.state = "done"
            req.result = t.result
            if req.spec is not None:
                self.profile.observe(req.spec.program, req.instrs)
            observe = getattr(self.admission, "observe", None)
            if observe is not None:
                # Adaptive overload control learns from every served
                # request's end-to-end latency (static admission has no
                # observe hook and pays nothing).
                observe(self, req)
            self._drop_namespace(req)
            self._trace("complete", rid=req.rid, node=node,
                        result=repr(req.result))
            self.finished.append(req)
            self._maybe_stop()
        return 0.0

    def _complete_segment(self, node: str, seg: Request) -> float:
        """A migrated segment finished on ``node``: write results back
        to the parent's home and requeue the residual stack there."""
        parent = seg.parent
        self.active_segments.pop(seg.rid, None)
        parent.instrs += seg.instrs  # remote work done on parent's behalf
        if seg.thread.uncaught is not None:
            self.engine.abandon_segment(self._host(node), seg.thread)
            parent.finished_at = self.env.now
            self._trace("fail", rid=parent.rid,
                        error=seg.thread.uncaught.class_name)
            self._fail(parent, seg.thread.uncaught.class_name)
            return 0.0
        dt = self.engine.complete_segment(
            self._host(node), seg.thread,
            self._host(parent.host_node), parent.thread, seg.nframes)
        self._trace("seg_complete", rid=parent.rid, seg=seg.rid, node=node)
        self._enqueue(parent, parent.host_node)
        return dt

    def _fail(self, req: Request, error: str) -> None:
        req.state = "failed"
        req.error = error
        self._drop_namespace(req)
        self.finished.append(req)
        self._maybe_stop()

    def _drop_namespace(self, req: Request) -> None:
        """A request's life is over (done, failed, or restarting from
        scratch): its ``req{rid}`` namespace is forgotten on every host
        it migrated through, so thousands of isolated requests don't
        accumulate per-node state."""
        if req.namespace is not None:
            self.engine.forget_namespace(req.namespace)

    def _maybe_stop(self) -> None:
        if (self._expected is not None and not self._stopped
                and len(self.finished) >= self._expected):
            self._stopped = True
            for store in self.stores.values():
                store.put(_STOP)

    # -- faults and recovery (the chaos layer's seams) ---------------------

    def crash_node(self, name: str) -> None:
        """Kill ``name`` permanently: its guest threads and worker
        caches die with the machine, in-flight transfers touching it
        fail, and every piece of work it held is recovered from clean
        state elsewhere.

        Ownership of recovery is split to make it exactly-once: this
        handler owns (a) the dead run queue's items, (b) the running
        slot, and (c) requests *homed* here whose frames are off on
        remote workers; delivery processes own segments in flight; the
        ``cancelled`` flag arbitrates the overlap — a cancelled segment
        is only ever discarded, never recovered a second time."""
        if name == self.front:
            raise ClusterError("cannot crash the front node "
                               "(ingress + classpath home)")
        if name in self.dead:
            return
        self.dead.add(name)
        self.crash_epoch[name] += 1
        self._trace("fault", fault="crash", node=name)
        self.network.crash_node(name)
        self.load_index.retire(name)
        # 1. Drain the dead run queue.  The node's process is blocked in
        #    get() or mid-quantum; it learns of the crash from its epoch
        #    and settles its own slot accounting.
        store = self.stores[name]
        victims = [r for r in list(store.items) if r is not _STOP]
        for r in victims:
            store.remove(r)
            self._bump(name, -1, r)
        run = self.running[name]
        if run is not None:
            victims.append(run)
        # 2. The engine forgets the host: its classpath, retained
        #    copies and restored threads go with it (a later re-offload
        #    to a reborn name would start cold).
        self.engine.crash_host(name)
        # 3. Recover every victim.
        for r in victims:
            if r.kind == "segment":
                self._end_segment(name, r, "node-crash")
            elif r.thread is None:
                # A descriptor: nothing started, nothing lost — just
                # place it somewhere alive.
                self._trace("recover", rid=r.rid, mode="replace")
                self._enqueue(r, self._place_live(r))
            else:
                self._retry(r, "node-crash")
        # 4. Requests homed here whose residual stacks just died while
        #    their top frames run on remote workers: the home state is
        #    gone, so the whole request restarts (and its live segments
        #    become cancelled zombies wherever they are).
        for r in self.requests:
            if (r.kind == "request" and r.state == "remote"
                    and r.host_node == name):
                self._retry(r, "node-crash")

    def _recover_faulted(self, name: str, req: Request, err: str) -> None:
        """A quantum aborted because a dependency host died mid-fetch:
        discard the poisoned thread state and recover."""
        self._trace("fault_abort", rid=req.rid, node=name, error=err)
        if req.kind == "segment":
            self._end_segment(name, req, "dependency-crash")
        else:
            self._retry(req, "dependency-crash")

    def _end_segment(self, node: str, seg: Request,
                     reason: Optional[str] = None) -> None:
        """The one segment death: whoever holds a segment that will
        never complete — its node crashed, its delivery never (usably)
        arrived, a dependency died under its quantum (``reason`` says
        which), or it surfaced *cancelled* on a queue, a CPU or a
        delivery (``reason=None``) — ends it here, exactly once.

        The engine restored the worker thread eagerly when the message
        was built, so a *live* ``node`` holds state that must be
        abandoned (epochs released, dirty copies dropped); a dead one
        lost it with the machine either way.  A cancelled segment's
        parent was already recovered elsewhere, so nothing more is
        owed.  Otherwise the parent resumes without it:
        a first-hop segment re-executes from home state — the home
        thread kept its full (stale-above-MSP) stack at migrate time,
        and the lost worker's dirty writes were never flushed, so
        requeueing the parent replays exactly the offloaded frames with
        no double-applied effects.  A chain-hop segment's earlier hops
        *did* flush partial effects home (rehop's release fence), so
        only a from-scratch retry under a fresh namespace is safe."""
        self.active_segments.pop(seg.rid, None)
        if node not in self.dead and seg.thread is not None:
            self.engine.abandon_segment(self._host(node), seg.thread)
        if seg.cancelled:
            seg.state = "cancelled"
            self.stats["cancelled_segments"] += 1
            if reason is None:
                # (when a fault takes a cancelled segment, that fault's
                # own event is the record — recorded traces pin this)
                self._trace("discard_segment", rid=seg.rid, node=node)
            return
        seg.state = "lost"
        parent = seg.parent
        if parent.state != "remote":
            return  # another recovery path already owns the parent
        if (seg.hops == 0 and parent.host_node is not None
                and parent.host_node not in self.dead):
            self._trace("recover", rid=parent.rid, seg=seg.rid,
                        mode="home-requeue", reason=reason)
            self._enqueue(parent, parent.host_node)
        else:
            self._trace("recover", rid=parent.rid, seg=seg.rid,
                        mode="retry", reason=reason)
            self._retry(parent, reason)

    def _cancel_segment(self, seg: Request) -> None:
        """Void a live segment of a recovered parent: wherever it is
        (queued, running, riding a delivery), its holder discards it on
        next touch; if it is queued on a live node, pull it out now."""
        seg.cancelled = True
        node = seg.host_node
        if node is not None and node not in self.dead:
            store = self.stores.get(node)
            if store is not None and store.remove(seg):
                self._bump(node, -1, seg)
                self._end_segment(node, seg)

    def _retry(self, req: Request, reason: str) -> None:
        """Restart ``req`` from scratch on a live node: cancel its live
        segments, drop its namespace (both the fresh spawn and any
        zombie worker state re-key under a clean ``req{rid}``), reset
        the execution state, and requeue — bounded by ``max_retries``,
        after which the request fails visibly rather than looping."""
        for seg in [s for s in self.active_segments.values()
                    if s.parent is req]:
            self._cancel_segment(seg)
        req.retries += 1
        if req.retries > self.max_retries:
            req.finished_at = self.env.now
            self._trace("fail", rid=req.rid, error=reason)
            self._fail(req, reason)
            return
        self._drop_namespace(req)
        req.thread = None
        req.namespace = None
        req.host_node = None
        req.hops = 0
        req.instrs = 0
        target = self._place_live(req)
        self._trace("retry", rid=req.rid, attempt=req.retries,
                    reason=reason, node=target)
        self._enqueue(req, target)

    def _place_live(self, req: Request) -> str:
        """Placement that never lands on a dead node: re-ask the policy
        (its cursor keeps advancing deterministically) a bounded number
        of times, then fall back to the front — which cannot crash."""
        node = self.placement.place(self, req)
        for _ in range(len(self.node_names)):
            if node not in self.dead:
                return node
            node = self.placement.place(self, req)
        return self.front

    # -- SOD offload -------------------------------------------------------

    def _sod_offload(self, node: str, req: Request, target: str) -> float:
        """Capture the hot thread's top frames (plus any batchable
        queued hot threads) and ship them to ``target``.  Returns the
        source node's capture time; transfer + restore ride a bulk
        delivery process so the source keeps serving.

        Batch victims are the queued started threads with the *most
        estimated remaining work* (unprofiled programs rank first:
        nothing suggests they are nearly done, and their depth already
        qualified them) — shipping a nearly-done thread buys less
        compute than its capture + wire + restore cost."""
        policy = self.offload
        home = self._host(node)
        store = self.stores[node]
        candidates = []
        examined = 0
        for cand in store.items:
            if examined >= VICTIM_SCAN_WINDOW:
                break  # bounded scan: deep queues must not make one
                # offload decision O(queue length)
            examined += 1
            if cand.thread is None:
                continue  # pre-start descriptors travel by handoff
            if policy.victim_ok(self, cand):
                candidates.append(cand)
        if len(candidates) > policy.batch_limit - 1:
            inf = float("inf")

            def rank(c: Request):
                r = self.profile.remaining(c)
                return (-(inf if r is None else r), c.rid)

            candidates.sort(key=rank)
            candidates = candidates[:policy.batch_limit - 1]
        batch = [req]
        for cand in candidates:
            store.remove(cand)
            self._bump(node, -1, cand)
            batch.append(cand)
        nframes = max(1, min(
            policy.mig_frames,
            min(max_migratable(r.thread) for r in batch),
            min(r.depth - 1 for r in batch)))
        dt, shipped = self._ship_off(
            node, batch, target,
            lambda: self.engine.migrate_many(
                home, [r.thread for r in batch], target, nframes)[1])
        if shipped:
            segs = [(self._new_segment(r, wt, target, nframes), rec)
                    for r, (wt, rec) in zip(batch, shipped)]
            self._trace("offload", src=node, dst=target,
                        segs=[(s.rid, s.parent.rid) for s, _ in segs])
            self._dispatch_bulk(node, target, segs)
        return dt

    def _seg_rehop(self, node: str, seg: Request, target: str) -> float:
        """Move a preempted segment one hop further along a Fig. 1c
        chain (engine :meth:`~repro.migration.sodee.SODEngine.
        rehop_segment`): its effects flush to the home first, the whole
        segment ships to ``target``, and a *new* segment request —
        same parent, same residual frame count, accumulated work
        carried over — rides a bulk delivery there.  Completion stays
        anchored to the home node: when the chain's last hop finishes,
        results return directly, not back through the chain.

        Returns the source hop's capture time (the node keeps serving
        while the transfer rides the link)."""
        home_host = self._host(seg.parent.host_node)
        src = self._host(node)
        dt, shipped = self._ship_off(
            node, [seg], target,
            lambda: [self.engine.rehop_segment(
                src, seg.thread, target, home_host)[1:]])
        if shipped:
            (wt, rec), = shipped
            self.active_segments.pop(seg.rid, None)
            hop = self._new_segment(seg.parent, wt, target, seg.nframes,
                                    hops=seg.hops + 1, instrs=seg.instrs)
            self._trace("rehop", src=node, dst=target, seg=hop.rid,
                        rid=seg.parent.rid, hops=hop.hops)
            self._dispatch_bulk(node, target, [(hop, rec)])
        return dt

    def _ship_off(self, node: str, batch: List[Request], target: str,
                  ship: Any) -> Tuple[float, List[Tuple[Any, Any]]]:
        """Ship ``batch``'s top frames off ``node`` (``ship()`` is the
        engine call; it returns one ``(worker thread, record)`` per
        batch entry) or put everything back.  Returns the node's
        virtual bill — the capture time; transfer + restore ride a
        delivery process so the source keeps serving — and what
        shipped (empty after an abort)."""
        machine = self._host(node).machine
        t0 = machine.clock
        try:
            shipped = ship()
        except MigrationError:
            # Not capturable right now (finished during the MSP run,
            # pinned frame, cross-home statics at the target, ...): put
            # everything back.  Completion durations (write-back wire +
            # apply) stay on the node's virtual bill, like the main
            # loop's done_dt.
            self.stats["offload_aborts"] += 1
            done_dt = 0.0
            requeue = []
            for r in batch:
                if r.thread.finished:
                    done_dt += self._on_finished(node, r)
                else:
                    r.state = "queued"
                    requeue.append(r)
                    self._bump(node, +1, r)
            self.stores[node].put_many(requeue)
            return machine.clock - t0 + done_dt, []
        for r in batch:
            # A parent now waits for its frames to come home; a
            # re-hopped segment's request object is simply done.
            r.state = "remote"
        return machine.clock - t0, shipped

    def _new_segment(self, parent: Request, thread: Any, target: str,
                     nframes: int, hops: int = 0, instrs: int = 0
                     ) -> Request:
        """The one segment birth: ``parent``'s top ``nframes`` frames,
        restored as ``thread`` on ``target`` (``hops``/``instrs`` carry
        a chain's history onto its next hop)."""
        parent.sod_offloads += 1
        seg = Request(rid=self._take_rid(), kind="segment", parent=parent,
                      arrival=self.env.now, thread=thread,
                      host_node=target, nframes=nframes, hops=hops,
                      instrs=instrs, tenant=parent.tenant)
        self.active_segments[seg.rid] = seg
        return seg

    def _dispatch_bulk(self, src: str, target: str,
                       segs: List[Tuple[Request, Any]]) -> None:
        """One bulk segment message: the whole message must land before
        any restore starts (per-record ``transfer_time`` is the bulk
        evenly attributed, so summing recovers it), and restores run
        sequentially on the worker — segment k is runnable only after
        restores 1..k."""
        restored = 0.0
        items = []
        for seg, rec in segs:
            restored += rec.restore_time + rec.worker_spawn_time
            items.append((seg, restored))
        self._dispatch(src, target, items, self.network.occupy_proc,
                       sum(rec.transfer_time for _seg, rec in segs))

    # -- plumbing ----------------------------------------------------------

    def _take_rid(self) -> int:
        rid = self._next_rid
        self._next_rid += 1
        return rid

    def _enqueue(self, req: Request, node: str) -> None:
        if node in self.dead:
            # Central guard: no delivery path ever queues work onto a
            # crashed node.  A descriptor just re-places; a started
            # request's frames lived on a specific machine, so a dead
            # destination means its state is gone — full retry.
            if req.thread is None:
                node = self._place_live(req)
            else:
                self._retry(req, "node-crash")
                return
        req.state = "queued"
        if req.thread is None:
            req.host_node = node
        self._bump(node, +1, req)
        self.stores[node].put(req)

    def _host(self, node: str) -> Host:
        if node == self.front:
            return self.engine.host(node)
        return self.engine.worker_host(node, self.engine.host(self.front))

    def busy_time(self, node: str) -> float:
        """Virtual CPU seconds this node's machine has consumed."""
        h = self.engine.hosts.get(node)
        return h.machine.clock if h is not None else 0.0

    # -- reporting ---------------------------------------------------------

    def report(self) -> ServeReport:
        served = [r for r in self.finished if r.state == "done"]
        failed = [r for r in self.finished if r.state == "failed"]
        submitted = len(self.requests)
        lat = latency_summary(served)
        makespan = max((r.finished_at for r in self.finished), default=0.0)
        correct = sum(1 for r in served
                      if r.result == expected_request_result(r.spec))
        per_node: Dict[str, Dict[str, Any]] = {}
        for n in self.node_names:
            per_node[n] = {
                "served": sum(1 for r in served if r.host_node == n),
                "busy_s": self.busy_time(n),
                "cpu_weight": self.cluster.node(n).spec.cpu_weight,
            }
        stats = {"quanta": sum(self.quanta.values())}
        for key, kinds in STATS.items():
            stats[key] = (self.stats[key] if kinds is None else
                          sum(self.event_counts[k] for k in kinds))
        stats["gossip_rounds"] = self.load_index.gossip_rounds
        # Chaos layer: messages lost to injected faults.
        stats["dropped_messages"] = self.network.total_dropped()
        # Migration fast path: bytes the transfer caches kept off the
        # wire, and object revalidation hits across all workers.
        stats["bytes_saved"] = self.network.total_saved()
        stats["reval_hits"] = sum(
            h.objman.stats.reval_hits for h in self.engine.hosts.values()
            if h.objman is not None)
        # Preemption coverage: the worst quantum overshoot any node's VM
        # saw (instructions past the budget before a safepoint fired).
        stats["max_quantum_overshoot"] = max(
            (h.machine.max_quantum_overshoot
             for h in self.engine.hosts.values()), default=0)
        # Tier-2 JIT activity across every node's VM.
        hosts = self.engine.hosts.values()
        stats["tier2_compiles"] = sum(h.machine.jit_compiles for h in hosts)
        stats["tier2_deopts"] = sum(h.machine.jit_deopts for h in hosts)
        stats["tier2_guard_bails"] = sum(
            h.machine.jit_guard_bails for h in hosts)
        stats["jit_compile_errors"] = sum(
            h.machine.jit_compile_errors for h in hosts)
        if isinstance(self.admission, AdaptiveShed):
            # Control-loop telemetry (static admission adds no keys, so
            # pre-tenant reports keep their exact shape).
            stats["adaptive_threshold"] = self.admission.threshold
            stats["adaptive_down"] = self.admission.adjust_down
            stats["adaptive_up"] = self.admission.adjust_up
            stats["fair_sheds"] = self.admission.fair_sheds
        # Per tenant: every configured one, then any other name a request
        # carried, in submission order.
        by_tenant: Dict[str, List[Request]] = {
            t.name: [] for t in self.tenants or ()}
        for r in self.requests:
            if r.tenant is not None:
                by_tenant.setdefault(r.tenant, []).append(r)
        tenant_blocks: Dict[str, Dict[str, Any]] = {}
        for name, reqs in by_tenant.items():
            states = Counter(r.state for r in reqs)
            tenant_blocks[name] = {
                "submitted": len(reqs),
                "admitted": len(reqs) - states["shed"],
                "shed": states["shed"], "done": states["done"],
                "failed": states["failed"], "quanta": self.quanta[name],
                "latency_s": latency_summary(
                    [r for r in reqs if r.state == "done"]),
            }
        return ServeReport(
            n_nodes=len(self.node_names), submitted=submitted,
            served=len(served), failed=len(failed),
            unserved=submitted - len(self.finished),
            correct=correct, makespan=makespan,
            throughput=(len(served) / makespan) if makespan > 0 else 0.0,
            latency_mean=lat["mean"], latency_p50=lat["p50"],
            latency_p95=lat["p95"], latency_max=lat["max"],
            per_node=per_node, stats=stats,
            quantum=self.quantum, tenants=tenant_blocks)


# -- describing and resolving a serving run ------------------------------------

PLACEMENTS = {
    "round-robin": WeightedRoundRobinPlacement,
    "front-door": FrontDoorPlacement,
}

#: Every knob that *describes* a serving run, spelled the way a trace's
#: ``config`` block, the ``serve`` CLI and ``build_serving``'s keywords
#: all spell it: key -> (default, virtual-only?, meaning).  The one
#: table of serving keys and defaults — :func:`resolve_config` fills
#: from it, the CLI builds its flags and its ``--backend real``
#: refusals from it, and the README's flag table is checked against it.
#: ``None`` = off / the layer's own default; a virtual-only key is
#: defined in terms of the modeled clock or cluster, so wall-clock mode
#: refuses it.
SERVE_KEYS: Dict[str, Tuple[Any, bool, str]] = {
    "mix": ("parallel", False,
            "request mix to draw from (`repro.workloads.MIXES`)"),
    "n_nodes": (4, True, "cluster size (real mode sizes with --procs)"),
    "n_requests": (32, False, "requests in the stream"),
    "seed": (7, False, "load-generator seed"),
    "quantum": (2500, True, "guest instructions per time slice"),
    "interarrival": (0.0, False,
                     "fixed virtual seconds between admissions "
                     "(0 = burst)"),
    "placement": ("round-robin", True,
                  "first-queue placement: round-robin or front-door"),
    "offload": ("queue-depth", True,
                "SOD offload policy: queue-depth or none"),
    "max_seg_hops": (0, True,
                     "chain hops a migrated segment may take beyond its "
                     "first offload (Fig. 1c; 0 = single-hop)"),
    "rack_size": (4, True, "nodes per rack in the serve topology"),
    "staleness": (None, True,
                  "gossip digest staleness bound, virtual seconds "
                  "(0 = always fresh; None = 1 ms)"),
    "isolation": ("auto", True,
                  "per-request static isolation: auto = fresh "
                  "class-loader namespace for non-reentrant programs "
                  "(FFT/TSP), all = every request, off = shared cells"),
    "shed_at": (None, True,
                "admission threshold: shed when every rack's lightest "
                "node is at/above this weighted load (static: fixed; "
                "adaptive: the initial guess)"),
    "max_retries": (3, True,
                    "from-scratch restarts one request may take after "
                    "faults before it fails"),
    "chaos_seed": (None, True,
                   "derive a seeded random fault plan (crashes, link "
                   "failures, stragglers); same seed = same disaster"),
    "chaos_horizon": (0.01, True,
                      "virtual seconds within which chaos_seed's "
                      "faults land"),
    "fault_plan": (None, True,
                   "explicit fault schedule (`FaultPlan.to_dict()`; what "
                   "chaos_seed materializes to)"),
    "tenants": (None, False,
                "tenant set (`Tenant.to_dict()` rows): weighted fair "
                "queues, shedding priorities, rate factors; needs "
                "arrival_rate"),
    "arrival_rate": (None, False,
                     "open-loop Poisson arrivals, requests per virtual "
                     "second (per tenant: times its rate factor)"),
    "admission": (None, True,
                  "admission control: static = shed at the fixed "
                  "shed_at; adaptive = learn the threshold (AIMD on "
                  "windowed P95 vs slo), shedding per tenant by "
                  "priority"),
    "slo": (None, True,
            "adaptive admission's end-to-end P95 target, virtual "
            "seconds (None = 0.1)"),
}


def resolve_config(config: Optional[Dict[str, Any]] = None
                   ) -> Dict[str, Any]:
    """Canonicalize a partial description of a serving run: fill
    :data:`SERVE_KEYS` defaults, reject unknown keys, and materialize
    ``chaos_seed`` into an explicit fault plan so the description is
    self-contained (a replayed trace never re-derives anything)."""
    cfg = {k: row[0] for k, row in SERVE_KEYS.items()}
    for k, v in (config or {}).items():
        if k not in cfg:
            raise ValueError(f"unknown serving config key {k!r}")
        cfg[k] = v
    if cfg["fault_plan"] is None and cfg["chaos_seed"] is not None:
        # Imported lazily (here and below): repro.chaos imports this
        # module, so a top-level import would be circular.
        from repro.chaos.faults import random_plan
        cfg["fault_plan"] = random_plan(
            [f"node{i}" for i in range(cfg["n_nodes"])],
            cfg["chaos_seed"], horizon=cfg["chaos_horizon"]).to_dict()
    return cfg


def build_serving(mix: Optional[str] = None, *,
                  cpu_weights: Optional[List[float]] = None,
                  cost: Optional[CostModel] = None, **described: Any
                  ) -> Tuple["ClusterScheduler", LoadGenerator]:
    """Build a ready-to-run (scheduler, load generator) pair on a fresh
    ``serve_cluster(n_nodes)`` — the only place a *described* run turns
    into objects.  ``described`` takes the :data:`SERVE_KEYS` keys, each
    in its JSON form (what a trace's ``config`` block and the CLI hold:
    names, numbers, ``to_dict`` rows) or, for ``placement`` /
    ``offload`` / ``admission`` / ``tenants`` / ``fault_plan``, as the
    already-built object (which then wins over the scalar knobs that
    would have parameterized it)."""
    if mix is not None:
        described["mix"] = mix
    cfg = resolve_config(described)
    mixobj = MIXES[cfg["mix"]]
    cluster = serve_cluster(cfg["n_nodes"], cpu_weights=cpu_weights,
                            rack_size=cfg["rack_size"])
    placement, offload = cfg["placement"], cfg["offload"]
    if isinstance(placement, str):
        placement = PLACEMENTS[placement]()
    if offload == "queue-depth":
        offload = QueueDepthPolicy(max_seg_hops=cfg["max_seg_hops"])
    elif offload == "none":
        offload = None
    elif isinstance(offload, str):
        raise ValueError(f"unknown offload {offload!r}")
    admission, shed_at = cfg["admission"], cfg["shed_at"]
    if admission == "adaptive":
        knobs = {"slo": cfg["slo"], "init_load": shed_at}
        admission = AdaptiveShed(
            **{k: v for k, v in knobs.items() if v is not None})
    elif admission == "static" or (admission is None
                                   and shed_at is not None):
        if shed_at is None:
            raise ValueError("admission 'static' sheds at a fixed "
                             "threshold: set shed_at (--shed-at)")
        admission = ShedWhenSaturated(max_node_load=shed_at)
    elif isinstance(admission, str):
        raise ValueError(f"unknown admission {admission!r}")
    tenants = cfg["tenants"]
    if not isinstance(tenants, TenantSet):
        tenants = TenantSet.from_dict(tenants)
    sched = ClusterScheduler(
        cluster, serve_classpath(mixobj.programs()), cost=cost,
        quantum=cfg["quantum"], placement=placement, offload=offload,
        staleness=(DEFAULT_STALENESS if cfg["staleness"] is None
                   else cfg["staleness"]),
        isolation=cfg["isolation"], admission=admission,
        max_retries=cfg["max_retries"], tenants=tenants)
    plan = cfg["fault_plan"]
    if plan is not None:
        from repro.chaos.faults import FaultPlan
        from repro.chaos.injector import ChaosInjector
        if isinstance(plan, dict):
            plan = FaultPlan.from_dict(plan)
        ChaosInjector(sched, plan).start()
    load = LoadGenerator(mixobj, cfg["n_requests"], seed=cfg["seed"],
                         interarrival=cfg["interarrival"],
                         tenants=tenants,
                         arrival_rate=cfg["arrival_rate"])
    return sched, load

