"""SODEE — the Stack-On-Demand Execution Engine (paper section III).

Glues the substrates together: a :class:`Host` is a JVM process placed on
a cluster node; the :class:`SODEngine` starts guest threads, migrates
stack segments between hosts, serves object faults, applies write-back,
and accounts an experiment-level timeline.

Timeline model: phases are sequential on a single logical control flow
(run -> freeze/capture -> transfer -> restore -> run -> return), so the
engine sums per-phase durations; overlapping multi-hop flows (paper
Fig. 1b/c) are built on top in :mod:`repro.migration.workflow` using the
event kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bytecode.code import ClassFile
from repro.cluster.topology import Cluster
from repro.errors import MigrationError
from repro.migration.capture import capture_segment, run_to_msp
from repro.migration.object_manager import (HomeObjectServer,
                                            WorkerObjectManager)
from repro.migration.restore import RestoreDriver, java_level_restore
from repro.migration.state import CapturedState, encode_value
from repro.preprocess.sizes import class_size
from repro.vm.costmodel import CostModel, SystemCosts, sodee_model
from repro.vm.frames import ThreadState
from repro.vm.machine import Machine
from repro.vm.values import RemoteRef
from repro.vm.vmti import VMTI


#: wire size of a content-addressed class token (name + digest): what a
#: repeat offload ships instead of the class file + its pre-decoded
#: stream when the destination's classpath already holds them.  The
#: worker's classpath *is* the cache — class files are immutable,
#: namespace-independent and shared across namespaces by reference.
#: Classes (this token) and retained object copies
#: (``fetch_if_changed``, see :meth:`WorkerObjectManager.fetch`) are
#: the two things a repeat offload re-uses, each checked by content
#: when used; frames and statics (190-300 B) ship every time.
CLASS_TOKEN_BYTES = 24


@dataclass
class MigrationRecord:
    """Timings and sizes of one SOD migration (Table IV row material)."""

    src: str
    dst: str
    nframes: int
    capture_time: float = 0.0
    transfer_time: float = 0.0
    state_transfer_time: float = 0.0
    class_transfer_time: float = 0.0
    restore_time: float = 0.0
    state_bytes: int = 0
    class_bytes: int = 0
    worker_spawn_time: float = 0.0
    #: transfer-cache outcome: did the class collapse to a digest
    #: token, and the class-file bytes that kept off the wire
    cached_class: bool = False
    saved_bytes: int = 0

    @property
    def latency(self) -> float:
        """Migration latency = freeze-to-resume (capture+transfer+restore);
        worker spawn is excluded when a worker is pre-started, as in the
        paper's testbed."""
        return (self.capture_time + self.transfer_time + self.restore_time
                + self.worker_spawn_time)


class Host:
    """A JVM process on a node: machine + optional VMTI + object server."""

    def __init__(self, engine: "SODEngine", node_name: str,
                 machine: Machine):
        self.engine = engine
        self.node_name = node_name
        self.machine = machine
        self.vmti: Optional[VMTI] = None
        if machine.node is None or machine.node.spec.has_vmti:
            self.vmti = VMTI(machine)
        self.server = HomeObjectServer(machine, node_name)
        self.objman: Optional[WorkerObjectManager] = None

    def attach_object_manager(self) -> WorkerObjectManager:
        """Install the worker-side object manager (ObjMan natives);
        idempotent."""
        if self.objman is None:
            self.objman = WorkerObjectManager(
                self.machine, self.node_name,
                fetch_service=self.engine.fetch_remote,
                rtt_service=self.engine.rtt)
            self.objman.service_fixed = self.engine.sys.fault_service_fixed
            if self.engine.transfer_cache:
                self.objman.reval_service = self.engine.fetch_remote
            # Serving fetches from this node must forward nested fetched
            # copies to their true home (multi-hop chains fault through
            # intermediate hops).
            self.server.identity = self.objman.home_identity
            self.objman.install_natives()
        return self.objman

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Host {self.node_name}>"


class SODEngine:
    """The distributed runtime."""

    def __init__(self, cluster: Cluster, classes: Dict[str, ClassFile],
                 cost: Optional[CostModel] = None,
                 syscosts: Optional[SystemCosts] = None,
                 prestart_workers: bool = True,
                 transfer_cache: bool = True):
        self.cluster = cluster
        self.classes = classes
        self.cost = cost or sodee_model()
        self.sys = syscosts or SystemCosts()
        self.prestart_workers = prestart_workers
        #: content-checked transfer caches: class digest tokens and
        #: retained-object revalidation.  ``False`` ships every class
        #: file and object payload every time (the cache-on vs
        #: cache-off fuzzers' oracle configuration).
        self.transfer_cache = transfer_cache
        #: namespace tag -> the node whose cells are authoritative for
        #: it (the home a segment in that namespace was captured from).
        #: A worker's load_listener is bound to the home that *spawned*
        #: the worker; cross-home namespaced segments would otherwise
        #: sync on-demand class statics against the wrong machine.
        self._ns_home: Dict[str, str] = {}
        #: namespace tag -> node names that materialized it (spawn and
        #: restore sites) — lets :meth:`forget_namespace` reclaim only
        #: the 2-3 hosts/links a request actually touched instead of
        #: sweeping the whole cluster per completion
        self._ns_sites: Dict[str, set] = {}
        self.hosts: Dict[str, Host] = {}
        #: experiment timeline, seconds
        self.timeline = 0.0
        self.migrations: List[MigrationRecord] = []
        #: event tracer (duck-typed ``emit(now, kind, fields)``, the
        #: scheduler's protocol; None = tracing off) — see
        #: :mod:`repro.migration.tracing`
        self.tracer: Optional[Any] = None

    def _trace(self, kind: str, src: str, dst: str, **detail: Any) -> None:
        """Emit one runtime event at the engine timeline.  Hooked where
        every caller converges — :meth:`_ship`'s commit,
        :meth:`_write_back`, the two fetch services — so no shipment,
        write-back or fault can bypass it."""
        if self.tracer is not None:
            self.tracer.emit(self.timeline, kind,
                             {"src": src, "dst": dst, **detail})

    # -- hosts -------------------------------------------------------------

    def host(self, node_name: str, with_classes: bool = True,
             cost: Optional[CostModel] = None) -> Host:
        """Get or create the host on ``node_name``.  The *home* host gets
        the full classpath; workers start empty and fetch classes on
        demand (``with_classes=False``)."""
        h = self.hosts.get(node_name)
        if h is not None:
            return h
        node = self.cluster.node(node_name)
        machine = Machine(
            classpath=dict(self.classes) if with_classes else None,
            cost=(cost or self.cost).copy(), node=node, fs=self.cluster.fs,
            name=f"vm@{node_name}")
        h = Host(self, node_name, machine)
        self.hosts[node_name] = h
        return h

    def _worker_host(self, node_name: str, home: Host
                     ) -> Tuple[Host, float]:
        """Get/spawn the worker host on ``node_name`` with on-demand class
        fetching from ``home`` and an object manager.  Returns (host,
        spawn_seconds)."""
        existing = self.hosts.get(node_name)
        if existing is not None:
            existing.attach_object_manager()
            return existing, 0.0
        worker = self.host(node_name, with_classes=False)
        spawn = 0.0 if self.prestart_workers else self.sys.worker_spawn

        def missing(name: str) -> ClassFile:
            cf = home.machine.loader.classfile(name)
            nbytes = class_size(cf)
            worker.machine.charge_raw(self.rtt(node_name, home.node_name, 96, 0))
            worker.machine.charge_raw(self.transfer_time(
                home.node_name, node_name, nbytes))
            return cf

        worker.machine.loader.missing_class_hook = missing
        worker.machine.loader.load_listener = (
            lambda vmclass: self._sync_loaded_statics(worker, home, vmclass))
        worker.attach_object_manager()
        return worker, spawn

    def _sync_loaded_statics(self, worker: Host, home: Host,
                             vmclass) -> None:
        """Class state travels with on-demand code: when a worker links
        a class fetched from its home, the home's *current* static
        values ride along (captured-segment classes already ship theirs
        with the capture; this closes the gap for classes the segment
        merely references — e.g. a static counter in a helper class the
        captured frames read but never own).  Without it the worker
        links paper defaults and silently computes on stale state.

        The class links inside some namespace (``vmclass.namespace``);
        the authoritative values are the cells *in that same namespace*
        on the namespace's true home — the engine's ``_ns_home`` map,
        recorded when the segment restored, overrides the listener's
        spawn-time ``home`` binding (a worker first spawned by H1 can
        later host a segment whose namespace lives on H0).  The home is
        peeked, never created: an absent namespace there means nobody
        holds values for it and the paper defaults are authoritative.
        Object-valued statics become remote refs."""
        from repro.migration.state import decode_value
        from repro.vm.values import LOC_STATIC
        if not vmclass.statics:
            return
        ns = vmclass.namespace
        if ns is not None:
            true_home = self.hosts.get(self._ns_home.get(ns, ""))
            if true_home is not None:
                home = true_home
        if home.machine is worker.machine:
            return  # linking ON the namespace's home: defaults are it
        home_loader = home.machine.namespace(ns, create=False)
        if home_loader is None or not home_loader.is_loaded(vmclass.name):
            return  # home never linked it: defaults are authoritative
        home_cls = home_loader.load(vmclass.name)
        nbytes = 0
        for fname in list(vmclass.statics):
            enc, b = encode_value(home_cls.statics[fname], home.node_name)
            vmclass.statics[fname] = decode_value(
                enc, (LOC_STATIC, vmclass.name, fname))
            nbytes += b
        if nbytes:
            worker.machine.charge_raw(self.transfer_time(
                home.node_name, worker.node_name, nbytes))

    def worker_host(self, node_name: str, home: Host) -> Host:
        """Public worker-host accessor for schedulers: the host on
        ``node_name`` with on-demand class fetching from ``home``.  A
        first-time spawn cost (when workers are not pre-started) is
        charged to the engine timeline."""
        worker, spawn = self._worker_host(node_name, home)
        self.timeline += spawn
        return worker

    # -- network services -------------------------------------------------------

    def transfer_time(self, src: str, dst: str, nbytes: int) -> float:
        return self.cluster.network.transfer_time(src, dst, nbytes)

    def rtt(self, src: str, dst: str, req: int, reply: int) -> float:
        return self.cluster.network.rtt(src, dst, req, reply)

    def fetch_remote(self, requester: str, ref: RemoteRef,
                     fp: Optional[int] = None
                     ) -> Tuple[Optional[Any], int, str]:
        """Object-fetch service: locate the owner host and serialize.
        Each service includes the home agent's fixed JVMTI-lookup +
        serialization-setup cost (it elapses while the requester waits,
        so it is charged on the requester's clock too).

        With ``fp`` the fetch is conditional: a ``None`` payload means
        the requester's retained copy (fingerprint ``fp``) is still
        current and only a validation reply crossed the wire — the
        saved payload bytes are credited to the link's savings meter."""
        owner = self.hosts.get(ref.home_node)
        if owner is None:
            raise MigrationError(f"no host on {ref.home_node} to serve fetch")
        if fp is None:
            payload, nbytes = owner.server.fetch(ref.home_oid)
        else:
            payload, nbytes = owner.server.fetch_if_changed(ref.home_oid, fp)
            if payload is None:
                self.cluster.network.record_saved(ref.home_node, requester,
                                                  max(0, nbytes - 16))
        if self.tracer is not None:
            # Faults happen mid-run; the engine timeline syncs at run
            # boundaries, so carry the requester's own clock too.
            self._trace("fault", ref.home_node, requester,
                        oid=ref.home_oid, bytes=nbytes,
                        revalidated=fp is not None and payload is None,
                        vm_clock_ms=(self.hosts[requester].machine.clock
                                     * 1e3))
        return payload, nbytes, ref.home_node

    def crash_host(self, name: str) -> None:
        """Node ``name`` died (chaos layer): its JVM process — machine,
        caches, object manager, restored segments — is gone, so a
        post-recovery re-offload to a reborn name starts cold (a class
        token is checked against the destination's live classpath, a
        retained copy lived in the dead object manager).  Namespace
        site records shed the dead node so later
        :meth:`forget_namespace` sweeps stay exact."""
        self.hosts.pop(name, None)
        for sites in self._ns_sites.values():
            sites.discard(name)

    def note_namespace_site(self, tag: str, node_name: str) -> None:
        """Record that ``node_name`` materialized namespace ``tag``
        (the scheduler calls this at spawn; restores record their own
        sites) so reclamation can stay O(sites the request touched)."""
        self._ns_sites.setdefault(tag, set()).add(node_name)

    def forget_namespace(self, tag: str) -> None:
        """End of a namespace's life (its request completed): drop its
        linked classes and decoded streams and its bookkeeping —
        per-request namespaces must not accumulate across a long
        serving run.  With recorded sites the sweep touches the 2-3
        nodes a request used, not the cluster; a tag with no recorded
        sites falls back to the full host sweep so engine-level callers
        that never note sites still reclaim everything."""
        self._ns_home.pop(tag, None)
        sites = self._ns_sites.pop(tag, None)
        if sites is None:
            hosts = list(self.hosts.values())
        else:
            hosts = [self.hosts[n] for n in sites if n in self.hosts]
        for h in hosts:
            h.machine.drop_namespace(tag)

    def recycle_namespace(self, tag: str) -> int:
        """Re-virginize a *pooled* namespace for its next lease and
        return how many static cells were actually reset.

        Unlike :meth:`forget_namespace`, the namespace's expensive
        state survives: linked classes, decoded instruction streams,
        inline-cache bindings, and tier-2 compiled closures all stay
        warm on every site the tag ever touched — that is the pool's
        whole point.  What must NOT survive a lease:

        * **dirty static cells** — each site's loader resets them to
          class-file defaults in place (copy-on-write: clean cells are
          untouched, and the ``statics`` dict identity is preserved so
          the caches stay bound to the live cells);
        * **the namespace's home binding** — the next lease may spawn
          anywhere, so ``_ns_home`` re-binds at its next migration.

        Sites are kept: future recycles must keep sweeping every node
        that ever linked this tag."""
        self._ns_home.pop(tag, None)
        sites = self._ns_sites.get(tag)
        if not sites:
            return 0
        reset = 0
        for n in sites:
            h = self.hosts.get(n)
            if h is None:
                continue
            ns = h.machine.namespace(tag, create=False)
            if ns is not None:
                reset += ns.revirginize()
        return reset

    # -- program control ------------------------------------------------------------

    def spawn(self, host: Host, class_name: str, method: str,
              args: Optional[List[Any]] = None) -> ThreadState:
        """Start a guest thread on ``host`` (not yet run)."""
        return host.machine.spawn(class_name, method, args)

    def run(self, host: Host, thread: ThreadState,
            stop: Optional[Callable[[ThreadState], bool]] = None,
            max_instrs: Optional[int] = None,
            quantum: Optional[int] = None) -> str:
        """Run a thread on its host, advancing the timeline.

        ``quantum`` forwards to :meth:`Machine.run`'s scheduler budget;
        unlike ``max_instrs`` it keeps the fast (and tier-2) path, so a
        thread can be frozen at a safepoint inside compiled code and
        then captured — the tier-2 migration fuzzer leans on this."""
        t0 = host.machine.clock
        status = host.machine.run(thread, stop=stop, max_instrs=max_instrs,
                                  quantum=quantum)
        self.timeline += host.machine.clock - t0
        return status

    # -- SOD migration -----------------------------------------------------------------

    def _class_ship_bytes(self, dst_node: str, name: str,
                          cf: ClassFile) -> Tuple[int, bool, int]:
        """Wire bytes for shipping class ``name`` to ``dst_node``: the
        full class file (plus its pre-decoded stream riding along) on
        first contact, or a content-addressed digest token when the
        destination's classpath already holds it — the classpath *is*
        the cache (class files are immutable once defined).  Returns
        (bytes, cached, full size)."""
        full = class_size(cf)
        if self.transfer_cache:
            dst = self.hosts.get(dst_node)
            if dst is not None and dst.machine.loader.has_classfile(name):
                return CLASS_TOKEN_BYTES, True, full
        return full, False, full

    @staticmethod
    def _static_classes(state: CapturedState) -> frozenset:
        """Classes whose statics travel with this captured segment."""
        return frozenset(cname for (cname, _f) in state.statics)

    @staticmethod
    def _check_cross_home_statics(worker: Host, state: CapturedState,
                                  src_node: str) -> None:
        """Refuse to co-locate segments from *different* homes whose
        classes carry mutable statics **within one class-loader
        namespace**: a namespace has one static cell per class, so
        restoring the second segment would overwrite the first home's
        values and their updates would compose on one shared cell —
        silent cross-tenant corruption.  (Same-home co-location keeps
        last-writer-wins release consistency.)

        Segments in *different* namespaces each carry their own cells,
        so they co-locate freely whatever their homes — this is what
        lets the serving layer run statics-heavy programs (FFT/TSP)
        concurrently: the scheduler gives each such request a fresh
        namespace and the old whole-worker refusal no longer fires."""
        objman = worker.objman
        new = SODEngine._static_classes(state)
        if not new:
            return
        for thread, home in objman.thread_home.items():
            if home == src_node:
                continue
            if getattr(thread, "namespace", None) != state.namespace:
                continue  # disjoint cells: no conflict possible
            shared = objman.thread_statics.get(thread, frozenset()) & new
            if shared:
                raise MigrationError(
                    f"cross-home static conflict on {sorted(shared)}: "
                    f"worker {worker.node_name} already hosts a segment "
                    f"from {home} using these statics in the same "
                    f"namespace; cannot also serve {src_node}")

    def _ship(self, src: Host,
              segments: List[Tuple[ThreadState, Optional[int]]],
              dst_node: str, home: Host, top_is_caller: bool = False,
              before_capture: Optional[Callable[[], None]] = None
              ) -> Tuple[Host, List[Tuple[ThreadState, MigrationRecord]]]:
        """The one shipment path (paper III.B, priced as Table IV):
        capture every ``(thread, nframes)`` segment on ``src``, ship
        them to ``dst_node`` in one bulk message, restore them there
        anchored to ``home``, and only then commit what was shipped.

        ``home`` is where the segments' values and write-back return
        and which serves the worker's class and object faults; ``src``
        is where the frames currently live — the home itself, or the
        previous hop of a Fig. 1c chain (fetched copies in its frames
        are then re-encoded as references to their *true* home via the
        hop's identity map, so no proxy chains build up).

        * **freeze + capture** — each thread runs to its own MSP
          (unless ``top_is_caller``: a residual segment is suspended at
          a call and restores to its re-invoke line), then
          ``before_capture`` runs, then the top ``nframes`` frames
          (``None`` = the whole stack as frozen) are captured with the
          statics of the thread's *own namespace*.
        * **price** — serialized sizes go on the wire: one fixed
          per-message setup and each distinct top-frame class once
          (digest-tokenized against the destination's classpath); the
          bulk times are attributed evenly across the batch so
          per-record latencies sum to the true wire time, and each
          class's bytes are charged to the first record that ships it.
        * **restore** — on-demand class fetching from ``home``, the
          cross-home statics refusal, then one restore per segment.
        * **commit** — a shipment can still be refused after capture;
          the link's savings meter, the timeline and :attr:`migrations`
          advance only once every restore has succeeded.

        Returns ``(worker_host, [(worker_thread, record), ...])`` in
        input order."""
        if not segments:
            raise MigrationError("empty shipment")
        if src.vmti is None:
            raise MigrationError(
                f"source {src.node_name} lacks VMTI; cannot capture")
        # Destination cannot restore via VMTI: the captured data is
        # re-encoded with Java serialization into a portable format
        # (section IV.D) — modeled for the paper's case only.
        portable = not self.cluster.node(dst_node).spec.has_vmti
        if portable and (len(segments) > 1 or src is not home
                         or top_is_caller):
            raise MigrationError(
                "only a single home segment at an MSP can target a "
                "VMTI-less node")
        machine = src.machine
        identity = (src.objman.home_identity
                    if src is not home and src.objman is not None else None)

        recs: List[MigrationRecord] = []
        states: List[CapturedState] = []
        for thread, nframes in segments:
            if not top_is_caller:
                t0 = machine.clock
                run_to_msp(machine, thread)
                self.timeline += machine.clock - t0
            if before_capture is not None:
                before_capture()
            if nframes is None:
                nframes = len(thread.frames)
            t0 = machine.clock
            state = capture_segment(src.vmti, thread, nframes,
                                    home_node=src.node_name,
                                    return_to=home.node_name,
                                    top_is_caller=top_is_caller,
                                    identity=identity)
            machine.charge(self.sys.sod_capture_fixed)
            if portable:
                machine.charge(self.sys.portable_capture_fixed)
            recs.append(MigrationRecord(
                src=src.node_name, dst=dst_node, nframes=nframes,
                capture_time=machine.clock - t0,
                state_bytes=state.state_bytes()))
            states.append(state)

        class_files: Dict[str, ClassFile] = {}
        class_wire = 0
        for rec, state in zip(recs, states):
            top_class = state.frames[-1].class_name
            if top_class in class_files:
                continue
            cf = class_files[top_class] = machine.loader.classfile(top_class)
            rec.class_bytes, rec.cached_class, full = \
                self._class_ship_bytes(dst_node, top_class, cf)
            if rec.cached_class:
                rec.saved_bytes = max(0, full - rec.class_bytes)
            class_wire += machine.cost.wire_bytes(rec.class_bytes)
        state_wire = sum(machine.cost.wire_bytes(r.state_bytes)
                         for r in recs)
        if portable:
            # class descriptors and string tables ride along with both
            # payloads
            state_wire += self.sys.portable_state_overhead_bytes
            class_wire += self.sys.portable_state_overhead_bytes // 2
        bulk_state = (self.sys.sod_transfer_fixed
                      + self.transfer_time(src.node_name, dst_node,
                                           state_wire))
        bulk_class = self.transfer_time(src.node_name, dst_node, class_wire)
        for rec in recs:
            rec.state_transfer_time = bulk_state / len(recs)
            rec.class_transfer_time = bulk_class / len(recs)
            rec.transfer_time = (rec.state_transfer_time
                                 + rec.class_transfer_time)

        worker, spawn = self._worker_host(dst_node, home)
        # The top frames' classes arrive with the state.
        for name, cf in class_files.items():
            worker.machine.loader._classpath.setdefault(name, cf)
        for state in states:
            self._check_cross_home_statics(worker, state, home.node_name)
        recs[0].worker_spawn_time = spawn  # charged once per shipment
        out: List[Tuple[ThreadState, MigrationRecord]] = []
        for rec, state in zip(recs, states):
            out.append((self._restore_segment(worker, state, rec.nframes,
                                              home, rec), rec))

        saved = sum(r.saved_bytes for r in recs)
        if saved:
            self.cluster.network.record_saved(src.node_name, dst_node, saved)
        for rec in recs:
            self.timeline += rec.latency
            self.migrations.append(rec)
            self._trace("migrate", rec.src, rec.dst, frames=rec.nframes,
                        state_bytes=rec.state_bytes,
                        latency_ms=rec.latency * 1e3)
        return worker, out

    def migrate(self, src_host: Host, thread: ThreadState, dst_node: str,
                nframes: int = 1,
                run_after_restore: bool = False
                ) -> Tuple[Host, ThreadState, MigrationRecord]:
        """Migrate the top ``nframes`` frames of ``thread`` to
        ``dst_node``.  The source thread keeps its full (now partially
        stale) stack, as the paper's home node does, until the segment
        completes and :meth:`complete_segment` pops it.

        Returns (worker_host, worker_thread, record)."""
        worker, [(worker_thread, rec)] = self._ship(
            src_host, [(thread, nframes)], dst_node, src_host)
        if run_after_restore:
            self.run(worker, worker_thread)
        return worker, worker_thread, rec

    def migrate_many(self, src_host: Host, threads: List[ThreadState],
                     dst_node: str, nframes: int = 1
                     ) -> Tuple[Host, List[Tuple[ThreadState,
                                                 MigrationRecord]]]:
        """Batched SOD offload: capture the top ``nframes`` frames of
        *several* threads and ship them to ``dst_node`` in one bulk
        message.

        Under serving load the offload trigger routinely fires for more
        than one hot thread at once; shipping the captures together
        amortizes the fixed per-message transfer setup
        (``sod_transfer_fixed``) and sends each distinct top-frame class
        once instead of once per thread.  Per-thread capture and restore
        costs are unchanged (VMTI walks every frame either way).

        Returns ``(worker_host, [(worker_thread, record), ...])`` in
        input order.  Requires ``threads`` to be non-empty.
        """
        return self._ship(src_host, [(t, nframes) for t in threads],
                          dst_node, src_host)

    # -- multi-hop re-offload (Fig. 1c chains) -----------------------------------------

    def rehop_segment(self, src_worker: Host, seg_thread: ThreadState,
                      dst_node: str, home: Host
                      ) -> Tuple[Host, ThreadState, MigrationRecord]:
        """Move a previously-offloaded segment onward along a Fig. 1c
        chain: capture *all* of ``seg_thread``'s frames on the current
        hop and restore them on ``dst_node``, still anchored to
        ``home`` — the segment's eventual completion returns its value
        and write-back directly to the home node, never back through
        the chain.

        Before the segment leaves, its effects flush home (the home
        heap is authoritative again).  Objects the hop itself
        created stay on its heap and serve on-demand fetches from the
        next hop.

        Returns (worker_host, worker_thread, record)."""
        if dst_node == src_worker.node_name:
            raise MigrationError("re-offload to the same node")
        objman = src_worker.objman

        def flush_home() -> None:
            # Home heap becomes authoritative before the segment moves
            # on — and so does every *earlier hop* whose objects this
            # segment dirtied (the next hop re-faults them from their
            # owners, so unflushed writes would silently vanish).
            # Object updates are scoped to THIS thread's working set: a
            # same-home sibling segment's in-flight writes stay tracked
            # for its own completion (statics keep the documented
            # last-writer-wins release consistency, as at completion).
            if objman is not None:
                own = set(objman.fetched_by.get(seg_thread, []))
                self.flush_segment_effects(src_worker, home,
                                           scope_home=home.node_name,
                                           only_keys=own)
                self._flush_foreign_effects(src_worker, home.node_name,
                                            seg_thread)

        # Freezing may finish the thread, in which case the caller
        # completes it normally.
        worker, [(worker_thread, rec)] = self._ship(
            src_worker, [(seg_thread, None)], dst_node, home,
            before_capture=flush_home)

        # The source hop's role is over: end its epoch (objects it
        # created stay on its heap for on-demand fetches).
        if objman is not None:
            objman.release_thread(seg_thread)
        return worker, worker_thread, rec

    # -- segment completion ------------------------------------------------------------

    def complete_segment(self, worker: Host, worker_thread: ThreadState,
                         home: Host, home_thread: ThreadState,
                         nframes: int) -> float:
        """Ship the finished segment's results home and resume the
        residual stack there (paper section III.A: return value and
        updated data are sent back, the home pops the outdated frames
        with ForceEarlyReturn, and execution resumes).

        Returns the write-back + resume-bookkeeping duration (the caller
        continues running ``home_thread`` itself)."""
        if not worker_thread.finished:
            raise MigrationError("segment has not finished executing")
        if worker_thread.uncaught is not None:
            raise MigrationError(
                f"segment died with uncaught "
                f"{worker_thread.uncaught.class_name}")
        objman = worker.objman
        if objman is None:
            raise MigrationError("worker has no object manager")

        def resume(value: Any) -> None:
            # pop the outdated frames and deliver the value; part of
            # the apply phase on the home's clock
            if home.vmti is not None:
                for _ in range(nframes - 1):
                    home.vmti.pop_frame(home_thread)
                home.vmti.force_early_return(home_thread, value)
            else:  # pragma: no cover - home always has VMTI in our experiments
                for _ in range(nframes - 1):
                    home_thread.frames.pop()
                home_thread.frames.pop()
                if home_thread.frames:
                    home_thread.frames[-1].stack.append(value)
                else:
                    home_thread.finished = True
                    home_thread.result = value

        # Scope the message to this segment's home: a worker serving
        # several concurrent segments must not ship another home's
        # dirty objects (their oids are meaningless to this server).
        dt = self._write_back(worker, home, worker_thread.result,
                              home.node_name, on_applied=resume)
        # Multi-hop chains: dirty copies owned by an *intermediate* hop
        # (the segment faulted objects created on the node it re-offloaded
        # from) must flush to that owner — their oids mean nothing to the
        # completion home's server.
        extra = self._flush_foreign_effects(worker, home.node_name,
                                            worker_thread)
        objman.release_thread(worker_thread)
        self.timeline += dt
        return dt + extra

    def _write_back(self, worker: Host, home: Host, return_value: Any,
                    scope_home: Optional[str],
                    only_keys: Optional[set] = None,
                    on_applied: Optional[Callable[[Any], None]] = None
                    ) -> float:
        """The one write-back path: assemble the worker's dirty state
        (scoped as :meth:`WorkerObjectManager.build_writeback` documents)
        around ``return_value``, charge serialization on the worker, the
        wire, and deserialization + application on ``home``, and
        forget what was shipped.  ``on_applied(value)`` runs on the
        home's clock with the decoded return value.  Returns the
        elapsed seconds (the caller accounts them on the timeline)."""
        objman = worker.objman
        t0 = worker.machine.clock
        message, nbytes = objman.build_writeback(
            return_value, home_node=scope_home, only_keys=only_keys)
        worker.machine.charge(worker.machine.cost.serialize_cost(nbytes))
        dt = worker.machine.clock - t0
        dt += self.transfer_time(worker.node_name, home.node_name,
                                 worker.machine.cost.wire_bytes(nbytes))
        t0 = home.machine.clock
        home.machine.charge(home.machine.cost.deserialize_cost(nbytes))
        value = home.server.apply_writeback(
            message["updates"], message["elem_updates"],
            message["static_updates"], message["graph"], message["return"])
        if on_applied is not None:
            on_applied(value)
        dt += home.machine.clock - t0
        objman.clear_dirty(scope_home, only_keys=only_keys)
        self._trace("writeback", worker.node_name, home.node_name,
                    bytes=nbytes, seconds=dt)
        return dt

    def _restore_segment(self, worker: Host, state: CapturedState,
                         nframes: int, home: Host,
                         rec: MigrationRecord) -> ThreadState:
        """The one restore step: bind the namespace to ``home``,
        rebuild the frames — the breakpoint dance through VMTI, or the
        reflection-based rebuild on a (slow) device CPU without it
        (paper section IV.D) — register the epoch, and fill in
        ``rec.restore_time``."""
        if state.namespace is not None:
            self._ns_home[state.namespace] = home.node_name
            self.note_namespace_site(state.namespace, worker.node_name)
            self.note_namespace_site(state.namespace, home.node_name)
        t0 = worker.machine.clock
        if worker.vmti is not None:
            worker.machine.charge(self.sys.sod_restore_fixed
                                  + self.sys.sod_restore_per_frame * nframes)
            worker_thread = RestoreDriver(
                worker.machine, worker.vmti, state).restore(run_after=False)
        else:
            worker.machine.charge(
                self.sys.java_restore_fixed
                + self.sys.java_restore_per_frame * nframes)
            worker.machine.charge(worker.machine.cost.deserialize_cost(
                rec.state_bytes))
            worker_thread = java_level_restore(worker.machine, state)
        worker.objman.register_thread_home(
            worker_thread, home.node_name, self._static_classes(state))
        rec.restore_time = worker.machine.clock - t0
        return worker_thread

    def _flush_foreign_effects(self, worker: Host, exclude: str,
                               thread: ThreadState) -> float:
        """Flush ``thread``'s dirty objects owned by homes *other than*
        ``exclude`` back to their owners (multi-hop chains fault — and
        may write — objects created on intermediate hops; those writes
        must not be lost when the segment completes or moves on).

        Scoped to the identities ``thread`` itself faulted: a sibling
        segment's in-flight writes stay untouched — flushing them early
        would publish partial state its own completion (or abandonment)
        is supposed to govern."""
        objman = worker.objman
        if objman is None or not objman.dirty:
            return 0.0
        by_home: Dict[str, set] = {}
        for _copy, ident in objman.dirty_in(
                None, set(objman.fetched_by.get(thread, []))):
            if ident[1] != exclude:
                by_home.setdefault(ident[1], set()).add(ident)
        dt = 0.0
        for other in sorted(by_home):
            other_host = self.hosts.get(other)
            if other_host is not None:
                dt += self.flush_segment_effects(worker, other_host,
                                                 scope_home=other,
                                                 only_keys=by_home[other])
        return dt

    def abandon_segment(self, worker: Host,
                        worker_thread: ThreadState) -> None:
        """Discard a dead segment's worker-side state without any
        write-back (e.g. it died of an uncaught guest exception): the
        epoch is released (its dirty copies dropped with it) and the
        home's pending static writes are dropped unless a sibling
        segment from that home is still running — the state
        :meth:`complete_segment` leaves, minus the message."""
        objman = worker.objman
        if objman is None:
            return
        home = objman.thread_home.get(worker_thread)
        objman.release_thread(worker_thread)
        if home is not None and home not in objman.thread_home.values():
            objman.dirty_statics = {
                k: (c, h) for k, (c, h) in objman.dirty_statics.items()
                if h != home}

    def resync_statics(self, worker: Host, home: Host) -> float:
        """Refresh the worker's static fields from the home's current
        values (release consistency at a hop boundary: a residual
        segment restored *before* an earlier segment finished must see
        that segment's static updates when control arrives).  Every
        class-loader namespace resyncs against the home's matching
        namespace; namespaces the home does not hold are skipped (the
        worker's cells are the only live copy — home defaults would
        clobber them)."""
        from repro.migration.state import decode_value
        from repro.vm.values import LOC_STATIC
        nbytes = 0
        for loader in worker.machine.loaders():
            ns = loader.tag
            if ns is not None and not home.machine.has_namespace(ns):
                continue
            home_loader = home.machine.namespace(ns)
            for cls in loader.loaded_classes().values():
                if not cls.statics:
                    continue
                try:
                    home_cls = home_loader.load(cls.name)
                except Exception:
                    continue
                for fname in cls.statics:
                    enc, b = encode_value(home_cls.find_static_home(fname)
                                          .statics[fname], home.node_name)
                    nbytes += b
                    cls.statics[fname] = decode_value(
                        enc, (LOC_STATIC, cls.name, fname))
        dt = self.transfer_time(home.node_name, worker.node_name,
                                nbytes + 64)
        self.timeline += dt
        return dt

    def flush_segment_effects(self, worker: Host, home: Host,
                              scope_home: Optional[str] = None,
                              only_keys: Optional[set] = None) -> float:
        """Write a worker's dirty objects/statics back to ``home`` without
        popping any frames (used by multi-hop flows before forwarding a
        value onward, so the home heap is authoritative again).

        ``scope_home`` restricts the flush to state owned by that home
        (a multi-tenant worker must not ship another home's oids);
        ``only_keys`` narrows it further to one thread's working set;
        ``None`` keeps the single-tenant flush-everything behavior.
        Nothing dirty *in that scope* sends nothing — a sibling's
        in-flight writes are no reason for an empty message."""
        objman = worker.objman
        if objman is None or not (objman.dirty_in(scope_home, only_keys)
                                  or objman.dirty_statics_in(scope_home)):
            return 0.0
        dt = self._write_back(worker, home, None, scope_home, only_keys)
        self.timeline += dt
        return dt

    # -- one-call convenience ---------------------------------------------------------------

    def run_segment_remote(self, home: Host, thread: ThreadState,
                           dst_node: str, nframes: int = 1
                           ) -> Tuple[Any, MigrationRecord]:
        """Migrate, execute remotely to completion, return home, resume:
        the paper's Fig. 1a flow.  Returns (final result of the home
        thread, migration record)."""
        worker, worker_thread, rec = self.migrate(home, thread, dst_node,
                                                  nframes)
        self.run(worker, worker_thread)
        self.complete_segment(worker, worker_thread, home, thread, nframes)
        self.run(home, thread)
        if thread.uncaught is not None:
            raise MigrationError(
                f"home thread died: {thread.uncaught.class_name}")
        return thread.result, rec
