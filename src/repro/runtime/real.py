"""Real-parallel execution backend: every node is an OS process.

Wall-clock mode for the serving stack.  The parent runs the control
plane: :class:`ControlPlane` (placement, work stealing, crash recovery,
accounting) has no I/O, clock or fork, and :func:`serve_real` is its
thin driver (forks, pipes, sentinels, the deadline), so a test reaches
every protocol state without timing.  Each worker process owns one VM —
a ``Machine`` over the mix's classpath, inherited warm from the fork
(:func:`_prefork`) — and serves requests in preemptible quanta like a
virtual node.  Everything crossing a process boundary is canonical
:mod:`repro.runtime.wire` bytes over OS pipes:

* **request dispatch** — (rid, program, args) rows;
* **SOD images** — to steal a *running* request for an idle worker,
  the victim captures the thread at a quantum boundary into an eager
  self-contained image restored on the thief (frames + operand stacks
  + reachable object graph + namespace statics, by value; the
  G-JavaMPI-style encoding shared with that baseline:
  :func:`repro.migration.state.encode_eager_image`);
* **class-digest tokens** — an image carries
  :func:`repro.runtime.wire.class_token` digests, never class files;
  the receiver verifies them against its own classpath, a pure function
  of the mix name (the virtual engine's "ship once, then tokens", with
  "once" collapsed to zero).

Determinism contract: requests are pure functions of their spec, so
*results* are reproducible and cross-checked request-by-request
against the same-seed virtual-time run
(:mod:`repro.runtime.crosscheck`); *timings and placement* are
wall-clock facts and excluded.  The virtual backend remains the
correctness oracle and the merge gate.  A lost worker (its sentinel,
a corrupt or misshapen frame, the fault plan) is chaos ``crash_node``:
what it owed requeues onto the survivors (``crashes``/``retries``).
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from collections import Counter, deque
from multiprocessing import connection, get_context
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.runtime import wire

__all__ = ["serve_real", "ControlPlane", "available_cores", "REAL_QUANTUM"]

#: preemption budget per quantum in the real backend, in guest
#: instructions.  Bigger than the virtual default (2500): between
#: quanta a worker makes a real ``poll()`` syscall to look for control
#: messages, so the budget trades steal latency against poll overhead.
REAL_QUANTUM = 100_000


def available_cores() -> int:
    """CPU cores this process may actually run on (affinity-aware —
    a cgroup-limited container reports what it can truly use)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-linux
        return os.cpu_count() or 1


# -- wire helpers shared by both ends ------------------------------------------


def _classfile_payload(cf) -> bytes:
    """Canonical byte rendering of one class definition, the input to
    :func:`repro.runtime.wire.class_token`.  Derived only from compiled
    structure, so two processes building the same mix get identical
    tokens."""
    methods = []
    for mname in sorted(cf.methods):
        code = cf.methods[mname]
        methods.append((mname, code.nparams, code.max_locals,
                        code.is_static,
                        [(i.op, i.a, i.b) for i in code.instrs],
                        tuple(code.line_table), repr(code.exc_table)))
    fields = [(f.name, f.is_static, f.type_name) for f in cf.fields]
    return wire.encode((cf.name, cf.superclass, fields, methods))


def _send(conn_, msg: Any) -> int:
    """Ship one control message as wire bytes; returns the byte count
    (the real-backend analogue of ``Network.bytes_moved``)."""
    data = wire.encode(msg)
    conn_.send_bytes(data)
    return len(data)


def _recv(conn_) -> Any:
    return wire.decode(conn_.recv_bytes())


def _encode_result(value: Any) -> Any:
    """Guest results are primitives for every registry program; anything
    exotic degrades to a tagged repr so the pipe never breaks."""
    try:
        wire.encode(value)
        return value
    except wire.WireError:
        return ("@repr", repr(value))


def matches(result: Any, want: Any) -> bool:
    """Does a shipped result (possibly a tagged repr) equal ``want``?"""
    return result in (want, ("@repr", repr(want)))


# -- pre-fork state: what is a pure function of the classpath ------------------


@functools.lru_cache(maxsize=None)
def _prefork(mix: str) -> Tuple[Dict[str, Any], Dict[str, bytes]]:
    """``(classpath, class tokens)`` of ``mix`` — and, as a side
    effect, the process-wide immutable code its workers run.
    ``serve_real`` calls this before it forks and
    every ``_Worker`` in ``__init__``: a memo hit in a forked child
    (which inherits, copy-on-write, what the call left on the
    ``CodeObject``s), computed locally under ``spawn``.  Each spec of
    the mix is served once in a throwaway namespace of a throwaway
    ``Machine`` with every ``hotness`` already at ``JIT_THRESHOLD`` —
    as a worker meets it — so the ``_predecoded`` / ``_fused`` streams,
    ``_tier2`` templates and ``jit._factory`` entries are those of the
    link shapes a fresh request namespace asks for, and a worker only
    *links*.  Nothing rests on that: a missed shape is generated lazily
    as before, every template hit is verified against the weight table,
    and the virtual oracle never sees the raised ``hotness``
    (``ClusterScheduler.__init__`` resets it).  The machine, its
    namespaces and its heap die here."""
    from repro.vm.jit import JIT_THRESHOLD
    from repro.vm.machine import Machine
    from repro.workloads.mixes import MIXES, serve_classpath

    classes = serve_classpath(MIXES[mix].programs())
    # deterministic token per class — what migrations verify
    tokens = {cname: wire.class_token(cname, _classfile_payload(cf))
              for cname, cf in classes.items()}
    machine = Machine(classes)
    for cf in classes.values():
        for code in cf.methods.values():
            code.hotness = max(code.hotness, JIT_THRESHOLD)
    for spec, _weight in MIXES[mix].choices:
        machine.run(machine.spawn(*spec.main, list(spec.args),
                                  namespace="warm"))
        machine.drop_namespace("warm")
    return classes, tokens


# -- worker process ------------------------------------------------------------


class _Worker:
    """One cluster node: a VM over the mix's classpath, serving a local
    FIFO of requests in quanta and answering control messages."""

    def __init__(self, conn_, name: str, mix: str, quantum: int):
        from repro.vm.machine import Machine

        self.conn = conn_
        self.name = name
        self.quantum = quantum
        self.classes, self.tokens = _prefork(mix)
        self.machine = Machine(self.classes)
        self.queue: deque = deque()   # (rid, program, args)
        self.running: Optional[Tuple[int, Any]] = None  # (rid, thread)
        #: ``machine.instr_count`` less the running request's executed
        #: instructions (its victims' shares included after a restore)
        self.instr_mark = 0

    # -- eager image capture/restore ------------------------------------

    def capture_image(self, rid: int, thread) -> bytes:
        """Whole-segment eager capture at a quantum boundary: the shared
        eager image (frames + operand stacks + reachable graph +
        namespace statics, all by value) with the class manifest as
        digest tokens."""
        from repro.migration.state import encode_eager_image

        image = encode_eager_image(
            thread, self.machine.namespace(thread.namespace))
        class_names = sorted({f[0] for f in image["frames"]}
                             | {c for (c, _f) in image["statics"]})
        image.update(rid=rid,
                     classes=[(c, self.tokens[c]) for c in class_names])
        return wire.encode(image)

    def restore_image(self, data: bytes):
        """Rebuild a shipped thread on this VM, in a fresh namespace:
        verify every class token against the local classpath and hand
        the rest to the shared eager-image decoder."""
        from repro.errors import MigrationError, VMError
        from repro.migration.state import decode_eager_image

        image = wire.decode(data)
        try:
            rid = image["rid"]
            for cname, token in image["classes"]:
                local = self.tokens.get(cname)
                if local != token:
                    raise MigrationError(
                        f"class token mismatch for {cname} on {self.name}: "
                        f"classpaths diverged")
            ns = f"mig{rid}@{self.name}"
            return rid, decode_eager_image(
                image, self.machine.heap, self.machine.namespace(ns), ns)
        except (LookupError, TypeError, ValueError, AttributeError,
                VMError) as e:
            # well-formed wire bytes that are not the shape an image has
            raise MigrationError(
                f"malformed eager image on {self.name}: {e!r}") from e

    # -- main loop -------------------------------------------------------

    def _start_next(self) -> None:
        rid, program, args = self.queue.popleft()
        from repro.workloads.mixes import RequestSpec
        spec = RequestSpec(program, tuple(args))
        thread = self.machine.spawn(spec.main[0], spec.main[1],
                                    list(spec.args),
                                    thread_name=f"req{rid}",
                                    namespace=f"rq{rid}@{self.name}")
        self.instr_mark = self.machine.instr_count
        self.running = (rid, thread)

    def _finish(self, rid: int, thread) -> None:
        instrs = self.machine.instr_count - self.instr_mark
        if thread.uncaught is not None:
            _send(self.conn, ("fail", rid,
                              getattr(thread.uncaught, "class_name",
                                      "GuestError"), instrs))
        else:
            _send(self.conn, ("done", rid, _encode_result(thread.result),
                              instrs))
        self._retire(thread)

    def _retire(self, thread) -> None:
        """The running request left this worker (finished, failed or
        captured away): drop its per-request namespace so linked
        classes, decoded streams and tier-2 closures do not accumulate
        for the life of the process."""
        self.machine.drop_namespace(thread.namespace)
        self.running = None

    def _handle(self, msg: Any) -> bool:
        """One control message; returns False on ``stop``."""
        kind = msg[0]
        if kind == "run":
            self.queue.extend((rid, prog, tuple(args))
                              for rid, prog, args in msg[1])
        elif kind == "giveback":
            k = min(msg[1], len(self.queue))
            rows = [self.queue.pop() for _ in range(k)]  # tail first
            _send(self.conn, ("gaveback",
                              [(rid, prog, list(args))
                               for rid, prog, args in reversed(rows)]))
        elif kind == "capture":
            rid = msg[1]
            if self.running is not None and self.running[0] == rid:
                _rid, thread = self.running
                image = self.capture_image(rid, thread)
                instrs = self.machine.instr_count - self.instr_mark
                self._retire(thread)
                _send(self.conn, ("image", rid, image, instrs))
            else:
                _send(self.conn, ("nocapture", rid))
        elif kind == "restore":
            _k, image, instrs = msg
            rid, thread = self.restore_image(image)
            # stolen work runs ahead of the local queue; the victims'
            # share rides along, so ``done`` reports the whole request
            self.instr_mark = self.machine.instr_count - instrs
            self.running = (rid, thread)
        elif kind == "stop":
            return False
        return True

    def loop(self) -> None:
        idle_sent = False
        while True:
            # Drain any pending control traffic without blocking.
            while self.conn.poll(0):
                if not self._handle(_recv(self.conn)):
                    return
            if self.running is None and self.queue:
                self._start_next()
                idle_sent = False
            if self.running is not None:
                rid, thread = self.running
                status = self.machine.run(thread, quantum=self.quantum)
                if status == "finished":
                    self._finish(rid, thread)
                continue
            if not idle_sent:
                _send(self.conn, ("idle",))
                idle_sent = True
            # Nothing to do: block until the control plane speaks.
            if not self._handle(_recv(self.conn)):
                return


def _worker_main(conn_, name: str, mix: str, quantum: int) -> None:
    from repro.errors import MigrationError
    try:
        _Worker(conn_, name, mix, quantum).loop()
    except (EOFError, OSError, wire.WireError, MigrationError):
        pass  # parent went away, or sent a corrupt frame or an image this
        # worker refuses: exit quietly (the control plane sees a crashed
        # worker and requeues its work)
    finally:
        try:
            conn_.close()
        except OSError:
            pass


# -- control plane -------------------------------------------------------------


class _Owner:
    """The plane's model of one worker; ``owed`` keeps dispatch order."""

    def __init__(self, i: int):
        self.i, self.name = i, f"proc{i}"
        self.owed: Dict[int, Tuple[Optional[str], Any]] = {}
        self.idle = self.capture_pending = False
        self.alive = True


def _gaveback_rids(rows: list, owed: Dict[int, Any]) -> Optional[list]:
    """The rids of a ``gaveback`` row list, or None unless every row is a
    ``(rid, program, args)`` of a distinct request the sender owes."""
    rids = dict.fromkeys(r[0] for r in rows if type(r) is tuple
                         and len(r) == 3 and type(r[0]) is int)
    return list(rids) if len(rids) == len(rows) \
        and rids.keys() <= owed.keys() else None


def _token_bytes(image: bytes) -> Optional[int]:
    """Class-token bytes an image carries, or None if it has no manifest."""
    try:
        return sum(len(t) for _c, t in wire.decode(image)["classes"])
    except (LookupError, TypeError, ValueError):  # (WireError is one)
        return None


class ControlPlane:
    """The real backend's scheduling without I/O, clock or fork.
    :meth:`start`, :meth:`on_message` (a decoded message of worker ``i``)
    and :meth:`on_death` (its process is gone, or its pipe untrusted)
    return the driver's actions: ``("send", i, msg)`` or ``("kill", i)``.
    A worker is also lost on a message of no shape a worker sends (arity,
    a rid it does not owe, kind) and to the fault plan, evaluated per
    message: it fires on the one that finishes ``after_done`` requests.
    A lost worker's owed requests requeue at once onto the survivors and
    its later messages are dropped, so buffered results cannot outrun a
    kill."""

    def __init__(self, schedule: List[Tuple[float, Optional[str], Any]],
                 procs: int, steal: bool = True,
                 fault_plan: Optional[Dict[str, int]] = None):
        #: rid -> (tenant, spec); rid *i* is row *i* of ``schedule``
        self.spec_of = {rid: (tenant, spec) for rid, (_when, tenant, spec)
                        in enumerate(schedule)}
        self.workers = [_Owner(i) for i in range(procs)]
        self.steal = steal
        self.fault_plan = fault_plan
        self.sched = {"migrations": 0, "steals": 0, "crashes": 0,
                      "retries": 0, "image_bytes": 0, "token_bytes": 0,
                      "control_bytes": 0, "instrs": 0}
        #: one terminal row per finished rid
        self.results: Dict[int, Dict[str, Any]] = {}
        #: per rid: re-executions after a loss, and whether the current
        #: attempt moved to another worker as an image
        self.retries: Counter = Counter()
        self.migrated: Set[int] = set()
        self._actions: List[Tuple[Any, ...]] = []

    @property
    def finished(self) -> bool:
        return len(self.results) == len(self.spec_of)

    def report_rows(self) -> List[Dict[str, Any]]:
        return [self.results[rid] for rid in sorted(self.results)]

    def start(self) -> List[Tuple[Any, ...]]:
        """Initial placement: equal-weight round robin in schedule order —
        the virtual default placement, minus load feedback (which the
        stealing path supplies at run time instead)."""
        for w in self.workers:
            self._dispatch(w, list(self.spec_of)[w.i::len(self.workers)])
        return self._step()

    def on_message(self, i: int, msg: Any) -> List[Tuple[Any, ...]]:
        if self.workers[i].alive:
            self._handle(self.workers[i], msg)
        return self._step()

    def on_death(self, i: int) -> List[Tuple[Any, ...]]:
        self._lose(self.workers[i])
        return self._step()

    def _step(self) -> List[Tuple[Any, ...]]:
        plan = self.fault_plan
        if plan and len(self.results) >= plan.get("after_done", 0):
            self.fault_plan = None
            self._lose(self.workers[plan.get("kill_worker", 0)
                                    % len(self.workers)])
        self._rebalance()
        actions, self._actions = self._actions, []
        return actions

    def _emit(self, w: _Owner, msg: Any) -> None:
        self._actions.append(("send", w.i, msg))

    def _dispatch(self, w: _Owner, rids: List[int]) -> None:
        if rids:
            batch = [(rid, self.spec_of[rid]) for rid in rids]
            w.owed.update(batch)
            self._emit(w, ("run", [(rid, spec.program, list(spec.args))
                                   for rid, (_tenant, spec) in batch]))
            w.idle = False

    def _handle(self, w: _Owner, msg: Any) -> None:
        """Apply one message of live worker ``w``, or lose ``w`` when the
        message has no shape a worker sends."""
        match msg:
            case ("done", int(rid), result, int(instrs)) if rid in w.owed:
                self._record(w, rid, result, "done", None, instrs)
            case ("fail", int(rid), error, int(instrs)) if rid in w.owed:
                self._record(w, rid, None, "failed", error, instrs)
            case ("idle",):
                w.idle = True
            case ("nocapture", int()):
                w.capture_pending = False
            case ("gaveback", list(rows)) if (
                    rids := _gaveback_rids(rows, w.owed)) is not None:
                w.capture_pending = False
                for rid in rids:
                    del w.owed[rid]
                thief = self._pick_idle() or w  # never drop admitted work
                self.sched["steals"] += len(rids) if thief is not w else 0
                self._dispatch(thief, rids)
            case ("image", int(rid), bytes(image), int(instrs)) if (
                    rid in w.owed
                    and (tokens := _token_bytes(image)) is not None):
                w.capture_pending = False
                thief = self._pick_idle() or w  # nobody idle: bounce it
                thief.owed[rid] = w.owed.pop(rid)
                self._emit(thief, ("restore", image, instrs))
                thief.idle = False
                self.sched["image_bytes"] += len(image)
                self.sched["token_bytes"] += tokens
                if thief is not w:  # a bounce crosses pipes, moves nothing
                    self.sched["migrations"] += 1
                    self.migrated.add(rid)
            case _:
                self._lose(w)

    def _record(self, w: _Owner, rid: int, result: Any, state: str,
                error: Any, instrs: int) -> None:
        from repro.workloads.mixes import expected_request_result

        tenant, spec = w.owed.pop(rid)
        want = expected_request_result(spec)
        ok = state == "done" and matches(result, want)
        self.results[rid] = {
            "rid": rid, "program": spec.program, "args": list(spec.args),
            "tenant": tenant, "result": result, "state": state,
            "error": error, "correct": ok, "worker": w.name,
            "instrs": instrs, "migrated": rid in self.migrated,
            "retries": self.retries[rid]}
        self.sched["instrs"] += instrs

    def _lose(self, w: _Owner) -> None:
        """Chaos ``crash_node`` recovery: ``w`` is dead to the plane, and
        everything it still owed re-executes from scratch on the
        survivors.  A no-op for a worker already lost."""
        if not w.alive:
            return
        w.alive = False
        self.sched["crashes"] += 1
        self._actions.append(("kill", w.i))
        owed, w.owed = list(w.owed), {}
        self.sched["retries"] += len(owed)
        live = [x for x in self.workers if x.alive]
        if not live and not self.finished:
            raise RuntimeError("all workers dead with requests outstanding")
        self.retries.update(owed)
        self.migrated.difference_update(owed)
        for k, x in enumerate(live):
            self._dispatch(x, owed[k::len(live)])

    def _pick_idle(self) -> Optional[_Owner]:
        return next((w for w in self.workers
                     if w.alive and w.idle and not w.owed), None)

    def _rebalance(self) -> None:
        """An idle worker pulls work from the most-loaded one: queued
        rows if the victim has a backlog, else (``steal``) the running
        thread itself as a SOD image."""
        victims = [w for w in self.workers
                   if w.alive and w.owed and not w.capture_pending]
        if not victims or self._pick_idle() is None:
            return
        victim = max(victims, key=lambda w: len(w.owed))
        if len(victim.owed) > 1:
            victim.capture_pending = True
            self._emit(victim, ("giveback", len(victim.owed) // 2))
        elif self.steal:
            victim.capture_pending = True
            self._emit(victim, ("capture", next(iter(victim.owed))))


# -- driver --------------------------------------------------------------------


def serve_real(mix: str = "paper", n_requests: int = 32, seed: int = 7,
               procs: int = 2, quantum: int = REAL_QUANTUM,
               interarrival: float = 0.0, tenants: Optional[Any] = None,
               arrival_rate: Optional[float] = None, steal: bool = True,
               fault_plan: Optional[Dict[str, int]] = None,
               deadline_s: float = 600.0) -> Dict[str, Any]:
    """Serve ``n_requests`` of ``mix`` across ``procs`` worker
    processes and return a report dict.

    The request stream is the *same* one the virtual backend serves
    (``LoadGenerator.schedule()`` is a pure function of mix, n_requests,
    seed and tenants: row *i* here is request *i* there, which the
    cross-checker relies on), served as fast as the hardware allows.
    This is the thin driver of a :class:`ControlPlane`: it forks the
    workers, feeds the plane each decoded message and death, turns its
    actions into pipe writes and SIGKILLs, and stops reading a pipe once
    the plane has lost its worker.  ``fault_plan`` (test hook):
    ``{"kill_worker": i, "after_done": k}``, evaluated per message.
    ``deadline_s`` bounds the run: a wedged worker is a loud error
    listing the in-flight rids, never a hang.  Every worker is joined
    however the run ends."""
    from repro.serve.loadgen import LoadGenerator
    from repro.serve.tenants import TenantSet
    from repro.workloads.mixes import MIXES

    if procs < 1:
        raise ValueError(f"need at least one worker process, got {procs}")
    if not isinstance(tenants, TenantSet):  # the described (rows) form
        tenants = TenantSet.from_dict(tenants)
    load = LoadGenerator(MIXES[mix], n_requests, seed=seed,
                         interarrival=interarrival, tenants=tenants,
                         arrival_rate=arrival_rate)
    plane = ControlPlane(load.schedule(), procs, steal=steal,
                         fault_plan=fault_plan)

    t0 = time.perf_counter()  # the caller's wait: warm-up and forks included
    _prefork(mix)  # forked workers inherit it (and the code it warmed)
    ctx = get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else "spawn")
    workers: List[tuple] = []  # (process, parent end of its pipe, sentinel)

    def apply(actions: List[Tuple[Any, ...]]) -> None:
        for kind, i, *msg in actions:
            if kind == "kill":
                workers[i][0].kill()
                continue
            try:
                plane.sched["control_bytes"] += _send(workers[i][1], *msg)
            except OSError:
                pass  # a dead pipe: its sentinel reports the death

    try:
        for w in plane.workers:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_worker_main,
                               args=(child_conn, w.name, mix, quantum),
                               name=f"repro-{w.name}", daemon=True)
            proc.start()
            child_conn.close()
            workers.append((proc, parent_conn, proc.sentinel))
        apply(plane.start())
        while not plane.finished:
            remaining = t0 + deadline_s - time.perf_counter()
            if remaining <= 0:
                raise RuntimeError(
                    f"real backend deadline ({deadline_s}s) exceeded with "
                    f"requests in flight: "
                    f"{sorted(r for w in plane.workers for r in w.owed)}")
            # a lost worker's pipe is not read again, nor its sentinel
            waitables = {obj: w.i for w in plane.workers if w.alive
                         for obj in workers[w.i][1:]}
            for obj in connection.wait(list(waitables),
                                       timeout=min(remaining, 0.25)):
                i = waitables[obj]
                conn_ = workers[i][1]
                if obj is not conn_:
                    apply(plane.on_death(i))
                    continue
                try:
                    while plane.workers[i].alive and conn_.poll(0):
                        apply(plane.on_message(i, _recv(conn_)))
                except (EOFError, OSError):
                    pass  # the sentinel path owns crash handling
                except wire.WireError:
                    apply(plane.on_death(i))  # a corrupt frame: its crash
        wall = time.perf_counter() - t0
    finally:
        if plane.finished:
            apply([("send", w.i, ("stop",)) for w in plane.workers if w.alive])
        for proc, conn_, _sentinel in workers:
            proc.join(timeout=5.0 if plane.finished else 0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
            conn_.close()

    rows_out = plane.report_rows()
    served = [r for r in rows_out if r["state"] == "done"]
    per_tenant = {r["tenant"]: {"served": 0, "correct": 0}
                  for r in rows_out if r["tenant"] is not None}
    for r in served:
        if r["tenant"] is not None:
            per_tenant[r["tenant"]]["served"] += 1
            per_tenant[r["tenant"]]["correct"] += int(r["correct"])
    report: Dict[str, Any] = {
        "backend": "real", "mix": mix, "seed": seed, "procs": procs,
        "quantum": quantum, "submitted": n_requests,
        # the described run (SERVE_KEYS spelling): everything the
        # cross-checker needs to re-serve this stream on the oracle
        "config": {"mix": mix, "n_requests": n_requests, "seed": seed,
                   "interarrival": interarrival,
                   "tenants": tenants.to_dict() if tenants else None,
                   "arrival_rate": arrival_rate},
        "served": len(served), "failed": len(rows_out) - len(served),
        "unserved": n_requests - len(rows_out),
        "correct": sum(1 for r in served if r["correct"]),
        "requests": rows_out,
        "sched": plane.sched,
        "wall": {"seconds": round(wall, 4),
                 "throughput_rps": round(len(served) / wall, 2),
                 "cores": available_cores()},
    }
    if per_tenant:
        report["tenants"] = per_tenant
    return report
