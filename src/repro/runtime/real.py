"""Real-parallel execution backend: every node is an OS process.

Wall-clock mode for the serving stack.  The parent process is the
control plane (placement, work stealing, crash recovery, accounting);
each worker process owns one VM — its own ``Machine`` over the mix's
classpath, inherited warm from the fork (:func:`_prefork`) — and serves
requests in preemptible quanta exactly like a virtual node does.
Everything that crosses a process boundary crosses as canonical
:mod:`repro.runtime.wire` bytes over OS pipes:

* **request dispatch** — (rid, program, args) rows;
* **SOD images** — when the control plane steals a *running* request
  from a loaded worker for an idle one, the victim captures the thread
  at a quantum boundary into an eager self-contained image (frames +
  operand stacks + reachable object graph + namespace statics — the
  G-JavaMPI-style whole-segment encoding, shared with that baseline:
  :func:`repro.migration.state.encode_eager_image`) and the image
  bytes are restored on the thief;
* **class-digest tokens** — an image never carries class files; it
  carries :func:`repro.runtime.wire.class_token` digests, and the
  receiver verifies them against its own deterministically-built
  classpath (the virtual engine's "ship once, then tokens" behavior,
  with "once" collapsed to zero because every worker holds the same
  classpath, a pure function of the mix name).  Statics ship by value,
  as in the virtual engine.

Determinism contract: requests are pure functions of their spec, so
*results* are reproducible and cross-checked request-by-request
against the same-seed virtual-time run
(:mod:`repro.runtime.crosscheck`); *timings and placement* are
wall-clock facts and excluded.  The virtual backend remains the
correctness oracle and the merge gate — this backend exists to turn
simulated speedup into hardware speedup.

Crash semantics mirror the chaos layer's ``crash_node``: a worker
process dying (detected via its sentinel, never by hanging on a pipe)
requeues everything it still owed onto the survivors, counted under
``crashes``/``retries`` like a chaos recovery.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import signal
import time
from collections import deque
from multiprocessing import connection, get_context
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime import wire

__all__ = ["serve_real", "available_cores", "REAL_QUANTUM"]

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
    try:
        _Worker(conn_, name, mix, quantum).loop()
    except (EOFError, OSError, wire.WireError):
        pass  # parent went away, or sent a corrupt frame: exit quietly
        # (the control plane sees a crashed worker and requeues its work)
    finally:
        try:
            conn_.close()
        except OSError:
            pass


# -- control plane -------------------------------------------------------------


class _WorkerHandle:
    def __init__(self, proc, conn_, name: str):
        self.proc = proc
        self.conn = conn_
        self.name = name
        #: parent-side model of what the worker still owes, dispatch
        #: order (head ≈ running): rid -> (program, args, tenant)
        self.owed: "dict[int, Tuple[str, tuple, Optional[str]]]" = {}
        self.idle = False
        self.alive = True
        self.capture_pending = False


def serve_real(mix: str = "paper", n_requests: int = 32, seed: int = 7,
               procs: int = 2, quantum: int = REAL_QUANTUM,
               interarrival: float = 0.0,
               tenants: Optional[Any] = None,
               arrival_rate: Optional[float] = None,
               steal: bool = True,
               fault_plan: Optional[Dict[str, int]] = None,
               deadline_s: float = 600.0) -> Dict[str, Any]:
    """Serve ``n_requests`` of ``mix`` across ``procs`` worker
    processes and return a report dict.

    The request stream is the *same* one the virtual backend serves:
    ``LoadGenerator.schedule()`` is a pure function of (mix,
    n_requests, seed, tenants), so row *i* here is request *i* there —
    the alignment the cross-checker relies on.  Arrival times are
    ignored (wall-clock pacing of virtual arrivals is meaningless;
    the stream is served as fast as the hardware allows).

    ``fault_plan`` (test hook, chaos vocabulary): ``{"kill_worker": i,
    "after_done": k}`` SIGKILLs worker ``i`` once ``k`` requests have
    completed; its owed requests requeue onto the survivors exactly
    like a chaos ``crash_node`` recovery.  ``deadline_s`` bounds the
    whole run — a wedged worker surfaces as a loud error with the
    in-flight rids listed, never as a hang.
    """
    from repro.serve.loadgen import LoadGenerator
    from repro.serve.tenants import TenantSet
    from repro.workloads.mixes import MIXES, expected_request_result

    if procs < 1:
        raise ValueError(f"need at least one worker process, got {procs}")
    if not isinstance(tenants, TenantSet):  # the described (rows) form
        tenants = TenantSet.from_dict(tenants)
    load = LoadGenerator(MIXES[mix], n_requests, seed=seed,
                         interarrival=interarrival, tenants=tenants,
                         arrival_rate=arrival_rate)
    rows = [(rid, tenant, spec)
            for rid, (_when, tenant, spec) in enumerate(load.schedule())]

    t0 = time.perf_counter()  # the caller's wait: warm-up and forks included
    _prefork(mix)  # forked workers inherit it (and the code it warmed)
    ctx = get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else "spawn")
    workers: List[_WorkerHandle] = []
    for i in range(procs):
        parent_conn, child_conn = ctx.Pipe()
        name = f"proc{i}"
        proc = ctx.Process(target=_worker_main,
                           args=(child_conn, name, mix, quantum),
                           name=f"repro-{name}", daemon=True)
        proc.start()
        child_conn.close()
        workers.append(_WorkerHandle(proc, parent_conn, name))

    stats = {"migrations": 0, "steals": 0, "crashes": 0, "retries": 0,
             "image_bytes": 0, "token_bytes": 0, "control_bytes": 0,
             "instrs": 0}
    results: Dict[int, Dict[str, Any]] = {}
    #: rows of ``results`` holding a ``state``: gained in ``record_done``,
    #: lost in ``requeue`` (an ``image`` mark carries the row's over)
    done = 0
    killed = False

    def send(w: _WorkerHandle, msg: Any) -> None:
        stats["control_bytes"] += _send(w.conn, msg)

    def dispatch(w: _WorkerHandle,
                 batch: List[Tuple[int, Optional[str], Any]]) -> None:
        if not batch:
            return
        for rid, tenant, spec in batch:
            w.owed[rid] = (spec.program, tuple(spec.args), tenant)
        send(w, ("run", [(rid, spec.program, list(spec.args))
                         for rid, _tenant, spec in batch]))
        w.idle = False

    # Initial placement: equal-weight round robin in schedule order —
    # the virtual default placement, minus load feedback (which the
    # stealing path supplies at run time instead).
    shards: List[List[Tuple[int, Optional[str], Any]]] = \
        [[] for _ in range(procs)]
    for i, row in enumerate(rows):
        shards[i % procs].append(row)
    for w, shard in zip(workers, shards):
        dispatch(w, shard)

    spec_of = {rid: (tenant, spec) for rid, tenant, spec in rows}

    def record_done(rid: int, result: Any, state: str, error: Optional[str],
                    instrs: int, worker: str) -> None:
        nonlocal done
        tenant, spec = spec_of[rid]
        if isinstance(result, tuple) and len(result) == 2 \
                and result[0] == "@repr":
            ok = result[1] == repr(expected_request_result(spec))
        else:
            ok = (state == "done"
                  and result == expected_request_result(spec))
        prev = results.get(rid)
        done += not (prev and prev.get("state"))
        results[rid] = {
            "rid": rid, "program": spec.program,
            "args": list(spec.args), "tenant": tenant,
            "result": result, "state": state, "error": error,
            "correct": ok, "worker": worker, "instrs": instrs,
            "migrated": bool(prev and prev.get("migrated")),
            "retries": (prev["retries"] if prev else 0),
        }
        stats["instrs"] += instrs

    def requeue(dead: _WorkerHandle) -> None:
        """Chaos ``crash_node`` recovery: everything the dead worker
        still owed re-executes from scratch on the survivors."""
        nonlocal done
        owed = list(dead.owed.items())
        dead.owed.clear()
        if not owed:
            return
        stats["retries"] += len(owed)
        live = [w for w in workers if w.alive]
        if not live:
            raise RuntimeError(
                "all workers dead with requests outstanding")
        for i, (rid, (program, args, tenant)) in enumerate(owed):
            mark = results.get(rid)
            done -= bool(mark and mark.get("state"))
            results[rid] = {"retries": (mark["retries"] + 1 if mark
                                        else 1), "migrated": False}
            _tenant, spec = spec_of[rid]
            dispatch(live[i % len(live)], [(rid, tenant, spec)])

    def handle(w: _WorkerHandle, msg: Any) -> None:
        kind = msg[0]
        if kind == "done":
            _k, rid, result, instrs = msg
            w.owed.pop(rid, None)
            record_done(rid, result, "done", None, instrs, w.name)
        elif kind == "fail":
            _k, rid, error, instrs = msg
            w.owed.pop(rid, None)
            record_done(rid, None, "failed", error, instrs, w.name)
        elif kind == "idle":
            w.idle = True
        elif kind == "gaveback":
            w.capture_pending = False
            rows_back = [(rid, prog, tuple(args))
                         for rid, prog, args in msg[1]]
            for rid, _prog, _args in rows_back:
                w.owed.pop(rid, None)
            if rows_back:
                # No idle thief anymore → hand the rows straight back
                # to the victim (never drop admitted work).
                thief = _pick_idle() or w
                if thief is not w:
                    stats["steals"] += len(rows_back)
                dispatch(thief, [(rid, spec_of[rid][0], spec_of[rid][1])
                                 for rid, _p, _a in rows_back])
        elif kind == "image":
            _k, rid, image, instrs = msg
            w.capture_pending = False
            w.owed.pop(rid, None)
            meta = wire.decode(image)
            thief = _pick_idle()
            if thief is None:
                thief = w  # nobody idle anymore: bounce it back
            tenant, spec = spec_of[rid]
            thief.owed[rid] = (spec.program, tuple(spec.args), tenant)
            send(thief, ("restore", image, instrs))
            thief.idle = False
            stats["migrations"] += 1
            stats["image_bytes"] += len(image)
            stats["token_bytes"] += sum(len(t) for _c, t in meta["classes"])
            mark = results.get(rid) or {"retries": 0}
            results[rid] = {**mark, "migrated": True}
        elif kind == "nocapture":
            w.capture_pending = False

    def _pick_idle() -> Optional[_WorkerHandle]:
        for w in workers:
            if w.alive and w.idle and not w.owed:
                return w
        return None

    def rebalance() -> None:
        """An idle worker pulls work from the most-loaded one: queued
        rows if the victim has a backlog, else (``steal``) the running
        thread itself as a SOD image."""
        thief = _pick_idle()
        if thief is None:
            return
        victims = [w for w in workers
                   if w.alive and w is not thief and w.owed
                   and not w.capture_pending]
        if not victims:
            return
        victim = max(victims, key=lambda w: len(w.owed))
        if len(victim.owed) > 1:
            victim.capture_pending = True
            send(victim, ("giveback", max(1, len(victim.owed) // 2)))
        elif steal:
            rid = next(iter(victim.owed))
            victim.capture_pending = True
            send(victim, ("capture", rid))

    # -- event loop ------------------------------------------------------
    deadline = t0 + deadline_s
    while done < n_requests:
        if (fault_plan and not killed
                and done >= fault_plan.get("after_done", 0)):
            victim = workers[fault_plan.get("kill_worker", 0) % procs]
            if victim.alive:
                killed = True
                os.kill(victim.proc.pid, signal.SIGKILL)
        waitables: List[Any] = []
        for w in workers:
            if w.alive:
                waitables.append(w.conn)
                waitables.append(w.proc.sentinel)
        if not waitables:
            raise RuntimeError("all workers dead with requests outstanding")
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            in_flight = sorted(rid for w in workers for rid in w.owed)
            for w in workers:
                if w.alive:
                    w.proc.terminate()
            raise RuntimeError(
                f"real backend deadline ({deadline_s}s) exceeded with "
                f"requests in flight: {in_flight}")
        ready = connection.wait(waitables, timeout=min(remaining, 0.25))
        for obj in ready:
            w = next((w for w in workers
                      if obj in (w.conn, w.proc.sentinel)), None)
            if w is None:
                continue
            if obj is w.proc.sentinel:
                if w.alive:
                    w.alive = False
                    stats["crashes"] += 1
                    try:
                        w.conn.close()
                    except OSError:
                        pass
                    requeue(w)
                continue
            try:
                while w.conn.poll(0):
                    handle(w, _recv(w.conn))
            except (EOFError, OSError):
                pass  # the sentinel path owns crash handling
            except wire.WireError:
                w.proc.kill()  # a corrupt frame is that worker's crash
        rebalance()

    wall = time.perf_counter() - t0

    for w in workers:
        if w.alive:
            try:
                send(w, ("stop",))
            except (BrokenPipeError, OSError):
                pass
    for w in workers:
        w.proc.join(timeout=5.0)
        if w.proc.is_alive():  # pragma: no cover - defensive
            w.proc.terminate()
            w.proc.join(timeout=5.0)
        try:
            w.conn.close()
        except OSError:
            pass

    rows_out = [results[rid] for rid in sorted(results)]
    served = [r for r in rows_out if r["state"] == "done"]
    failed = [r for r in rows_out if r["state"] == "failed"]
    per_tenant: Dict[str, Dict[str, int]] = {}
    for r in rows_out:
        if r["tenant"] is not None:
            t = per_tenant.setdefault(r["tenant"],
                                      {"served": 0, "correct": 0})
            if r["state"] == "done":
                t["served"] += 1
                t["correct"] += int(r["correct"])
    report: Dict[str, Any] = {
        "backend": "real", "mix": mix, "seed": seed, "procs": procs,
        "quantum": quantum, "submitted": n_requests,
        # the described run (SERVE_KEYS spelling): everything the
        # cross-checker needs to re-serve this stream on the oracle
        "config": {"mix": mix, "n_requests": n_requests, "seed": seed,
                   "interarrival": interarrival,
                   "tenants": tenants.to_dict() if tenants else None,
                   "arrival_rate": arrival_rate},
        "served": len(served), "failed": len(failed),
        "unserved": n_requests - len(rows_out),
        "correct": sum(1 for r in served if r["correct"]),
        "requests": rows_out,
        "sched": stats,
        "wall": {
            "seconds": round(wall, 4),
            "throughput_rps": round(len(served) / wall, 2) if wall else 0.0,
            "cores": available_cores(),
        },
    }
    if per_tenant:
        report["tenants"] = per_tenant
    return report
