"""Outside-in tracing for the benchmark's traced pass.

The tracer wraps *public* entry points of each layer — class attributes
and module functions, including every ``from ... import`` re-binding of
a function inside the ``repro`` package — records a span per call in
memory, and restores everything on :meth:`Tracer.uninstall`.  Nothing
inside the program is edited; a patch target that no longer exists is
reported in :attr:`Tracer.missing` (its metrics then read "not
measured") instead of failing the run.

A span is ``(id, parent, name, rid, node, host_t0, host_t1, virt_t0,
virt_t1)``: ``parent`` is the span that was open when this one began
(the call stack — all wrapped calls are synchronous, kernel processes
never hold a span across a ``yield``), ``rid`` is the request the work
belongs to (inherited from the parent when the call itself does not
say), and the two ``virt`` stamps read the virtual clock nearest the
call (a machine's, an engine's timeline, or the kernel's ``now``).
A span's *self time* is its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import re
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

_RID = re.compile(r"req#?(\d+)")

#: retained captured states per collection (modeled-vs-real wire bytes)
MAX_CAPTURES = 256


def _thread_rid(thread: Any) -> Optional[int]:
    """Request id from a guest thread's name (``req#12:FFT(4, 8)``,
    ``seg#40<-req#12:...``, the real backend's ``req12``)."""
    m = _RID.search(getattr(thread, "name", "") or "")
    return int(m.group(1)) if m else None


class Tracer:
    def __init__(self) -> None:
        self.active = True
        self.spans: List[tuple] = []
        self._stack: List[tuple] = []
        self._next = 0
        self.counts: Dict[str, float] = defaultdict(float)
        self.records: List[Any] = []      # MigrationRecords returned
        self.captures: List[Any] = []     # CapturedStates returned
        self.machines: Dict[int, Any] = {}
        self.objmans: Dict[int, Any] = {}
        self.missing: List[str] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        # forked workers inherit the patched attributes: pass straight
        # through there instead of filling a list nobody will read
        os.register_at_fork(after_in_child=self._deactivate)

    def _deactivate(self) -> None:
        self.active = False

    # -- recording -----------------------------------------------------------

    def begin(self, name: str, rid: Any = None, node: Any = None,
              virt: Optional[float] = None) -> None:
        stack = self._stack
        if stack:
            parent = stack[-1][0]
            if rid is None:
                rid = stack[-1][2]
        else:
            parent = -1
        sid = self._next
        self._next += 1
        stack.append((sid, parent, rid, name, node, virt, perf_counter()))

    def end(self, virt: Optional[float] = None) -> None:
        t1 = perf_counter()
        sid, parent, rid, name, node, v0, t0 = self._stack.pop()
        self.spans.append((sid, parent, name, rid, node, t0, t1, v0, virt))

    def reset(self) -> None:
        """Drop everything collected so far (patches stay installed)."""
        self.spans = []
        self._next = 0
        self.counts = defaultdict(float)
        self.records = []
        self.captures = []
        self.machines = {}
        self.objmans = {}

    # -- wrapping ---------------------------------------------------------------

    def _span(self, name: str,
              meta: Optional[Callable[[tuple, dict], tuple]] = None,
              post: Optional[Callable[[Any, tuple, dict], None]] = None):
        """Wrapper factory: a span named ``name`` around each call.
        ``meta(args, kwargs) -> (rid, node, clock)`` where ``clock()``
        reads the nearest virtual clock; ``post(result, args, kwargs)``
        harvests counters from the returned value."""
        tr = self

        def make(orig: Callable) -> Callable:
            @functools.wraps(orig)
            def wrapper(*a: Any, **k: Any) -> Any:
                if not tr.active:
                    return orig(*a, **k)
                rid, node, clock = meta(a, k) if meta else (None, None, None)
                tr.begin(name, rid, node, clock() if clock else None)
                try:
                    out = orig(*a, **k)
                except BaseException:
                    tr.counts[name + ".errors"] += 1
                    tr.end(clock() if clock else None)
                    raise
                tr.end(clock() if clock else None)
                if post is not None:
                    post(out, a, k)
                return out
            return wrapper
        return make

    def _count(self, name: str,
               amount: Optional[Callable[[tuple, dict], float]] = None):
        """Wrapper factory: a boundary *count* only (for calls too hot
        or too small to be worth a span)."""
        tr = self

        def make(orig: Callable) -> Callable:
            @functools.wraps(orig)
            def wrapper(*a: Any, **k: Any) -> Any:
                if tr.active:
                    tr.counts[name] += 1
                    if amount is not None:
                        tr.counts[name + ".amount"] += amount(a, k)
                return orig(*a, **k)
            return wrapper
        return make

    def _patch(self, target: str, make: Callable[[Callable], Callable]
               ) -> None:
        """Wrap ``module:attr`` (a function; every ``repro`` module
        global bound to it is re-pointed) or ``module:Class.attr``."""
        modname, _, path = target.partition(":")
        try:
            owner: Any = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            print(f"[bench.trace] warning: {target} not found; its "
                  f"metrics read -1 (not measured)", file=sys.stderr)
            return
        wrapper = make(orig)
        if outer:
            holders = [(owner, attr)]
        else:
            holders = [(m, k) for m in list(sys.modules.values())
                       if getattr(m, "__name__", "").split(".")[0] == "repro"
                       for k, v in list(vars(m).items()) if v is orig]
        for holder, key in holders:
            setattr(holder, key, wrapper)
            self._patches.append((holder, key, orig))

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._patches):
            setattr(holder, key, orig)
        self._patches = []
        # bound methods captured while installed (a scheduled
        # ``ev.succeed``) must go quiet too
        self.active = False

    def install(self) -> None:
        """Wrap the public entry points of every layer (idempotent
        only through :meth:`uninstall`)."""
        tr = self
        P = self._patch
        self.active = True
        self.missing = []

        def mclock(machine: Any) -> Callable[[], float]:
            return lambda: machine.clock

        # lang / preprocess / bytecode
        P("repro.lang.compiler:compile_source", self._span("lang.compile"))
        P("repro.preprocess.pipeline:preprocess_program",
          self._span("preprocess.pipeline"))
        P("repro.bytecode.verifier:verify_class",
          self._span("bytecode.verify"))

        def fused(out: Any, a: tuple, k: dict) -> None:
            from repro.preprocess.fuse import fused_coverage
            tr.counts["preprocess.fused_sites"] += sum(
                fused_coverage(out).values())
        P("repro.preprocess.fuse:decode_and_fuse",
          self._span("preprocess.decode_and_fuse", post=fused))

        # vm
        def wrap_run(orig: Callable) -> Callable:
            @functools.wraps(orig)
            def run(self: Any, thread: Any, stop: Any = None,
                    max_instrs: Any = None, quantum: Any = None) -> str:
                if not tr.active:
                    return orig(self, thread, stop=stop,
                                max_instrs=max_instrs, quantum=quantum)
                # the same test Machine.run applies, from public state
                fast = (stop is None and max_instrs is None
                        and self.dispatch == "fast" and not self.breakpoints
                        and self.on_breakpoint is None
                        and self.on_write is None)
                loop = "vm.run.fast" if fast else "vm.run.hooked"
                tr.machines[id(self)] = self
                i0 = self.instr_count
                tr.begin(loop, _thread_rid(thread), self.name, self.clock)
                try:
                    return orig(self, thread, stop=stop,
                                max_instrs=max_instrs, quantum=quantum)
                finally:
                    tr.end(self.clock)
                    tr.counts[loop + ".instrs"] += self.instr_count - i0
            return run
        P("repro.vm.machine:Machine.run", wrap_run)

        def spawned(out: Any, a: tuple, k: dict) -> None:
            ns = k.get("namespace", a[5] if len(a) > 5 else None)
            if ns is not None:
                tr.counts["vm.namespaced_spawns"] += 1
        P("repro.vm.machine:Machine.spawn", self._span(
            "vm.spawn", lambda a, k: (None, a[0].name, mclock(a[0])),
            spawned))
        P("repro.vm.machine:Machine.precompile", self._span(
            "vm.jit.precompile", lambda a, k: (None, a[0].name, None)))
        P("repro.vm.jit:compile_into", self._span(
            "vm.jit.compile", lambda a, k: (None, a[0].name, None)))

        # migration
        def eclock(engine: Any) -> Callable[[], float]:
            return lambda: engine.timeline

        P("repro.migration.sodee:SODEngine.migrate", self._span(
            "migration.sodee.migrate",
            lambda a, k: (_thread_rid(a[2]), a[1].node_name, eclock(a[0])),
            lambda out, a, k: tr.records.append(out[2])))
        P("repro.migration.sodee:SODEngine.migrate_many", self._span(
            "migration.sodee.migrate_many",
            lambda a, k: (None, a[1].node_name, eclock(a[0])),
            lambda out, a, k: tr.records.extend(r for _t, r in out[1])))
        P("repro.migration.sodee:SODEngine.rehop_segment", self._span(
            "migration.sodee.rehop",
            lambda a, k: (_thread_rid(a[2]), a[1].node_name, eclock(a[0])),
            lambda out, a, k: tr.records.append(out[2])))

        def wrote_back(out: Any, a: tuple, k: dict) -> None:
            tr.counts["migration.writeback_virt_s"] += out
        P("repro.migration.sodee:SODEngine.complete_segment", self._span(
            "migration.sodee.complete_segment",
            lambda a, k: (_thread_rid(a[4]), a[1].node_name, eclock(a[0])),
            wrote_back))

        def captured(out: Any, a: tuple, k: dict) -> None:
            if len(tr.captures) < MAX_CAPTURES:
                tr.captures.append(out)
        P("repro.migration.capture:capture_segment", self._span(
            "migration.capture",
            lambda a, k: (_thread_rid(a[1]),
                          k.get("home_node", a[3] if len(a) > 3 else None),
                          mclock(a[0].machine)),
            captured))
        P("repro.migration.restore:RestoreDriver.restore", self._span(
            "migration.restore",
            lambda a, k: (None, a[0].machine.name, mclock(a[0].machine))))
        P("repro.migration.restore:java_level_restore", self._span(
            "migration.restore",
            lambda a, k: (None, a[0].name, mclock(a[0]))))

        def fetch_meta(a: tuple, k: dict) -> tuple:
            tr.objmans[id(a[0])] = a[0]
            return None, a[0].node_name, mclock(a[0].machine)
        P("repro.migration.object_manager:WorkerObjectManager.fetch",
          self._span("migration.object_manager.fetch", fetch_meta))

        # cluster
        P("repro.cluster.network:Network.transfer_time", self._count(
            "cluster.network.transfers", lambda a, k: a[3]))
        P("repro.cluster.network:Network.record_saved", self._count(
            "cluster.network.saves", lambda a, k: max(0, a[3])))

        # sim
        P("repro.sim.kernel:Environment.run", self._span(
            "sim.kernel.run",
            lambda a, k: (None, None, lambda: a[0].now)))
        for attr in ("timeout", "event", "process"):
            P(f"repro.sim.kernel:Environment.{attr}",
              self._count("sim.kernel.events"))
        # Firing an event resumes its waiters synchronously, whoever
        # fires it (the event loop, a run-queue put, a completion): a
        # span here keeps the resumed generator code — scheduler node
        # loops, load generator, deliveries — out of the caller's self
        # time.
        P("repro.sim.kernel:Event.succeed", self._span("sim.kernel.fire"))

        # serve
        P("repro.serve.scheduler:ClusterScheduler.pick_underloaded",
          self._span("serve.loadindex.pick",
                     lambda a, k: (None, a[1], lambda: a[0].env.now)))
        for attr in ("put", "get", "remove"):
            P(f"repro.serve.wfq:FairStore.{attr}",
              self._span("serve.wfq." + attr))
        P("repro.serve.loadgen:LoadGenerator.schedule",
          self._span("serve.loadgen.schedule"))

        # runtime (parent side of the real backend)
        P("repro.runtime.real:serve_real", self._span("runtime.real.serve"))
        def encoded(out: Any, a: tuple, k: dict) -> None:
            tr.counts["runtime.wire.encode_bytes"] += len(out)

        def decoded(out: Any, a: tuple, k: dict) -> None:
            tr.counts["runtime.wire.decode_bytes"] += len(a[0])
        P("repro.runtime.wire:encode",
          self._span("runtime.wire.encode", post=encoded))
        P("repro.runtime.wire:decode",
          self._span("runtime.wire.decode", post=decoded))


# -- aggregation ---------------------------------------------------------------


def aggregate(spans: List[tuple]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total host seconds, *self* host
    seconds (duration minus child-covered time) and virtual seconds."""
    covered: Dict[int, float] = defaultdict(float)
    for sid, parent, _n, _r, _nd, t0, t1, _v0, _v1 in spans:
        covered[parent] += t1 - t0
    agg: Dict[str, Dict[str, float]] = {}
    for sid, _p, name, _r, _nd, t0, t1, v0, v1 in spans:
        row = agg.setdefault(name, {"calls": 0, "host_s": 0.0,
                                    "self_s": 0.0, "virt_s": 0.0})
        row["calls"] += 1
        row["host_s"] += t1 - t0
        row["self_s"] += (t1 - t0) - covered.get(sid, 0.0)
        if v0 is not None and v1 is not None:
            row["virt_s"] += v1 - v0
    return agg


def write_jsonl(path: str, spans: List[tuple]) -> None:
    keys = ("id", "parent", "name", "rid", "node", "host_t0", "host_t1",
            "virt_t0", "virt_t1")
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps(dict(zip(keys, s))) + "\n")
