"""Turn repetitions and traces into the named metrics of BENCHMARK.json.

Two clocks, never mixed in one number: *host* values (unit ``s``,
``us``, ``MiB``, ``Minstr/s``...) are what the program costs on this
machine, aggregated over repetitions; *virtual* values (unit
``virt_s``, ``virt_ms``, bytes, counts) are what the modeled cluster
delivers and repeat exactly for a seed.

``NOT_MEASURED`` (-1) marks a metric that has no meaning on a workload
(see ``APPLIES``), whose patch target no longer exists, or whose
denominator is zero.  A plain 0 is a measured zero: the layer was
watched and did nothing.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional

from bench.workloads import pctile

NOT_MEASURED = -1.0

#: user-visible virtual metrics -> the workloads they mean something on
APPLIES = {
    "virt_goodput_rps": ("serve_paper", "serve_offload", "serve_scale"),
    "virt_latency_p50_s": ("serve_paper", "serve_scale"),
    "virt_latency_p95_s": ("serve_paper", "serve_scale"),
    "virt_slo_miss_pct": ("serve_paper",),
    "wire_bytes_per_op": ("serve_paper", "serve_offload", "paper_migration"),
    "virt_migration_latency_ms": ("paper_migration",),
    "virt_migration_overhead_ms": ("paper_migration",),
    "paper_err_pct": ("paper_migration",),
}


def _ratio(a: Optional[float], b: Optional[float],
           scale: float = 1.0) -> Optional[float]:
    if a is None or b is None or b == 0:
        return None
    return scale * a / b


def _pool(reps: Iterable[dict], key: str) -> List[float]:
    return [x for r in reps for x in r["samples"].get(key, ())]


def _mean(xs: List[float]) -> Optional[float]:
    return sum(xs) / len(xs) if xs else None


def _host(reps: List[dict]) -> Dict[str, float]:
    """Host cost of a set of repetitions, at the reference speed (see
    ``run.spin``).  Means, not medians: a block deliberately mixes
    streams of different cost (see ``workloads.stratify_mix``), and the
    mean of a balanced block is what stays put across seeds."""
    ref_s = sum(r["ref_s"] for r in reps)
    return {"host_wall_s": ref_s / len(reps),
            "guest_mips_host": sum(r["instrs"] for r in reps) / ref_s / 1e6}


def block_spread(blocks: List[List[dict]]) -> Dict[str, Dict[str, float]]:
    """What one run can say about its own noise: the host metrics of
    each block, min / max / (max - min) / mean.  Blocks serve different
    streams, so this is an upper estimate of run-to-run noise."""
    out = {}
    for metric in ("host_wall_s", "guest_mips_host"):
        vals = [_host(b)[metric] for b in blocks]
        mean = sum(vals) / len(vals)
        out[metric] = {"min": min(vals), "max": max(vals), "n": len(vals),
                       "spread": (max(vals) - min(vals)) / mean}
    return out


# -- end to end -------------------------------------------------------------------


def end_to_end(reps: List[dict], setup_s: float, peak_rss_mb: float
               ) -> Dict[str, float]:
    """The host-clock metrics every workload reports (the ones
    BENCHMARK.json bounds)."""
    return {"setup_s": setup_s, **_host(reps), "peak_rss_mb": peak_rss_mb}


def virtual(name: str, block0: List[dict], all_reps: List[dict]
            ) -> Dict[str, Optional[float]]:
    """User-visible metrics of the *modeled* system, pooled over block 0
    (every stream once), plus the failure share over all reps."""
    ok = sum(r["ok"] for r in block0)
    lat = sorted(_pool(block0, "latency"))
    attempted = sum(r["attempted"] for r in block0)
    out: Dict[str, Optional[float]] = {
        "virt_goodput_rps": _ratio(ok, sum(_pool(block0, "makespan"))),
        "virt_latency_p50_s": pctile(lat, 0.50) if lat else None,
        "virt_latency_p95_s": pctile(lat, 0.95) if lat else None,
        "virt_slo_miss_pct": _ratio(sum(_pool(block0, "slo_miss")),
                                    attempted, 100.0),
        "wire_bytes_per_op": _ratio(sum(_pool(block0, "wire_bytes")),
                                    sum(_pool(block0, "wire_ops"))),
        "virt_migration_latency_ms": _mean(_pool(block0,
                                                 "mig_latency_ms")),
        "virt_migration_overhead_ms": _mean(_pool(block0,
                                                  "mig_overhead_ms")),
        "paper_err_pct": _ratio(_mean(_pool(block0, "paper_err")),
                                0.01),
    }
    for metric, where in APPLIES.items():
        if name not in where:
            out[metric] = None
    sent = sum(r["attempted"] for r in all_reps)
    out["failed_ops_pct"] = 100.0 * (sent - sum(r["ok"] for r in all_reps)) \
        / sent
    return out


# -- per layer ----------------------------------------------------------------------


def wire_codec(captures: List[Any]) -> Dict[str, Optional[float]]:
    """Real wire-codec bytes and speed for the captured states the
    traced pass saw, next to their *modeled* byte count — the same
    captures, priced both ways."""
    if not captures:
        return {}
    from repro.runtime.wire import capture_from_wire, capture_to_wire
    blobs = [capture_to_wire(s) for s in captures]
    real = sum(len(b) for b in blobs)
    loops = max(1, int(1e6 // max(1, real)))
    t0 = perf_counter()
    for _ in range(loops):
        for s in captures:
            capture_to_wire(s)
    t1 = perf_counter()
    for _ in range(loops):
        for b in blobs:
            capture_from_wire(b)
    t2 = perf_counter()
    mb = loops * real / 1e6
    return {"runtime.wire.real_bytes": real,
            "runtime.wire.modeled_bytes": sum(s.state_bytes()
                                              for s in captures),
            "runtime.wire.encode_mb_per_s": _ratio(mb, t1 - t0),
            "runtime.wire.decode_mb_per_s": _ratio(mb, t2 - t1)}


def per_layer(name: str, block0: List[dict],
              agg: Dict[str, Dict[str, float]],
              build_agg: Dict[str, Dict[str, float]], tracer: Any
              ) -> Dict[str, Optional[float]]:
    """Layer metrics from the first traced pass (``agg``, ``tracer``),
    the set-up phase's trace (``build_agg``: compile / preprocess /
    verify mostly happen there) and the public counters the untraced
    first pass returned.  Counts and virtual values repeat exactly for
    a seed because only one pass feeds them."""
    counts = tracer.counts

    def span(field: str, *names: str, build: bool = False
             ) -> Optional[float]:
        total = 0.0
        for n in names:
            total += agg.get(n, {}).get(field, 0.0)
            if build:
                total += build_agg.get(n, {}).get(field, 0.0)
        return total

    def errors(*names: str) -> float:
        return sum(counts.get(n + ".errors", 0) for n in names)

    L: Dict[str, Optional[float]] = {}

    # lang / preprocess / bytecode
    L["lang.compile_host_s"] = span("host_s", "lang.compile", build=True)
    L["preprocess.pipeline_host_s"] = span("host_s", "preprocess.pipeline",
                                           build=True)
    L["preprocess.fused_sites"] = counts.get("preprocess.fused_sites", 0)
    L["bytecode.verify_host_s"] = span("host_s", "bytecode.verify",
                                       build=True)
    L["bytecode.verify_calls"] = span("calls", "bytecode.verify",
                                      build=True)

    # vm (self time: a run's compile and object-fault children are
    # their own layers)
    fast_i = counts.get("vm.run.fast.instrs", 0)
    hook_i = counts.get("vm.run.hooked.instrs", 0)
    fast_s = span("self_s", "vm.run.fast")
    hook_s = span("self_s", "vm.run.hooked")
    machines = list(tracer.machines.values())
    L.update({
        "vm.run_calls": span("calls", "vm.run.fast", "vm.run.hooked"),
        "vm.instrs": fast_i + hook_i,
        "vm.fast_host_s": fast_s, "vm.fast_instrs": fast_i,
        "vm.fast_mips": _ratio(fast_i, fast_s, 1e-6),
        "vm.hooked_host_s": hook_s, "vm.hooked_instrs": hook_i,
        "vm.hooked_mips": _ratio(hook_i, hook_s, 1e-6),
        "vm.hooked_instr_share": _ratio(hook_i, fast_i + hook_i, 100.0),
        "vm.spawn_host_s": span("host_s", "vm.spawn"),
        "vm.spawn_calls": span("calls", "vm.spawn"),
        "vm.jit_compiles": sum(m.jit_compiles for m in machines),
        "vm.jit_compile_host_s": span("host_s", "vm.jit.compile"),
        "vm.jit_precompile_host_s": span("host_s", "vm.jit.precompile"),
        "vm.jit_deopts": sum(m.jit_deopts for m in machines),
        "vm.jit_guard_bails": sum(m.jit_guard_bails for m in machines),
        "vm.namespaces_isolated": counts.get("vm.namespaced_spawns", 0),
        "vm.virt_cpu_s": span("virt_s", "vm.run.fast", "vm.run.hooked"),
    })
    if name == "real_paper":
        # the VMs live in forked workers the parent-side tracer cannot
        # see; only the instruction totals come back in the report
        for key in [k for k in L if k.startswith("vm.")]:
            L[key] = None
        L["vm.instrs"] = sum(r["instrs"] for r in block0)
    legacy = block0[0]["layer"].get("legacy")
    L["vm.legacy_mips"] = _ratio(*legacy, 1e-6) if legacy else None

    # migration
    recs = tracer.records
    entry = ("migration.sodee.migrate", "migration.sodee.migrate_many",
             "migration.sodee.rehop")
    calls = span("calls", *entry)
    stats = [o.stats for o in tracer.objmans.values()]
    L.update({
        "migration.sodee.migrations": len(recs),
        "migration.sodee.rehops": span("calls", "migration.sodee.rehop")
        - errors("migration.sodee.rehop"),
        "migration.sodee.aborts": errors(*entry),
        "migration.sodee.success_ratio": _ratio(calls - errors(*entry),
                                                calls),
        "migration.sodee.host_s": span(
            "host_s", *entry, "migration.sodee.complete_segment"),
        "migration.capture.virt_s": sum(r.capture_time for r in recs),
        "migration.capture.host_s": span("host_s", "migration.capture"),
        "migration.state.modeled_bytes": sum(r.state_bytes for r in recs),
        "migration.sodee.class_bytes": sum(r.class_bytes for r in recs),
        "migration.sodee.transfer_virt_s": sum(r.transfer_time
                                               for r in recs),
        "migration.restore.virt_s": sum(r.restore_time for r in recs),
        "migration.restore.host_s": span("host_s", "migration.restore"),
        "migration.sodee.writeback_virt_s": counts.get(
            "migration.writeback_virt_s", 0.0),
        "migration.sodee.writeback_host_s": span(
            "host_s", "migration.sodee.complete_segment"),
        "migration.sodee.saved_bytes": sum(r.saved_bytes for r in recs),
        "migration.sodee.cached_class_ratio": _ratio(
            sum(r.cached_class for r in recs), len(recs)),
        "migration.object_manager.faults": sum(s.faults for s in stats),
        "migration.object_manager.fetched_bytes": sum(s.fetched_bytes
                                                      for s in stats),
        "migration.object_manager.fetch_virt_s": sum(s.fetch_seconds
                                                     for s in stats),
        "migration.object_manager.reval_hit_ratio": _ratio(
            sum(s.reval_hits for s in stats),
            sum(s.revalidations for s in stats)),
    })

    # cluster / sim
    events = counts.get("sim.kernel.events", 0)
    run_self = span("self_s", "sim.kernel.run")
    L.update({
        "cluster.network.bytes_moved": counts.get(
            "cluster.network.transfers.amount", 0),
        "cluster.network.bytes_saved": counts.get(
            "cluster.network.saves.amount", 0),
        "cluster.network.transfers": counts.get(
            "cluster.network.transfers", 0),
        "sim.kernel.events": events,
        "sim.kernel.run_self_host_s": run_self,
        "sim.kernel.resumed_self_host_s": span("self_s", "sim.kernel.fire"),
        "sim.kernel.host_us_per_event": _ratio(run_self, events, 1e6),
    })

    # serve: the scheduler's own public counters, summed over the pass
    sched = [r["layer"]["stats"] for r in block0
             if "stats" in r["layer"]]

    def stat(key: str) -> float:
        return sum(s.get(key, 0) for s in sched)

    wait = sorted(_pool(block0, "queue_wait"))
    service = sorted(_pool(block0, "service"))
    wfq = ("serve.wfq.put", "serve.wfq.get", "serve.wfq.remove")
    L.update({
        "serve.scheduler.quanta": stat("quanta"),
        "serve.scheduler.handoffs": stat("handoffs"),
        "serve.scheduler.sod_offloads": stat("sod_offloads"),
        "serve.scheduler.offload_aborts": stat("offload_aborts"),
        "serve.scheduler.decisions": stat("decisions"),
        "serve.scheduler.max_quantum_overshoot": max(
            (s.get("max_quantum_overshoot", 0) for s in sched), default=0),
        "serve.scheduler.queue_wait_virt_s_p50": pctile(wait, 0.50),
        "serve.scheduler.queue_wait_virt_s_p95": pctile(wait, 0.95),
        "serve.scheduler.service_virt_s_p50": pctile(service, 0.50),
        "serve.loadindex.ops_per_decision": _ratio(stat("decision_ops"),
                                                   stat("decisions")),
        "serve.loadindex.pick_host_s": span("host_s",
                                            "serve.loadindex.pick"),
        "serve.loadindex.gossip_rounds": stat("gossip_rounds"),
        "serve.wfq.ops": span("calls", *wfq),
        # self time: a put that wakes a waiting node runs that node's
        # next quantum inside the call
        "serve.wfq.host_s": span("self_s", *wfq),
        "serve.loadgen.schedule_host_s": span("host_s",
                                              "serve.loadgen.schedule"),
    })

    # runtime (the real backend's control plane, parent side)
    real = [r["layer"]["real"] for r in block0 if "real" in r["layer"]]
    for key in ("migrations", "steals", "image_bytes", "token_bytes",
                "control_bytes"):
        L["runtime.real." + key] = sum(s[key] for s in real)
    L["runtime.real.host_us_per_request"] = _ratio(
        sum(r["wall_s"] for r in block0),
        sum(r["ok"] for r in block0), 1e6) if real else 0.0
    L.update({
        "runtime.wire.real_bytes": 0, "runtime.wire.modeled_bytes": 0,
        "runtime.wire.encode_mb_per_s": _ratio(
            counts.get("runtime.wire.encode_bytes", 0),
            span("host_s", "runtime.wire.encode"), 1e-6),
        "runtime.wire.decode_mb_per_s": _ratio(
            counts.get("runtime.wire.decode_bytes", 0),
            span("host_s", "runtime.wire.decode"), 1e-6),
    })
    L.update(wire_codec(tracer.captures))

    # a metric fed by a patch target that no longer exists is unknown
    for target in tracer.missing:
        for key in MISSING_TARGET_METRICS.get(target, ()):
            L[key] = None
    return L


def host_layer(untraced: List[dict], traced: List[dict]
               ) -> Dict[str, Optional[float]]:
    """Layer metrics that are medians over *all* repetitions of a run:
    the VM tiers' speed (vm_solo times them itself) and what tracing
    costs."""
    tiers = [r["layer"]["tiers"] for r in untraced if "tiers" in r["layer"]]
    L: Dict[str, Optional[float]] = {
        metric: median(t[tier][0] / t[tier][1] / 1e6 for t in tiers)
        if tiers else None
        for metric, tier in (("vm.tier2_cold_mips", "cold"),
                             ("vm.tier2_warm_mips", "warm"),
                             ("vm.tier1_mips", "tier1"))}
    # same streams, traced and not, both at the reference speed
    base = sum(r["ref_s"] for r in untraced[:len(traced)])
    L["trace.overhead_pct"] = _ratio(
        sum(r["ref_s"] for r in traced) - base, base, 100.0)
    return L


#: patch target -> the metrics that cannot be measured without it
MISSING_TARGET_METRICS = {
    "repro.lang.compiler:compile_source": ("lang.compile_host_s",),
    "repro.preprocess.pipeline:preprocess_program":
        ("preprocess.pipeline_host_s",),
    "repro.bytecode.verifier:verify_class":
        ("bytecode.verify_host_s", "bytecode.verify_calls"),
    "repro.preprocess.fuse:decode_and_fuse": ("preprocess.fused_sites",),
    "repro.vm.machine:Machine.run": (
        "vm.run_calls", "vm.instrs", "vm.fast_host_s", "vm.fast_instrs",
        "vm.fast_mips", "vm.hooked_host_s", "vm.hooked_instrs",
        "vm.hooked_mips", "vm.hooked_instr_share", "vm.jit_compiles",
        "vm.jit_deopts", "vm.jit_guard_bails", "vm.virt_cpu_s"),
    "repro.vm.machine:Machine.spawn": (
        "vm.spawn_host_s", "vm.spawn_calls", "vm.namespaces_isolated"),
    "repro.vm.machine:Machine.precompile": ("vm.jit_precompile_host_s",),
    "repro.vm.jit:compile_into": ("vm.jit_compile_host_s",),
    "repro.migration.capture:capture_segment": (
        "migration.capture.host_s", "runtime.wire.real_bytes",
        "runtime.wire.modeled_bytes"),
    "repro.migration.restore:RestoreDriver.restore":
        ("migration.restore.host_s",),
    "repro.migration.sodee:SODEngine.complete_segment": (
        "migration.sodee.writeback_virt_s",
        "migration.sodee.writeback_host_s"),
    "repro.migration.object_manager:WorkerObjectManager.fetch": (
        "migration.object_manager.faults",
        "migration.object_manager.fetched_bytes",
        "migration.object_manager.fetch_virt_s",
        "migration.object_manager.reval_hit_ratio"),
    "repro.cluster.network:Network.transfer_time": (
        "cluster.network.bytes_moved", "cluster.network.transfers"),
    "repro.cluster.network:Network.record_saved":
        ("cluster.network.bytes_saved",),
    "repro.sim.kernel:Environment.run": (
        "sim.kernel.run_self_host_s", "sim.kernel.host_us_per_event"),
    "repro.sim.kernel:Event.succeed": ("sim.kernel.resumed_self_host_s",),
    "repro.serve.scheduler:ClusterScheduler.pick_underloaded":
        ("serve.loadindex.pick_host_s",),
    "repro.serve.loadgen:LoadGenerator.schedule":
        ("serve.loadgen.schedule_host_s",),
}
for _t in ("migrate", "migrate_many", "rehop_segment"):
    MISSING_TARGET_METRICS["repro.migration.sodee:SODEngine." + _t] = (
        "migration.sodee.migrations", "migration.sodee.rehops",
        "migration.sodee.aborts", "migration.sodee.success_ratio",
        "migration.sodee.host_s", "migration.capture.virt_s",
        "migration.state.modeled_bytes", "migration.sodee.class_bytes",
        "migration.sodee.transfer_virt_s", "migration.restore.virt_s",
        "migration.sodee.saved_bytes", "migration.sodee.cached_class_ratio")
for _t in ("timeout", "event", "process"):
    MISSING_TARGET_METRICS["repro.sim.kernel:Environment." + _t] = (
        "sim.kernel.events", "sim.kernel.host_us_per_event")
for _t in ("put", "get", "remove"):
    MISSING_TARGET_METRICS["repro.serve.wfq:FairStore." + _t] = (
        "serve.wfq.ops", "serve.wfq.host_s")
