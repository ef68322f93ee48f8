"""The six benchmark workloads.

Each workload generates its inputs from a seed, runs one *repetition*
of fixed work through the program's public front doors, and checks
every output against an oracle that shares no code path with what is
being measured (the legacy-dispatch solo run).

A repetition returns a dict::

    {"wall_s":    host seconds of the timed call(s),
     "instrs":    guest instructions executed (host-throughput numerator),
     "attempted": operations sent, "ok": operations served *and* correct,
     "exact":     values that must repeat bit-for-bit for the same stream
                  (virtual seconds, bytes, counts, results),
     "samples":   per-operation virtual samples, pooled across streams,
     "layer":     public per-layer counters read off returned reports}

The request-serving workloads serve ``streams`` distinct request
streams per *block* (stream ``i`` is seeded ``seed * 1000 + i``): the
virtual metrics pool block 0, so percentiles rest on ``streams x N``
samples while each timed repetition stays short enough to repeat many
times in one run (see ``run.measure`` for the block protocol).

Sizes are frozen here (``SIZES``): the benchmark's time budget
(BENCHMARK.json ``run_seconds``) buys about two blocks of each workload
on a 2-core host.
"""

from __future__ import annotations

import random
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

#: virtual-latency limit for ``virt_slo_miss_pct`` (serve_paper)
SLO_LIMIT_S = 0.5

#: requests per repetition and streams per block of the request-serving
#: workloads (the other two run a fixed experiment, one stream); the
#: ``smoke`` preset only proves the plumbing (tier-1, < 15 s in total)
SIZES = {
    "full": {"serve_paper": (60, 4), "serve_offload": (20, 5),
             "serve_scale": (1000, 4), "real_paper": (100, 3)},
    "smoke": {"serve_paper": (10, 1), "serve_offload": (6, 1),
              "serve_scale": (60, 1), "real_paper": (8, 1)},
}

def stream_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


# -- stratified request streams ---------------------------------------------


def _apportion(n: int, weights: List[float]) -> List[int]:
    """``n`` split in proportion to ``weights`` (largest remainder)."""
    total = sum(weights)
    share = [n * w / total for w in weights]
    counts = [int(x) for x in share]
    by_remainder = sorted(range(len(share)),
                          key=lambda i: (counts[i] - share[i], i))
    for i in by_remainder[:n - sum(counts)]:
        counts[i] += 1
    return counts


def stratify_mix(name: str, streams: int) -> Any:
    """Replace ``MIXES[name]`` with a same-named mix whose ``draw`` is
    *stratified* and return it.  The traffic is still the named mix, in
    exactly its proportions; the seed decides the order (and, through
    the load generator's own Poisson draw, the arrival times).

    Two sources of seed-to-seed swing in *host* cost go away, which an
    i.i.d. draw would leave at 10-40% — wider than any bound worth
    having:

    * total guest work: every stream holds the same multiset of
      requests;
    * which request heads the stream: on a burst, a deep-recursion head
      (Fib, NQ) sends the front door into repeated SOD offload and a
      flat one (QS, Primes) does not, and host cost differs 2x between
      the two regimes.  Stream ``k`` of every block of ``streams``
      gets its head by the same apportionment, so each block holds both
      regimes in the mix's own proportion (set ``mix.stream = k``
      before drawing)."""
    from repro.workloads.mixes import MIXES, RequestMix

    class StratifiedMix(RequestMix):
        stream = 0

        def draw(self, n: int, seed: Any = 0) -> list:
            weights = [w for _s, w in self.choices]
            specs = [s for (s, _w), c in zip(self.choices,
                                             _apportion(n, weights))
                     for _ in range(c)]
            heads = [s for (s, _w), c in zip(self.choices,
                                             _apportion(streams, weights))
                     for _ in range(c)]
            head = heads[self.stream % streams]
            specs.remove(head)
            random.Random(f"mix:{self.name}:{seed}").shuffle(specs)
            return [head] + specs

    base = MIXES[name]
    MIXES[name] = mix = StratifiedMix(base.name, base.choices,
                                      base.description)
    return mix


# -- helpers -------------------------------------------------------------------


def pctile(sorted_vals: List[float], p: float) -> float:
    """Nearest-rank percentile as ``ServeReport`` computes it."""
    if not sorted_vals:
        return 0.0
    return sorted_vals[int(p * (len(sorted_vals) - 1))]


def _same(a: Any, b: Any) -> bool:
    """Equal, up to float rounding (tier-2 may associate sums
    differently)."""
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= 1e-6 * max(1.0, abs(b))
    return a == b


def _timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    t0 = perf_counter()
    out = fn()
    return perf_counter() - t0, out


# -- request serving: three virtual scenarios and the real backend ---------------


class _Serving:
    """Shared set-up of the request-serving workloads: classpath,
    oracle results, the stratified stream, and one small untimed
    repetition so decode caches and lazy imports are filled."""

    mix: str

    def __init__(self, n: int, streams: int):
        self.n = n
        self.streams = streams

    def setup(self) -> None:
        from repro.workloads.mixes import (MIXES, expected_request_result,
                                           serve_classpath)
        serve_classpath(MIXES[self.mix].programs())
        for spec, _w in MIXES[self.mix].choices:
            expected_request_result(spec)
        self.stratified = stratify_mix(self.mix, self.streams)
        n, self.n = self.n, min(self.n, 8)
        try:
            self.rep(0, 0)
        finally:
            self.n = n

    def rep(self, seed: int, k: int) -> Dict[str, Any]:
        self.stratified.stream = k
        return self.serve(seed)

    def serve(self, seed: int) -> Dict[str, Any]:
        raise NotImplementedError


class Serve(_Serving):
    """One virtual-backend serving scenario, through ``build_serving``
    (+ ``ClusterScheduler.serve``; ``serve_mix`` is exactly that pair,
    but hides the per-request rows the latency samples come from)."""

    def __init__(self, name: str, n: int, streams: int):
        super().__init__(n, streams)
        self.name = name
        self.mix = self._config()["mix"]

    def _config(self) -> Dict[str, Any]:
        from repro.serve import QueueDepthPolicy, parse_tenants
        if self.name == "serve_paper":
            return dict(mix="paper", n_nodes=4, arrival_rate=60.0)
        if self.name == "serve_offload":
            return dict(mix="offload", n_nodes=4, placement="front-door",
                        offload=QueueDepthPolicy(max_seg_hops=2))
        return dict(mix="scale", n_nodes=32, arrival_rate=1000.0,
                    tenants=parse_tenants(
                        "gold:w=3,silver:w=2,free:w=1:r=2"))

    def serve(self, seed: int) -> Dict[str, Any]:
        from repro.serve import build_serving
        from repro.workloads.mixes import expected_request_result

        def run():
            sched, load = build_serving(n_requests=self.n, seed=seed,
                                        **self._config())
            return sched, sched.serve(load)

        wall, (sched, report) = _timed(run)
        reqs = sched.requests
        ok = [r for r in reqs if r.state == "done"
              and r.result == expected_request_result(r.spec)]
        lat = [r.finished_at - r.arrival for r in ok]
        instrs = sum(r.instrs for r in reqs)
        stats = dict(report.stats)
        wire = sched.network.total_bytes()
        return {
            "wall_s": wall, "instrs": instrs,
            "attempted": self.n, "ok": len(ok),
            "exact": {"makespan": report.makespan, "lat_sum": sum(lat),
                      "wire_bytes": wire, "instrs": instrs, "stats": stats},
            "samples": {
                "latency": lat,
                "queue_wait": [r.started_at - r.arrival for r in ok],
                "service": [r.finished_at - r.started_at for r in ok],
                "makespan": [report.makespan],
                # a request that failed or was lost misses the limit too
                "slo_miss": [self.n - sum(1 for x in lat
                                          if x <= SLO_LIMIT_S)],
                "wire_bytes": [wire], "wire_ops": [len(ok)],
            },
            "layer": {"stats": stats},
        }


class RealPaper(_Serving):
    """The paper stream as a burst through ``serve_real`` (forked worker
    processes; ``procs = min(2, cores)`` so load generation, control
    plane and workers fit the host)."""

    name = "real_paper"
    mix = "paper"

    def __init__(self, n: int, streams: int):
        from repro.runtime.real import available_cores
        super().__init__(n, streams)
        self.procs = min(2, available_cores())

    def serve(self, seed: int) -> Dict[str, Any]:
        from repro.runtime.real import serve_real
        from repro.workloads.mixes import (RequestSpec,
                                           expected_request_result)
        wall, report = _timed(lambda: serve_real(
            mix=self.mix, n_requests=self.n, seed=seed, procs=self.procs))
        rows = report["requests"]
        ok = [r for r in rows if r["state"] == "done"
              and r["result"] == expected_request_result(
                  RequestSpec(r["program"], tuple(r["args"])))]
        return {
            "wall_s": wall,
            "instrs": sum(r["instrs"] for r in rows),
            "attempted": self.n, "ok": len(ok),
            # placement, steals and timing are wall-clock facts; only
            # the results are a function of the stream
            "exact": {"results": [(r["rid"], r["program"], r["result"])
                                  for r in rows]},
            "samples": {},
            "layer": {"real": dict(report["sched"])},
        }


# -- the paper's single-shot migration experiment ----------------------------------

#: paper Table IV migration-latency totals (ms): the external reference
PAPER_TABLE4_TOTAL_MS = {
    ("SODEE", "Fib"): 14.66, ("G-JavaMPI", "Fib"): 132.15,
    ("JESSICA2", "Fib"): 11.37,
    ("SODEE", "NQ"): 12.42, ("G-JavaMPI", "NQ"): 91.44,
    ("JESSICA2", "NQ"): 9.06,
    ("SODEE", "FFT"): 12.33, ("G-JavaMPI", "FFT"): 2470.15,
    ("JESSICA2", "FFT"): 74.08,
    ("SODEE", "TSP"): 15.23, ("G-JavaMPI", "TSP"): 95.98,
    ("JESSICA2", "TSP"): 9.90,
}


class PaperMigration:
    """Fib/NQ/FFT/TSP x {SODEE, G-JavaMPI, JESSICA2} x {mig, no-mig}
    through the ``experiments.common`` runners.  The experiment has no
    random input; the seed only orders the runs."""

    name = "paper_migration"
    SYSTEMS = ("SODEE", "G-JavaMPI", "JESSICA2")

    def __init__(self, smoke: bool):
        self.programs = ("Fib", "NQ") if smoke else ("Fib", "NQ", "FFT",
                                                     "TSP")

    def setup(self) -> None:
        from repro.experiments import common
        from repro.workloads import baseline_run, compiled, expected_result
        for name in self.programs:
            for build in ("original", "faulting"):
                compiled(name, build)
            expected_result(name)
            baseline_run(name)
            for system in self.SYSTEMS:
                common.anchor(system, name)

    def rep(self, seed: int, k: int) -> Dict[str, Any]:
        from repro.experiments import common
        from repro.workloads import baseline_run, expected_result
        runs = [(s, p, mig) for s in self.SYSTEMS for p in self.programs
                for mig in (False, True)]
        random.Random(f"paper_migration:{seed}").shuffle(runs)
        common.clear_cache()
        out: Dict[Tuple[str, str, bool], Any] = {}
        ok = 0
        t0 = perf_counter()
        for key in runs:
            try:
                o = common.outcome(*key)
            except Exception as e:  # a wrong answer raises inside outcome
                print(f"[bench] paper_migration {key}: {e!r}",
                      file=sys.stderr)
                continue
            out[key] = o
            ok += _same(o.result, expected_result(key[1]))
        wall = perf_counter() - t0
        sodee = [(out.get(("SODEE", p, True)), out.get(("SODEE", p, False)))
                 for p in self.programs]
        sodee = [(m, n) for m, n in sodee if m is not None and n is not None]
        errs = [abs(o.record.latency * 1e3 - PAPER_TABLE4_TOTAL_MS[s, p])
                / PAPER_TABLE4_TOTAL_MS[s, p]
                for (s, p, mig), o in sorted(out.items()) if mig]
        return {
            "wall_s": wall,
            # nominal guest work: the original-build instruction count of
            # each program run (the runners do not expose their machines)
            "instrs": sum(baseline_run(p)[1] for _s, p, _m in out),
            "attempted": len(runs), "ok": ok,
            "exact": {f"{s}/{p}/{int(m)}": (
                o.exec_seconds, o.faults,
                o.record.latency if o.record is not None else None)
                for (s, p, m), o in sorted(out.items())},
            "samples": {
                "mig_latency_ms": [m.record.latency * 1e3 for m, _n in sodee],
                "mig_overhead_ms": [(m.exec_seconds - n.exec_seconds) * 1e3
                                    for m, n in sodee],
                "paper_err": errs,
                "wire_bytes": [m.record.state_bytes + m.record.class_bytes
                               for m, _n in sodee],
                "wire_ops": [len(sodee)],
            },
            "layer": {},
        }


# -- the VM alone -----------------------------------------------------------------------


class VmSolo:
    """Registry programs on a bare ``Machine`` (faulting build, as the
    serving layer runs them): cold tier-2, warm tier-2 (same machine
    again), tier-1 (``jit=False``).  Each repetition compiles the
    programs afresh (untimed) so "cold" means cold: hotness counters and
    decode caches live on the code objects.  The oracle is a
    legacy-dispatch run made during set-up, which also yields
    ``vm.legacy_mips``.  Argument sizes are the registry's: the legacy
    oracle runs at ~2 M instr/s, so larger arguments would not fit the
    benchmark's set-up budget."""

    name = "vm_solo"
    SMOKE_ARGS = {"Fib": [15], "NQ": [5]}

    def __init__(self, smoke: bool):
        from repro.workloads import WORKLOADS as REGISTRY
        self.progs = {
            name: (w.source, w.main,
                   self.SMOKE_ARGS[name] if smoke else list(w.sim_args))
            for name, w in REGISTRY.items()
            if not smoke or name in self.SMOKE_ARGS}
        self.oracle: Dict[str, Any] = {}
        self.legacy = (0, 0.0)  # (instructions, host seconds)

    @staticmethod
    def _build(source: str) -> Dict[str, Any]:
        from repro.lang import compile_source
        from repro.preprocess import preprocess_program
        return preprocess_program(compile_source(source), "faulting")

    def setup(self) -> None:
        from repro.vm.machine import Machine
        instrs, secs = 0, 0.0
        for name, (source, main, args) in self.progs.items():
            m = Machine(self._build(source), dispatch="legacy")
            dt, self.oracle[name] = _timed(
                lambda: m.call(main[0], main[1], list(args)))
            instrs += m.instr_count
            secs += dt
        self.legacy = (instrs, secs)

    def rep(self, seed: int, k: int) -> Dict[str, Any]:
        from repro.vm.machine import Machine
        order = sorted(self.progs)
        random.Random(f"vm_solo:{seed}").shuffle(order)
        tiers = {"cold": [0, 0.0], "warm": [0, 0.0], "tier1": [0, 0.0]}
        exact: Dict[str, Any] = {}
        ok = 0
        virt = 0.0
        for name in order:
            source, main, args = self.progs[name]
            m2 = Machine(self._build(source), jit=True)
            m1 = Machine(self._build(source), jit=False)
            for tier, m in (("cold", m2), ("warm", m2), ("tier1", m1)):
                i0, c0 = m.instr_count, m.clock
                dt, result = _timed(
                    lambda: m.call(main[0], main[1], list(args)))
                tiers[tier][0] += m.instr_count - i0
                tiers[tier][1] += dt
                virt += m.clock - c0
                ok += _same(result, self.oracle[name])
                exact[f"{name}/{tier}"] = (result, m.instr_count - i0)
            exact[f"{name}/jit"] = (m2.jit_compiles, m2.jit_deopts,
                                    m2.jit_guard_bails)
        return {
            "wall_s": sum(t[1] for t in tiers.values()),
            "instrs": sum(t[0] for t in tiers.values()),
            "attempted": 3 * len(order), "ok": ok,
            "exact": exact,
            "samples": {"virt_cpu_s": [virt]},
            "layer": {"tiers": tiers, "legacy": self.legacy},
        }


def make(name: str, smoke: bool):
    """The workload object for ``name`` plus its streams per pass."""
    if name == "paper_migration":
        return PaperMigration(smoke), 1
    if name == "vm_solo":
        return VmSolo(smoke), 1
    n, streams = SIZES["smoke" if smoke else "full"][name]
    work = (RealPaper(n, streams) if name == "real_paper"
            else Serve(name, n, streams))
    return work, streams
