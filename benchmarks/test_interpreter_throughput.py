"""Bench: raw interpreter throughput (instructions/second) across every
registry workload — legacy dispatch vs tier-1 fast dispatch vs the
tier-2 specializing JIT.

Methodology: each workload is measured in its own pristine subprocess so
results are independent of suite ordering and of CPython's warm-state
drift (the legacy loop speeds up substantially once the host interpreter
is warm, which would make in-process ratios depend on when the bench
runs).  Within a child the tier-2 run is timed *first* (fully cold —
the timed interval includes tier-up compilation), tier-1 fast second,
and the legacy loop last — any residual warm-state benefit goes to the
baselines, keeping the reported speedups conservative.  A second call
on the tier-2 machine gives the warm-vs-cold split (closures already
compiled, caches hot).  Three attempts per workload; the fastest run
per mode wins.

The programs run on their ``faulting`` build: the flattened,
handler-injected code every serving and migration path executes, and
the one tier 1's superinstruction set and arm order are sized by.

Emits ``BENCH_interpreter.json`` at the repo root so the performance
trajectory of the VM hot path is tracked.  Two asserted floors: geomean
fast-vs-legacy >= 4.5x (6.10 measured when it was set) and geomean
tier2-vs-tier1 >= 1.9x — 2.16 measured (2.20-2.38 on five more
runs), with the relative margin that floor has always had (1.65
asserted of 1.88 measured before tier 2 compiled flattened groups as
groups; 2.0 of 2.27 before that).

JSON layout convention: host-dependent wall-clock measurements
(ips rates, speedup ratios) live under ``"wall"`` subkeys — per
workload and at top level — while everything outside ``"wall"`` is
deterministic (instruction counts, compile counts, fused sites) and
must be byte-stable across regenerations on any host.  Diffs touching
only ``"wall"`` blocks are timing noise; anything else is a real
behavior change.

Run directly (``python benchmarks/test_interpreter_throughput.py``) to
print the JSON report to stdout; ``--one <workload>`` runs a single
child measurement.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_interpreter.json"

#: fresh-subprocess attempts per workload; the fastest run per mode wins
ATTEMPTS = 3

#: per-workload keys aggregated by max across attempts
_IPS_KEYS = ("before_ips", "after_ips", "tier2_ips", "tier2_warm_ips")


def _timed_run(classes, main, args, **kw):
    from repro.vm.machine import Machine
    m = Machine(classes, **kw)
    t0 = time.perf_counter()
    m.call(main[0], main[1], list(args))
    return time.perf_counter() - t0, m


def measure_one(name: str) -> dict:
    """Measure one workload in this (expected: fresh) process."""
    from repro.preprocess.fuse import fused_coverage
    from repro.workloads import registry

    w = registry.WORKLOADS[name]
    classes = registry.compiled(name, "faulting")
    # tier-2 first, fully cold: the timed interval pays decoding AND
    # tier-up compilation, so the reported ips is end-to-end honest
    t2_dt, tm = _timed_run(classes, w.main, w.sim_args, jit=True)
    t2_instrs = tm.instr_count
    # warm split: same machine, closures compiled, caches hot
    t0 = time.perf_counter()
    tm.call(w.main[0], w.main[1], list(w.sim_args))
    t2_warm_dt = time.perf_counter() - t0
    t2_warm_instrs = tm.instr_count - t2_instrs
    fast_dt, fm = _timed_run(classes, w.main, w.sim_args, jit=False)
    legacy_dt, lm = _timed_run(classes, w.main, w.sim_args,
                               dispatch="legacy")
    assert fm.instr_count == lm.instr_count == t2_instrs  # same work
    cov: dict = {}
    for cls in fm.loader.loaded_classes().values():
        for code in cls.cf.methods.values():
            for k, v in fused_coverage(fm.decoded(code)).items():
                cov[k] = cov.get(k, 0) + v
    return {
        "instr_count": fm.instr_count,
        "before_ips": fm.instr_count / legacy_dt,
        "after_ips": fm.instr_count / fast_dt,
        "tier2_ips": t2_instrs / t2_dt,
        "tier2_warm_ips": t2_warm_instrs / t2_warm_dt,
        "jit_compiles": tm.jit_compiles,
        "jit_guard_bails": tm.jit_guard_bails,
        "fused_sites": sum(cov.values()),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_throughput() -> dict:
    """Spawn one fresh subprocess per (workload, attempt) and aggregate."""
    from repro.workloads import registry

    report = {
        "bench": "interpreter_throughput",
        "unit": "guest instructions per second (host wall clock)",
        "dispatch": {
            "before": "legacy string-keyed if/elif chain",
            "after": "pre-decoded + fused + inline-cached",
            "tier2": "specializing JIT: guard-checked Python closures",
        },
        "methodology": (f"best of {ATTEMPTS} fresh-subprocess runs per "
                        "workload; tier-2 timed fully cold (compilation "
                        "inside the timed interval), tier-1 second, "
                        "legacy last; tier2_warm is a re-run on the "
                        "already-compiled machine"),
        "workloads": {},
    }
    speedups = []
    t2_speedups = []
    env = _child_env()
    for name in sorted(registry.WORKLOADS):
        best: dict = {}
        for _ in range(ATTEMPTS):
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--one", name],
                env=env, cwd=REPO_ROOT, capture_output=True, text=True,
                check=True)
            row = json.loads(out.stdout)
            if not best:
                best = row
            else:
                for k in _IPS_KEYS:
                    best[k] = max(best[k], row[k])
        speedup = best["after_ips"] / best["before_ips"]
        t2_speedup = best["tier2_ips"] / best["after_ips"]
        speedups.append(speedup)
        t2_speedups.append(t2_speedup)
        report["workloads"][name] = {
            # deterministic: identical on every host, every run
            "instr_count": best["instr_count"],
            "jit_compiles": best["jit_compiles"],
            "jit_guard_bails": best["jit_guard_bails"],
            "fused_sites": best["fused_sites"],
            # host-dependent wall-clock noise, quarantined
            "wall": {
                "before_ips": round(best["before_ips"]),
                "after_ips": round(best["after_ips"]),
                "tier2_ips": round(best["tier2_ips"]),
                "tier2_warm_ips": round(best["tier2_warm_ips"]),
                "speedup": round(speedup, 2),
                "tier2_speedup": round(t2_speedup, 2),
            },
        }

    def geomean(xs):
        return round(math.exp(sum(map(math.log, xs)) / len(xs)), 2)

    report["wall"] = {
        "geomean_speedup": geomean(speedups),
        "geomean_tier2_speedup": geomean(t2_speedups),
    }
    return report


def test_interpreter_throughput_vs_legacy(benchmark, write_bench_json):
    from conftest import once

    report = once(benchmark, run_throughput)
    write_bench_json(BENCH_JSON.name, report)
    print(f"\ninterpreter throughput ({report['unit']}):")
    for name, row in report["workloads"].items():
        w = row["wall"]
        print(f"  {name:4s} before={w['before_ips'] / 1e6:6.2f}M/s "
              f"after={w['after_ips'] / 1e6:6.2f}M/s "
              f"tier2={w['tier2_ips'] / 1e6:6.2f}M/s "
              f"(warm {w['tier2_warm_ips'] / 1e6:6.2f}M/s) "
              f"x{w['speedup']:.2f}/x{w['tier2_speedup']:.2f} "
              f"compiles={row['jit_compiles']} "
              f"bails={row['jit_guard_bails']}")
    print(f"  geomean: fast/legacy {report['wall']['geomean_speedup']:.2f}x, "
          f"tier2/fast {report['wall']['geomean_tier2_speedup']:.2f}x "
          f"-> {BENCH_JSON.name}")
    # acceptance floors: >= 4.5x tier 1 over legacy, >= 1.9x tier 2
    # on top — on a quiet machine; shared CI runners override via the
    # env vars so a noisy-neighbour timing dip cannot fail unrelated PRs
    floor = float(os.environ.get("BENCH_MIN_SPEEDUP", "4.5"))
    assert report["wall"]["geomean_speedup"] >= floor
    # and every workload individually benefits substantially
    assert all(r["wall"]["speedup"] >= floor * 2 / 3
               for r in report["workloads"].values())
    t2_floor = float(os.environ.get("BENCH_MIN_T2_SPEEDUP", "1.9"))
    assert report["wall"]["geomean_tier2_speedup"] >= t2_floor
    assert all(r["wall"]["tier2_speedup"] >= 1.0
               for r in report["workloads"].values())


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "--one":
        print(json.dumps(measure_one(sys.argv[2])))
    else:
        print(json.dumps(run_throughput(), indent=2))
