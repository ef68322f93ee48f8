"""Bench: the real-parallel backend turns modeled speedup into hardware.

Serves the paper mix through the multiprocess wall-clock backend at 1
and 4 worker processes (best of ``ATTEMPTS`` timing runs per point —
load on a shared box only ever slows a run down) and cross-checks
*every* attempt request-by-request against the same-seed virtual-time
oracle.  Correctness assertions are
unconditional; the **speedup assertion is core-gated**: wall-clock
scaling needs hardware parallelism, so the ≥``MIN_SPEEDUP``x floor at
4 procs applies only when the box exposes ≥4 usable cores
(``os.sched_getaffinity``-aware — a 1-core CI container still runs the
full bench and the cross-checks, and instead asserts the dispatch
overhead stays bounded).

Emits ``BENCH_wallclock.json`` at the repo root.  Following the bench
JSON convention, everything under ``"wall"`` keys is host-dependent
wall-clock noise; everything else is deterministic.
``BENCH_SMOKE=1`` trims the stream for CI.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from conftest import SMOKE

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_wallclock.json"

SEED = 7
MIX = "paper"
PROCS_HI = 4
#: wall-clock floor at 4 procs vs 1 — asserted only with >= 4 usable
#: cores (override: REPRO_MIN_WALL_SPEEDUP)
MIN_SPEEDUP = float(os.environ.get("REPRO_MIN_WALL_SPEEDUP", "2.0"))
#: without cores to scale on, 4-proc dispatch overhead must still stay
#: within this factor of the 1-proc run (override: REPRO_MAX_WALL_OVERHEAD)
MAX_OVERHEAD = float(os.environ.get("REPRO_MAX_WALL_OVERHEAD", "3.0"))
DEADLINE = float(os.environ.get("REPRO_REAL_DEADLINE_S", "420"))
#: timing attempts per procs point — the fastest run wins (the
#: interpreter-bench idiom: a loaded box can only slow a run down, so
#: min-of-N is the honest estimate of the backend's own cost)
ATTEMPTS = 2


def _n_requests() -> int:
    if SMOKE:
        return 8
    return 16


def _cores() -> int:
    from repro.runtime.real import available_cores
    return available_cores()


def run_sweep() -> dict:
    from repro.runtime.crosscheck import (crosscheck_real_vs_virtual,
                                          virtual_request_rows)
    from repro.runtime.real import serve_real

    n_requests = _n_requests()
    oracle = virtual_request_rows(mix=MIX, n_requests=n_requests,
                                  seed=SEED)
    runs = {}
    checks = {}
    for procs in (1, PROCS_HI):
        best = None
        for _ in range(ATTEMPTS):
            rep = serve_real(mix=MIX, n_requests=n_requests, seed=SEED,
                             procs=procs, deadline_s=DEADLINE)
            # every attempt must agree with the oracle, not just the
            # fastest one — timing may vary, results may not
            checks[procs] = crosscheck_real_vs_virtual(
                rep, virtual_rows=oracle)
            if best is None or rep["wall"]["seconds"] \
                    < best["wall"]["seconds"]:
                best = rep
        runs[procs] = best
    solo, multi = runs[1], runs[PROCS_HI]
    return {
        "bench": "wallclock",
        "unit": "wall-clock requests/second",
        "smoke": SMOKE,
        "mix": MIX, "seed": SEED, "n_requests": n_requests,
        "procs": [1, PROCS_HI], "attempts": ATTEMPTS,
        # deterministic fields: results and oracle agreement
        "served": {p: runs[p]["served"] for p in runs},
        "correct": {p: runs[p]["correct"] for p in runs},
        "crosscheck": {p: checks[p] for p in checks},
        "sched": {p: runs[p]["sched"] for p in runs},
        # host-dependent wall-clock noise, quarantined per convention
        "wall": {
            "cores": _cores(),
            "solo_s": solo["wall"]["seconds"],
            "multi_s": multi["wall"]["seconds"],
            "solo_rps": solo["wall"]["throughput_rps"],
            "multi_rps": multi["wall"]["throughput_rps"],
            "speedup_x": round(solo["wall"]["seconds"]
                               / multi["wall"]["seconds"], 3)
            if multi["wall"]["seconds"] else 0.0,
        },
    }


def test_wallclock_backend(benchmark, write_bench_json):
    from conftest import once

    report = once(benchmark, run_sweep)
    write_bench_json(BENCH_JSON.name, report)
    w = report["wall"]
    n = report["n_requests"]
    print(f"\nwall-clock backend ({report['unit']}, "
          f"{w['cores']} usable cores):")
    print(f"  1 proc:  {w['solo_rps']:.1f} rps ({w['solo_s']:.2f}s)   "
          f"{PROCS_HI} procs: {w['multi_rps']:.1f} rps "
          f"({w['multi_s']:.2f}s)  -> {w['speedup_x']}x")
    for p in (1, PROCS_HI):
        c = report["crosscheck"][p]
        print(f"  crosscheck @{p} procs: {c['compared']} requests "
              f"matched the virtual oracle")
    print(f"  -> {BENCH_JSON.name}")

    # Unconditional: everything served, everything oracle-identical.
    for p in (1, PROCS_HI):
        assert report["served"][p] == report["correct"][p] == n
        assert report["crosscheck"][p]["ok"]
        assert report["crosscheck"][p]["compared"] == n
    if w["cores"] >= PROCS_HI:
        # Real hardware parallelism: the modeled speedup must be real.
        assert w["speedup_x"] >= MIN_SPEEDUP, (
            f"{PROCS_HI}-proc wall speedup {w['speedup_x']}x below the "
            f"{MIN_SPEEDUP}x floor on a {w['cores']}-core box")
    else:
        # Timesliced cores cannot scale; the control plane must at
        # least not drown the run in dispatch overhead.
        assert w["multi_s"] <= w["solo_s"] * MAX_OVERHEAD, (
            f"{PROCS_HI}-proc run {w['multi_s']:.2f}s vs 1-proc "
            f"{w['solo_s']:.2f}s: dispatch overhead above "
            f"{MAX_OVERHEAD}x on a {w['cores']}-core box")


def test_wallclock_results_are_deterministic_across_backends():
    """The *results* of a wall-clock run are a pure function of the
    seed even though its timings are not: two real runs at different
    parallelism serve byte-identical request streams with identical
    outcomes."""
    from repro.runtime.real import serve_real

    a = serve_real(mix=MIX, n_requests=6, seed=SEED, procs=1,
                   deadline_s=DEADLINE)
    b = serve_real(mix=MIX, n_requests=6, seed=SEED, procs=2,
                   deadline_s=DEADLINE)
    strip = ["worker", "instrs", "migrated", "retries"]
    rows_a = [{k: v for k, v in r.items() if k not in strip}
              for r in a["requests"]]
    rows_b = [{k: v for k, v in r.items() if k not in strip}
              for r in b["requests"]]
    assert rows_a == rows_b


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    print(json.dumps(run_sweep(), indent=2))
