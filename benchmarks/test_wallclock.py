"""Bench: the real-parallel backend turns modeled speedup into hardware.

Serves the paper mix through the multiprocess wall-clock backend at 1
and 4 worker processes (best of ``ATTEMPTS`` timing runs per point —
load on a shared box only ever slows a run down) and cross-checks
*every* attempt request-by-request against the same-seed virtual-time
oracle.  Correctness assertions are unconditional; the **speedup
assertion is core-gated**: wall-clock scaling needs hardware
parallelism, so the ``MIN_SPEEDUP`` floor at 4 procs applies only when
the box exposes >= 4 usable cores (``os.sched_getaffinity``-aware — a
smaller box still runs the cross-checks, and instead asserts the
dispatch overhead stays within ``MAX_OVERHEAD``).
"""

from __future__ import annotations

import os

SEED = 7
MIX = "paper"
N_REQUESTS = 16
PROCS_HI = 4
#: wall-clock floor at 4 procs vs 1, asserted only with >= 4 usable cores
MIN_SPEEDUP = 2.0
#: without cores to scale on, 4-proc dispatch overhead must still stay
#: within this factor of the 1-proc run
MAX_OVERHEAD = 3.0
DEADLINE = float(os.environ.get("REPRO_REAL_DEADLINE_S", "420"))
#: timing attempts per procs point — the fastest run wins (a loaded box
#: can only slow a run down, so min-of-N is the honest estimate of the
#: backend's own cost)
ATTEMPTS = 2


def test_wallclock_backend():
    from repro.runtime.crosscheck import (crosscheck_real_vs_virtual,
                                          virtual_request_rows)
    from repro.runtime.real import available_cores, serve_real

    oracle = virtual_request_rows(mix=MIX, n_requests=N_REQUESTS,
                                  seed=SEED)
    seconds = {}
    for procs in (1, PROCS_HI):
        for _ in range(ATTEMPTS):
            rep = serve_real(mix=MIX, n_requests=N_REQUESTS, seed=SEED,
                             procs=procs, deadline_s=DEADLINE)
            # every attempt must agree with the oracle, not just the
            # fastest one — timing may vary, results may not
            assert rep["served"] == rep["correct"] == N_REQUESTS
            check = crosscheck_real_vs_virtual(rep, virtual_rows=oracle)
            assert check["ok"] and check["compared"] == N_REQUESTS
            seconds[procs] = min(seconds.get(procs, rep["wall"]["seconds"]),
                                 rep["wall"]["seconds"])
    solo_s, multi_s = seconds[1], seconds[PROCS_HI]
    cores = available_cores()
    if cores >= PROCS_HI:
        # Real hardware parallelism: the modeled speedup must be real.
        assert solo_s >= MIN_SPEEDUP * multi_s, (
            f"{PROCS_HI}-proc wall speedup {solo_s / multi_s:.2f}x below "
            f"the {MIN_SPEEDUP}x floor on a {cores}-core box")
    else:
        # Timesliced cores cannot scale; the control plane must at
        # least not drown the run in dispatch overhead.
        assert multi_s <= solo_s * MAX_OVERHEAD, (
            f"{PROCS_HI}-proc run {multi_s:.2f}s vs 1-proc {solo_s:.2f}s: "
            f"dispatch overhead above {MAX_OVERHEAD}x on a {cores}-core box")


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
