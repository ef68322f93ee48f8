"""Bench: scale-out serving — throughput and scheduling-decision cost
vs cluster size.

Sweeps the cluster scheduler over 1/4/16/32/64 simulated nodes serving
thousands of light requests from the ``scale`` mix and asserts:

* near-linear served-throughput scaling (virtual time is fully
  simulated and deterministic, so the floor is strict — host noise
  cannot move it, only a real scheduler/VM regression can);
* the per-decision scheduler cost — load-index entries examined (rack
  members scanned plus gossip-digest rows read) per
  ``pick_underloaded`` query — grows *sub-linearly* in cluster size:
  the 64-node cost must stay under 2x the 16-node cost (a pick scans
  one rack and the digest's first rows; the seed implementation's
  O(n) all-node scan would quadruple from 16 to 64).

Every number in the report is deterministic: ``decision_cost``
carries entry counts only (``bench/``'s ``serve.loadindex.pick_host_s``
span times the decision path in host seconds), so a regeneration on any
machine that changes the file is a real behavior change.

Emits ``BENCH_scale.json`` (see ``conftest.write_bench_json``); run
directly (``python benchmarks/test_scale_throughput.py``) to print the
JSON.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_scale.json"

NODE_COUNTS = (1, 4, 16, 32, 64)
SEED = 7
MIX = "scale"
N_REQUESTS = 2000
#: acceptance floor: served throughput at 32 nodes vs 1.  Virtual time
#: is deterministic, so no noise margin is needed.
MIN_SCALING = 12.0


def run_point(n_nodes: int, n_requests: int) -> dict:
    from repro.cluster import serve_cluster
    from repro.serve import ClusterScheduler, LoadGenerator, QueueDepthPolicy
    from repro.workloads.mixes import MIXES, serve_classpath

    mixobj = MIXES[MIX]
    cluster = serve_cluster(n_nodes)
    sched = ClusterScheduler(cluster, serve_classpath(mixobj.programs()),
                             offload=QueueDepthPolicy())
    rep = sched.serve(LoadGenerator(mixobj, n_requests, seed=SEED))
    row = rep.to_dict()
    s = row["sched"]
    decisions = max(1, s["decisions"])
    row["decision_cost"] = {
        # deterministic: index entries examined per pick_underloaded query
        "ops_per_decision": round(s["decision_ops"] / decisions, 3),
        # deterministic: total index work amortized per served request
        "ops_per_request": round(s["decision_ops"] / n_requests, 3),
    }
    return row


def run_sweep() -> dict:
    report = {
        "bench": "scale_throughput",
        "unit": "served requests per virtual second",
        "mix": MIX,
        "n_requests": N_REQUESTS,
        "seed": SEED,
        "sweep": {},
    }
    base = None
    for n in NODE_COUNTS:
        row = run_point(n, N_REQUESTS)
        if base is None:
            base = row["throughput_rps"]
        row["scaling"] = round(row["throughput_rps"] / base, 2)
        report["sweep"][str(n)] = row
    return report


def test_scale_throughput_and_decision_cost(write_bench_json):
    report = run_sweep()
    write_bench_json(BENCH_JSON.name, report)
    print(f"\nscale-out serving ({report['unit']}, "
          f"{report['n_requests']} requests):")
    for n, row in report["sweep"].items():
        dc = row["decision_cost"]
        print(f"  nodes={n:>2s}: tput={row['throughput_rps']:9.1f} rps "
              f"scaling={row['scaling']:6.2f}x "
              f"ops/decision={dc['ops_per_decision']:6.2f} "
              f"sod={row['sched']['sod_offloads']} "
              f"handoffs={row['sched']['handoffs']} "
              f"vetoes={row['sched']['victim_vetoes']} "
              f"overshoot={row['sched']['max_quantum_overshoot']} "
              f"t2={row['sched']['tier2_compiles']}")
    print(f"  -> {BENCH_JSON.name}")

    # Preemption coverage: quantum overshoot stays bounded by a loop
    # body / leaf tail, never a runaway (fairness would need finer
    # safepoint polling if this grew toward the quantum itself) — and
    # the bound holds *inside tier-2 compiled regions*, whose
    # straight-line safepoint polls keep long chains preemptible.
    for row in report["sweep"].values():
        assert row["sched"]["max_quantum_overshoot"] < 2000
    if os.environ.get("REPRO_JIT", "1") not in ("0", "false", "False", ""):
        # the JIT was on: the overshoot bound was exercised with live
        # compiled closures, not just the tier-1 loop
        assert all(row["sched"]["tier2_compiles"] > 0
                   for row in report["sweep"].values())

    # Every request is served and every result matches the standalone
    # legacy-dispatch oracle.
    for row in report["sweep"].values():
        assert row["served"] == row["submitted"] == report["n_requests"]
        assert row["correct"] == row["served"]
        assert row["failed"] == 0 and row["unserved"] == 0

    assert report["sweep"]["32"]["scaling"] >= MIN_SCALING, \
        report["sweep"]["32"]
    # and scaling is monotone in cluster size
    scalings = [report["sweep"][str(n)]["scaling"] for n in NODE_COUNTS]
    assert scalings == sorted(scalings)

    # Per-decision scheduler cost grows sub-linearly in node count:
    # 64-node cost under 2x the 16-node cost (4x nodes).  Both numbers
    # are deterministic entry counts, so this is exact.
    c16 = report["sweep"]["16"]["decision_cost"]["ops_per_decision"]
    c64 = report["sweep"]["64"]["decision_cost"]["ops_per_decision"]
    assert report["sweep"]["16"]["sched"]["decisions"] > 0
    assert report["sweep"]["64"]["sched"]["decisions"] > 0
    assert c64 < 2.0 * c16, (c16, c64)


def test_scale_run_is_deterministic():
    """The same sweep point replays bit-identically (the committed report
    is meaningful history, not noise)."""
    from tests.helpers import serve_mix

    a = serve_mix(MIX, n_nodes=16, n_requests=64, seed=11)
    b = serve_mix(MIX, n_nodes=16, n_requests=64, seed=11)
    assert json.dumps(a.to_dict(), sort_keys=True) \
        == json.dumps(b.to_dict(), sort_keys=True)


if __name__ == "__main__":
    sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    print(json.dumps(run_sweep(), indent=2))
