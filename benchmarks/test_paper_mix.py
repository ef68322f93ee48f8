"""Bench: serving the full paper registry — the ``"paper"`` mix.

FFT and TSP keep their working state in mutable statics and were
excluded from every serving mix until class-loader namespaces gave each
request its own static cells.  This bench proves the unlock holds at
benchmark scale, in deterministic virtual time:

* **multi-node speedup** — the paper mix (FFT/TSP alongside reentrant
  Fib/NQ) on 1 vs. 4 nodes with SOD offload enabled: everything served
  and solo-correct, namespaced requests actually offloaded, and the
  4-node run at least ``MIN_SPEEDUP``x the single node.

* **isolation overhead** — the reentrant ``"parallel"`` mix served
  with ``isolation="off"`` (the PR 2 shared-cells behavior) vs.
  ``isolation="all"`` (every request namespaced): virtual throughput
  must agree within ``MAX_ISOLATION_DRIFT`` — the namespace
  indirection must not perturb the fast loop or the transfer path
  beyond the tag bytes it ships.

Emits ``BENCH_paper.json`` at the repo root.  ``BENCH_SMOKE=1``
trims the request streams (CI smoke mode); run directly
(``python benchmarks/test_paper_mix.py``) to print the JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from conftest import SMOKE

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_paper.json"

SEED = 7
MIX = "paper"
N_NODES = 4
#: 4-node floor on the heterogeneous statics-heavy mix (virtual time is
#: deterministic, so the floor is strict; measured ~3x)
MIN_SPEEDUP = 2.0
#: allowed relative virtual-throughput drift when every reentrant
#: request is force-namespaced (the acceptance bound: namespace
#: indirection must not cost the serving path)
MAX_ISOLATION_DRIFT = 0.05


def _n_requests() -> int:
    if SMOKE:
        return 24
    return 48


def _serve(mix: str, n_nodes: int, n_requests: int, **kw) -> dict:
    from repro.serve import QueueDepthPolicy, serve_mix

    rep = serve_mix(mix, n_nodes=n_nodes, n_requests=n_requests,
                    seed=SEED, offload=QueueDepthPolicy(max_seg_hops=2),
                    **kw)
    return rep.to_dict()


def run_sweep() -> dict:
    n_requests = _n_requests()
    solo = _serve(MIX, 1, n_requests)
    multi = _serve(MIX, N_NODES, n_requests)
    iso_n = max(16, n_requests // 2)
    iso_off = _serve("parallel", N_NODES, iso_n, isolation="off")
    iso_all = _serve("parallel", N_NODES, iso_n, isolation="all")
    return {
        "bench": "paper_mix",
        "unit": "virtual-time requests/second",
        "smoke": SMOKE,
        "mix": MIX, "seed": SEED, "n_requests": n_requests,
        "single_node": solo,
        "multi_node": multi,
        "speedup_x": round(multi["throughput_rps"]
                           / solo["throughput_rps"], 3),
        "isolation_overhead": {
            "mix": "parallel", "n_nodes": N_NODES, "n_requests": iso_n,
            "off_throughput_rps": iso_off["throughput_rps"],
            "all_throughput_rps": iso_all["throughput_rps"],
            "drift": round(abs(iso_all["throughput_rps"]
                               - iso_off["throughput_rps"])
                           / iso_off["throughput_rps"], 5),
        },
    }


def test_paper_mix_serving(benchmark, write_bench_json):
    from conftest import once

    report = once(benchmark, run_sweep)
    write_bench_json(BENCH_JSON.name, report)
    solo, multi = report["single_node"], report["multi_node"]
    iso = report["isolation_overhead"]
    print(f"\npaper mix ({report['unit']}):")
    print(f"  1 node:  {solo['throughput_rps']:.1f} rps   "
          f"{N_NODES} nodes: {multi['throughput_rps']:.1f} rps "
          f"({report['speedup_x']}x)")
    print(f"  multi-node: {multi['sched']['isolated']} isolated requests, "
          f"{multi['sched']['sod_offloads']} offloads "
          f"({multi['sched']['seg_rehops']} chain hops), "
          f"{multi['sched']['bytes_saved']} B kept off the wire")
    print(f"  isolation overhead (parallel mix, off vs all): "
          f"{iso['off_throughput_rps']:.2f} vs "
          f"{iso['all_throughput_rps']:.2f} rps "
          f"(drift {iso['drift'] * 100:.2f}%)")
    print(f"  -> {BENCH_JSON.name}")

    # Everything served and solo-correct in both configurations —
    # the statics-heavy programs survive concurrent serving.
    for row in (solo, multi):
        assert row["served"] == row["submitted"] == report["n_requests"]
        assert row["correct"] == row["served"], row
        assert row["failed"] == 0 and row["unserved"] == 0
    # Non-reentrant requests were actually isolated and actually moved
    # (offload under load), on the multi-node run.
    assert multi["sched"]["isolated"] > 0
    assert multi["sched"]["sod_offloads"] > 0
    # The unlock scales: multi-node speedup on the paper mix.
    assert report["speedup_x"] >= MIN_SPEEDUP, report["speedup_x"]
    # Namespacing every reentrant request must not shift virtual
    # throughput beyond the tag bytes' noise floor.
    assert iso["drift"] <= MAX_ISOLATION_DRIFT, iso
    for label in ("off_throughput_rps", "all_throughput_rps"):
        assert iso[label] > 0


def test_paper_mix_is_deterministic():
    """The bench point replays bit-identically — the artifact is
    meaningful history, not noise."""

    def point():
        return json.dumps(_serve(MIX, 2, 10), sort_keys=True)

    assert point() == point()


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    print(json.dumps(run_sweep(), indent=2))
