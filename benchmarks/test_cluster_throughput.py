"""Bench: elastic serving throughput vs cluster size.

Sweeps the cluster scheduler over 1/2/4/8 simulated nodes serving the
embarrassingly parallel request mix and asserts near-linear scaling of
served requests per *virtual* second.  Time is fully simulated under
the discrete-event kernel, so the numbers are bit-reproducible: the
scaling floor is asserted strictly (host noise cannot move it — only a
real scheduler/VM regression can).

Also measures the pure-elasticity scenario: every request arrives at
one front node and only request handoff + SOD offload spread the load.

Emits ``BENCH_cluster.json`` (see ``conftest.write_bench_json``); run
directly (``python benchmarks/test_cluster_throughput.py``) to print
the JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_cluster.json"

NODE_COUNTS = (1, 2, 4, 8)
SEED = 7
N_REQUESTS = 64
#: acceptance floor: served throughput at 8 nodes vs 1 on the parallel
#: mix.  Virtual time is deterministic, so no noise margin is needed.
MIN_SCALING = 3.0


def run_sweep() -> dict:
    from tests.helpers import serve_mix

    report = {
        "bench": "cluster_throughput",
        "unit": "served requests per virtual second",
        "mix": "parallel",
        "n_requests": N_REQUESTS,
        "seed": SEED,
        "sweep": {},
    }
    base = None
    for n in NODE_COUNTS:
        rep = serve_mix("parallel", n_nodes=n, n_requests=N_REQUESTS,
                        seed=SEED)
        row = rep.to_dict()
        if base is None:
            base = rep.throughput
        row["scaling"] = round(rep.throughput / base, 2)
        report["sweep"][str(n)] = row

    # Pure elasticity: a single front door, offload does all spreading.
    # The hotspot mix is mostly shallow-stacked light requests, so the
    # policy allows smaller segments than the serving default (a
    # depth-3 thread with 2 migratable frames is worth shipping here).
    from repro.serve import QueueDepthPolicy
    front = {}
    for n in (1, 4):
        rep = serve_mix("hotspot", n_nodes=n, n_requests=N_REQUESTS // 2,
                        seed=3, placement="front-door",
                        offload=QueueDepthPolicy(min_depth=3, mig_frames=2))
        front[str(n)] = rep.to_dict()
    front["speedup"] = round(
        front["1"]["makespan_s"] / front["4"]["makespan_s"], 2)
    report["front_door"] = front
    return report


def test_cluster_throughput_scaling(write_bench_json):
    report = run_sweep()
    write_bench_json(BENCH_JSON.name, report)
    print(f"\ncluster serving throughput ({report['unit']}):")
    for n, row in report["sweep"].items():
        print(f"  nodes={n}: tput={row['throughput_rps']:8.1f} rps "
              f"scaling={row['scaling']:.2f}x "
              f"sod_offloads={row['sched']['sod_offloads']} "
              f"handoffs={row['sched']['handoffs']}")
    print(f"  front-door elasticity speedup (4 nodes): "
          f"{report['front_door']['speedup']:.2f}x -> {BENCH_JSON.name}")

    # Every request is served and every result matches the standalone
    # legacy-dispatch oracle.
    for row in report["sweep"].values():
        assert row["served"] == row["submitted"] == report["n_requests"]
        assert row["correct"] == row["served"]
        assert row["failed"] == 0 and row["unserved"] == 0

    assert report["sweep"]["8"]["scaling"] >= MIN_SCALING, \
        report["sweep"]["8"]
    # and scaling is monotone in cluster size
    scalings = [report["sweep"][str(n)]["scaling"] for n in NODE_COUNTS]
    assert scalings == sorted(scalings)

    # The multi-node runs actually exercised stack-on-demand offload.
    for n in ("2", "4", "8"):
        assert report["sweep"][n]["sched"]["sod_offloads"] > 0
    # The front-door scenario used handoff AND offload, and they paid:
    fd = report["front_door"]
    assert fd["4"]["sched"]["handoffs"] > 0
    assert fd["4"]["sched"]["sod_offloads"] > 0
    assert fd["speedup"] >= 1.5
    assert fd["4"]["correct"] == fd["4"]["served"] == fd["4"]["submitted"]


def test_serving_run_is_deterministic():
    """The same sweep configuration replays bit-identically (the committed
    report is meaningful history, not noise)."""
    from tests.helpers import serve_mix

    a = serve_mix("mixed", n_nodes=2, n_requests=16, seed=11)
    b = serve_mix("mixed", n_nodes=2, n_requests=16, seed=11)
    assert json.dumps(a.to_dict(), sort_keys=True) \
        == json.dumps(b.to_dict(), sort_keys=True)


if __name__ == "__main__":
    sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    print(json.dumps(run_sweep(), indent=2))
