"""Bench: the migration fast path — class tokens, object revalidation,
and multi-hop chains.

Two sweeps, both in deterministic virtual time (strict floors, no noise
margin):

* **repeat offloads** — the same program is SOD-offloaded to the same
  worker five times in a row at the engine level.  The first shipment
  pays for the class file and the program's chunky read-mostly array;
  repeats ship a class digest token and a tiny object revalidation
  instead (the few hundred bytes of frame and static state ship every
  time).  Asserted:
  >= 2x reduction in bytes-on-wire for repeat offloads (the measured
  ratio is far higher), and repeat migration latency strictly below
  the first.

* **offload-heavy serving** — the ``offload`` mix (uniformly heavy,
  deep requests) through a single front door on 8 nodes, single-hop
  (``max_seg_hops=0``) vs. multi-hop (``max_seg_hops=2``, Fig. 1c
  chains).  Asserted: both serve everything correctly, chains actually
  fire, and multi-hop never loses to single-hop on throughput.

Emits ``BENCH_migration.json`` at the repo root.
``BENCH_SMOKE=1`` trims the serving stream (CI smoke mode);
run directly (``python benchmarks/test_migration_fastpath.py``) to
print the JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from conftest import SMOKE

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_migration.json"

SEED = 7
N_NODES = 8
MIX = "offload"
REPEATS = 5

#: the repeat-offload guest: a segment that scans a chunky read-mostly
#: home array and folds a couple of statics (one mutated per request)
REPEAT_SRC = """
class P {
  static int round;
  static int bias;
  static int work(int[] xs, int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      acc = (acc + xs[i % 256] + P.bias) % 100003;
    }
    P.round = P.round + 1;
    return acc;
  }
  static int main(int n) { return 0; }
}
"""

#: modeled bytes per array element: a few-hundred-KB working set, the
#: regime where the paper's SOD wins (big state stays home / cached)
ELEM_BYTES = 1024


def _n_requests() -> int:
    if SMOKE:
        return 40
    return 80


def _repeat_engine(transfer_cache: bool):
    from repro.cluster import gige_cluster
    from repro.lang import compile_source
    from repro.migration import SODEngine
    from repro.preprocess import preprocess_program

    classes = preprocess_program(compile_source(REPEAT_SRC), "faulting")
    eng = SODEngine(gige_cluster(2), classes,
                    transfer_cache=transfer_cache)
    home = eng.host("node0")
    xs = home.machine.heap.new_array("int", 256, ELEM_BYTES)
    for i in range(256):
        xs.data[i] = (i * 37 + 11) % 1000
    return eng, home, xs


def run_repeat_offloads(transfer_cache: bool) -> dict:
    """Offload the same program home -> node1 REPEATS times; per-round
    bytes-on-wire and migration latency."""
    from repro.migration.capture import run_to_msp

    eng, home, xs = _repeat_engine(transfer_cache)
    net = eng.cluster.network
    rounds = []
    results = set()
    for _ in range(REPEATS):
        before = net.total_bytes()
        t = eng.spawn(home, "P", "work", [xs, 300])
        run_to_msp(home.machine, t)
        worker, wt, rec = eng.migrate(home, t, "node1", 1)
        eng.run(worker, wt)
        eng.complete_segment(worker, wt, home, t, 1)
        results.add(t.result)
        rounds.append({
            "bytes_on_wire": net.total_bytes() - before,
            "migration_latency_s": rec.latency,
            "cached_class": rec.cached_class,
        })
    assert len(results) == 1  # every round computed the same answer
    return {
        "rounds": rounds,
        "total_bytes": net.total_bytes(),
        "saved_bytes": net.total_saved(),
    }


def run_serving_comparison(n_requests: int) -> dict:
    from repro.serve import QueueDepthPolicy, serve_mix

    out = {}
    for label, hops in (("single_hop", 0), ("multi_hop", 2)):
        rep = serve_mix(MIX, n_nodes=N_NODES, n_requests=n_requests,
                        seed=SEED, placement="front-door",
                        offload=QueueDepthPolicy(max_seg_hops=hops))
        rep.mix, rep.seed = MIX, SEED
        out[label] = rep.to_dict()
    return out


def run_sweep() -> dict:
    n_requests = _n_requests()
    cached = run_repeat_offloads(transfer_cache=True)
    full = run_repeat_offloads(transfer_cache=False)
    first = cached["rounds"][0]
    repeats = cached["rounds"][1:]
    repeat_mean = sum(r["bytes_on_wire"] for r in repeats) / len(repeats)
    serving = run_serving_comparison(n_requests)
    sh = serving["single_hop"]
    mh = serving["multi_hop"]
    return {
        "bench": "migration_fastpath",
        "unit": "bytes on wire / virtual seconds",
        "smoke": SMOKE,
        "repeat_offload": {
            "program_elem_bytes": ELEM_BYTES,
            "rounds": cached["rounds"],
            "first_bytes": first["bytes_on_wire"],
            "repeat_bytes_mean": repeat_mean,
            "bytes_reduction_x": round(
                first["bytes_on_wire"] / repeat_mean, 2),
            "first_latency_s": first["migration_latency_s"],
            "repeat_latency_mean_s": sum(
                r["migration_latency_s"] for r in repeats) / len(repeats),
            "cache_on_total_bytes": cached["total_bytes"],
            "cache_off_total_bytes": full["total_bytes"],
            "cache_saved_bytes": cached["saved_bytes"],
        },
        "serving": {
            "mix": MIX, "n_nodes": N_NODES, "n_requests": n_requests,
            "seed": SEED,
            "single_hop": sh,
            "multi_hop": mh,
            "multihop_speedup_x": round(
                mh["throughput_rps"] / sh["throughput_rps"], 3),
            "seg_rehops": mh["sched"]["seg_rehops"],
            "bytes_saved": mh["sched"]["bytes_saved"],
            "max_quantum_overshoot":
                mh["sched"]["max_quantum_overshoot"],
        },
    }


def test_migration_fastpath(benchmark, write_bench_json):
    from conftest import once

    report = once(benchmark, run_sweep)
    write_bench_json(BENCH_JSON.name, report)
    ro = report["repeat_offload"]
    sv = report["serving"]
    print(f"\nmigration fast path ({report['unit']}):")
    print(f"  repeat offloads: first={ro['first_bytes']} B "
          f"repeat={ro['repeat_bytes_mean']:.0f} B "
          f"reduction={ro['bytes_reduction_x']}x "
          f"latency {ro['first_latency_s'] * 1e3:.2f} -> "
          f"{ro['repeat_latency_mean_s'] * 1e3:.2f} ms")
    print(f"  serving ({sv['mix']}, {sv['n_nodes']} nodes, "
          f"{sv['n_requests']} requests): "
          f"single={sv['single_hop']['throughput_rps']:.1f} rps "
          f"multi={sv['multi_hop']['throughput_rps']:.1f} rps "
          f"({sv['multihop_speedup_x']}x, {sv['seg_rehops']} chain hops, "
          f"{sv['bytes_saved']} B saved)")
    print(f"  -> {BENCH_JSON.name}")

    # Acceptance: >= 2x fewer bytes on the wire for repeat offloads of
    # the same program (virtual-deterministic, so the floor is strict).
    assert ro["bytes_reduction_x"] >= 2.0, ro
    # Every repeat round hit the class cache.
    for r in ro["rounds"][1:]:
        assert r["cached_class"], r
    # Repeat migration latency strictly below the first shipment's.
    assert ro["repeat_latency_mean_s"] < ro["first_latency_s"], ro
    # The cache-off engine moved at least 2x the bytes for the same work.
    assert ro["cache_off_total_bytes"] >= 2.0 * ro["cache_on_total_bytes"]

    # Serving: everything served and correct in both modes...
    for label in ("single_hop", "multi_hop"):
        row = sv[label]
        assert row["served"] == row["submitted"] == sv["n_requests"]
        assert row["correct"] == row["served"]
        assert row["failed"] == 0 and row["unserved"] == 0
    # ...chains actually fired, and multi-hop never loses to single-hop
    # on the offload-heavy mix.
    assert sv["seg_rehops"] > 0, sv
    assert sv["multi_hop"]["throughput_rps"] \
        >= sv["single_hop"]["throughput_rps"], sv


def test_migration_fastpath_is_deterministic():
    """The serving comparison replays bit-identically (the CI artifact
    is meaningful history, not noise)."""
    from repro.serve import QueueDepthPolicy, serve_mix

    def point():
        rep = serve_mix(MIX, n_nodes=4, n_requests=12, seed=11,
                        placement="front-door",
                        offload=QueueDepthPolicy(max_seg_hops=2))
        return json.dumps(rep.to_dict(), sort_keys=True)

    assert point() == point()


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    print(json.dumps(run_sweep(), indent=2))
