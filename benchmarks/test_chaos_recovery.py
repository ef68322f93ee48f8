"""Bench: goodput and recovery latency under injected fault schedules.

Serves the parallel mix through one front door while a seeded
fault plan crashes nodes, cuts links, and slows machines mid-run, then
compares against the fault-free run of the same configuration:

* **goodput** — correct responses per virtual second.  Faults cost
  capacity and force re-execution, so goodput drops; the floor asserts
  the recovery machinery keeps the drop bounded (work is re-placed,
  not lost).
* **recovery latency** — the mean extra sojourn time of the requests
  that were actually hit (retried from scratch or re-queued at home)
  versus their own fault-free latency.
* **zero incorrect** — the hard invariant: under every schedule, each
  served response still equals its solo oracle and no request is lost.

Also records a replay-equivalence probe: the worst-case schedule is
recorded and re-executed, and the two traces must be byte-identical.

Emits ``BENCH_chaos.json`` at the repo root.  ``BENCH_SMOKE=1``
runs fewer schedules (CI smoke mode); run directly
(``python benchmarks/test_chaos_recovery.py``) to print the JSON.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from conftest import SMOKE

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_chaos.json"

SEED = 7
N_NODES = 4
N_REQUESTS = 32
HORIZON = 0.2  # fault window ~ the front-door makespan


def _chaos_seeds():
    if SMOKE:
        return (1, 2)
    return (1, 2, 3, 4, 5)


def _run(fault_plan=None):
    from repro.serve.scheduler import build_serving

    sched, load = build_serving(
        mix="parallel", n_nodes=N_NODES, n_requests=N_REQUESTS, seed=SEED,
        placement="front-door", fault_plan=fault_plan)
    rep = sched.serve(load)
    latency = {r.rid: r.finished_at - r.arrival
               for r in sched.requests if r.state == "done"}
    hit = sorted(r.rid for r in sched.requests
                 if r.state == "done" and r.retries > 0)
    return rep, latency, hit


def run_bench() -> dict:
    from repro.chaos import random_plan, replay_trace, run_recorded, \
        traces_equal

    base_rep, base_latency, _ = _run()
    base_goodput = base_rep.correct / base_rep.makespan
    names = [f"node{i}" for i in range(N_NODES)]
    report = {
        "bench": "chaos_recovery",
        "unit": "correct responses per virtual second",
        "mix": "parallel", "placement": "front-door",
        "n_nodes": N_NODES, "n_requests": N_REQUESTS, "seed": SEED,
        "smoke": SMOKE,
        "fault_free": {"goodput_rps": round(base_goodput, 1),
                       "makespan_s": base_rep.makespan,
                       **{k: base_rep.to_dict()[k]
                          for k in ("served", "correct", "failed")}},
        "schedules": {},
    }
    worst = None
    for cs in _chaos_seeds():
        plan = random_plan(names, cs, horizon=HORIZON)
        rep, latency, hit = _run(plan)
        goodput = rep.correct / rep.makespan
        # recovery latency: extra sojourn of the requests a fault hit,
        # relative to what the very same requests cost fault-free
        extra = [latency[rid] - base_latency[rid] for rid in hit
                 if rid in base_latency]
        row = {
            "faults": [e.label() for e in plan],
            "goodput_rps": round(goodput, 1),
            "goodput_ratio": round(goodput / base_goodput, 3),
            "requests_hit": len(hit),
            "recovery_latency_ms": (round(1e3 * sum(extra) / len(extra), 3)
                                    if extra else 0.0),
            "incorrect": rep.served - rep.correct,
            **{k: rep.to_dict()[k]
               for k in ("served", "correct", "failed", "unserved")},
            "stats": {k: rep.stats[k] for k in (
                "crashes", "link_failures", "straggles", "retries",
                "seg_recoveries", "home_requeues", "delivery_retries",
                "delivery_drops", "dropped_messages")},
        }
        report["schedules"][str(cs)] = row
        if worst is None or row["goodput_ratio"] < worst[1]:
            worst = (cs, row["goodput_ratio"])

    # replay-equivalence probe on the worst schedule: the whole run —
    # faults, recoveries, retries, timestamps — re-executes
    # byte-identically from its recorded config
    t1, _ = run_recorded({"chaos_seed": worst[0], "chaos_horizon": HORIZON,
                          "placement": "front-door"})
    t2, _ = replay_trace(t1)
    report["replay"] = {"chaos_seed": worst[0],
                        "events": len(t1["events"]),
                        "byte_identical": traces_equal(t1, t2)}
    ratios = [r["goodput_ratio"] for r in report["schedules"].values()]
    report["min_goodput_ratio"] = min(ratios)
    report["total_recoveries"] = sum(
        r["stats"]["seg_recoveries"] + r["stats"]["retries"]
        for r in report["schedules"].values())
    return report


def test_chaos_recovery(benchmark, write_bench_json):
    from conftest import once

    report = once(benchmark, run_bench)
    write_bench_json(BENCH_JSON.name, report)
    print(f"\nchaos recovery ({report['unit']}; fault-free "
          f"{report['fault_free']['goodput_rps']} rps):")
    for cs, row in report["schedules"].items():
        print(f"  seed={cs}: goodput={row['goodput_rps']:8.1f} rps "
              f"({row['goodput_ratio']:.2f}x) hit={row['requests_hit']:2d} "
              f"recovery={row['recovery_latency_ms']:7.3f} ms "
              f"crashes={row['stats']['crashes']} "
              f"recoveries={row['stats']['seg_recoveries']}"
              f"+{row['stats']['retries']}")
    print(f"  replay byte-identical: {report['replay']['byte_identical']} "
          f"({report['replay']['events']} events) -> {BENCH_JSON.name}")

    # The hard invariant: zero incorrect responses, nothing lost,
    # under every schedule.
    for row in report["schedules"].values():
        assert row["incorrect"] == 0, row
        assert row["unserved"] == 0, row
        assert row["served"] + row["failed"] == report["n_requests"]

    # The schedules did real damage and the stack really recovered.
    assert sum(r["stats"]["crashes"]
               for r in report["schedules"].values()) >= len(
                   report["schedules"])
    assert report["total_recoveries"] > 0

    # Goodput floor: faults cost capacity but recovery keeps the run
    # moving.  Deterministic virtual time — no noise margin needed.
    floor = float(os.environ.get("BENCH_CHAOS_MIN_GOODPUT", "0.4"))
    assert report["min_goodput_ratio"] >= floor, report["schedules"]

    # And the recorded worst case replays byte-identically.
    assert report["replay"]["byte_identical"]


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    print(json.dumps(run_bench(), indent=2))
