"""The serving report is a fold of the recorded trace.

Every ``stats`` key an event records, and every per-tenant block field
but ``quanta``, is recomputed here from a recorded trace's ``events``
and per-request ``summary`` rows alone — written out independently of
the scheduler's own fold table — and must equal the report the same run
produced.  So a counter can never drift from the events an operator (or
a replay) reads.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.chaos import run_recorded
from repro.serve import parse_tenants

CONFIGS = {
    "offload-fd-hops2-chaos1": dict(mix="offload", placement="front-door",
                                    max_seg_hops=2, chaos_seed=1),
    "paper-hops1-chaos2": dict(mix="paper", max_seg_hops=1, chaos_seed=2),
    "tenants-adaptive-chaos3": dict(
        mix="parallel",
        tenants=parse_tenants(
            "gold:w=3,silver:w=2:p=1,free:p=2:r=6").to_dict(),
        admission="adaptive", slo=0.1, arrival_rate=300.0, chaos_seed=3),
    # home-requeue recoveries and failures with the retry budget at zero
    "offload-fd-hops2-chaos2-noretry": dict(
        mix="offload", placement="front-door", max_seg_hops=2,
        chaos_horizon=0.05, chaos_seed=2, max_retries=0),
}


def folded_stats(events):
    kind = Counter(e["kind"] for e in events)
    sub = Counter((e["kind"], e.get("fault", e.get("mode")))
                  for e in events)
    segs = [len(e["segs"]) for e in events if e["kind"] == "offload"]
    return {
        "shed": kind["shed"], "handoffs": kind["handoff"],
        "failed": kind["fail"], "completions": kind["seg_complete"],
        "retries": kind["retry"], "fault_aborts": kind["fault_abort"],
        "requeued_home": kind["delivery_failed"],
        "seg_rehops": kind["rehop"],
        "crashes": sub["fault", "crash"],
        "straggles": sub["fault", "straggle"],
        "link_failures": sub["fault", "link"] + sub["fault", "partition"],
        "home_requeues": sub["recover", "home-requeue"],
        "seg_recoveries": (sub["recover", "home-requeue"]
                           + sub["recover", "retry"]),
        "sod_offloads": sum(segs) + kind["rehop"],
        "batched_threads": sum(n for n in segs if n > 1),
    }


def folded_tenant(rows):
    lat = sorted(r["finished_at"] - r["arrival"] for r in rows
                 if r["state"] == "done")
    n = len(lat)
    state = Counter(r["state"] for r in rows)
    return {
        "submitted": len(rows), "admitted": len(rows) - state["shed"],
        "shed": state["shed"], "done": state["done"],
        "failed": state["failed"],
        "latency_s": {
            "mean": sum(lat) / n if n else 0.0,
            "p50": lat[int(0.50 * (n - 1))] if n else 0.0,
            "p95": lat[int(0.95 * (n - 1))] if n else 0.0,
            "max": lat[-1] if n else 0.0,
        },
    }


@pytest.mark.parametrize("name", list(CONFIGS))
def test_report_is_a_fold_of_the_recorded_trace(name):
    trace, _rep = run_recorded(CONFIGS[name])
    report = trace["summary"]["report"]
    rows = trace["summary"]["requests"]
    folded = folded_stats(trace["events"])
    assert {k: report["sched"][k] for k in folded} == folded
    assert folded["sod_offloads"] == sum(r["sod_offloads"] for r in rows)
    assert folded["crashes"] >= 1 and folded["completions"] > 0

    configured = [t["name"] for t in trace["config"]["tenants"] or ()]
    names = list(dict.fromkeys(
        configured + [r["tenant"] for r in rows if r["tenant"]]))
    blocks = report.get("tenants", {})
    assert list(blocks) == names
    for t in names:
        block = dict(blocks[t])
        block.pop("quanta")
        assert block == folded_tenant([r for r in rows if r["tenant"] == t])
    if names:
        assert sum(b["quanta"] for b in blocks.values()) \
            == report["sched"]["quanta"]
