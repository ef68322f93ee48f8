"""Bench: goodput past saturation — static vs adaptive overload control.

Serves open-loop Poisson traffic (arrivals never wait for completions,
so offered load keeps coming past saturation) and measures **goodput**:
correct responses *within the SLO* per virtual second.  Raw throughput
is the wrong metric under overload — a cluster that admits everything
still "serves" requests, just seconds too late to be worth anything.

Two admission policies face the same offered-load sweep around the
cluster's measured saturation point:

* **static** — ``ShedWhenSaturated`` at a fixed, generously chosen
  threshold: the operator guessed once, and past the knee the guess
  admits work the cluster cannot finish in time;
* **adaptive** — ``AdaptiveShed`` learns the latency/goodput knee
  online (AIMD on windowed P95 vs the SLO) and sheds down to it.

The headline assertion: adaptive goodput strictly beats static at
**every** offered load >= 1.2x saturation.  Degradation past the knee
is graceful, not a cliff.

The second scenario is **tenant isolation under abuse**: one tenant
floods at 10x its fair arrival rate.  Weighted fair queueing plus the
adaptive controller's per-tenant fair-share cap must confine the
damage — the abuser absorbs the sheds while the victims' P95 degrades
by less than 30% against the abuse-free run of the same streams (the
per-tenant arrival streams are independent by construction, so the
victims' offered work is byte-identical in both runs).

Emits ``BENCH_overload.json`` at the repo root.  ``BENCH_SMOKE=1``
sweeps fewer points on a shorter stream and does not assert the strict
win (CI smoke mode); run directly
(``python benchmarks/test_overload.py``) to print the JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from conftest import SMOKE

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_overload.json"

SEED = 7
N_NODES = 4
MIX = "parallel"
#: end-to-end P95 target (virtual seconds): a served response slower
#: than this is not goodput
SLO = 0.15
#: the static policy's per-node weighted-load threshold — deliberately
#: the kind of "generous" guess an operator makes without a sweep
STATIC_LOAD = 16.0
#: adaptive control window (completions per P95 estimate)
WINDOW = 16


def _sweep_points():
    # offered load as multiples of measured saturation throughput
    if SMOKE:
        return (0.8, 1.5, 2.0)
    return (0.8, 1.0, 1.2, 1.5, 2.0)


def _n_requests() -> int:
    return 96 if SMOKE else 160


def _serve(admission, arrival_rate, n_requests, tenants=None):
    from repro.serve.scheduler import build_serving

    sched, load = build_serving(
        mix=MIX, n_nodes=N_NODES, n_requests=n_requests, seed=SEED,
        admission=admission, tenants=tenants, arrival_rate=arrival_rate)
    rep = sched.serve(load)
    return sched, rep


def _goodput(sched, rep) -> float:
    ok = sum(1 for r in sched.requests
             if r.state == "done" and r.finished_at - r.arrival <= SLO)
    return ok / rep.makespan


def calibrate_saturation() -> float:
    """Saturation throughput: what the cluster sustains on an
    already-queued burst of the same mix (requests per virtual
    second).  Deterministic, so the sweep's offered loads are exact
    multiples of it."""
    from repro.serve import serve_mix

    rep = serve_mix(mix=MIX, n_nodes=N_NODES, n_requests=64, seed=SEED)
    return rep.served / rep.makespan


def run_sweep(capacity: float) -> dict:
    from repro.serve import AdaptiveShed
    from repro.serve.policies import ShedWhenSaturated

    n = _n_requests()
    points = {}
    for factor in _sweep_points():
        rate = capacity * factor
        row = {}
        for name, adm in (
                ("static", ShedWhenSaturated(max_node_load=STATIC_LOAD)),
                ("adaptive", AdaptiveShed(slo=SLO, init_load=STATIC_LOAD,
                                          window=WINDOW))):
            sched, rep = _serve(adm, rate, n)
            row[name] = {
                "goodput_rps": round(_goodput(sched, rep), 1),
                "p95_s": round(rep.latency_p95, 4),
                "served": rep.served,
                "shed": rep.stats["shed"],
                "incorrect": rep.served - rep.correct,
                "unserved": rep.unserved,
            }
        row["adaptive_wins"] = (row["adaptive"]["goodput_rps"]
                                > row["static"]["goodput_rps"])
        points[str(factor)] = row
    return points


def run_isolation(capacity: float) -> dict:
    """The 10x abusive tenant vs the abuse-free baseline of the very
    same victim streams."""
    from repro.serve import AdaptiveShed, parse_tenants

    rate = 0.25 * capacity  # per-tenant base rate: healthy when calm
    victims = "gold:w=8,silver:w=8"
    adm_kw = dict(slo=SLO, init_load=4.0, window=WINDOW,
                  fair_factor=1.0, min_tenant_slots=1)
    _, calm = _serve(AdaptiveShed(**adm_kw), rate, 144,
                     tenants=parse_tenants(victims))
    _, storm = _serve(AdaptiveShed(**adm_kw), rate, 144,
                      tenants=parse_tenants(victims + ",abuser:p=2:r=10"))
    out = {
        "base_rate_rps": round(rate, 1),
        "abuser_rate_factor": 10.0,
        "incorrect": storm.served - storm.correct,
        "unserved": storm.unserved,
        "sheds": {name: t["shed"] for name, t in storm.tenants.items()},
        "victims": {},
    }
    for name in ("gold", "silver"):
        before = calm.tenants[name]["latency_s"]["p95"]
        after = storm.tenants[name]["latency_s"]["p95"]
        out["victims"][name] = {
            "p95_calm_s": round(before, 4),
            "p95_storm_s": round(after, 4),
            "degradation": round(after / before, 3),
        }
    return out


def run_bench() -> dict:
    capacity = calibrate_saturation()
    report = {
        "bench": "overload",
        "unit": "within-SLO correct responses per virtual second",
        "mix": MIX, "n_nodes": N_NODES, "seed": SEED,
        "n_requests": _n_requests(), "slo_s": SLO,
        "static_load": STATIC_LOAD,
        "smoke": SMOKE,
        "saturation_rps": round(capacity, 1),
        "sweep": run_sweep(capacity),
        "isolation": run_isolation(capacity),
    }
    return report


def test_overload(benchmark, write_bench_json):
    from conftest import once

    report = once(benchmark, run_bench)
    write_bench_json(BENCH_JSON.name, report)
    print(f"\noverload ({report['unit']}; saturation "
          f"{report['saturation_rps']} rps, SLO {report['slo_s']}s):")
    for factor, row in report["sweep"].items():
        print(f"  {float(factor):.1f}x: "
              f"static={row['static']['goodput_rps']:7.1f} rps "
              f"(shed {row['static']['shed']:3d})  "
              f"adaptive={row['adaptive']['goodput_rps']:7.1f} rps "
              f"(shed {row['adaptive']['shed']:3d})  "
              f"wins={row['adaptive_wins']}")
    iso = report["isolation"]
    for name, v in iso["victims"].items():
        print(f"  abuse: {name} p95 {v['p95_calm_s']}s -> "
              f"{v['p95_storm_s']}s ({v['degradation']}x)")
    print(f"  abuser absorbed {iso['sheds'].get('abuser', 0)} sheds "
          f"-> {BENCH_JSON.name}")

    # Overload never corrupts or loses: at every point, both policies.
    for row in report["sweep"].values():
        for policy in ("static", "adaptive"):
            assert row[policy]["incorrect"] == 0, row
            assert row[policy]["unserved"] == 0, row

    # The headline: adaptive strictly beats static goodput at every
    # offered load past the knee (>= 1.2x saturation).  Deterministic
    # virtual time — a tie is a regression, not noise.  Full size only
    # (tier-1 runs it): the 96-request smoke stream ends before the
    # controller's first sheds at 1.5x have paid for themselves, so the
    # smoke run gates correctness, shed honesty and isolation below.
    if not SMOKE:
        for factor, row in report["sweep"].items():
            if float(factor) >= 1.2:
                assert row["adaptive"]["goodput_rps"] > \
                    row["static"]["goodput_rps"], (factor, row)

    # Overload control actually engaged past the knee.
    assert any(row["adaptive"]["shed"] > 0
               for f, row in report["sweep"].items() if float(f) >= 1.2)

    # Tenant isolation: the abuser pays, the victims barely notice.
    assert iso["incorrect"] == 0 and iso["unserved"] == 0
    assert iso["sheds"]["abuser"] > 0
    for name, v in iso["victims"].items():
        assert iso["sheds"][name] == 0, iso  # victims are never shed
        assert v["degradation"] < 1.30, iso


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    print(json.dumps(run_bench(), indent=2))
