"""The fault-schedule fuzzer: random disasters vs solo oracles.

Each fuzz run derives a random :class:`FaultPlan` from a seed, serves a
request mix under it, and checks the recovery invariants that must hold
under *any* crash/partition/straggle schedule:

* **zero incorrect responses** — every served result equals the
  request's solo oracle (``expected_request_result``): recovery may
  re-execute or fail a request, but never corrupt one;
* **nothing vanishes** — every submitted request reaches a terminal
  state (done/failed/shed); unserved == 0;
* **failures are honest** — a failed request carries a known fault
  reason and exhausted its bounded retry budget (a fault-free run, by
  the same token, must fail nothing);
* **sheds are honest** — with admission control installed (the
  ``shed_at``/``admission`` knobs), a refused request is classified
  ``shed``, never lost or incorrect: it is terminal, it never started,
  it carries no result — *including* requests shed because dead racks
  shrank the cluster's capacity under them;
* **tenant accounting balances** — every per-tenant runnable counter
  returns to zero once the run drains, even when crash-retirement
  recovered work across nodes mid-flight;
* **no zombies, no residue** — when the run ends, no segment is still
  registered as live, and no surviving host's object manager holds a
  dirty copy, a dirty static or a registered segment thread: a
  fault-path ``abandon_segment`` must leave the same state as a
  completion.

A violation dict names the seed, so any disaster the fuzzer finds is
one ``run_config`` (or ``serve --chaos <seed>``) away from a
deterministic re-run under a debugger.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.chaos.faults import random_plan
from repro.serve.scheduler import SERVE_KEYS, build_serving

#: failure reasons the recovery paths are allowed to surface
FAULT_REASONS = {"node-crash", "dependency-crash", "delivery-failed"}


def fuzz_one(seed: int, mix: str = "parallel", n_nodes: int = 4,
             n_requests: int = 24,
             horizon: float = SERVE_KEYS["chaos_horizon"][0],
             max_retries: int = 3, shed_at: Optional[float] = None,
             admission: Optional[str] = None,
             tenants: Optional[Any] = None,
             arrival_rate: Optional[float] = None,
             slo: Optional[float] = None, **plan_kw: Any) -> Dict[str, Any]:
    """One fuzz run: serve ``mix`` under ``random_plan(seed)`` and
    return ``{"seed", "plan", "report", "violations"}``.

    The overload knobs compose with the fault schedule: ``shed_at``
    installs the static :class:`~repro.serve.policies.ShedWhenSaturated`
    (``admission="adaptive"`` upgrades it to the learning controller,
    seeded from ``shed_at``/``slo``), and ``tenants`` +
    ``arrival_rate`` drive per-tenant open-loop Poisson arrivals — the
    combined chaos+overload case where capacity collapses under an
    offered load that never lets up."""
    names = [f"node{i}" for i in range(n_nodes)]
    plan = random_plan(names, seed, horizon=horizon, **plan_kw)
    sched, load = build_serving(mix=mix, n_nodes=n_nodes,
                                n_requests=n_requests,
                                fault_plan=plan, max_retries=max_retries,
                                admission=admission, shed_at=shed_at,
                                slo=slo, tenants=tenants,
                                arrival_rate=arrival_rate)
    rep = sched.serve(load)
    violations: List[str] = []
    if rep.correct != rep.served:
        violations.append(
            f"incorrect responses: {rep.served - rep.correct} of "
            f"{rep.served} served results diverge from the solo oracle")
    if rep.unserved != 0:
        violations.append(f"{rep.unserved} requests vanished "
                          f"(no terminal state)")
    for r in sched.finished:
        if r.state == "failed":
            if r.error not in FAULT_REASONS:
                violations.append(
                    f"req {r.rid} failed with non-fault reason "
                    f"{r.error!r}")
            elif r.retries <= max_retries:
                violations.append(
                    f"req {r.rid} failed after only {r.retries} "
                    f"retries (budget {max_retries} not exhausted)")
    shed = [r for r in sched.requests if r.state == "shed"]
    for r in shed:
        # Shed attribution: a refused request is an admission
        # *decision* — terminal on arrival, never executed, never a
        # result.  Anything else means a shed was mislabelled (or a
        # lost request was laundered as one).
        if r.started_at is not None or r.result is not None \
                or r.thread is not None:
            violations.append(
                f"req {r.rid} classified shed but carries execution "
                f"state (started={r.started_at}, result={r.result!r})")
        elif r.finished_at is None or r not in sched.finished:
            violations.append(
                f"req {r.rid} shed but not terminal")
    if len(shed) != rep.stats["shed"]:
        violations.append(
            f"shed count drift: {len(shed)} shed requests vs "
            f"stats[shed]={rep.stats['shed']}")
    leftover = {t: c for t, c in sched.load_index.tenant_count.items() if c}
    if leftover:
        violations.append(
            f"per-tenant runnable counters nonzero after drain: "
            f"{leftover}")
    if sched.active_segments:
        violations.append(
            f"zombie segments at end of run: "
            f"{sorted(sched.active_segments)}")
    for name, host in sched.engine.hosts.items():
        om = host.objman
        if om is not None and (om.dirty or om.dirty_statics
                               or om.thread_home):
            violations.append(
                f"write-back residue on {name} at end of run: "
                f"{len(om.dirty)} dirty copies, {len(om.dirty_statics)} "
                f"dirty statics, {len(om.thread_home)} segment threads")
    return {"seed": seed, "plan": plan.to_dict(),
            "report": rep.to_dict(), "violations": violations}


def fuzz(n_runs: int, start_seed: int = 0,
         **kw: Any) -> Dict[str, Any]:
    """Run ``n_runs`` fuzz seeds; returns an aggregate with every
    violation found (an empty ``violations`` list is a pass)."""
    runs = []
    violations: List[Dict[str, Any]] = []
    recovered = 0
    crashes = 0
    for seed in range(start_seed, start_seed + n_runs):
        out = fuzz_one(seed, **kw)
        sched_stats = out["report"]["sched"]
        recovered += sched_stats.get("seg_recoveries", 0) \
            + sched_stats.get("retries", 0)
        crashes += sched_stats.get("crashes", 0)
        runs.append({"seed": seed,
                     "served": out["report"]["served"],
                     "correct": out["report"]["correct"],
                     "failed": out["report"]["failed"],
                     "crashes": sched_stats.get("crashes", 0),
                     "violations": out["violations"]})
        if out["violations"]:
            violations.append({"seed": seed,
                               "violations": out["violations"],
                               "plan": out["plan"]})
    return {"n_runs": n_runs, "start_seed": start_seed,
            "crashes": crashes, "recoveries": recovered,
            "violations": violations, "runs": runs}
