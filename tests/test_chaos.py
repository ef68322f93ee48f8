"""The chaos layer: fault plans, crash recovery, deterministic
record/replay, and the engine cleanup invariants recovery leans on.

The load-bearing property throughout: under any injected fault
schedule, every served response still equals its solo oracle (the
report's ``correct`` count) and no request vanishes — recovery may
re-execute or, with the retry budget exhausted, fail a request, but it
may never corrupt one.  The crash times used below were picked against
the traced offload windows of the deterministic front-door run, so
each test pins a specific recovery path (home-requeue, in-flight loss,
link drop) rather than hoping one fires.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos import (ChaosInjector, FaultEvent, FaultPlan, random_plan,
                         replay_trace, run_recorded, trace_divergence,
                         traces_equal)
from repro.chaos.fuzz import fuzz
from repro.cluster import gige_cluster, serve_cluster
from repro.errors import ClusterError
from repro.lang import compile_source
from repro.migration import SODEngine
from repro.migration.capture import run_to_msp
from repro.preprocess import preprocess_program
from repro.serve import LoadIndex, naive_pick, serve_mix
from repro.serve.policies import ShedWhenSaturated
from repro.serve.scheduler import build_serving


def _serve(**kw):
    kw.setdefault("mix", "parallel")
    kw.setdefault("n_nodes", 4)
    kw.setdefault("n_requests", 32)
    return serve_mix(**kw)


def _assert_sound(rep):
    """The invariants no fault schedule may break."""
    assert rep.correct == rep.served, (
        f"{rep.served - rep.correct} incorrect responses")
    assert rep.unserved == 0, f"{rep.unserved} requests vanished"


# -- fault plans ---------------------------------------------------------------


def test_fault_plan_roundtrip_and_ordering():
    plan = FaultPlan([
        FaultEvent(at=0.5, kind="crash", node="node2"),
        FaultEvent(at=0.1, kind="link", src="node0", dst="node1", heal=0.2),
        FaultEvent(at=0.3, kind="straggle", node="node1", factor=4.0,
                   heal=0.1),
    ], seed=9)
    assert [e.at for e in plan] == [0.1, 0.3, 0.5]  # sorted by time
    again = FaultPlan.from_dict(plan.to_dict())
    assert again.to_dict() == plan.to_dict()
    assert again.crashes() == ["node2"]


def test_fault_plan_validation():
    with pytest.raises(ClusterError):
        FaultEvent(at=0.1, kind="meteor", node="node1")
    with pytest.raises(ClusterError):
        FaultEvent(at=-1.0, kind="crash", node="node1")
    names = ["node0", "node1"]
    with pytest.raises(ClusterError):  # unknown node
        FaultPlan([FaultEvent(at=0.1, kind="crash", node="ghost")]) \
            .validate(names, "node0")
    with pytest.raises(ClusterError):  # the front cannot die
        FaultPlan([FaultEvent(at=0.1, kind="crash", node="node0")]) \
            .validate(names, "node0")


def test_random_plan_is_seed_deterministic():
    names = [f"node{i}" for i in range(6)]
    a = random_plan(names, 11, horizon=0.02)
    b = random_plan(names, 11, horizon=0.02)
    c = random_plan(names, 12, horizon=0.02)
    assert a.to_dict() == b.to_dict()
    assert a.to_dict() != c.to_dict()
    assert "node0" not in a.crashes()  # front exempt


def test_injector_rejects_bad_plan():
    sched, _load = build_serving(n_requests=4)
    bad = FaultPlan([FaultEvent(at=0.1, kind="crash", node="node0")])
    with pytest.raises(ClusterError):
        ChaosInjector(sched, bad)
    with pytest.raises(ClusterError):
        sched.crash_node("node0")


# -- crash recovery ------------------------------------------------------------


def test_empty_fault_plan_is_inert():
    """The chaos seams must cost nothing when nothing fails: a run
    with an empty plan is byte-identical to one with no plan."""
    a = _serve()
    b = _serve(fault_plan=FaultPlan([]))
    assert json.dumps(a.to_dict(), sort_keys=True) \
        == json.dumps(b.to_dict(), sort_keys=True)


def test_crash_recovers_queued_and_running_work():
    """Crash a node mid-run: its queued/running/homed requests restart
    elsewhere and every response stays correct."""
    plan = FaultPlan([FaultEvent(at=0.08, kind="crash", node="node2")])
    rep = _serve(fault_plan=plan)
    _assert_sound(rep)
    assert rep.stats["crashes"] == 1
    assert rep.stats["retries"] > 0
    assert rep.per_node["node2"]["served"] == 0 or \
        rep.per_node["node2"]["served"] < rep.submitted  # it died early


def test_crash_reexecutes_remote_segments_from_home_state():
    """Crash the worker while migrated segments are restored on it (the
    front-door run has segments 32-34 on node2 in [0.19, 0.245]): each
    parent's home thread kept its full stack and no effects were ever
    flushed, so recovery requeues the parent at home — no from-scratch
    retry, no double-applied writes, same answers."""
    plan = FaultPlan([FaultEvent(at=0.21, kind="crash", node="node2")])
    rep = _serve(placement="front-door", fault_plan=plan)
    _assert_sound(rep)
    assert rep.stats["seg_recoveries"] > 0
    assert rep.stats["home_requeues"] > 0
    assert rep.failed == 0


def test_crash_during_bulk_delivery_loses_message_not_requests():
    """Crash the target while the bulk offload message is on the wire:
    the delivery fails, the eagerly-restored worker threads die with
    the machine, and every parent re-executes from home state."""
    plan = FaultPlan([FaultEvent(at=0.1851, kind="crash", node="node2")])
    rep = _serve(placement="front-door", fault_plan=plan)
    _assert_sound(rep)
    assert rep.stats["delivery_drops"] >= 1
    assert rep.stats["dropped_messages"] >= 1
    assert rep.stats["home_requeues"] >= 1


def test_link_failure_retries_then_requeues_at_origin():
    """Cut the front's link to node2 during the offload window: bulk
    messages drop, the bounded retransmission budget burns down, and
    undeliverable work requeues at its origin — correctness holds."""
    plan = FaultPlan([FaultEvent(at=0.1845, kind="link",
                                 src="node0", dst="node2", heal=0.05)])
    rep = _serve(placement="front-door", fault_plan=plan)
    _assert_sound(rep)
    assert rep.stats["dropped_messages"] >= 1
    assert rep.stats["delivery_retries"] >= 1
    assert rep.stats["seg_recoveries"] >= 1


def test_partition_and_heal_serves_everything():
    plan = FaultPlan([FaultEvent(at=0.04, kind="partition",
                                 nodes=("node2", "node3"), heal=0.08)])
    rep = _serve(fault_plan=plan)
    _assert_sound(rep)
    assert rep.stats["link_failures"] == 1


def test_straggler_slows_then_recovers():
    """An 8x straggler mid-run: nothing is lost, the run just takes
    longer — and the speed scale is restored after the heal."""
    base = _serve()
    plan = FaultPlan([FaultEvent(at=0.02, kind="straggle", node="node1",
                                 factor=8.0, heal=0.1)])
    sched, load = build_serving(mix="parallel", n_nodes=4, n_requests=32,
                                fault_plan=plan)
    rep = sched.serve(load)
    _assert_sound(rep)
    assert rep.stats["straggles"] == 1
    assert rep.makespan >= base.makespan
    assert sched.engine.hosts["node1"].machine._speed == \
        pytest.approx(sched.cluster.node("node1").spec.speed_factor)


def test_chaos_run_is_deterministic():
    plan = FaultPlan([FaultEvent(at=0.08, kind="crash", node="node2"),
                      FaultEvent(at=0.02, kind="link", src="node0",
                                 dst="node1", heal=0.03)])
    a = _serve(placement="front-door", fault_plan=plan)
    b = _serve(placement="front-door", fault_plan=plan)
    assert json.dumps(a.to_dict(), sort_keys=True) \
        == json.dumps(b.to_dict(), sort_keys=True)


def test_crashed_node_is_never_an_offload_target():
    """After a crash, no placement, handoff, or offload decision may
    name the dead node again (stale gossip entries purge lazily)."""
    plan = FaultPlan([FaultEvent(at=0.05, kind="crash", node="node3")])
    sched, load = build_serving(mix="parallel", n_nodes=8, n_requests=48,
                                placement="front-door", fault_plan=plan)
    rep = sched.serve(load)
    _assert_sound(rep)
    assert "node3" in sched.dead
    # nothing was enqueued there after the crash: its store is empty
    # (bar the shutdown sentinel) and nothing new started there
    items = [r for r in sched.stores["node3"].items
             if not isinstance(r, object.__class__)]
    assert all(getattr(r, "rid", None) is None for r in items)
    for r in sched.finished:
        if r.state == "done" and r.finished_at > 0.05:
            assert r.host_node != "node3" or r.finished_at <= 0.05


# -- record / replay -----------------------------------------------------------


def test_fault_free_trace_replays_byte_identically():
    t1, rep1 = run_recorded({"n_requests": 16})
    t2, rep2 = replay_trace(t1)
    assert traces_equal(t1, t2)
    assert trace_divergence(t1, t2) is None
    assert rep1.served == rep2.served == 16


def test_chaos_trace_replays_byte_identically():
    """The headline: a run with crashes, recoveries, retries, and
    backoffs re-executes from its recorded config with byte-identical
    events and virtual timestamps."""
    t1, rep1 = run_recorded({"chaos_seed": 42, "placement": "front-door"})
    assert rep1.stats["crashes"] >= 1
    t2, _rep2 = replay_trace(t1)
    assert traces_equal(t1, t2)
    # the trace is self-contained JSON: a disk roundtrip changes nothing
    t3, _ = replay_trace(json.loads(json.dumps(t1)))
    assert traces_equal(t1, t3)


def test_trace_divergence_pinpoints_first_difference():
    t1, _ = run_recorded({"n_requests": 8})
    mutated = json.loads(json.dumps(t1))
    mutated["events"][3]["t"] += 1e-9
    assert not traces_equal(t1, mutated)
    assert "event 3" in trace_divergence(t1, mutated)


@pytest.mark.parametrize("region, path", [
    ("config", "config.seed"),
    ("request", "summary.requests[5].finished_at"),
    ("report", "summary.report.makespan_s"),
])
def test_trace_divergence_names_the_path_outside_the_events(region, path):
    """With the event streams equal, the pointer names the first
    differing config key, request-row field or report key."""
    t1, _ = run_recorded({"n_requests": 8})
    mutated = json.loads(json.dumps(t1))
    if region == "config":
        mutated["config"]["seed"] += 1
    elif region == "request":
        mutated["summary"]["requests"][5]["finished_at"] += 1e-9
    else:
        mutated["summary"]["report"]["makespan_s"] += 1e-9
    assert trace_divergence(t1, mutated).startswith(f"{path} differs: ")


def test_trace_rejects_unknown_config_and_version():
    with pytest.raises(ValueError):
        run_recorded({"warp_factor": 9})
    t1, _ = run_recorded({"n_requests": 8})
    bad = dict(t1, version=99)
    with pytest.raises(ValueError):
        replay_trace(bad)


def test_cli_record_then_replay_roundtrip(tmp_path, capsys):
    """`serve --chaos S --record F` then `serve --replay F` exits 0 and
    reports byte-identity."""
    from repro.__main__ import main as cli_main
    path = str(tmp_path / "trace.json")
    assert cli_main(["serve", "--chaos", "42", "--placement", "front-door",
                     "--record", path]) == 0
    assert cli_main(["serve", "--replay", path]) == 0
    out = capsys.readouterr().out
    assert "byte-identical" in out


# -- the fault-schedule fuzzer -------------------------------------------------


def test_fuzz_random_schedules_match_solo_oracles():
    out = fuzz(4, n_requests=16)
    assert out["n_runs"] == 4
    assert out["crashes"] >= 4  # every seed crashes someone
    assert out["violations"] == [], out["violations"]


# -- engine cleanup invariants recovery relies on ------------------------------


_SRC = """
class D { int v; }
class P {
  static int s1;
  static int work(D d, int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) { acc = acc + d.v + i; }
    P.s1 = P.s1 + n;
    return acc;
  }
  static int main(int n) { return 0; }
}
"""


def _engine():
    classes = preprocess_program(compile_source(_SRC), "faulting")
    return SODEngine(gige_cluster(2), classes)


def test_midrestore_failure_rolls_back_ledger_staging(monkeypatch):
    """If the restore dies partway, nothing of the shipment commits —
    no migration record, no timeline advance, no credit on the link's
    savings meter (the class would have ridden as a token) — and the
    same migration retried afterwards converges.  (There is no ledger
    to stage into any more; the name is kept for the test floor.)"""
    eng = _engine()
    home = eng.host("node0")
    d = home.machine.heap.new_instance(home.machine.loader.load("D"))
    # one clean round trip puts the class on the worker's classpath
    t = eng.spawn(home, "P", "work", [d, 5])
    run_to_msp(home.machine, t)
    worker, wt, _ = eng.migrate(home, t, "node1", 1)
    eng.run(worker, wt)
    eng.complete_segment(worker, wt, home, t, 1)
    home.machine.loader.load("P").statics["s1"] = 777
    # make the next restore die partway
    def boom(*a, **kw):
        raise MigrationError("restore interrupted")
    from repro.errors import MigrationError
    monkeypatch.setattr(eng, "_restore_segment", boom)
    t2 = eng.spawn(home, "P", "work", [d, 5])
    run_to_msp(home.machine, t2)
    before = (len(eng.migrations), eng.timeline,
              eng.cluster.network.total_saved())
    with pytest.raises(MigrationError):
        eng.migrate(home, t2, "node1", 1)
    assert (len(eng.migrations), eng.timeline,
            eng.cluster.network.total_saved()) == before  # no commit
    # with the fault gone the same migration succeeds and converges
    monkeypatch.undo()
    worker, wt2, rec = eng.migrate(home, t2, "node1", 1)
    assert rec.cached_class and eng.cluster.network.total_saved() > before[2]
    assert worker.machine.loader.load("P").statics["s1"] == 777
    eng.run(worker, wt2)
    eng.complete_segment(worker, wt2, home, t2, 1)


def test_abandon_midwriteback_discards_dirty_and_releases_epoch():
    """Abandoning a segment that already ran (its write-back will never
    be applied): the worker's dirty statics are dropped, the home's
    cells stay untouched, the thread's fetch-cache epoch is released,
    and nothing dirty is left."""
    eng = _engine()
    home = eng.host("node0")
    d = home.machine.heap.new_instance(home.machine.loader.load("D"))
    s1_home = home.machine.loader.load("P").statics["s1"]
    t = eng.spawn(home, "P", "work", [d, 5])
    run_to_msp(home.machine, t)
    worker, wt, _ = eng.migrate(home, t, "node1", 1)
    eng.run(worker, wt)  # segment ran: P.s1 mutated on the worker only
    assert worker.machine.loader.load("P").statics["s1"] != s1_home
    eng.abandon_segment(worker, wt)
    # home never saw the write (discarded atomically with the segment)
    assert home.machine.loader.load("P").statics["s1"] == s1_home
    # the epoch bookkeeping is clean
    assert wt not in worker.objman.thread_home
    assert not worker.objman.dirty_statics and not worker.objman.dirty
    # the home thread is recoverable: it still runs to the same answer
    eng.run(home, t)
    solo = eng.spawn(home, "P", "work", [d, 5])
    # d.v was never mutated by the program, so re-execution matches
    eng.run(home, solo)
    assert t.result == solo.result


# -- the load index under node loss --------------------------------------------


def test_retired_node_leaves_index_and_picks():
    """Retiring a node: counters stay exact, stale heap entries purge
    lazily, and no pick (fast path or naive oracle) ever names it."""
    cluster = serve_cluster(8, rack_size=4)
    index = LoadIndex(cluster, staleness=0.0)
    for i, n in enumerate(cluster.names()):
        index.add(n, i % 3)
    index.retire("node1")  # lightly loaded: would otherwise win picks
    index.retire("node4")
    for n in ("node1", "node4"):
        assert not index.is_live(n)
    for src in cluster.names():
        if not index.is_live(src):
            continue
        got = index.pick_underloaded(0.0, src, index.load(src, extra=1), 0.5)
        want = naive_pick(index, src, index.load(src, extra=1), 0.5)
        assert got == want
        assert got not in ("node1", "node4")
    # late adds on a retired node keep arithmetic but never re-enter
    index.add("node1", +1)
    got = index.pick_underloaded(0.0, "node0", 99.0, 0.1)
    assert got != "node1"


def test_shed_when_saturated_ignores_dead_rack():
    """Admission control with a fully-dead rack: the digest's stale
    summary must not make the front think capacity exists there (or
    shed against it) — saturation is judged on live racks only."""
    cluster = serve_cluster(8, rack_size=4)
    index = LoadIndex(cluster, staleness=0.0)
    rack1 = [n for n in cluster.names()
             if cluster.rack_of(n) != cluster.rack_of("node0")]
    # rack0 is heavily loaded; rack1 dies entirely
    for n in cluster.names():
        if n not in rack1:
            index.add(n, 5)
    for n in rack1:
        index.retire(n)
    assert index.saturated(0.0, 3.0)  # dead rack is no vent
    # a single survivor in rack1 un-saturates the cluster again
    cluster2 = serve_cluster(8, rack_size=4)
    index2 = LoadIndex(cluster2, staleness=0.0)
    for n in cluster2.names():
        if cluster2.rack_of(n) == cluster2.rack_of("node0"):
            index2.add(n, 5)
    for n in rack1[:-1]:
        index2.retire(n)
    assert not index2.saturated(0.0, 3.0)


def test_serving_with_admission_survives_node_loss():
    """End to end: ShedWhenSaturated + a crash — the run completes,
    answers stay correct, and anything shed is accounted, not lost."""
    plan = FaultPlan([FaultEvent(at=0.03, kind="crash", node="node5")])
    rep = serve_mix(mix="parallel", n_nodes=8, n_requests=48,
                    interarrival=1e-4,
                    admission=ShedWhenSaturated(max_node_load=16.0),
                    fault_plan=plan)
    _assert_sound(rep)
    assert rep.served + rep.failed + rep.stats["shed"] == rep.submitted


# -- chaos x multi-tenant overload ---------------------------------------------


def test_chaos_plus_overload_fuzz():
    """The combined disaster: per-tenant open-loop Poisson overload
    *while* the fault schedule kills nodes.  Capacity collapses under
    an offered load that never lets up — every fuzz invariant must
    still hold (oracle-correct, nothing lost, sheds honest, tenant
    accounting balanced)."""
    from repro.serve import parse_tenants
    out = fuzz(4, mix="parallel", n_requests=24,
               admission="adaptive", shed_at=6.0, slo=0.05,
               tenants=parse_tenants("gold:w=2,free:p=1:r=4"),
               arrival_rate=400.0)
    assert out["violations"] == []
    assert out["crashes"] > 0                      # faults actually fired
    assert any(r["served"] < 24 for r in out["runs"])  # overload actually bit


def test_dead_rack_sheds_are_attributed_not_lost():
    """A whole rack dies under tenant overload: requests refused
    because the dead rack shrank capacity are classified ``shed`` —
    terminal, never started, no result — and the per-tenant books
    still balance."""
    from repro.serve import AdaptiveShed, parse_tenants
    cluster_nodes = [f"node{i}" for i in range(4, 8)]
    plan = FaultPlan([FaultEvent(at=0.002, kind="crash", node=n)
                      for n in cluster_nodes])
    sched, load = build_serving(
        mix="parallel", n_nodes=8, n_requests=48, rack_size=4,
        admission=AdaptiveShed(slo=0.02, init_load=4.0),
        tenants=parse_tenants("gold:w=2,free:p=1:r=6"),
        arrival_rate=600.0, fault_plan=plan)
    rep = sched.serve(load)
    assert rep.correct == rep.served and rep.unserved == 0
    assert rep.stats["shed"] > 0
    shed = [r for r in sched.requests if r.state == "shed"]
    for r in shed:
        assert r.started_at is None and r.result is None
        assert r.thread is None and r.finished_at is not None
    assert len(shed) == rep.stats["shed"]
    for name, block in rep.tenants.items():
        assert block["submitted"] == block["admitted"] + block["shed"]
    assert not any(sched.load_index.tenant_count.values())


def test_record_replay_with_tenants_and_chaos():
    """Tenant QoS config rides the trace: a recorded run with tenants,
    Poisson arrivals, adaptive admission *and* a fault schedule
    replays byte-identically, and the summary attributes every request
    to its tenant."""
    cfg = {"mix": "parallel", "n_nodes": 4, "n_requests": 24, "seed": 5,
           "tenants": [{"name": "gold", "weight": 2.0, "priority": 0,
                        "rate_factor": 1.0},
                       {"name": "free", "weight": 1.0, "priority": 1,
                        "rate_factor": 3.0}],
           "arrival_rate": 300.0, "admission": "adaptive", "slo": 0.05,
           "chaos_seed": 11}
    t1, rep1 = run_recorded(cfg)
    t2, rep2 = replay_trace(t1)
    assert trace_divergence(t1, t2) is None
    assert traces_equal(t1, t2)
    rows = t1["summary"]["requests"]
    assert {r["tenant"] for r in rows} == {"gold", "free"}
    assert len(rows) == 24
