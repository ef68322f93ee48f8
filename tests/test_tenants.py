"""Multi-tenant QoS: tenants, weighted fair queueing, adaptive overload
control, and graceful degradation.

The load-bearing guarantees tested here:

* per-tenant arrival streams are *independent* — adding or removing a
  tenant leaves every other tenant's request sequence byte-identical;
* an empty tenant configuration is inert — ``tenants=TenantSet([])``
  serves byte-identically to the legacy single-tenant path;
* a tenant owns no namespace state — every isolated request's
  namespace dies with it, so a drained run leaves only root loaders;
* the adaptive controller learns the latency knee, sheds by priority
  with hysteresis (no admit/shed flapping at the threshold), and caps
  an abusive tenant at its fair share;
* weighted fair queueing actually isolates: a tenant flooding at 10x
  its fair rate absorbs the sheds while the others' latency holds.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.__main__ import main as cli_main
from repro.chaos import replay_trace, run_recorded, write_trace
from repro.cluster import serve_cluster
from repro.errors import ClusterError
from repro.serve import (AdaptiveShed, FairStore, LoadGenerator, LoadIndex,
                         Tenant, TenantSet, build_serving, parse_tenants)
from tests.helpers import serve_mix
from repro.sim import Environment
from repro.workloads.mixes import MIXES

from tests.chaos_fuzz import fuzz_one

# -- tenant configuration ------------------------------------------------------


def test_tenant_validation():
    with pytest.raises(ClusterError):
        Tenant("")
    with pytest.raises(ClusterError):
        Tenant("a", weight=0)
    with pytest.raises(ClusterError):
        Tenant("a", priority=-1)
    with pytest.raises(ClusterError):
        Tenant("a", rate_factor=0)
    with pytest.raises(ClusterError):
        TenantSet([Tenant("a"), Tenant("a", weight=2)])


def test_tenant_round_trips_through_dict():
    t = Tenant("gold", weight=3.0, priority=1, rate_factor=0.5)
    assert Tenant.from_dict(t.to_dict()) == t
    ts = TenantSet([t, Tenant("free")])
    back = TenantSet.from_dict(ts.to_dict())
    assert [t.name for t in back] == ["gold", "free"]
    assert back.get("gold") == t
    assert TenantSet.from_dict(None) is None


def test_parse_tenants_cli_syntax():
    ts = parse_tenants("gold:w=3:p=0,silver:weight=2:priority=1,free:r=10")
    assert [t.name for t in ts] == ["gold", "silver", "free"]
    assert ts.get("gold").weight == 3.0
    assert ts.get("silver").priority == 1
    assert ts.get("free").rate_factor == 10.0
    assert ts.share("gold") == pytest.approx(0.5)
    for key in ("x", "slo", "pool"):
        with pytest.raises(ClusterError, match=f"unknown tenant option "
                                               f"'{key}'"):
            parse_tenants(f"a:{key}=1")
    with pytest.raises(ClusterError):
        parse_tenants("a:w")
    with pytest.raises(ClusterError):
        parse_tenants(" , ")


# -- weighted fair queueing ----------------------------------------------------


def _item(tenant, i):
    return SimpleNamespace(tenant=tenant, i=i)


def _drain(store, n):
    out = []
    for _ in range(n):
        ev = store.get()
        assert ev.triggered
        out.append(ev.value)
    return out


def test_fairstore_weighted_shares():
    """With full backlog, dequeues split proportionally to weight and
    the order is a pure function of the queue state (stride
    scheduling)."""
    env = Environment()
    s = FairStore(env, weights={"a": 2.0, "b": 1.0})
    for i in range(12):
        s.put(_item("a", i))
        s.put(_item("b", i))
    first = [x for x in _drain(s, 9)]
    kinds = [x.tenant for x in first]
    # a has stride 1/2, b stride 1: every window of 3 serves a twice.
    assert kinds.count("a") == 6 and kinds.count("b") == 3
    # FIFO within a tenant survives the interleave.
    for name in ("a", "b"):
        order = [x.i for x in first if x.tenant == name]
        assert order == sorted(order)


def test_fairstore_deterministic_order():
    """Two identically-fed stores dequeue identically (name tie-break,
    no hash-order dependence)."""
    def feed():
        s = FairStore(Environment(), weights={"x": 1.0, "y": 3.0})
        for i in range(8):
            s.put(_item("y", i))
            s.put(_item("x", i))
            s.put(_item(None, i))  # root bucket
        return [(it.tenant, it.i) for it in _drain(s, 24)]
    assert feed() == feed()


def test_fairstore_idle_tenant_forfeits_credit():
    """A tenant that slept through 10 dequeues does not get a 10-item
    burst when it wakes: its pass clamps up to the virtual time."""
    env = Environment()
    s = FairStore(env, weights={"a": 1.0, "b": 1.0})
    for i in range(10):
        s.put(_item("a", i))
    _drain(s, 10)  # a's pass is now ~10; b never queued
    for i in range(4):
        s.put(_item("b", i))
        s.put(_item("a", 10 + i))
    order = [x.tenant for x in _drain(s, 8)]
    # b was clamped to the virtual time, so service alternates instead
    # of b draining all four first.
    assert order[:4] != ["b", "b", "b", "b"]
    assert order.count("b") == 4 and order.count("a") == 4


def test_fairstore_store_interface():
    """remove(), items order, and the blocked-getter handoff."""
    env = Environment()
    s = FairStore(env, weights={"a": 2.0})
    ev = s.get()
    assert not ev.triggered
    s.put(_item("a", 0))     # direct handoff to the blocked getter
    assert ev.triggered and ev.value.i == 0 and not list(s.items)
    items = [_item("a", 1), _item("b", 2), _item("a", 3)]
    s.put_many(items)
    # The handoff charged a's pass one stride, so b's fresh bucket now
    # sorts first; FIFO order within a survives.
    assert [x.i for x in s.items] == [2, 1, 3]
    assert s.remove(items[1]) and not s.remove(items[1])
    assert [x.i for x in _drain(s, 2)] == [1, 3]


# -- per-tenant arrival streams ------------------------------------------------


def _stream_key(rows):
    return [(t, s.program, tuple(s.args)) for t, s in rows]


def test_tenant_streams_are_independent():
    """Satellite 1: the per-tenant stream is a pure function of (mix,
    seed, name, rate) — adding a tenant leaves the others'
    byte-identical, removing one likewise."""
    mix = MIXES["parallel"]
    two = LoadGenerator(mix, 24, seed=7, arrival_rate=100.0,
                        tenants=parse_tenants("a,b"))
    three = LoadGenerator(mix, 24, seed=7, arrival_rate=100.0,
                          tenants=parse_tenants("a,b,c:r=4"))
    assert two.tenant_stream("a") == three.tenant_stream("a")
    assert two.tenant_stream("b") == three.tenant_stream("b")
    # The merged schedule only ever *truncates* a tenant's stream: the
    # per-tenant subsequence is a prefix of its standalone stream.
    for gen in (two, three):
        sched = gen.schedule()
        assert len(sched) == 24
        for name in [t.name for t in gen.tenants]:
            sub = [(w, s) for w, t, s in sched if t == name]
            assert sub == gen.tenant_stream(
                name, gen.tenants.get(name).rate_factor)[: len(sub)]


def test_tenant_stream_rate_scales_arrivals():
    mix = MIXES["parallel"]
    gen = LoadGenerator(mix, 32, seed=1, arrival_rate=50.0,
                        tenants=parse_tenants("slow,fast:r=10"))
    slow = gen.tenant_stream("slow")
    fast = gen.tenant_stream("fast", 10.0)
    assert fast[-1][0] < slow[-1][0] / 5  # 10x rate finishes much sooner
    # Arrival times are strictly increasing within a stream.
    assert all(a[0] < b[0] for a, b in zip(slow, slow[1:]))


def test_loadgen_validation():
    mix = MIXES["parallel"]
    with pytest.raises(ValueError):
        LoadGenerator(mix, 8, tenants=parse_tenants("a"))  # no rate
    with pytest.raises(ValueError):
        LoadGenerator(mix, 8, arrival_rate=0.0)
    # Legacy fixed-gap schedule: untenanted rows at i * interarrival.
    gen = LoadGenerator(mix, 4, seed=2, interarrival=0.5)
    rows = gen.schedule()
    assert [r[0] for r in rows] == [0.0, 0.5, 1.0, 1.5]
    assert all(r[1] is None for r in rows)


# -- inertness of the empty configuration --------------------------------------


def test_empty_tenant_set_is_inert():
    """``TenantSet([])`` must serve byte-identically to the legacy
    path — same discipline as the chaos layer's empty fault plan."""
    a = serve_mix(mix="parallel", n_nodes=4, n_requests=24)
    b = serve_mix(mix="parallel", n_nodes=4, n_requests=24,
                  tenants=TenantSet([]))
    assert json.dumps(a.to_dict(), sort_keys=True) == \
        json.dumps(b.to_dict(), sort_keys=True)


# -- namespace state dies with its request ------------------------------------


def test_tenanted_run_leaves_only_root_namespaces():
    """Tenants own no namespace state: every isolated request of a
    tenanted paper-mix run spawns in its own ``req{rid}`` namespace,
    and once the run drains every host holds its root loader alone and
    the engine tracks no namespace site or home."""
    sched, load = build_serving(mix="paper", n_nodes=4, n_requests=24,
                                seed=7, tenants=parse_tenants("a:w=2,b"),
                                arrival_rate=60.0)
    rep = sched.serve(load)
    assert rep.correct == rep.served == 24
    assert rep.stats["isolated"] > 0 and rep.stats["sod_offloads"] > 0
    for h in sched.engine.hosts.values():
        assert len(h.machine.loaders()) == 1  # the root alone
    assert not sched.engine._ns_sites and not sched.engine._ns_home


def test_replay_refuses_tenant_rows_with_retired_keys(tmp_path, capsys):
    """A trace recorded when tenant rows still carried ``slo`` and
    ``pool`` fails to replay with an error naming the key — from the
    library and from the CLI (exit 2) — not with a ``TypeError``."""
    trace, _rep = run_recorded({"mix": "parallel", "n_requests": 4,
                                "arrival_rate": 100.0,
                                "tenants": [{"name": "a"}]})
    for key, value in (("slo", 0.05), ("pool", 4)):
        trace["config"]["tenants"][0][key] = value
        with pytest.raises(ClusterError, match=f"unknown key.*'{key}'"):
            replay_trace(trace)
        path = tmp_path / f"{key}.json"
        write_trace(str(path), trace)
        assert cli_main(["serve", "--replay", str(path)]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        del trace["config"]["tenants"][0][key]
        # the CLI's compact spelling is refused the same way
        assert cli_main(["serve", "--tenants", f"a:{key}=1",
                         "--arrival-rate", "60"]) == 2
        assert f"'{key}'" in capsys.readouterr().err


# -- adaptive overload control -------------------------------------------------


class _FakeIndex:
    def __init__(self, level=0.0, live_capacity=4.0):
        self.level = level
        self.live_capacity = live_capacity
        self.tenant_count = {}

    def saturated(self, now, threshold):
        return self.level >= threshold


def _fake_sched(index, tenants=None):
    return SimpleNamespace(load_index=index, tenants=tenants,
                           env=SimpleNamespace(now=0.0))


def _req(tenant=None, latency=None):
    r = SimpleNamespace(tenant=tenant, arrival=0.0, finished_at=None)
    if latency is not None:
        r.finished_at = latency
    return r


def test_adaptive_threshold_learns_the_knee():
    adm = AdaptiveShed(slo=0.1, init_load=8.0, window=8)
    sched = _fake_sched(_FakeIndex())
    for _ in range(8):                     # a window of blown latencies
        adm.observe(sched, _req(latency=1.0))
    assert adm.adjust_down == 1
    assert adm.threshold == pytest.approx(8.0 * adm.decrease)
    for _ in range(8):                     # comfortably under the SLO
        adm.observe(sched, _req(latency=0.01))
    assert adm.adjust_up == 1
    assert adm.threshold == pytest.approx(8.0 * adm.decrease * adm.increase)
    for _ in range(40 * 8):                # sustained overload: bounded
        adm.observe(sched, _req(latency=5.0))
    assert adm.threshold >= adm.min_load
    # A latency in the dead band (margin*slo .. slo) moves nothing.
    moved = adm.threshold
    ups, downs = adm.adjust_up, adm.adjust_down
    for _ in range(8):
        adm.observe(sched, _req(latency=0.09))
    assert adm.threshold == moved
    assert (adm.adjust_up, adm.adjust_down) == (ups, downs)


def test_adaptive_hysteresis_stops_flapping():
    """Once a tier sheds, it keeps shedding until load falls below
    ``hysteresis`` times its bar — load hovering just under the bar
    must not flap admit/shed on alternating requests."""
    idx = _FakeIndex()
    adm = AdaptiveShed(init_load=8.0, hysteresis=0.8)
    sched = _fake_sched(idx)
    idx.level = 8.5                        # above the bar: shed
    assert not adm.admit(sched, _req())
    idx.level = 7.0                        # below bar, above 0.8*bar
    assert not adm.admit(sched, _req())    # hysteresis holds the shed
    idx.level = 6.0                        # below 0.8 * 8 = 6.4
    assert adm.admit(sched, _req())        # tier readmits
    idx.level = 7.0                        # back under the bar only
    assert adm.admit(sched, _req())        # no flap: still admitting


def test_adaptive_sheds_lower_priority_first():
    idx = _FakeIndex()
    tenants = parse_tenants("gold:p=0,free:p=2")
    adm = AdaptiveShed(init_load=8.0, priority_scale=0.5,
                       min_tenant_slots=64)  # fair cap out of the way
    sched = _fake_sched(idx, tenants)
    idx.level = 3.0   # above free's bar (8*0.25=2), below gold's (8)
    assert adm.admit(sched, _req("gold"))
    assert not adm.admit(sched, _req("free"))


def test_adaptive_fair_share_cap_bounds_one_tenant():
    idx = _FakeIndex(live_capacity=8.0)
    tenants = parse_tenants("a,b")
    adm = AdaptiveShed(init_load=8.0, min_tenant_slots=4, fair_factor=2.0)
    sched = _fake_sched(idx, tenants)
    # cap = max(4, 2.0 * 0.5 * 8 * 8) = 64; a holds 100 runnable.
    idx.tenant_count = {"a": 100}
    assert not adm.admit(sched, _req("a"))
    assert adm.fair_sheds == 1
    assert adm.admit(sched, _req("b"))     # b is under its cap


# -- edge cases ----------------------------------------------------------------


def test_all_racks_retired_reads_saturated():
    """A cluster with every node crash-retired has no capacity left:
    the saturation vote must say so (shed everything), not vacuously
    report headroom."""
    cluster = serve_cluster(4, rack_size=2)
    idx = LoadIndex(cluster)
    assert not idx.saturated(0.0, 1.0)
    for n in cluster.names():
        idx.retire(n)
    assert idx.saturated(0.0, 1.0)
    assert idx.live_capacity == 0.0


def test_single_node_cluster_with_tenants():
    rep = serve_mix(mix="parallel", n_nodes=1, n_requests=8, seed=5,
                    tenants=parse_tenants("a:w=2,b"), arrival_rate=100.0,
                    admission=AdaptiveShed())
    assert rep.unserved == 0
    assert rep.correct == rep.served
    assert rep.served + rep.stats["shed"] == 8


def test_tenant_counters_balance_after_crash_retirement():
    """Chaos + tenants: per-tenant runnable counters return to zero
    after the run drains even when crash recovery moved work across
    nodes (the fuzzer's tenant-accounting invariant)."""
    crashed = 0
    for seed in range(4):
        out = fuzz_one(seed, mix="parallel", n_requests=20,
                       tenants=parse_tenants("a:w=2,b"),
                       arrival_rate=400.0)
        assert out["violations"] == []
        crashed += out["report"]["sched"].get("crashes", 0)
    assert crashed > 0  # the schedules actually killed nodes


def test_report_carries_per_tenant_stats():
    rep = serve_mix(mix="parallel", n_nodes=4, n_requests=16, seed=9,
                    tenants=parse_tenants("a:w=2,b"), arrival_rate=200.0)
    assert set(rep.tenants) == {"a", "b"}
    total = sum(t["submitted"] for t in rep.tenants.values())
    assert total == 16
    for block in rep.tenants.values():
        assert block["submitted"] == block["admitted"] + block["shed"]
        assert block["done"] + block["failed"] <= block["admitted"]
        assert set(block["latency_s"]) == {"mean", "p50", "p95", "max"}
    assert "tenants" in rep.to_dict()
    legacy = serve_mix(mix="parallel", n_nodes=4, n_requests=8)
    assert "tenants" not in legacy.to_dict()


# -- isolation under abuse (the fast tier-1 version of the benchmark) ----------


def test_wfq_isolates_abusive_tenant():
    """One tenant flooding at 10x its fair rate: the abuser absorbs
    the sheds, the victims stay correct and their P95 does not blow
    up.  (The overload benchmark asserts the <25%% degradation bound
    at scale; this is the fast always-on version.)"""
    kw = dict(mix="parallel", n_nodes=4, n_requests=48, seed=11,
              arrival_rate=150.0, admission=AdaptiveShed(slo=0.05))
    calm = serve_mix(tenants=parse_tenants("gold:w=2,silver"), **kw)
    storm = serve_mix(tenants=parse_tenants("gold:w=2,silver,"
                                            "abuser:r=10"), **kw)
    assert storm.correct == storm.served  # abuse never corrupts anyone
    assert storm.unserved == 0
    # The abuser exists and pays: it absorbs the bulk of the shedding.
    shed = {n: t["shed"] for n, t in storm.tenants.items()}
    assert shed["abuser"] >= max(shed["gold"], shed["silver"])
    # Victims' tail latency holds within the benchmark's 25% bound.
    for name in ("gold", "silver"):
        before = calm.tenants[name]["latency_s"]["p95"]
        after = storm.tenants[name]["latency_s"]["p95"]
        assert after <= before * 1.25 + 1e-9
