"""Elastic serving layer: quantum preemption, placement, handoff, SOD
offload, batched capture, and deterministic replay."""

from __future__ import annotations

import json

import pytest

from repro.cluster import serve_cluster
from repro.errors import VMError
from repro.migration.object_manager import WorkerObjectManager
from repro.migration.sodee import SODEngine
from repro.serve import (ClusterScheduler, FrontDoorPlacement, LoadGenerator,
                         QueueDepthPolicy, Request, ShedWhenSaturated,
                         WeightedRoundRobinPlacement, build_serving)
from tests.helpers import serve_mix
from repro.vm import Machine
from repro.workloads.mixes import (MIXES, RequestSpec,
                                   expected_request_result, serve_classpath,
                                   serve_compiled)

# -- VM quantum preemption -----------------------------------------------------


@pytest.mark.parametrize("dispatch", ["fast", "legacy"])
def test_quantum_preemption_preserves_semantics(dispatch):
    """Slicing a run into quanta must not change result, instruction
    count, or virtual clock — on either interpreter loop."""
    oracle = Machine(serve_compiled("Fib"))
    expected = oracle.call("Fib", "main", [15])

    m = Machine(serve_compiled("Fib"), dispatch=dispatch)
    t = m.spawn("Fib", "main", [15])
    statuses = []
    while not t.finished:
        statuses.append(m.run(t, quantum=700))
    assert statuses[-1] == "finished"
    assert set(statuses[:-1]) == {"preempted"}
    assert len(statuses) > 5  # actually sliced
    assert t.result == expected
    assert m.instr_count == oracle.instr_count
    assert m.clock == oracle.clock


def test_quantum_interleaves_threads_fairly():
    """Two threads round-robined on one machine both finish correctly
    and neither runs to completion in one slice."""
    classes = serve_compiled("NQ")
    expected = Machine(classes).call("NQ", "main", [5])
    m = Machine(classes)
    ta = m.spawn("NQ", "main", [5], thread_name="a")
    tb = m.spawn("NQ", "main", [5], thread_name="b")
    slices = {"a": 0, "b": 0}
    while not (ta.finished and tb.finished):
        for name, th in (("a", ta), ("b", tb)):
            if not th.finished:
                m.run(th, quantum=1000)
                slices[name] += 1
    assert ta.result == tb.result == expected
    assert slices["a"] > 3 and slices["b"] > 3


def test_quantum_validation():
    m = Machine(serve_compiled("Fib"))
    t = m.spawn("Fib", "main", [5])
    with pytest.raises(VMError):
        m.run(t, quantum=0)


def test_preemption_lands_on_original_bci():
    """A preempted frame's pc is an original bytecode index (fused
    streams are parallel), so capture/VMTI see a consistent thread."""
    m = Machine(serve_compiled("QS"))
    t = m.spawn("QS", "main", [80])
    status = m.run(t, quantum=500)
    assert status == "preempted"
    top = t.frames[-1]
    assert 0 <= top.pc < len(top.code.instrs)


# -- placement -----------------------------------------------------------------


def _mk_sched(n_nodes=3, cpu_weights=None, **kw):
    cluster = serve_cluster(n_nodes, cpu_weights=cpu_weights)
    classes = serve_classpath(["Fib", "NQ"])
    return ClusterScheduler(cluster, classes, **kw)


def test_weighted_round_robin_respects_capacity():
    sched = _mk_sched(n_nodes=3, cpu_weights=[2.0, 1.0, 1.0],
                      placement=WeightedRoundRobinPlacement())
    spec = RequestSpec("Fib", (5,))
    places = [sched.placement.place(sched, None) for _ in range(8)]
    assert places.count("node0") == 4  # double weight, double share
    assert places.count("node1") == 2 and places.count("node2") == 2


def test_front_door_placement_targets_front():
    sched = _mk_sched(placement=FrontDoorPlacement())
    assert sched.placement.place(sched, None) == "node0"


# -- end-to-end serving --------------------------------------------------------


def test_single_node_serves_all_correctly():
    rep = serve_mix("mixed", n_nodes=1, n_requests=10, seed=2)
    assert rep.served == rep.submitted == 10
    assert rep.correct == 10
    assert rep.failed == 0 and rep.unserved == 0
    assert rep.stats["sod_offloads"] == 0  # nowhere to go
    assert rep.makespan > 0 and rep.throughput > 0


def test_multi_node_serving_is_correct_and_offloads():
    rep = serve_mix("parallel", n_nodes=4, n_requests=32, seed=7)
    assert rep.served == rep.correct == 32
    assert rep.stats["sod_offloads"] > 0
    assert rep.stats["completions"] == rep.stats["sod_offloads"]
    # work actually spread: every node served something
    assert all(row["served"] > 0 for row in rep.per_node.values())


def test_front_door_handoff_spreads_load():
    rep = serve_mix("hotspot", n_nodes=4, n_requests=24, seed=3,
                    placement="front-door",
                    offload=QueueDepthPolicy(min_depth=3, mig_frames=2))
    assert rep.served == rep.correct == 24
    assert rep.stats["handoffs"] > 0
    assert rep.stats["sod_offloads"] > 0
    served_away = sum(row["served"] for node, row in rep.per_node.items()
                      if node != "node0")
    assert served_away > 0


def test_no_offload_policy_keeps_work_in_place():
    rep = serve_mix("parallel", n_nodes=2, n_requests=8, seed=1,
                    placement="front-door", offload="none")
    assert rep.served == rep.correct == 8
    assert rep.stats["sod_offloads"] == 0 and rep.stats["handoffs"] == 0
    assert rep.per_node["node0"]["served"] == 8


def test_heterogeneous_cluster_prefers_fast_nodes():
    rep = serve_mix("parallel", n_nodes=2, n_requests=12, seed=9,
                    cpu_weights=[3.0, 1.0])
    assert rep.served == rep.correct == 12
    assert rep.per_node["node0"]["served"] \
        > rep.per_node["node1"]["served"]


def test_serving_replays_bit_identically():
    a = serve_mix("hotspot", n_nodes=3, n_requests=15, seed=13,
                  placement="front-door")
    b = serve_mix("hotspot", n_nodes=3, n_requests=15, seed=13,
                  placement="front-door")
    assert json.dumps(a.to_dict(), sort_keys=True) \
        == json.dumps(b.to_dict(), sort_keys=True)


def _modeled_outcome(tier2_counters=False, **described):
    """Everything one serving run says about the *modeled* cluster:
    the report (minus the host-side tier-2 activity counters, unless
    asked to keep them), the network's byte totals, each request's
    fate, and every write-back message (which copies and statics it
    carried, and its bytes)."""
    messages = []
    build = WorkerObjectManager.build_writeback

    def recording(objman, *args, **kw):
        message, nbytes = build(objman, *args, **kw)
        messages.append((objman.node_name, list(message["updates"]),
                         list(message["elem_updates"]),
                         list(message["static_updates"]), nbytes))
        return message, nbytes

    sched, load = build_serving(**described)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(WorkerObjectManager, "build_writeback", recording)
        rep = sched.serve(load).to_dict()
    assert rep["served"] == rep["correct"] == described["n_requests"]
    assert rep["sched"]["max_quantum_overshoot"] < 2000
    if not tier2_counters:
        rep["sched"] = {k: v for k, v in rep["sched"].items()
                        if not k.startswith("tier2_")}
    return {
        "report": rep,
        "bytes": (sched.network.total_bytes(), sched.network.total_saved()),
        "requests": [(r.rid, r.host_node, r.hops, r.retries, r.result,
                      r.quanta, r.instrs, r.sod_offloads, r.started_at,
                      r.finished_at) for r in sched.requests],
        "writebacks": messages,
    }


def _assert_same_outcome(a, b, path="outcome"):
    """Equal everywhere, naming the first path that differs."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for k in a:
            _assert_same_outcome(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same_outcome(x, y, f"{path}[{i}]")
    else:
        assert a == b, path


#: the described runs every "what executes does not change what is
#: modeled" differential serves
TIER_BLIND_RUNS = [
    dict(mix="paper", n_nodes=4, n_requests=40, max_seg_hops=2),
    dict(mix="offload", n_nodes=4, n_requests=20, max_seg_hops=2,
         placement="front-door"),
]


@pytest.mark.parametrize("described", TIER_BLIND_RUNS,
                         ids=["paper", "offload-front-door"])
def test_serving_outcome_is_tier_blind(described, monkeypatch):
    """The modeled cluster does not depend on which VM loop executed
    it: the same described run served with tier 2 on, with
    ``REPRO_JIT=0``, and on hosts whose machines use legacy dispatch
    gives equal counts, byte totals, per-request fates, write-back
    messages and timestamps.  And with
    fast dispatch (the solo-run oracle is a legacy machine) nothing but
    a ``stop`` / ``max_instrs`` / breakpoint run enters the hooked loop
    — a worker's write barrier selects no loop, for the segment's
    thread or for bystanders."""
    import repro.migration.sodee as sodee

    run_loop = Machine._run_loop
    unexplained = []

    def hooked(m, thread, stop, max_instrs, *rest):
        if (m.dispatch == "fast" and stop is None and max_instrs is None
                and not m.breakpoints and m.on_breakpoint is None):
            unexplained.append(thread.name)
        return run_loop(m, thread, stop, max_instrs, *rest)

    monkeypatch.setattr(Machine, "_run_loop", hooked)
    monkeypatch.setenv("REPRO_JIT", "1")
    tier2 = _modeled_outcome(**described)
    assert tier2["writebacks"] and tier2["report"]["sched"]["sod_offloads"]
    monkeypatch.setenv("REPRO_JIT", "0")
    _assert_same_outcome(tier2, _modeled_outcome(**described))
    assert not unexplained
    monkeypatch.setattr(
        sodee, "Machine",
        lambda *a, **kw: Machine(*a, dispatch="legacy", **kw))
    _assert_same_outcome(tier2, _modeled_outcome(**described))


@pytest.mark.parametrize("described", TIER_BLIND_RUNS,
                         ids=["paper", "offload-front-door"])
def test_template_cache_is_transparent(described, monkeypatch):
    """Tier-2 templates change no closure's code: the tier-blindness
    runs, compiling at every first entry, with the template lookup
    forced to miss every time give the same outcome — the tier-2
    counters this time included — and the same multiset of linked
    ``__jit_source__`` texts as with the cache."""
    import repro.vm.jit as jit

    compile_code = jit.compile_code
    monkeypatch.setattr(jit, "JIT_THRESHOLD", 1)  # hotness-independent

    def outcome(miss):
        texts = []

        def linking(machine, code, jm):
            if miss:
                code._tier2 = None  # forget the sites and every template
            cf = compile_code(machine, code, jm)
            if cf is not None:
                texts.append(cf[0].__jit_source__)
            return cf

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jit, "compile_code", linking)
            return _modeled_outcome(tier2_counters=True, **described), \
                sorted(texts)

    cached, cached_texts = outcome(miss=False)
    assert cached["report"]["sched"]["tier2_compiles"] == len(cached_texts)
    assert len(set(cached_texts)) < len(cached_texts)  # links share code
    missed, missed_texts = outcome(miss=True)
    _assert_same_outcome(cached, missed)
    assert cached_texts == missed_texts


def test_interarrival_stream_is_open_loop():
    """With a large interarrival gap, requests are served as they land
    (latency stays near one request's compute, nothing queues)."""
    rep = serve_mix("parallel", n_nodes=1, n_requests=5, seed=4,
                    interarrival=0.5)
    assert rep.served == rep.correct == 5
    assert rep.makespan > 4 * 0.5  # stream stayed open that long
    assert rep.latency_max < 0.5  # each served before the next arrived


# -- batched multi-thread capture ---------------------------------------------


def test_migrate_many_matches_singles_and_amortizes_transfer():
    """A 3-thread batch produces the same worker results as three
    independent runs, while paying the fixed transfer setup once."""
    classes = serve_classpath(["Fib"])
    expected = expected_request_result(RequestSpec("Fib", (12,)))

    def prepared_engine():
        eng = SODEngine(serve_cluster(2), dict(classes))
        home = eng.host("node0")
        threads = []
        for i in range(3):
            t = eng.spawn(home, "Fib", "main", [12])
            eng.run(home, t, stop=lambda th: th.depth() >= 5)
            threads.append(t)
        return eng, home, threads

    eng, home, threads = prepared_engine()
    worker, results = eng.migrate_many(home, threads, "node1", nframes=2)
    assert len(results) == 3
    for (wt, rec), t in zip(results, threads):
        eng.run(worker, wt)
        eng.complete_segment(worker, wt, home, t, rec.nframes)
        eng.run(home, t)
        assert t.result == expected

    # vs three single migrations from an identically prepared engine
    eng2, home2, threads2 = prepared_engine()
    singles = [eng2.migrate(home2, t, "node1", 2) for t in threads2]
    batch_transfer = sum(rec.transfer_time for _wt, rec in results)
    single_transfer = sum(rec.transfer_time for _w, _wt, rec in singles)
    assert batch_transfer < single_transfer  # fixed setup amortized


def test_migrate_many_empty_batch_rejected():
    from repro.errors import MigrationError
    eng = SODEngine(serve_cluster(2), dict(serve_classpath(["Fib"])))
    home = eng.host("node0")
    with pytest.raises(MigrationError):
        eng.migrate_many(home, [], "node1")


# -- load generator ------------------------------------------------------------


def test_load_generator_stream_is_seed_stable():
    mix = MIXES["mixed"]
    gen = LoadGenerator(mix, 20, seed=42)
    assert [s.label() for s in gen.specs()] \
        == [s.label() for s in LoadGenerator(mix, 20, seed=42).specs()]
    other = LoadGenerator(mix, 20, seed=43).specs()
    assert gen.specs() != other  # seed actually matters


def test_scheduler_is_one_shot():
    """The node processes exit with the stream; reuse must fail loudly
    instead of queueing requests nobody will ever serve."""
    from repro.errors import ClusterError
    mix = MIXES["parallel"]
    sched = ClusterScheduler(serve_cluster(2),
                             serve_classpath(mix.programs()))
    rep = sched.serve(LoadGenerator(mix, 4, seed=1))
    assert rep.served == 4
    with pytest.raises(ClusterError, match="one-shot"):
        sched.serve(LoadGenerator(mix, 4, seed=2))


def test_load_generator_validation():
    mix = MIXES["parallel"]
    with pytest.raises(ValueError):
        LoadGenerator(mix, 0)
    with pytest.raises(ValueError):
        LoadGenerator(mix, 5, interarrival=-1.0)


def test_weighted_round_robin_honors_extreme_ratios():
    """A near-zero-capacity node must get a near-zero share, not be
    rounded up to parity (ratios are integerized relative to the
    lightest node, not on an absolute denominator grid)."""
    sched = _mk_sched(n_nodes=2, cpu_weights=[0.005, 1.0],
                      placement=WeightedRoundRobinPlacement())
    places = [sched.placement.place(sched, None) for _ in range(402)]
    assert places.count("node0") == 2  # 1 in 201, got two full cycles


def test_weighted_round_robin_rebuilds_on_reweighted_cluster():
    """Reusing a placement instance on a same-named cluster with
    different weights must not replay the stale cycle."""
    placement = WeightedRoundRobinPlacement()
    even = _mk_sched(n_nodes=2, cpu_weights=[1.0, 1.0],
                     placement=placement)
    assert [placement.place(even, None) for _ in range(4)] \
        .count("node0") == 2
    skewed = _mk_sched(n_nodes=2, cpu_weights=[3.0, 1.0],
                       placement=placement)
    places = [placement.place(skewed, None) for _ in range(8)]
    assert places.count("node0") == 6  # 3:1, not the stale 1:1 cycle


# -- front-door admission control ----------------------------------------------


def test_admission_sheds_when_every_rack_saturated():
    """A burst far beyond capacity with a low shed threshold: once the
    digest shows every rack's lightest node at/above the bar, later
    arrivals are shed — counted, finished-on-arrival, never queued —
    and everything actually admitted is still served correctly."""
    mix = MIXES["parallel"]
    sched = ClusterScheduler(
        serve_cluster(2), serve_classpath(mix.programs()),
        staleness=0.0,  # always-fresh digest: deterministic shed point
        admission=ShedWhenSaturated(max_node_load=2.0))
    n = 16
    rep = sched.serve(LoadGenerator(mix, n, seed=9))
    assert rep.stats["shed"] > 0
    assert rep.served + rep.stats["shed"] == n
    assert rep.served == rep.correct
    assert rep.failed == 0 and rep.unserved == 0
    shed = [r for r in sched.finished if r.state == "shed"]
    assert len(shed) == rep.stats["shed"]
    assert all(r.finished_at == r.arrival and r.thread is None
               for r in shed)
    # the load index drained: shed requests never touched a queue
    assert all(c == 0 for c in sched.load_index.count.values())


def test_admission_admits_everything_under_light_load():
    """Spaced arrivals under the same threshold: the digest never shows
    saturation, nothing is shed."""
    mix = MIXES["parallel"]
    sched = ClusterScheduler(
        serve_cluster(2), serve_classpath(mix.programs()),
        staleness=0.0,
        admission=ShedWhenSaturated(max_node_load=2.0))
    rep = sched.serve(LoadGenerator(mix, 8, seed=9, interarrival=0.05))
    assert rep.stats["shed"] == 0
    assert rep.served == rep.correct == 8
