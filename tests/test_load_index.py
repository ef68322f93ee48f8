"""The incremental load indexes: property tests proving the
incrementally-maintained state (event-driven counters, rack scans,
gossip digest) never drifts from a from-scratch recomputation, across
randomized op schedules and live serving runs — the guarantee that
lets the scheduler's hot path drop its O(n) all-node scans."""

from __future__ import annotations

import math
import random

import pytest

from repro.cluster import serve_cluster
from repro.errors import ClusterError
from repro.serve import (ClusterScheduler, LoadGenerator, LoadIndex,
                         QueueDepthPolicy, WorkProfile, naive_pick,
                         recompute_load)
from tests.helpers import serve_mix
from repro.serve.loadgen import Request
from repro.workloads.mixes import MIXES, serve_classpath


# -- randomized schedules vs from-scratch recomputation ------------------------


def _shadow_load(counts, weights, node):
    return counts[node] / weights[node]


@pytest.mark.parametrize("n_nodes,rack_size,seed", [
    (1, 4, 0), (3, 4, 1), (8, 4, 2), (9, 4, 3), (13, 5, 4), (24, 4, 5),
    (7, 1, 6), (16, 16, 7),
])
def test_index_matches_recomputation_over_random_schedule(
        n_nodes, rack_size, seed):
    """Drive a LoadIndex through a random enqueue/dequeue/offload-ish
    schedule; after every operation the incremental state must equal
    the shadow model, and every pick (staleness=0: always-fresh
    semantics) must equal the naive full-scan implementing the same
    documented rule."""
    cluster = serve_cluster(n_nodes, rack_size=rack_size)
    index = LoadIndex(cluster, staleness=0.0)
    rng = random.Random(f"loadindex:{seed}")
    names = cluster.names()
    counts = {n: 0 for n in names}
    weights = {n: cluster.node(n).spec.cpu_weight for n in names}
    now = 0.0
    for step in range(600):
        node = rng.choice(names)
        if counts[node] > 0 and rng.random() < 0.45:
            delta = -1
        else:
            delta = +1
        counts[node] += delta
        index.add(node, delta)
        now += rng.random() * 1e-4
        # counters never drift
        assert index.count[node] == counts[node]
        assert index.load(node) == _shadow_load(counts, weights, node)
        if step % 7 == 0:
            src = rng.choice(names)
            src_load = index.load(src, extra=1)
            min_gap = rng.choice((0.5, 1.0, 2.0))
            got = index.pick_underloaded(now, src, src_load, min_gap)
            want = naive_pick(index, src, src_load, min_gap)
            assert got == want, (
                f"step {step}: pick from {src} gave {got}, naive {want}")
        if step % 13 == 0:
            # rack minima agree with a full scan
            for rack, members in index.racks.items():
                fresh = index.rack_min(rack)
                naive = min((index.load(n), n) for n in members)
                assert fresh == naive


def _container_sizes(value):
    """The length of ``value`` and of every container nested in it."""
    if isinstance(value, dict):
        yield len(value)
        for v in value.values():
            yield from _container_sizes(v)
    elif isinstance(value, (list, tuple, set, frozenset)):
        yield len(value)
        for v in value:
            yield from _container_sizes(v)


def test_index_holds_no_per_bump_state():
    """A bump writes counters and nothing else: after a long random ±1
    schedule with no pick in between, every container the index holds
    is sized by its nodes or racks (or tenants), never by the number of
    bumps it has seen."""
    cluster = serve_cluster(32, rack_size=4)
    index = LoadIndex(cluster)
    names = cluster.names()
    rng = random.Random("loadindex:no-per-bump-state")
    counts = {n: 0 for n in names}
    tenant = {n: ("gold", "free", None)[i % 3] for i, n in enumerate(names)}
    for _ in range(20_000):
        node = rng.choice(names)
        delta = -1 if counts[node] > 0 and rng.random() < 0.5 else +1
        counts[node] += delta
        index.add(node, delta, tenant=tenant[node])
    bound = len(names) + len(index.racks)
    for attr, value in vars(index).items():
        for size in _container_sizes(value):
            assert size <= bound, (attr, size)


def test_index_matches_scheduler_during_live_serving():
    """Sample the scheduler mid-run from inside the event kernel: at
    every probe instant the incremental index must equal
    ``recompute_load`` (queue depth + running slot + in-flight
    deliveries) for every node — including while offload storms are in
    the air."""
    mix = MIXES["hotspot"]
    cluster = serve_cluster(4)
    sched = ClusterScheduler(
        cluster, serve_classpath(mix.programs()),
        placement=None, offload=QueueDepthPolicy(min_depth=3, mig_frames=2))
    samples = []

    def probe():
        for _ in range(400):
            yield sched.env.timeout(0.0005)
            if sched._stopped:
                return
            for n in sched.node_names:
                samples.append(
                    (sched.env.now, n, sched.load_index.load(n),
                     recompute_load(sched, n)))

    sched.env.process(probe(), name="probe")
    rep = sched.serve(LoadGenerator(mix, 24, seed=3))
    assert rep.served == rep.correct == 24
    assert rep.stats["sod_offloads"] > 0  # storms actually happened
    assert len(samples) > 100
    for at, node, incremental, recomputed in samples:
        assert incremental == recomputed, (
            f"index drift on {node} at t={at}: "
            f"index={incremental} recompute={recomputed}")


def test_index_drained_after_serving():
    """When a run completes, everything the index counted has been
    consumed again: all counters return to zero (no leaked load)."""
    mix = MIXES["parallel"]
    sched = ClusterScheduler(serve_cluster(3),
                             serve_classpath(mix.programs()),
                             offload=QueueDepthPolicy())
    sched.serve(LoadGenerator(mix, 9, seed=5))
    assert all(c == 0 for c in sched.load_index.count.values())
    assert all(p == 0 for p in sched.pending.values())
    assert all(r is None for r in sched.running.values())


# -- decision cost stays sub-linear --------------------------------------------


def test_decision_cost_is_logarithmic_not_linear():
    """The per-decision index cost must be bounded by a small multiple
    of log2(n), not by n — the acceptance property that the hot path
    no longer scans all nodes."""
    costs = {}
    for n in (16, 64):
        rep = serve_mix("scale", n_nodes=n, n_requests=200, seed=7)
        s = rep.stats
        assert s["decisions"] > 0
        costs[n] = s["decision_ops"] / s["decisions"]
        # generous constant: an O(n) scan would cost >= n-1 per pick
        assert costs[n] <= 4 * math.log2(n) + 12, (n, costs[n])
    assert costs[64] < 2.0 * costs[16]


def test_gossip_staleness_bounds_refreshes():
    """A larger staleness bound means fewer gossip rounds for the same
    run, never stale beyond the bound (rounds are keyed to virtual
    time, so this is exact and deterministic)."""
    fresh = serve_mix("parallel", n_nodes=4, n_requests=24, seed=7,
                      staleness=0.0)
    bounded = serve_mix("parallel", n_nodes=4, n_requests=24, seed=7,
                        staleness=5e-3)
    assert fresh.stats["gossip_rounds"] > bounded.stats["gossip_rounds"]
    assert bounded.stats["gossip_rounds"] >= 1
    # both serve everything correctly: staleness bounds the *signal*,
    # never correctness
    assert fresh.served == fresh.correct == 24
    assert bounded.served == bounded.correct == 24


def test_index_validation():
    cluster = serve_cluster(2)
    with pytest.raises(ClusterError):
        LoadIndex(cluster, staleness=-1.0)
    index = LoadIndex(cluster)
    with pytest.raises(ClusterError, match="underflow"):
        index.add("node0", -1)


# -- the work profile ----------------------------------------------------------


def test_work_profile_running_mean_and_remaining():
    prof = WorkProfile()
    req = Request(rid=0)
    assert prof.remaining(req) is None  # no spec, no estimate
    for instrs in (1000, 2000, 3000):
        prof.observe("Fib", instrs)
    assert prof.p75("NQ") is None
    # remaining budgets against the P75, not the mean of 2000
    # (interpolated exactly while the sample is small)
    assert prof.p75("Fib") == pytest.approx(2500.0)

    class Spec:
        program = "Fib"
    req = Request(rid=1, spec=Spec())
    req.instrs = 500
    assert prof.remaining(req) == pytest.approx(2000.0)
    req.instrs = 5000  # past the budget: clamped, never negative
    assert prof.remaining(req) == 0.0


def test_work_profile_segment_remaining_spans_parent_work():
    """A migrated segment has no spec of its own: its remaining work is
    the parent program's budget minus work done on both sides of the
    offload."""
    prof = WorkProfile()
    for _ in range(8):
        prof.observe("Fib", 10_000)

    class Spec:
        program = "Fib"
    parent = Request(rid=1, spec=Spec())
    parent.instrs = 4000
    seg = Request(rid=2, kind="segment", parent=parent)
    seg.instrs = 2500
    assert prof.remaining(seg) == pytest.approx(3500.0)


def test_work_profile_p75_tracks_bimodal_mixes():
    """ROADMAP "work-profile variance": a program whose cost is bimodal
    (cheap common case, expensive tail) must not have its expensive
    requests vetoed as nearly-done.  The running mean sits between the
    modes; the streaming P75 sits at the heavy mode, so a heavy request
    midway through keeps a large remaining-work estimate."""
    prof = WorkProfile()
    light, heavy = 1_000, 100_000
    costs = [light if i % 2 == 0 else heavy for i in range(60)]
    for instrs in costs:
        prof.observe("Bi", instrs)
    mean = sum(costs) / len(costs)
    p75 = prof.p75("Bi")
    assert mean == (light + heavy) / 2
    assert p75 > 0.9 * heavy  # the estimator sits at the heavy mode

    class Spec:
        program = "Bi"
    req = Request(rid=3, spec=Spec())
    req.instrs = 60_000  # a heavy request, just past the mean
    # mean-based budgeting would call this finished (veto misfire);
    # P75 budgeting sees the real residual work
    assert mean - req.instrs < 0
    assert prof.remaining(req) > 30_000

    # deterministic: the same stream replays to the same estimate
    prof2 = WorkProfile()
    for instrs in costs:
        prof2.observe("Bi", instrs)
    assert prof2.p75("Bi") == p75


def test_victim_vetoes_spare_nearly_done_threads():
    """With the remaining-work filter active, runs record vetoes under
    load (deep-but-nearly-done threads kept home) and still serve
    everything; an effectively-disabled filter records none."""
    picky = serve_mix("scale", n_nodes=24, n_requests=150, seed=7)
    assert picky.served == picky.correct == 150
    lax = serve_mix("scale", n_nodes=24, n_requests=150, seed=7,
                    offload=QueueDepthPolicy(min_remaining_quanta=0.0))
    assert lax.served == lax.correct == 150
    assert picky.stats["victim_vetoes"] > 0
    assert lax.stats["victim_vetoes"] == 0


def test_saturated_holds_when_the_lightest_load_equals_the_threshold():
    """Kills the mutant ``load > threshold`` in ``LoadIndex.saturated``:
    a rack whose least-loaded node sits exactly at the threshold is
    saturated, and one just under it is not."""
    cluster = serve_cluster(4, rack_size=4)
    index = LoadIndex(cluster, staleness=0.0)
    for node in cluster.names():
        index.add(node, 2)
    assert index.saturated(0.0, 2.0)
    assert not index.saturated(0.0, 2.5)
    index.add("node3", -1)
    assert not index.saturated(1.0, 2.0)
    assert index.saturated(1.0, 1.0)
