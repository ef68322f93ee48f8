"""What a repeat offload re-uses — class digest tokens and object
revalidation, nothing else — and multi-hop re-offload chains.

A capture always ships the frames and statics it captured and a
restore always writes what it received.  The load-bearing test is the
interleaving fuzz at the bottom: across randomized offload / rehop /
abandon schedules a cache-enabled engine must stay bit-identical to
the ``transfer_cache=False`` oracle while moving no more bytes.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import gige_cluster
from repro.errors import MigrationError
from repro.lang import compile_source
from repro.migration import SODEngine
from repro.migration.capture import run_to_msp
from repro.migration.sodee import CLASS_TOKEN_BYTES
from repro.migration.tracing import Tracer
from repro.preprocess import preprocess_program
from repro.preprocess.sizes import class_size
from repro.vm.machine import Machine
from tests.helpers import fuzz_budget

#: statics-bearing guest program whose segment mutates part of the
#: static state each run (s1 always, s2 only for odd n) and reads a
#: home object
SRC = """
class D { int v; }
class P {
  static int s0;
  static int s1;
  static int s2;
  static str tag;
  static int work(D d, int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      acc = (acc + P.s0 + d.v + i) % 100003;
    }
    P.s1 = P.s1 + n;
    if (n % 2 == 1) { P.s2 = P.s2 + 1; }
    d.v = d.v + 1;
    return acc;
  }
  static int main(int n) { return 0; }
}
"""


def _classes():
    return preprocess_program(compile_source(SRC), "faulting")


def _spawn_at_msp(eng, home, d, n):
    t = eng.spawn(home, "P", "work", [d, n])
    run_to_msp(home.machine, t)
    return t


# -- statics always ship ---------------------------------------------------------


def test_abandoned_segment_static_writes_are_overwritten_by_the_next_offload():
    """A segment that dies after writing statics never ships them home:
    the worker's cells have forked from the home's.  Nothing remembers
    what the worker held, so the next offload simply ships the home's
    values and the worker converges again."""
    eng = SODEngine(gige_cluster(2), _classes())
    home = eng.host("node0")
    d = home.machine.heap.new_instance(home.machine.loader.load("D"))

    t = _spawn_at_msp(eng, home, d, 3)
    worker, wt, _ = eng.migrate(home, t, "node1", 1)
    eng.run(worker, wt)  # the segment's own PUTS forks P.s1
    assert (None, "P", "s1") in worker.objman.dirty_statics
    eng.abandon_segment(worker, wt)
    assert not worker.objman.dirty_statics
    assert worker.machine.loader.load("P").statics["s1"] \
        != home.machine.loader.load("P").statics["s1"]

    t2 = _spawn_at_msp(eng, home, d, 2)
    worker, wt2, _rec = eng.migrate(home, t2, "node1", 1)
    assert worker.machine.loader.load("P").statics["s1"] \
        == home.machine.loader.load("P").statics["s1"]
    eng.run(worker, wt2)
    eng.complete_segment(worker, wt2, home, t2, 1)


def test_forked_worker_cell_is_overwritten_by_the_next_shipment():
    """A worker static cell forked behind the home's back (e.g. a local
    guest thread — unregistered, so untracked — wrote it) needs no
    detection and no healing fetch: the next shipment carries the
    home's value and the restore writes it, at the price of the
    static's own few bytes (no extra round trip on the worker)."""
    eng = SODEngine(gige_cluster(2), _classes())
    home = eng.host("node0")
    d = home.machine.heap.new_instance(home.machine.loader.load("D"))

    recs = []
    for n in (2, 4):  # the second is the warm, unforked reference
        t = _spawn_at_msp(eng, home, d, n)
        worker, wt, rec = eng.migrate(home, t, "node1", 1)
        recs.append(rec)
        eng.run(worker, wt)
        eng.complete_segment(worker, wt, home, t, 1)

    worker.machine.loader.load("P").statics["s0"] = -777
    assert home.machine.loader.load("P").statics["s0"] != -777

    t2 = _spawn_at_msp(eng, home, d, 4)
    worker, wt2, rec2 = eng.migrate(home, t2, "node1", 1)
    assert worker.machine.loader.load("P").statics["s0"] \
        == home.machine.loader.load("P").statics["s0"]
    # every static rides by value every time: same state size, and the
    # restore costs what the unforked one did (no fallback fetch)
    assert rec2.state_bytes == recs[1].state_bytes == recs[0].state_bytes
    assert rec2.restore_time == pytest.approx(recs[1].restore_time,
                                              rel=1e-9)
    eng.run(worker, wt2)
    eng.complete_segment(worker, wt2, home, t2, 1)
    assert worker.machine.loader.load("P").statics["s0"] != -777


# -- class tokens --------------------------------------------------------------


def test_repeat_offload_ships_class_token_not_class():
    eng = SODEngine(gige_cluster(2), _classes())
    home = eng.host("node0")
    d = home.machine.heap.new_instance(home.machine.loader.load("D"))

    t = _spawn_at_msp(eng, home, d, 3)
    worker, wt, rec1 = eng.migrate(home, t, "node1", 1)
    eng.run(worker, wt)
    eng.complete_segment(worker, wt, home, t, 1)
    assert not rec1.cached_class
    assert rec1.class_bytes > CLASS_TOKEN_BYTES

    t = _spawn_at_msp(eng, home, d, 3)
    worker, wt, rec2 = eng.migrate(home, t, "node1", 1)
    assert rec2.cached_class
    assert rec2.class_bytes == CLASS_TOKEN_BYTES
    assert rec2.saved_bytes == rec1.class_bytes - CLASS_TOKEN_BYTES
    assert rec2.transfer_time < rec1.transfer_time
    eng.run(worker, wt)
    eng.complete_segment(worker, wt, home, t, 1)


def test_transfer_cache_off_reships_everything():
    eng = SODEngine(gige_cluster(2), _classes(), transfer_cache=False)
    home = eng.host("node0")
    d = home.machine.heap.new_instance(home.machine.loader.load("D"))
    for _ in range(2):
        t = _spawn_at_msp(eng, home, d, 3)
        worker, wt, rec = eng.migrate(home, t, "node1", 1)
        assert not rec.cached_class and rec.saved_bytes == 0
        eng.run(worker, wt)
        eng.complete_segment(worker, wt, home, t, 1)
    assert eng.cluster.network.total_saved() == 0


# -- object revalidation -------------------------------------------------------

#: the segment reads a chunky home array but never writes it
READER_SRC = """
class P {
  static int read(int[] xs, int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      acc = (acc + xs[i % 64]) % 100003;
    }
    return acc;
  }
  static int main(int n) { return 0; }
}
"""


def _reader_engine():
    classes = preprocess_program(compile_source(READER_SRC), "faulting")
    eng = SODEngine(gige_cluster(2), classes)
    home = eng.host("node0")
    xs = home.machine.heap.new_array("int", 64, 8)
    for i in range(64):
        xs.data[i] = i * 3 + 1
    return eng, home, xs


def _offload_read(eng, home, xs, n=70):
    t = eng.spawn(home, "P", "read", [xs, n])
    run_to_msp(home.machine, t)
    worker, wt, rec = eng.migrate(home, t, "node1", 1)
    eng.run(worker, wt)
    eng.complete_segment(worker, wt, home, t, 1)
    return worker, t.result


def test_unchanged_object_revalidates_instead_of_reshipping():
    eng, home, xs = _reader_engine()
    worker, r1 = _offload_read(eng, home, xs)
    stats = worker.objman.stats
    assert stats.faults == 1 and stats.revalidations == 0
    bytes_after_first = eng.cluster.network.total_bytes()

    worker, r2 = _offload_read(eng, home, xs)
    assert r2 == r1
    assert stats.revalidations == 1 and stats.reval_hits == 1
    assert stats.faults == 1  # no payload re-shipped
    assert eng.cluster.network.total_saved() > 0
    second_bytes = eng.cluster.network.total_bytes() - bytes_after_first
    assert second_bytes < bytes_after_first / 2


def test_changed_object_fails_revalidation_and_reships():
    eng, home, xs = _reader_engine()
    worker, r1 = _offload_read(eng, home, xs)
    xs.data[10] = 999_999  # home mutates between offloads
    worker, r2 = _offload_read(eng, home, xs)
    stats = worker.objman.stats
    assert stats.revalidations == 1 and stats.reval_hits == 0
    assert stats.faults == 2  # fresh payload rode the reply
    assert r2 != r1  # and the worker really saw the new contents


def test_abandoned_dirty_copy_is_never_retained():
    """A copy whose writes were never shipped home must not survive
    into the retained cache: home still has the old value, so a
    revalidation would wrongly bless the forked copy."""
    eng, home, xs = _reader_engine()
    t = eng.spawn(home, "P", "read", [xs, 70])
    run_to_msp(home.machine, t)
    worker, wt, _rec = eng.migrate(home, t, "node1", 1)
    eng.run(worker, wt)  # faults the array in (clean)
    # dirty the fetched copy without any write-back, then abandon
    copy = worker.objman.cache[(xs.oid, "node0")]
    copy.data[0] = -1  # any store to a fetched copy records itself
    assert id(copy) in worker.objman.dirty
    eng.abandon_segment(worker, wt)
    assert (xs.oid, "node0") not in worker.objman.retained

    worker2, r = _offload_read(eng, home, xs)
    assert worker2.objman.stats.reval_hits == 0  # full re-fetch happened
    assert xs.data[0] != -1  # the forked write never leaked home


# -- multi-hop chains (engine level) -------------------------------------------

CHAIN_SRC = """
class D { int v; }
class P {
  static int s0;
  static int outer(D d, int n) { return P.inner(d, n) + P.s0; }
  static int inner(D d, int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      acc = (acc + d.v + i) % 100003;
      P.s0 = P.s0 + 1;
    }
    d.v = d.v + n;
    return acc;
  }
  static int main(int n) { return 0; }
}
"""


def _chain_classes():
    return preprocess_program(compile_source(CHAIN_SRC), "faulting")


def _chain_oracle(n, v0, s0):
    m = Machine(_chain_classes(), dispatch="legacy")
    cls = m.loader.load("P")
    cls.statics["s0"] = s0
    d = m.heap.new_instance(m.loader.load("D"))
    d.fields["v"] = v0
    t = m.spawn("P", "outer", [d, n])
    m.run(t)
    return t.result, cls.statics["s0"], d.fields["v"]


def test_rehop_segment_completes_directly_home():
    """home -> node1 -> node2: the chain's last hop completes straight
    to the home (value delivered, statics and object effects applied),
    and the intermediate hop is left clean (epoch released, nothing
    dirty)."""
    want, want_s0, want_v = _chain_oracle(6, 10, 3)

    eng = SODEngine(gige_cluster(3), _chain_classes())
    home = eng.host("node0")
    home.machine.loader.load("P").statics["s0"] = 3
    d = home.machine.heap.new_instance(home.machine.loader.load("D"))
    d.fields["v"] = 10
    t = eng.spawn(home, "P", "outer", [d, 6])
    # freeze inside inner(), two frames migratable above main-entry
    eng.run(home, t, stop=lambda th: th.frames[-1].code.name == "inner"
            and th.frames[-1].pc in th.frames[-1].code.msps)

    worker1, wt, _ = eng.migrate(home, t, "node1", 2)
    eng.run(worker1, wt, max_instrs=25)  # partial progress on hop 1
    assert not wt.finished
    worker2, wt2, rec = eng.rehop_segment(worker1, wt, "node2", home)
    assert rec.src == "node1" and rec.dst == "node2"
    # hop 1 is clean: no epochs, no dirt
    assert not worker1.objman.thread_home
    assert not worker1.objman.dirty and not worker1.objman.dirty_statics
    eng.run(worker2, wt2)
    eng.complete_segment(worker2, wt2, home, t, 2)
    eng.run(home, t)

    assert t.result == want
    assert home.machine.loader.load("P").statics["s0"] == want_s0
    assert d.fields["v"] == want_v


def test_rehop_forwards_fetched_copies_to_true_home():
    """After a chain hop, the next hop's faults go to the object's real
    home, not to the intermediate hop (no proxy chains)."""
    eng = SODEngine(gige_cluster(3), _chain_classes())
    home = eng.host("node0")
    d = home.machine.heap.new_instance(home.machine.loader.load("D"))
    d.fields["v"] = 4
    t = eng.spawn(home, "P", "outer", [d, 5])
    eng.run(home, t, stop=lambda th: th.frames[-1].code.name == "inner"
            and th.frames[-1].pc in th.frames[-1].code.msps)
    worker1, wt, _ = eng.migrate(home, t, "node1", 2)
    eng.run(worker1, wt, max_instrs=40)  # faults d in on node1
    if wt.finished:  # pragma: no cover - schedule drift guard
        pytest.skip("segment finished before the hop")
    home_served_before = home.server.requests
    worker2, wt2, _ = eng.rehop_segment(worker1, wt, "node2", home)
    eng.run(worker2, wt2)
    # node2's faults for d went to node0 (the home), not node1
    assert home.server.requests > home_served_before
    assert all(node == "node0"
               for (_oid, node) in worker2.objman.home_identity.values())
    eng.complete_segment(worker2, wt2, home, t, 2)
    eng.run(home, t)
    assert t.uncaught is None


# -- multi-hop chains (scheduler level) ----------------------------------------


def test_scheduler_multihop_chains_serve_correctly():
    """An offload-heavy front-door run with chains enabled: chains
    actually fire, every request is served and correct, and the load
    index drains back to zero (a chain hop leaks no phantom load)."""
    from repro.cluster import serve_cluster
    from repro.serve import (ClusterScheduler, FrontDoorPlacement,
                             LoadGenerator, QueueDepthPolicy)
    from repro.workloads.mixes import MIXES, serve_classpath

    mix = MIXES["offload"]
    sched = ClusterScheduler(
        serve_cluster(6), serve_classpath(mix.programs()),
        placement=FrontDoorPlacement(),
        offload=QueueDepthPolicy(max_seg_hops=2))
    rep = sched.serve(LoadGenerator(mix, 18, seed=7))
    assert rep.served == rep.correct == 18
    assert rep.failed == 0 and rep.unserved == 0
    assert rep.stats["seg_rehops"] > 0
    assert rep.stats["bytes_saved"] > 0
    assert all(c == 0 for c in sched.load_index.count.values())
    assert all(p == 0 for p in sched.pending.values())


def test_saved_bytes_are_class_tokens_plus_revalidations():
    """What the caches keep off the wire is exactly two things: class
    files that rode as digest tokens and retained copies that
    revalidated.  Both are recomputed here from what the run itself
    reports (the migration records and the engine's fault events) and
    must add up to the network's savings meter — nothing else credits
    it."""
    from repro.serve import build_serving

    sched, load = build_serving(mix="offload", n_nodes=4, n_requests=20,
                                placement="front-door", max_seg_hops=2)
    eng = sched.engine
    tracer = Tracer().attach(eng)
    rep = sched.serve(load)
    assert rep.served == rep.correct == 20

    # a token's saving is the class file it stood for, less the token
    sizes = {class_size(cf) - CLASS_TOKEN_BYTES
             for cf in eng.classes.values()}
    tokens = 0
    for rec in eng.migrations:
        if rec.cached_class:
            assert rec.class_bytes == CLASS_TOKEN_BYTES
            assert rec.saved_bytes in sizes
        else:
            assert rec.saved_bytes == 0
        tokens += rec.saved_bytes
    assert tokens > 0

    hits = [e for e in tracer.of_kind("fault") if e["revalidated"]]
    assert len(hits) == rep.stats["reval_hits"] > 0
    revalidated = sum(max(0, e["bytes"] - 16) for e in hits)

    assert sched.network.total_saved() == tokens + revalidated
    assert rep.stats["bytes_saved"] == tokens + revalidated


def test_scheduler_single_hop_default_never_rehops():
    from repro.serve import QueueDepthPolicy, serve_mix

    rep = serve_mix("offload", n_nodes=6, n_requests=12, seed=7,
                    placement="front-door", offload=QueueDepthPolicy())
    assert rep.served == rep.correct == 12
    assert rep.stats["seg_rehops"] == 0


# -- transfer-cache fuzz: randomized abandon/re-offload/rehop interleavings ----
#
# This fuzz layer interleaves several live segments per home — offloads
# to varying workers, mid-run slices, chain rehops, abandons, home-side
# mutations between episodes — and requires the cache-enabled engine to
# stay bit-identical to the cache-off oracle on every completed result
# and on the final home state, while moving no more bytes.  The op
# stream is seeded, so CI replays exact schedules.

FUZZ_CACHE_SEEDS = range(fuzz_budget(4))


def _fuzz_spawn(eng, home, d, n):
    """A fresh outer(d, n) thread, run to the first MSP."""
    t = eng.spawn(home, "P", "outer", [d, n])
    run_to_msp(home.machine, t)
    return t


@pytest.mark.parametrize("seed", FUZZ_CACHE_SEEDS)
def test_transfer_cache_fuzz_interleaved_schedules(seed):
    from repro.migration.segments import max_migratable

    rng = random.Random(f"cachefuzz:{seed}")
    engines = [SODEngine(gige_cluster(4), _chain_classes(),
                         transfer_cache=on) for on in (True, False)]
    homes = [eng.host("node0") for eng in engines]
    dees = []
    for home in homes:
        d = home.machine.heap.new_instance(home.machine.loader.load("D"))
        d.fields["v"] = 7
        dees.append(d)
    workers = ("node1", "node2", "node3")
    # live[i] is the per-engine list of in-flight segments:
    # (home_thread, seg_thread, worker_host, nframes)
    live = [[], []]
    results = [[], []]

    def complete(idx):
        """Finish and complete live segment ``idx`` on both engines."""
        for k, eng in enumerate(engines):
            t, wt, worker, nframes = live[k].pop(idx)
            eng.run(worker, wt)
            eng.complete_segment(worker, wt, homes[k], t, nframes)
            eng.run(homes[k], t)
            results[k].append(t.result)

    for step in range(16):
        op = rng.random()
        if op < 0.18:
            # home-side mutation between segment episodes
            delta = rng.randint(1, 9)
            for home, d in zip(homes, dees):
                cls = home.machine.loader.load("P")
                cls.statics["s0"] = cls.statics["s0"] + delta
                if step % 2:
                    d.fields["v"] = d.fields["v"] + 1
        elif op < 0.50 or not live[0]:
            # spawn + offload a fresh segment to a random worker
            n = rng.randint(2, 6)
            dst = rng.choice(workers)
            run = rng.randint(0, 60)
            for k, eng in enumerate(engines):
                t = _fuzz_spawn(eng, homes[k], dees[k], n)
                eng.run(homes[k], t, max_instrs=run)
                if t.finished:
                    results[k].append(t.result)
                    continue
                run_to_msp(homes[k].machine, t)
                nmax = min(max_migratable(t), t.depth() - 1)
                if nmax < 1:
                    eng.run(homes[k], t)
                    results[k].append(t.result)
                    continue
                nframes = rng.randint(1, nmax)
                worker, wt, _rec = eng.migrate(homes[k], t, dst, nframes)
                live[k].append((t, wt, worker, nframes))
            assert len(live[0]) == len(live[1])
        elif op < 0.62:
            # run a slice of one live segment on its current hop
            idx = rng.randrange(len(live[0]))
            slice_instrs = rng.randint(1, 80)
            for k, eng in enumerate(engines):
                _t, wt, worker, _n = live[k][idx]
                eng.run(worker, wt, max_instrs=slice_instrs)
        elif op < 0.76:
            # chain rehop: push one live segment a hop onward
            idx = rng.randrange(len(live[0]))
            cur = live[0][idx][2].node_name
            choices = [w for w in workers if w != cur]
            dst = rng.choice(choices)
            outcomes = []
            for k, eng in enumerate(engines):
                t, wt, worker, nframes = live[k][idx]
                if wt.finished:
                    outcomes.append("finished")
                    continue
                try:
                    w2, wt2, _ = eng.rehop_segment(worker, wt, dst,
                                                   homes[k])
                except MigrationError:
                    outcomes.append("refused")
                    continue
                outcomes.append("hopped")
                live[k][idx] = (t, wt2, w2, nframes)
            # both engines must take the same path (identical guest
            # schedules -> identical capturability)
            assert len(set(outcomes)) == 1, outcomes
            if outcomes[0] == "finished":
                complete(idx)
        elif op < 0.86:
            # abandon: the segment dies, effects dropped on both sides
            # (a later capture ships the home's statics over the fork)
            idx = rng.randrange(len(live[0]))
            for k, eng in enumerate(engines):
                t, wt, worker, _n = live[k].pop(idx)
                eng.abandon_segment(worker, wt)
        else:
            complete(rng.randrange(len(live[0])))

    while live[0]:
        complete(0)

    assert results[0] == results[1]
    final = [dict(h.machine.loader.load("P").statics) for h in homes]
    assert final[0] == final[1]
    assert dees[0].fields["v"] == dees[1].fields["v"]
    cached_bytes = engines[0].cluster.network.total_bytes()
    full_bytes = engines[1].cluster.network.total_bytes()
    assert cached_bytes <= full_bytes
