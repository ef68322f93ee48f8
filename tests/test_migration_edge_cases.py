"""Migration edge cases surfaced by the elastic scheduler: offload from
inside a fused superinstruction group, repeated offload of one thread
(stale worker caches), and capture at a native-call safepoint.  Every
scenario is asserted against the legacy-loop single-machine oracle."""

from __future__ import annotations

import pytest

from repro.cluster import gige_cluster
from repro.errors import MigrationError
from repro.lang import compile_source
from repro.migration import SODEngine, capture_segment, run_to_msp
from repro.preprocess import preprocess_program
from repro.vm import Machine, VMTI

# -- shared program: recursion + fused loops + shared mutable object ----------

SRC = """
class Data { int v; }
class R {
  static int work(Data d, int i) {
    d.v = d.v + i;
    int acc = 0;
    for (int j = 0; j < 6; j = j + 1) {
      acc = (acc + d.v * j) % 997;
    }
    return acc;
  }
  static int main(int n) {
    Data d = new Data();
    d.v = 1;
    int s = 0;
    for (int i = 0; i < n; i = i + 1) {
      s = s + R.work(d, i);
    }
    return s + d.v;
  }
  static int chatty(int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) {
      Sys.print("step " + i);
      s = s + R.work(new Data(), i);
    }
    Sys.print("done " + s);
    return s;
  }
}
"""


@pytest.fixture(scope="module")
def classes():
    return preprocess_program(compile_source(SRC), "faulting")


def _legacy_oracle(classes, method, args):
    m = Machine(classes, dispatch="legacy")
    result = m.call("R", method, list(args))
    return result, list(m.stdout)


def _interior_fused_bci(machine, code):
    """An original bci strictly inside a multi-instruction fused group
    of ``code``'s decoded stream."""
    stream = machine.decoded(code)
    for i, slot in enumerate(stream):
        if slot[4] >= 3:
            return i + 1
    raise AssertionError("no fused group found")


# -- offload triggered mid-fused-group ----------------------------------------


def test_offload_triggered_mid_fused_group(classes):
    """The scheduler's trigger can fire while a thread sits strictly
    inside a fused superinstruction group; ``run_to_msp`` must walk it
    out (executing the interior components unfused) and the migration
    must still produce the legacy answer."""
    expected, _ = _legacy_oracle(classes, "main", [7])
    eng = SODEngine(gige_cluster(2), classes)
    home = eng.host("node0")
    work = home.machine.loader.load("R").find_method("work")
    interior = _interior_fused_bci(home.machine, work)

    t = eng.spawn(home, "R", "main", [7])
    status = eng.run(home, t, stop=lambda th: (
        th.frames[-1].code.name == "work"
        and th.frames[-1].pc == interior))
    assert status == "stopped"
    top = t.frames[-1]
    assert top.pc == interior
    stream = home.machine.decoded(top.code)
    # really interior: this bci is a group continuation, not a head
    heads = set()
    i = 0
    while i < len(stream):
        heads.add(i)
        i += max(1, stream[i][4])
    assert interior not in heads or stream[interior][4] == 1

    result, rec = eng.run_segment_remote(home, t, "node1", nframes=1)
    assert result == expected
    assert rec.nframes == 1


# -- double offload of the same thread ----------------------------------------


def test_double_offload_same_thread_same_worker(classes):
    """Offloading a thread twice to the *same* worker must re-fetch the
    home objects the second time: the home mutates them between
    segments, so serving the first segment's cached copies would fork
    state (regression test for the per-thread cache-epoch release)."""
    expected, _ = _legacy_oracle(classes, "main", [9])
    eng = SODEngine(gige_cluster(2), classes)
    home = eng.host("node0")
    t = eng.spawn(home, "R", "main", [9])

    at_work = lambda th: (th.frames[-1].code.name == "work"
                          and th.frames[-1].pc == 0)
    offloads = 0
    while eng.run(home, t, stop=at_work) == "stopped":
        worker, wt, _rec = eng.migrate(home, t, "node1", 1)
        eng.run(worker, wt)
        eng.complete_segment(worker, wt, home, t, 1)
        offloads += 1
    assert offloads >= 2  # genuinely re-offloaded the same thread
    assert t.result == expected
    # the worker really served both segments (not a fresh host each time)
    assert len(eng.migrations) == offloads
    assert all(r.dst == "node1" for r in eng.migrations)


def test_double_offload_alternating_workers(classes):
    """Same flow, alternating destinations: each worker's cache must be
    refreshed independently."""
    expected, _ = _legacy_oracle(classes, "main", [8])
    eng = SODEngine(gige_cluster(3), classes)
    home = eng.host("node0")
    t = eng.spawn(home, "R", "main", [8])
    at_work = lambda th: (th.frames[-1].code.name == "work"
                          and th.frames[-1].pc == 0)
    dsts = []
    while eng.run(home, t, stop=at_work) == "stopped":
        dst = "node1" if len(dsts) % 2 == 0 else "node2"
        worker, wt, _rec = eng.migrate(home, t, dst, 1)
        eng.run(worker, wt)
        eng.complete_segment(worker, wt, home, t, 1)
        dsts.append(dst)
    assert len(dsts) >= 2 and set(dsts) == {"node1", "node2"}
    assert t.result == expected


def test_thread_cannot_be_offloaded_while_remote(classes):
    """The same thread must not be captured again while its segment is
    away: the stale top frames are not at a consistent point."""
    eng = SODEngine(gige_cluster(3), classes)
    home = eng.host("node0")
    t = eng.spawn(home, "R", "main", [6])
    eng.run(home, t, stop=lambda th: th.frames[-1].code.name == "work")
    worker, wt, _rec = eng.migrate(home, t, "node1", 1)
    # home's copy of the migrated frame is pinned-by-convention: the
    # scheduler marks remote parents and never re-runs them; capturing
    # the stale stack from another trigger must at least fail loudly
    # once the worker finished and the home popped the frames.
    eng.run(worker, wt)
    eng.complete_segment(worker, wt, home, t, 1)
    eng.run(home, t)
    assert t.finished


# -- capture during a native-call safepoint -----------------------------------


def test_capture_at_native_call_safepoint(classes):
    """Freeze a thread exactly at a native-call bci (the fast loop's
    safepoint), migrate the frame, and check result + interleaved
    stdout against the legacy oracle: prints before the freeze happen
    at home, segment prints happen on the worker, residual prints back
    at home."""
    expected, ref_stdout = _legacy_oracle(classes, "chatty", [5])
    eng = SODEngine(gige_cluster(2), classes)
    home = eng.host("node0")

    def at_native(th):
        f = th.frames[-1]
        return (f.code.name == "chatty"
                and f.code.instrs[f.pc].op == "NATIVE"
                and len(home.machine.stdout) == 3)

    t = eng.spawn(home, "R", "chatty", [5])
    status = eng.run(home, t, stop=at_native)
    assert status == "stopped"
    assert t.frames[-1].code.instrs[t.frames[-1].pc].op == "NATIVE"
    # Walk to the MSP ourselves (prints replayed on the way stay at
    # home), then snapshot where home output ends before migrating.
    run_to_msp(home.machine, t)
    assert t.frames[-1].pc in t.frames[-1].code.msps
    pre = len(home.machine.stdout)

    result, _rec = eng.run_segment_remote(home, t, "node1", nframes=1)
    assert result == expected
    worker = eng.hosts["node1"]
    merged = (home.machine.stdout[:pre] + worker.machine.stdout
              + home.machine.stdout[pre:])
    assert merged == ref_stdout


def test_capture_requires_msp(classes):
    """Direct capture at a non-MSP bci is refused (run_to_msp is the
    only legal doorway; the scheduler always goes through it)."""
    eng = SODEngine(gige_cluster(2), classes)
    home = eng.host("node0")
    work = home.machine.loader.load("R").find_method("work")
    interior = _interior_fused_bci(home.machine, work)
    t = eng.spawn(home, "R", "main", [5])
    eng.run(home, t, stop=lambda th: (th.frames[-1].code.name == "work"
                                      and th.frames[-1].pc == interior))
    top = t.frames[-1]
    if top.pc in top.code.msps:  # pragma: no cover - layout-dependent
        pytest.skip("interior bci happens to be an MSP in this build")
    with pytest.raises(MigrationError):
        capture_segment(VMTI(home.machine), t, 1, home_node="node0")
    # ...while the doorway works from the same position
    run_to_msp(home.machine, t)
    state = capture_segment(VMTI(home.machine), t, 1, home_node="node0")
    assert state.frames[-1].class_name == "R"


# -- concurrent segments on one worker ----------------------------------------

SHARED_SRC = """
class K { static int tag; }
class Data { int v; }
class W {
  static int bump(Data d, int by) {
    K.tag = K.tag + by;
    d.v = d.v + by;
    int acc = 0;
    for (int j = 0; j < 5; j = j + 1) { acc = acc + d.v; }
    return acc;
  }
  static int main(int n) { return 0; }
}
"""

#: statics on the segment's own class: they travel with the capture,
#: so the engine can see (and refuse) cross-home co-location
OWN_STATIC_SRC = """
class Data { int v; }
class W {
  static int tag;
  static int bump(Data d, int by) {
    W.tag = W.tag + by;
    d.v = d.v + by;
    int acc = 0;
    for (int j = 0; j < 5; j = j + 1) { acc = acc + d.v; }
    return acc;
  }
  static int main(int n) { return 0; }
}
"""


def _shared_classes():
    return preprocess_program(compile_source(SHARED_SRC), "faulting")


def test_cross_home_static_sharing_is_refused():
    """Two homes offload segments of a static-bearing class to one
    worker: a worker machine has one static cell per class, so the
    second restore would overwrite the first home's values and their
    updates would compose on one shared cell.  The engine must refuse
    the co-location loudly instead of corrupting both homes (the serve
    scheduler catches the MigrationError and keeps the thread local)."""
    classes = preprocess_program(compile_source(OWN_STATIC_SRC), "faulting")
    eng = SODEngine(gige_cluster(3), classes)
    homes, threads = {}, {}
    for node in ("node0", "node1"):
        h = eng.host(node)  # both are full homes
        d = h.machine.heap.new_instance(h.machine.loader.load("Data"))
        d.fields["v"] = 10 if node == "node0" else 20
        h.machine.loader.load("W").statics["tag"] = 0
        t = h.machine.spawn("W", "bump", [d, 1 if node == "node0" else 5])
        run_to_msp(h.machine, t)
        homes[node], threads[node] = h, t

    w, wt, _rec = eng.migrate(homes["node0"], threads["node0"], "node2", 1)
    with pytest.raises(MigrationError, match="cross-home static"):
        eng.migrate(homes["node1"], threads["node1"], "node2", 1)
    # the first segment still completes normally, statics intact
    eng.run(w, wt)
    eng.complete_segment(w, wt, homes["node0"], threads["node0"], 1)
    assert homes["node0"].machine.loader.load("W").statics["tag"] == 1
    assert homes["node1"].machine.loader.load("W").statics["tag"] == 0
    # ...and once node2 is free again, node1's segment is welcome
    w2, wt2, _ = eng.migrate(homes["node1"], threads["node1"], "node2", 1)
    eng.run(w2, wt2)
    eng.complete_segment(w2, wt2, homes["node1"], threads["node1"], 1)
    assert homes["node1"].machine.loader.load("W").statics["tag"] == 5


NOSTATIC_SRC = """
class Data { int v; }
class W {
  static int bump(Data d, int by) {
    d.v = d.v + by;
    int acc = 0;
    for (int j = 0; j < 5; j = j + 1) { acc = acc + d.v; }
    return acc;
  }
  static int main(int n) { return 0; }
}
"""


def test_concurrent_segments_from_different_homes_keep_objects_apart():
    """Statics-free segments from two homes CAN share a worker; each
    completion must ship only its own home's dirty objects (regression:
    the unscoped write-back shipped every dirty object keyed by bare
    oid, applying home B's update to whatever object owned that oid on
    home A)."""
    classes = preprocess_program(compile_source(NOSTATIC_SRC), "faulting")
    eng = SODEngine(gige_cluster(3), classes)
    homes, threads, objs = {}, {}, {}
    for node in ("node0", "node1"):
        h = eng.host(node)
        d = h.machine.heap.new_instance(h.machine.loader.load("Data"))
        d.fields["v"] = 10 if node == "node0" else 20
        t = h.machine.spawn("W", "bump", [d, 1 if node == "node0" else 5])
        run_to_msp(h.machine, t)
        homes[node], threads[node], objs[node] = h, t, d

    workers = {}
    for node in ("node0", "node1"):
        workers[node] = eng.migrate(homes[node], threads[node],
                                    "node2", 1)[:2]
    for node in ("node0", "node1"):
        w, wt = workers[node]
        eng.run(w, wt)
    for node in ("node0", "node1"):
        w, wt = workers[node]
        eng.complete_segment(w, wt, homes[node], threads[node], 1)

    assert objs["node0"].fields["v"] == 11
    assert objs["node1"].fields["v"] == 25


def test_shared_cache_entry_survives_other_threads_release():
    """Two segments from ONE home share a fetched object on the worker
    (second fetch is a cache hit).  Completing the first must not evict
    the copy from under the second: its later writes still need the
    home identity to travel back."""
    classes = _shared_classes()
    eng = SODEngine(gige_cluster(2), classes)
    home = eng.host("node0")
    d = home.machine.heap.new_instance(home.machine.loader.load("Data"))
    d.fields["v"] = 100
    home.machine.loader.load("K").statics["tag"] = 0

    ta = home.machine.spawn("W", "bump", [d, 1], thread_name="a")
    tb = home.machine.spawn("W", "bump", [d, 2], thread_name="b")
    run_to_msp(home.machine, ta)
    run_to_msp(home.machine, tb)
    w, wta, _ = eng.migrate(home, ta, "node1", 1)
    _, wtb, _ = eng.migrate(home, tb, "node1", 1)
    # both worker threads fault d in; the second hits the cache
    eng.run(w, wta)
    eng.run(w, wtb)
    assert w.objman.stats.faults >= 1
    eng.complete_segment(w, wta, home, ta, 1)   # releases a's epoch
    eng.complete_segment(w, wtb, home, tb, 1)   # b's writes must land
    # both bumps reached the home copy (a: +1, b: +2 on the copy b
    # fetched before a's writeback — last writer wins per release
    # consistency, so v reflects b's final copy)
    assert d.fields["v"] in (102, 103)
    # and b's static increment was not lost with a stale identity
    assert home.machine.loader.load("K").statics["tag"] == 3


def test_abandoned_dead_segment_cleans_worker():
    """A segment that dies of an uncaught guest exception is abandoned:
    no write-back, and its epoch and pending static writes are dropped
    (the serve scheduler's failure path must leave nothing dirty)."""
    src = """
    class W {
      static int tag;
      static int boom(int n) {
        W.tag = W.tag + 1;
        int s = 0;
        for (int i = 0; i < n; i = i + 1) { s = s + i; }
        return s / (n - n);
      }
      static int main(int n) { return 0; }
    }
    """
    classes = preprocess_program(compile_source(src), "faulting")
    eng = SODEngine(gige_cluster(2), classes)
    home = eng.host("node0")
    t = home.machine.spawn("W", "boom", [4])
    run_to_msp(home.machine, t)
    w, wt, _ = eng.migrate(home, t, "node1", 1)
    eng.run(w, wt)
    assert wt.uncaught is not None
    with pytest.raises(MigrationError):
        eng.complete_segment(w, wt, home, t, 1)  # refuses dead segments
    eng.abandon_segment(w, wt)
    assert not w.objman.thread_home
    assert not w.objman.dirty and not w.objman.dirty_statics
    # and the home's statics never saw the dead segment's write
    assert home.machine.loader.load("W").statics["tag"] == 0
