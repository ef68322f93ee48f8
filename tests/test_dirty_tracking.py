"""Dirtiness is a property of the fetched copy (paper III.A/III.C: the
worker sends home "the return value and updated data").

A guest store to a copy the worker's object manager fetched lands in
``dirty`` whichever loop executed it; a registered segment thread's
``PUTS`` lands in ``dirty_statics`` with its home; nothing else is ever
recorded, so nothing is left behind when a cluster drains and an empty
write-back never rides the wire."""

from __future__ import annotations

import gc
import weakref

import pytest

import repro.migration.sodee as sodee
from repro.cluster import gige_cluster
from repro.lang import compile_source
from repro.migration import SODEngine
from repro.migration.capture import run_to_msp
from repro.preprocess import preprocess_program
from repro.serve import build_serving
from repro.vm import Machine
from repro.vm import jit as jit_mod

SRC = """
class D { int v; D next; }
class P {
  static int s;
  static int putf(D d, int[] xs, D[] ds) { d.v = d.v + 7; return d.v; }
  static int astore(D d, int[] xs, D[] ds) { xs[1] = 41; return xs[1]; }
  static int astore_ref(D d, int[] xs, D[] ds) { ds[1] = d; return 1; }
  static int puts(D d, int[] xs, D[] ds) { P.s = P.s + 3; return P.s; }
  static int quiet(D d, int[] xs, D[] ds) {
    D mine = new D();
    mine.v = d.next.v + xs[0] + ds[0].v;
    int[] ys = new int[2];
    ys[0] = mine.v;
    D[] es = new D[1];
    es[0] = mine;
    return ys[0] + es[0].v;
  }
  static int go(D d, int[] xs, D[] ds, int k) {
    if (k == 0) { return P.putf(d, xs, ds); }
    if (k == 1) { return P.astore(d, xs, ds); }
    if (k == 2) { return P.astore_ref(d, xs, ds); }
    if (k == 3) { return P.puts(d, xs, ds); }
    return P.quiet(d, xs, ds);
  }
}
"""

CASES = ["putf", "astore", "astore_ref", "puts", "quiet"]

#: the four ways a worker machine can execute the store
LOOPS = {
    "legacy": dict(dispatch="legacy"),
    "tier1": dict(jit=False),
    "tier1-unfused": dict(jit=False, fuse=False),
    "tier2": dict(jit=True),
}


@pytest.fixture(scope="module")
def classes():
    return preprocess_program(compile_source(SRC), "faulting")


@pytest.fixture(params=list(LOOPS))
def loop(request, monkeypatch):
    """Every machine the engine creates runs the parametrized loop."""
    kw = LOOPS[request.param]
    monkeypatch.setattr(sodee, "Machine",
                        lambda *a, **k: Machine(*a, **kw, **k))
    if request.param == "tier2":
        monkeypatch.setattr(jit_mod, "JIT_THRESHOLD", 1)
    return request.param


def _offload(classes, case):
    """Home objects ``d -> nxt``, ``xs``, ``ds = [e, null]``; the
    ``go(case)`` frame offloaded to node1 and run there (the store
    happens in a fresh callee frame, so tier 2 compiles it), not yet
    completed.  Returns (engine, home, worker, worker_thread, home
    objects by name, home thread)."""
    eng = SODEngine(gige_cluster(2), classes)
    home = eng.host("node0")
    heap, D = home.machine.heap, home.machine.loader.load("D")
    d, nxt, e = (heap.new_instance(D) for _ in range(3))
    d.fields.update(v=1, next=nxt)
    nxt.fields["v"] = 10
    e.fields["v"] = 100
    xs = heap.new_array("int", 3)
    xs.data[:] = [5, 6, 7]
    ds = heap.new_array("ref", 2)
    ds.data[0] = e
    t = eng.spawn(home, "P", "go", [d, xs, ds, CASES.index(case)])
    run_to_msp(home.machine, t)
    worker, wt, _rec = eng.migrate(home, t, "node1", 1)
    eng.run(worker, wt)
    assert wt.finished and wt.uncaught is None
    objs = {"d": d, "xs": xs, "ds": ds, "nxt": nxt, "e": e}
    return eng, home, worker, wt, objs, t


def _dirty_homes(objman):
    return [objman.home_identity[key] for key in objman.dirty]


@pytest.mark.parametrize("case,written", [
    ("putf", "d"), ("astore", "xs"), ("astore_ref", "ds"), ("puts", None)])
def test_guest_store_to_fetched_copy_is_recorded(classes, loop, case,
                                                 written):
    eng, home, worker, wt, objs, t = _offload(classes, case)
    objman, m = worker.objman, worker.machine
    if loop == "tier2":
        code = m.loader.load("P").find_method(case)
        assert m._compiled.get(code), "the store did not run in tier 2"
    if written is None:
        assert objman.dirty == {}
        assert objman.dirty_statics == {
            (None, "P", "s"): (m.loader.load("P"), "node0")}
    else:
        assert _dirty_homes(objman) == [(objs[written].oid, "node0")]
        assert objman.dirty_statics == {}
    eng.complete_segment(worker, wt, home, t, 1)
    assert objs["d"].fields["v"] == (8 if case == "putf" else 1)
    assert objs["xs"].data == ([5, 41, 7] if case == "astore" else [5, 6, 7])
    assert objs["ds"].data[1] is (objs["d"] if case == "astore_ref"
                                  else None)
    assert home.machine.loader.load("P").statics["s"] \
        == (3 if case == "puts" else 0)
    assert not objman.dirty and not objman.dirty_statics


def test_untracked_stores_record_nothing(classes, loop):
    """A segment that writes only objects it created — faulting three
    copies in on the way, each ``_patch``ed into a local, a copy's
    field and a copy's element — dirties nothing; neither does a
    ``PUTS`` by a thread that is no registered segment."""
    eng, home, worker, wt, objs, t = _offload(classes, "quiet")
    objman, m = worker.objman, worker.machine
    assert wt.result == 2 * (10 + 5 + 100)
    assert objman.stats.faults == 5  # d, d.next, xs, ds, ds[0]
    dcopy = objman.cache[(objs["d"].oid, "node0")]
    assert dcopy.fields["next"] is objman.cache[(objs["nxt"].oid, "node0")]
    assert objman.dirty == {} and objman.dirty_statics == {}

    local = m.spawn("P", "puts", [None, None, None], thread_name="local")
    assert m.run(local) == "finished" and local.result == 3
    assert objman.dirty_statics == {}
    eng.complete_segment(worker, wt, home, t, 1)
    assert home.machine.loader.load("P").statics["s"] == 0


def test_host_side_installs_record_nothing(classes):
    """The manager's own installs are not guest stores: a revalidation
    hit re-adopts a clean copy, a miss decodes a fresh one — and
    ``dirty`` / ``dirty_statics`` stay empty throughout."""
    eng, home, worker, wt, objs, t = _offload(classes, "quiet")
    objman = worker.objman
    eng.complete_segment(worker, wt, home, t, 1)
    for mutate in (False, True):
        if mutate:
            objs["xs"].data[0] = 6  # home-side: the retained copy is stale
        t2 = eng.spawn(home, "P", "go", [objs["d"], objs["xs"],
                                         objs["ds"], 4])
        run_to_msp(home.machine, t2)
        worker, wt2, _rec = eng.migrate(home, t2, "node1", 1)
        eng.run(worker, wt2)
        assert wt2.result == 2 * (10 + objs["xs"].data[0] + 100)
        assert objman.dirty == {} and objman.dirty_statics == {}
        eng.complete_segment(worker, wt2, home, t2, 1)
    assert objman.stats.reval_hits >= 5 and objman.stats.revalidations \
        > objman.stats.reval_hits


def test_late_store_to_a_released_copy_is_not_recorded(classes):
    """A copy that lost its identity when its epoch ended (here: demoted
    to ``retained``) rides no write-back, so a late store to it must not
    re-enter ``dirty``; once a revalidation re-adopts it, it is tracked
    again."""
    eng, home, worker, wt, objs, t = _offload(classes, "quiet")
    objman = worker.objman
    key = (objs["d"].oid, "node0")
    copy = objman.cache[key]
    eng.complete_segment(worker, wt, home, t, 1)
    assert objman.retained[key] is copy
    assert id(copy) not in objman.home_identity
    copy.fields["v"] = copy.fields["v"]  # a store, same content
    assert objman.dirty == {}

    t2 = eng.spawn(home, "P", "go", [objs["d"], objs["xs"], objs["ds"], 0])
    run_to_msp(home.machine, t2)
    worker, wt2, _rec = eng.migrate(home, t2, "node1", 1)
    eng.run(worker, wt2)
    assert objman.cache[key] is copy  # revalidated, not re-shipped
    assert _dirty_homes(objman) == [key]
    eng.complete_segment(worker, wt2, home, t2, 1)
    assert objs["d"].fields["v"] == 8


# -- an empty write-back never rides the wire ----------------------------------

HOP_SRC = """
class D { int v; }
class P {
  static int inner(D d, int n, int touch) {
    D mine = new D();
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      mine.v = mine.v + i;
      if (touch == 1) { d.v = d.v + 1; }
      acc = acc + mine.v;
    }
    return acc + d.v;
  }
}
"""


class _Events:
    def __init__(self):
        self.kinds = []

    def emit(self, now, kind, fields):
        self.kinds.append(kind)


@pytest.mark.parametrize("touch", [0, 1])
def test_rehop_flushes_only_what_a_fetched_copy_changed(touch):
    """node0 -> node1 -> node2.  A hop that wrote only an object it
    created has nothing to flush: no ``writeback`` event, 0.0 s.  A hop
    that also wrote one fetched copy ships exactly that oid."""
    classes = preprocess_program(compile_source(HOP_SRC), "faulting")
    oracle = Machine(classes, dispatch="legacy")
    od = oracle.heap.new_instance(oracle.loader.load("D"))
    want = oracle.call("P", "inner", [od, 9, touch])

    eng = SODEngine(gige_cluster(3), classes)
    eng.tracer = events = _Events()
    home = eng.host("node0")
    d = home.machine.heap.new_instance(home.machine.loader.load("D"))
    t = eng.spawn(home, "P", "inner", [d, 9, touch])
    run_to_msp(home.machine, t)
    w1, wt1, _rec = eng.migrate(home, t, "node1", 1)
    eng.run(w1, wt1, max_instrs=120)  # mid-loop: mine (and d) written
    assert not wt1.finished

    message, _n = w1.objman.build_writeback(None, home_node="node0")
    assert list(message["updates"]) == ([d.oid] if touch else [])
    if not touch:
        assert eng.flush_segment_effects(w1, home, "node0") == 0.0
    w2, wt2, _rec = eng.rehop_segment(w1, wt1, "node2", home)
    assert events.kinds.count("writeback") == touch
    assert (d.fields["v"] > 0) == bool(touch)  # the flush landed home
    assert not w1.objman.dirty and not w1.objman.thread_home

    eng.run(w2, wt2)
    eng.complete_segment(w2, wt2, home, t, 1)
    eng.run(home, t)
    assert t.result == want and d.fields["v"] == od.fields["v"]


def test_rehop_with_an_empty_scope_sends_nothing_beside_a_dirty_sibling():
    """Two same-home segments share node1; one wrote a fetched copy,
    the other only an object it created.  The clean one's rehop has
    nothing *of its own* to flush, so no message leaves (the emptiness
    test used to read the whole dirty set and ship 72 empty bytes);
    the sibling's write stays tracked and lands at its completion."""
    classes = preprocess_program(compile_source(HOP_SRC), "faulting")
    eng = SODEngine(gige_cluster(3), classes)
    eng.tracer = events = _Events()
    home = eng.host("node0")
    D = home.machine.loader.load("D")
    segs = []
    for touch in 1, 0:
        d = home.machine.heap.new_instance(D)
        t = eng.spawn(home, "P", "inner", [d, 9, touch])
        run_to_msp(home.machine, t)
        w1, wt, _rec = eng.migrate(home, t, "node1", 1)
        eng.run(w1, wt, max_instrs=120)
        assert not wt.finished
        segs.append((d, t, wt))
    (d_dirty, t_dirty, wt_dirty), (d_clean, t_clean, wt_clean) = segs
    key = (d_dirty.oid, "node0")
    assert _dirty_homes(w1.objman) == [key]

    w2, wt2, _rec = eng.rehop_segment(w1, wt_clean, "node2", home)
    assert events.kinds.count("writeback") == 0
    assert _dirty_homes(w1.objman) == [key] and d_dirty.fields["v"] == 0

    eng.run(w1, wt_dirty)
    eng.complete_segment(w1, wt_dirty, home, t_dirty, 1)
    assert d_dirty.fields["v"] == 9 and not w1.objman.dirty
    eng.run(w2, wt2)
    eng.complete_segment(w2, wt2, home, t_clean, 1)
    assert d_clean.fields["v"] == 0
    # the two completions, and ``mine`` (node1's, written on node2)
    assert events.kinds.count("writeback") == 3


# -- a drained cluster holds nothing dirty --------------------------------------


def test_drained_cluster_leaves_no_dirty_state_and_pins_no_namespace(
        monkeypatch):
    """After a drained open-loop ``paper`` run every object manager is
    clean and unregistered, and the static-bearing classes of every
    forgotten request namespace are garbage (a ``dirty_statics`` entry
    of a *local* request used to pin them and their static arrays for
    the life of the server)."""
    dropped = []
    forget = SODEngine.forget_namespace

    def watching(engine, tag):
        for host in engine.hosts.values():
            ns = host.machine.namespace(tag, create=False)
            if ns is not None:
                dropped.extend(weakref.ref(cls)
                               for cls in ns.loaded_classes().values()
                               if cls.statics)
        forget(engine, tag)

    monkeypatch.setattr(SODEngine, "forget_namespace", watching)
    sched, load = build_serving(mix="paper", n_nodes=4, n_requests=240,
                                arrival_rate=60.0)
    rep = sched.serve(load)
    assert rep.served == rep.correct == 240 and rep.stats["sod_offloads"]
    managers = [h.objman for h in sched.engine.hosts.values()
                if h.objman is not None]
    assert managers
    for objman in managers:
        assert objman.dirty == {} and objman.dirty_statics == {}
        assert objman.thread_home == {}
    gc.collect()
    assert dropped and not [ref for ref in dropped if ref() is not None]
