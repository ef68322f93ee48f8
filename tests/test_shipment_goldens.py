"""Golden pin of the SOD shipment path's exact numbers.

Every scenario below drives the engine's public migration entries
(``migrate`` / ``migrate_many`` / ``rehop_segment`` / the Fig. 1b/1c
flows) and dumps what a shipment is *priced* at — every
``MigrationRecord`` field, ``engine.timeline``, the network's byte and
savings meters, the final guest results — with full ``repr`` float
precision.  All of it is virtual-time arithmetic, so the dump is
deterministic across hosts, and by the "Dispatch" contract of
:mod:`repro.vm.machine` the same whichever loop ran: every line must
match exactly, and any diff is a real change to the capture -> price
-> ship -> restore -> write-back pipeline.

To re-bless after an *intentional* change::

    REPRO_BLESS_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/test_shipment_goldens.py -q

and commit the updated file with a note on why the numbers moved.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
from pathlib import Path

import pytest

from repro.cluster import gige_cluster, phone_setup
from repro.errors import MigrationError
from repro.lang import compile_source
from repro.migration import SODEngine
from repro.migration.capture import run_to_msp
from repro.migration.workflow import multi_hop, total_migration
from repro.preprocess import preprocess_program
from repro.workloads import WORKLOADS, compiled, expected_result

GOLDEN = Path(__file__).resolve().parent / "goldens" / "shipments.txt"
BLESS = os.environ.get("REPRO_BLESS_GOLDENS") == "1"

def _dump(out, label, eng, recs, results):
    out.append(f"== {label}")
    for rec in recs:
        out.append("  record " + " ".join(
            f"{k}={v!r}" for k, v in dataclasses.asdict(rec).items()))
    net = eng.cluster.network
    out.append(f"  timeline={eng.timeline!r} bytes={net.total_bytes()} "
               f"saved={net.total_saved()} migrations={len(eng.migrations)}")
    out.append(f"  results={results!r}")


def _committed(eng):
    """What only a completed shipment may advance."""
    return len(eng.migrations), eng.cluster.network.total_saved()


# -- scenarios -----------------------------------------------------------------


def _registry(out):
    """One plain ``migrate`` per registry program, at its trigger."""
    for name in sorted(WORKLOADS):
        w = WORKLOADS[name]
        eng = SODEngine(gige_cluster(2), compiled(name, "faulting"))
        home = eng.host("node0")
        t = eng.spawn(home, w.main[0], w.main[1], list(w.sim_args))
        assert eng.run(home, t, stop=w.trigger()) == "stopped"
        result, rec = eng.run_segment_remote(home, t, "node1")
        assert result == expected_result(name)
        _dump(out, f"migrate {name}", eng, [rec], [result])


STATIC_SRC = """
class P {
  static int s;
  static str tag;
  static int work(int n) {
    for (int i = 0; i < n; i = i + 1) {
      P.s = P.s + 1;
      P.tag = "n" + P.s;
    }
    return P.s;
  }
}
"""


def _static_classes():
    return preprocess_program(compile_source(STATIC_SRC), "faulting")


def _batch(out):
    """Three threads, two namespaces, one bulk message."""
    eng = SODEngine(gige_cluster(2), _static_classes())
    home = eng.host("node0")
    threads = []
    for n, ns in ((4, "A"), (6, "A"), (5, "B")):
        t = home.machine.spawn("P", "work", [n], thread_name=f"t{n}",
                               namespace=ns)
        eng.run(home, t, max_instrs=40)
        threads.append(t)
    worker, pairs = eng.migrate_many(home, threads, "node1", 1)
    for t, (wt, _rec) in zip(threads, pairs):
        eng.run(worker, wt)
        eng.complete_segment(worker, wt, home, t, 1)
        eng.run(home, t)
    _dump(out, "migrate_many 3 threads / 2 namespaces", eng,
          [rec for _wt, rec in pairs], [t.result for t in threads])


CHAIN_SRC = """
class D { int v; }
class P {
  static int s0;
  static int outer(D d, int n) { return P.inner(d, n) + P.s0; }
  static int inner(D d, int n) {
    D mine = new D();
    mine.v = 1;
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      acc = (acc + d.v + mine.v + i) % 100003;
      mine.v = mine.v + 1;
      P.s0 = P.s0 + 1;
    }
    d.v = d.v + n;
    return acc + mine.v;
  }
  static int main(int n) { return 0; }
}
"""


def _chain(out):
    """home -> node1 -> node2 -> node3: ``mine`` is created on node1
    (an intermediate hop), faulted and dirtied on node2 and node3, so
    both the rehop pre-flush and the completion flush go to node1."""
    classes = preprocess_program(compile_source(CHAIN_SRC), "faulting")
    eng = SODEngine(gige_cluster(4), classes)
    home = eng.host("node0")
    home.machine.loader.load("P").statics["s0"] = 3
    d = home.machine.heap.new_instance(home.machine.loader.load("D"))
    d.fields["v"] = 10
    t = eng.spawn(home, "P", "outer", [d, 12])
    eng.run(home, t, stop=lambda th: th.frames[-1].code.name == "inner"
            and th.frames[-1].pc in th.frames[-1].code.msps)
    w1, wt1, rec1 = eng.migrate(home, t, "node1", 2)
    eng.run(w1, wt1, max_instrs=60)
    assert not wt1.finished
    w2, wt2, rec2 = eng.rehop_segment(w1, wt1, "node2", home)
    eng.run(w2, wt2, max_instrs=60)
    assert not wt2.finished and w2.objman.dirty
    w3, wt3, rec3 = eng.rehop_segment(w2, wt2, "node3", home)
    eng.run(w3, wt3)
    eng.complete_segment(w3, wt3, home, t, 2)
    eng.run(home, t)
    _dump(out, "rehop chain with a dirty intermediate-hop object", eng,
          [rec1, rec2, rec3],
          [t.result, home.machine.loader.load("P").statics["s0"],
           d.fields["v"]])


APP_SRC = """
class Counter { int hits; }
class App {
  static int base;
  static Counter c;
  static int work(int n) {
    App.base = 5;
    App.c = new Counter();
    int r = App.step(n);
    return r + App.c.hits + App.base;
  }
  static int step(int n) {
    int total = 0;
    for (int i = 0; i < n; i = i + 1) {
      App.c.hits = App.c.hits + 1;
      total = total + i * 2;
    }
    return total;
  }
}
"""


def _app_classes():
    return preprocess_program(compile_source(APP_SRC), "faulting")


def _device(out):
    """Non-VMTI destination: portable format + Java-level restore."""
    eng = SODEngine(phone_setup(764), _app_classes())
    server = eng.host("server")
    t = eng.spawn(server, "App", "work", [5])
    eng.run(server, t, stop=lambda th: th.frames[-1].code.name == "step")
    result, rec = eng.run_segment_remote(server, t, "iphone", 1)
    _dump(out, "device destination (no VMTI)", eng, [rec], [result])


def _repeat(out, transfer_cache):
    """Two offloads of the same program to the same worker."""
    eng = SODEngine(gige_cluster(2), _app_classes(),
                    transfer_cache=transfer_cache)
    home = eng.host("node0")
    recs, results = [], []
    for n in (5, 7):
        t = eng.spawn(home, "App", "work", [n])
        eng.run(home, t, stop=lambda th: th.frames[-1].code.name == "step")
        result, rec = eng.run_segment_remote(home, t, "node1", 1)
        recs.append(rec)
        results.append(result)
    _dump(out, f"repeat offload transfer_cache={transfer_cache}", eng,
          recs, results)


OWN_STATIC_SRC = """
class Data { int v; }
class W {
  static int tag;
  static int bump(Data d, int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      W.tag = W.tag + 1;
      acc = acc + d.v;
    }
    return acc;
  }
}
"""


def _refused(out):
    """Refusals (pinned frame, cross-home statics) commit nothing: no
    migration record, no credit on the savings meter."""
    eng = SODEngine(gige_cluster(2), _app_classes())
    home = eng.host("node0")
    t = eng.spawn(home, "App", "work", [5])
    eng.run(home, t, stop=lambda th: th.frames[-1].code.name == "step")
    _res, _rec = eng.run_segment_remote(home, t, "node1", 1)
    before = _committed(eng)
    t2 = eng.spawn(home, "App", "work", [6])
    eng.run(home, t2, stop=lambda th: th.frames[-1].code.name == "step")
    t2.frames[-1].pinned = True
    with pytest.raises(MigrationError, match="pinned"):
        eng.migrate(home, t2, "node1", 1)
    assert _committed(eng) == before
    _dump(out, "refused: pinned frame", eng, eng.migrations, [before])

    classes = preprocess_program(compile_source(OWN_STATIC_SRC), "faulting")
    eng = SODEngine(gige_cluster(3), classes)
    homes, threads = {}, {}
    for node, v, n in (("node0", 10, 1), ("node1", 20, 5)):
        h = eng.host(node)
        d = h.machine.heap.new_instance(h.machine.loader.load("Data"))
        d.fields["v"] = v
        th = h.machine.spawn("W", "bump", [d, n])
        run_to_msp(h.machine, th)
        homes[node], threads[node] = h, th
    w, wt, _rec = eng.migrate(homes["node0"], threads["node0"], "node2", 1)
    before = _committed(eng)
    with pytest.raises(MigrationError, match="cross-home static"):
        eng.migrate(homes["node1"], threads["node1"], "node2", 1)
    assert _committed(eng) == before
    eng.run(w, wt)
    eng.complete_segment(w, wt, homes["node0"], threads["node0"], 1)
    eng.run(homes["node0"], threads["node0"])
    _dump(out, "refused: cross-home statics", eng, eng.migrations,
          [threads["node0"].result, before])


FLOW_SRC = """
class Flow {
  static int trace;
  static int main(int n) {
    Flow.trace = 1;
    int r = Flow.outer(n);
    return r + Flow.trace;
  }
  static int outer(int n) { return Flow.middle(n) * 3 + 1; }
  static int middle(int n) { return Flow.inner(n) + 7; }
  static int inner(int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) {
      s = s + i * i % 97;
    }
    Flow.trace = Flow.trace + 1;
    return s;
  }
}
"""


def _flows(out):
    """Fig. 1b / 1c: the residual push rides the same shipment path."""
    classes = preprocess_program(compile_source(FLOW_SRC), "faulting")
    for label, flow in (
            ("total_migration", lambda e, h, t: total_migration(
                e, h, t, "node1", top_frames=1)),
            ("multi_hop", lambda e, h, t: multi_hop(
                e, h, t, "node1", "node2", top_frames=1, second_frames=2))):
        eng = SODEngine(gige_cluster(3), classes)
        home = eng.host("node0")
        t = eng.spawn(home, "Flow", "main", [400])
        eng.run(home, t, stop=lambda th: th.frames[-1].code.name == "inner")
        rep = flow(eng, home, t)
        _dump(out, label, eng, rep.records,
              [rep.result, repr(rep.hidden_latency), repr(rep.total_time)])


def test_shipment_numbers_match_golden():
    out = []
    _registry(out)
    _batch(out)
    _chain(out)
    _device(out)
    _repeat(out, True)
    _repeat(out, False)
    _refused(out)
    _flows(out)
    text = "\n".join(out) + "\n"
    if BLESS:
        GOLDEN.write_text(text)
        pytest.skip(f"re-blessed {GOLDEN.name}")
    assert GOLDEN.exists(), (
        f"missing golden {GOLDEN}; generate with REPRO_BLESS_GOLDENS=1")
    bad = [f"- {want}\n+ {got}" for want, got in itertools.zip_longest(
        GOLDEN.read_text().splitlines(), out, fillvalue="")
        if got != want]
    if bad:
        pytest.fail("shipment numbers diverged from golden "
                    "(goldens/shipments.txt vs regenerated):\n"
                    + "\n".join(bad))
