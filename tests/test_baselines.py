"""Baseline migration systems: correctness + cost structure."""

import pytest

from repro.baselines import (GJavaMPIEngine, Jessica2Engine, XenEngine,
                             heap_nominal_bytes)
from repro.cluster import gige_cluster
from repro.errors import MigrationError
from repro.lang import compile_source
from repro.migration.segments import pin_methods
from repro.preprocess import preprocess_program
from repro.vm import Machine, gjavampi_model, jessica2_model, xen_model

SRC = """
class Blob { int v; }
class P {
  static Blob blob;
  static int[] big;
  static int main(int n) {
    P.blob = new Blob();
    P.blob.v = 7;
    P.big = new int[64];
    Sys.setNominal(P.big, 4096);
    int r = P.work(n);
    return r + P.blob.v;
  }
  static int work(int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) { s = s + i; P.blob.v = s; }
    return s;
  }
}
"""

TRIG = lambda th: th.frames[-1].code.name == "work"


@pytest.fixture(scope="module")
def original():
    return preprocess_program(compile_source(SRC), "original")


@pytest.fixture(scope="module")
def faulting():
    return preprocess_program(compile_source(SRC), "faulting")


def ref(classes):
    return Machine(classes).call("P", "main", [30])


# -- G-JavaMPI ----------------------------------------------------------------

def test_gjavampi_roundtrip(original):
    eng = GJavaMPIEngine(gige_cluster(2), original, gjavampi_model())
    m, t = eng.start("P", "main", [30])
    eng.run(m, t, stop=TRIG)
    dm, dt, rec = eng.migrate(m, t, "node1")
    assert eng.finish(dm, dt) == ref(original)
    assert rec.nframes == 2  # whole stack moved
    assert rec.capture_time > eng.sys.gj_capture_fixed


def test_gjavampi_moves_whole_heap(original):
    eng = GJavaMPIEngine(gige_cluster(2), original, gjavampi_model())
    m, t = eng.start("P", "main", [30])
    eng.run(m, t, stop=TRIG)
    heap = heap_nominal_bytes(m)
    _dm, _dt, rec = eng.migrate(m, t, "node1")
    assert rec.moved_bytes >= heap  # eager copy (plus expansion)
    assert heap > 4096 * 64  # the nominal-big array is in there


def test_gjavampi_cannot_migrate_pinned(original):
    eng = GJavaMPIEngine(gige_cluster(2), original, gjavampi_model())
    m, t = eng.start("P", "main", [30])
    eng.run(m, t, stop=TRIG)
    pin_methods(t, ["P.main"])
    with pytest.raises(MigrationError):
        eng.migrate(m, t, "node1")


def test_gjavampi_capture_scales_with_heap(original):
    def capture_ms(n_elems):
        src = SRC.replace("new int[64]", f"new int[{n_elems}]")
        classes = preprocess_program(compile_source(src), "original")
        eng = GJavaMPIEngine(gige_cluster(2), classes, gjavampi_model())
        m, t = eng.start("P", "main", [5])
        eng.run(m, t, stop=TRIG)
        _dm, _dt, rec = eng.migrate(m, t, "node1")
        return rec.capture_time

    assert capture_ms(64 * 200) > capture_ms(64)


# -- JESSICA2 --------------------------------------------------------------------

def test_jessica2_roundtrip_with_writeback(faulting):
    eng = Jessica2Engine(gige_cluster(2), faulting, jessica2_model())
    m, t = eng.start("P", "main", [30])
    eng.run(m, t, stop=TRIG)
    dm, wt, rec = eng.migrate(m, t, "node1")
    result = eng.finish(dm, wt)
    assert result == ref(faulting)
    assert t.finished


def test_jessica2_capture_is_cheap(faulting):
    eng = Jessica2Engine(gige_cluster(2), faulting, jessica2_model())
    m, t = eng.start("P", "main", [30])
    eng.run(m, t, stop=TRIG)
    _dm, _wt, rec = eng.migrate(m, t, "node1")
    # In-kernel capture: far below one GetLocal-based capture.
    assert rec.capture_time < 1e-3
    assert rec.moved_bytes < 4096  # stack only, heap stays home


def test_jessica2_restore_pays_static_allocation(faulting):
    def restore_time(nominal):
        src = SRC.replace("Sys.setNominal(P.big, 4096)",
                          f"Sys.setNominal(P.big, {nominal})")
        classes = preprocess_program(compile_source(src), "faulting")
        eng = Jessica2Engine(gige_cluster(2), classes, jessica2_model())
        m, t = eng.start("P", "main", [5])
        eng.run(m, t, stop=TRIG)
        _dm, _wt, rec = eng.migrate(m, t, "node1")
        return rec.restore_time

    small = restore_time(64)
    big = restore_time(1024 * 1024)  # 64 MB of static array
    assert big > small + 0.05  # tens of ms of load-time allocation


def test_jessica2_vmti_costs_restored_after_capture(faulting):
    eng = Jessica2Engine(gige_cluster(2), faulting, jessica2_model())
    m, t = eng.start("P", "main", [30])
    eng.run(m, t, stop=TRIG)
    eng.migrate(m, t, "node1")
    assert m.cost.vmti.get_local > 0  # zeroing was transient


# -- Xen ---------------------------------------------------------------------------

def test_xen_roundtrip_and_relocation(original):
    eng = XenEngine(gige_cluster(2), original, xen_model())
    m, t = eng.start("P", "main", [30])
    eng.run(m, t, stop=TRIG)
    m2, t2, rec = eng.migrate(m, t, "node1")
    assert m2 is m and t2 is t  # same VM, relocated
    assert m.node.name == "node1"
    assert eng.finish(m, t) == ref(original)


def test_xen_latency_dominated_by_precopy(original):
    eng = XenEngine(gige_cluster(2), original, xen_model())
    m, t = eng.start("P", "main", [30])
    eng.run(m, t, stop=TRIG)
    _m, _t, rec = eng.migrate(m, t, "node1")
    assert rec.capture_time > 1.0          # seconds of pre-copy
    assert rec.transfer_time < 0.5         # sub-second stop-and-copy
    assert rec.moved_bytes > eng.sys.xen_working_set_bytes


def test_xen_overhead_charged_to_guest(original):
    eng = XenEngine(gige_cluster(2), original, xen_model())
    m, t = eng.start("P", "main", [30])
    eng.run(m, t, stop=TRIG)
    before = m.clock
    eng.migrate(m, t, "node1")
    assert m.clock - before > 1.0
