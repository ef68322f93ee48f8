"""SODEngine integration tests: migration, faulting, write-back."""

import pytest

from repro.cluster import gige_cluster
from repro.errors import MigrationError
from repro.lang import compile_source
from repro.migration import SODEngine
from repro.preprocess import preprocess_program
from repro.vm import Machine

from tests.conftest import APP_SOURCE


@pytest.fixture()
def setup(app_classes_faulting):
    eng = SODEngine(gige_cluster(3), app_classes_faulting)
    home = eng.host("node0")
    t = eng.spawn(home, "App", "work", [10])
    eng.run(home, t, stop=lambda th: th.frames[-1].code.name == "step")
    return eng, home, t


def reference(app_classes_faulting, n=10):
    return Machine(app_classes_faulting).call("App", "work", [n])


def test_run_segment_remote_matches_local(setup, app_classes_faulting):
    eng, home, t = setup
    result, rec = eng.run_segment_remote(home, t, "node1", 1)
    assert result == reference(app_classes_faulting)
    assert rec.latency > 0
    assert rec.capture_time > 0 and rec.restore_time > 0


def test_migration_record_components(setup):
    eng, home, t = setup
    _result, rec = eng.run_segment_remote(home, t, "node1", 1)
    assert rec.transfer_time == pytest.approx(
        rec.state_transfer_time + rec.class_transfer_time)
    assert rec.latency == pytest.approx(
        rec.capture_time + rec.transfer_time + rec.restore_time
        + rec.worker_spawn_time)
    assert rec.state_bytes > 0 and rec.class_bytes > 0


def test_worker_classes_fetched_on_demand(setup):
    eng, home, t = setup
    eng.run_segment_remote(home, t, "node1", 1)
    worker = eng.hosts["node1"]
    # The worker learned App (shipped) and Counter (fetched on demand
    # when the fault brought a Counter object in).
    assert worker.machine.loader.is_loaded("App")
    assert worker.machine.loader.is_loaded("Counter")


def test_object_faults_counted_and_writeback_applied(setup,
                                                     app_classes_faulting):
    eng, home, t = setup
    result, _rec = eng.run_segment_remote(home, t, "node1", 1)
    worker = eng.hosts["node1"]
    assert worker.objman.stats.faults >= 1
    # The worker mutated App.c.hits; write-back must have updated home.
    counter = home.machine.loader.load("App").statics["c"]
    assert counter.fields["hits"] == 10
    assert result == reference(app_classes_faulting)


def test_dirty_cleared_after_writeback(setup):
    eng, home, t = setup
    eng.run_segment_remote(home, t, "node1", 1)
    worker = eng.hosts["node1"]
    assert not worker.objman.dirty
    assert not worker.objman.dirty_statics


def test_timeline_accumulates_phases(setup):
    eng, home, t = setup
    t0 = eng.timeline
    eng.run_segment_remote(home, t, "node1", 1)
    assert eng.timeline > t0
    assert eng.migrations and eng.migrations[-1].dst == "node1"


def test_worker_spawn_cost_when_not_prestarted(app_classes_faulting):
    eng = SODEngine(gige_cluster(2), app_classes_faulting,
                    prestart_workers=False)
    home = eng.host("node0")
    t = eng.spawn(home, "App", "work", [5])
    eng.run(home, t, stop=lambda th: th.frames[-1].code.name == "step")
    _result, rec = eng.run_segment_remote(home, t, "node1", 1)
    assert rec.worker_spawn_time >= eng.sys.worker_spawn


def test_migrate_from_vmti_less_source_rejected(app_classes_faulting):
    from repro.cluster import phone_setup
    eng = SODEngine(phone_setup(), app_classes_faulting)
    phone = eng.host("iphone")
    t = eng.spawn(phone, "App", "work", [5])
    eng.run(phone, t, stop=lambda th: th.frames[-1].code.name == "step")
    with pytest.raises(MigrationError):
        eng.migrate(phone, t, "server", 1)


def test_migrate_to_vmti_less_target_uses_java_restore(app_classes_faulting):
    from repro.cluster import phone_setup
    eng = SODEngine(phone_setup(764), app_classes_faulting)
    server = eng.host("server")
    t = eng.spawn(server, "App", "work", [5])
    eng.run(server, t, stop=lambda th: th.frames[-1].code.name == "step")
    result, rec = eng.run_segment_remote(server, t, "iphone", 1)
    assert result == Machine(
        dict(server.machine.loader._classpath)).call("App", "work", [5])
    phone_host = eng.hosts["iphone"]
    assert phone_host.vmti is None


def test_complete_before_finish_rejected(setup):
    eng, home, t = setup
    worker, worker_thread, _rec = eng.migrate(home, t, "node1", 1)
    with pytest.raises(MigrationError):
        eng.complete_segment(worker, worker_thread, home, t, 1)


def test_multi_frame_segment_roundtrip(app_classes_faulting):
    eng = SODEngine(gige_cluster(2), app_classes_faulting)
    home = eng.host("node0")
    t = eng.spawn(home, "App", "work", [7])
    eng.run(home, t, stop=lambda th: th.frames[-1].code.name == "step")
    # migrate both frames (work + step): nothing left at home but the
    # completion still returns the value to the empty residual.
    result, _rec = eng.run_segment_remote(home, t, "node1", 2)
    assert result == Machine(app_classes_faulting).call("App", "work", [7])


def test_fault_cache_preserves_identity(app_classes_faulting):
    src = """
    class Box { int v; }
    class Pair { Box a; Box b; }
    class T {
      static Pair p;
      static int setup() {
        T.p = new Pair();
        Box shared = new Box();
        shared.v = 4;
        T.p.a = shared;
        T.p.b = shared;
        return T.go();
      }
      static int go() {
        T.p.a.v = T.p.a.v + 1;
        return T.p.b.v;
      }
    }
    """
    classes = preprocess_program(compile_source(src), "faulting")
    ref = Machine(classes).call("T", "setup")
    eng = SODEngine(gige_cluster(2), classes)
    home = eng.host("node0")
    t = eng.spawn(home, "T", "setup")
    eng.run(home, t, stop=lambda th: th.frames[-1].code.name == "go")
    result, _ = eng.run_segment_remote(home, t, "node1", 1)
    # Aliasing must survive migration: p.a and p.b are the same object,
    # so the increment through a is visible through b.
    assert result == ref == 5


#: a linked list built at home and walked by the migrated frame: every
#: node the walk touches is remote
CHAIN_SRC = """
class Link { int v; Link next; }
class T {
  static Link head;
  static int setup(int n) {
    Link cur = null;
    for (int i = 0; i < n; i = i + 1) {
      Link fresh = new Link();
      fresh.v = i;
      fresh.next = cur;
      cur = fresh;
    }
    T.head = cur;
    return T.walk();
  }
  static int walk() {
    int s = 0;
    Link cur = T.head;
    while (cur != null) { s = s + cur.v; cur = cur.next; }
    return s;
  }
}
"""


@pytest.mark.parametrize("build", ["faulting", "checking"])
def test_both_detection_schemes_survive_migration(build):
    """Object-fault handlers and status checks, the paper's two ways
    to find a remote object, give the same result on a migrated walk
    over home objects."""
    classes = preprocess_program(compile_source(CHAIN_SRC), build)
    eng = SODEngine(gige_cluster(2), classes)
    home = eng.host("node0")
    t = eng.spawn(home, "T", "setup", [24])
    eng.run(home, t, stop=lambda th: th.frames[-1].code.name == "walk")
    assert eng.run_segment_remote(home, t, "node1", 1)[0] == sum(range(24))


DEEP_SRC = """
class T {
  static int deep(int n, int acc) {
    if (n == 0) { return T.leaf(acc); }
    return T.deep(n - 1, acc + n);
  }
  static int leaf(int acc) {
    int s = 0;
    for (int i = 0; i < 2000; i = i + 1) { s = s + i % 7; }
    return acc + s;
  }
  static int main(int n) { return T.deep(n, 0); }
}
"""


def test_migration_latency_grows_with_segment_size():
    """Capture, transfer and restore grow with the frames migrated, so
    the top frame alone (the SOD default) is the cheapest segment."""
    classes = preprocess_program(compile_source(DEEP_SRC), "faulting")
    ref = Machine(classes).call("T", "main", [12])
    latencies = []
    for nframes in (1, 4, 8, 12):
        eng = SODEngine(gige_cluster(2), classes)
        home = eng.host("node0")
        t = eng.spawn(home, "T", "main", [12])
        eng.run(home, t, stop=lambda th: th.frames[-1].code.name == "leaf")
        result, rec = eng.run_segment_remote(home, t, "node1", nframes)
        assert result == ref
        latencies.append(rec.latency)
    assert latencies == sorted(latencies) and latencies[0] < latencies[-1]
