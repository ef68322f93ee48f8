"""Workflow flows (Fig. 1), segmentation, policies, demand faulting."""

import pytest

from repro.cluster import gige_cluster, phone_setup
from repro.errors import MigrationError
from repro.lang import compile_source
from repro.migration import SODEngine
from repro.migration.policies import (LocalityPolicy,
                                      SpeculativeCloudPolicy, on_method_entry,
                                      rewind_to_line_start)
from repro.migration.segments import max_migratable, pin_methods
from repro.migration.workflow import (deliver_value, multi_hop,
                                      partial_return, roam, total_migration)
from repro.preprocess import preprocess_program
from repro.units import mb
from repro.vm import Machine

FLOW_SRC = """
class W {
  static int data;
  static int main(int n) {
    W.data = 100;
    int r = W.a(n);
    return r + W.data;
  }
  static int a(int n) { return W.b(n) * 2 + 1; }
  static int b(int n) { return W.c(n) + 3; }
  static int c(int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) { s = s + i; }
    W.data = W.data + 1;
    return s;
  }
}
"""


@pytest.fixture(scope="module")
def flow_classes():
    return preprocess_program(compile_source(FLOW_SRC), "faulting")


@pytest.fixture()
def flow(flow_classes):
    eng = SODEngine(gige_cluster(3), flow_classes)
    home = eng.host("node0")
    t = eng.spawn(home, "W", "main", [25])
    eng.run(home, t, stop=lambda th: th.frames[-1].code.name == "c")
    return eng, home, t


def flow_ref(flow_classes):
    return Machine(flow_classes).call("W", "main", [25])


# -- Fig. 1 flows ------------------------------------------------------------

def test_partial_return_flow(flow, flow_classes):
    eng, home, t = flow
    rep = partial_return(eng, home, t, "node1", 1)
    assert rep.result == flow_ref(flow_classes)
    assert len(rep.records) == 1
    assert rep.total_time > 0


def test_total_migration_flow(flow, flow_classes):
    eng, home, t = flow
    rep = total_migration(eng, home, t, "node1", top_frames=1)
    assert rep.result == flow_ref(flow_classes)
    assert len(rep.records) == 2
    assert t.finished and not t.frames  # home stack fully retired
    # home heap stays consistent after the final flush
    assert home.machine.loader.load("W").statics["data"] == 101


def test_total_migration_requires_residual(flow):
    eng, home, t = flow
    with pytest.raises(MigrationError):
        total_migration(eng, home, t, "node1", top_frames=t.depth())


def test_multi_hop_flow(flow, flow_classes):
    eng, home, t = flow
    rep = multi_hop(eng, home, t, "node1", "node2",
                    top_frames=1, second_frames=2)
    assert rep.result == flow_ref(flow_classes)
    assert len(rep.records) == 2
    assert home.machine.loader.load("W").statics["data"] == 101


def test_multi_hop_without_home_residual(flow, flow_classes):
    eng, home, t = flow
    rep = multi_hop(eng, home, t, "node1", "node2",
                    top_frames=1, second_frames=3)
    assert rep.result == flow_ref(flow_classes)
    assert t.finished


def test_deliver_value_intercepts_reinvoke(flow_classes):
    eng = SODEngine(gige_cluster(2), flow_classes)
    home = eng.host("node0")
    t = eng.spawn(home, "W", "main", [25])
    eng.run(home, t, stop=lambda th: th.frames[-1].code.name == "c")
    from repro.migration.workflow import _restore_residual
    worker, residual, _rec = _restore_residual(eng, home, t, "node1",
                                               nframes=3, skip_top=1)
    # deliver c's would-be result; b/a/main math must then run remotely
    deliver_value(eng, worker, residual, 300)
    eng.run(worker, residual)
    assert residual.result == (300 + 3) * 2 + 1 + 100


# -- segmentation --------------------------------------------------------------

def test_pinning_limits_migratable(flow):
    eng, home, t = flow
    assert max_migratable(t) == t.depth()
    pin_methods(t, ["W.b"])
    assert max_migratable(t) == 1  # only c above the pinned b


# -- triggers ------------------------------------------------------------------

def test_trigger_combinators(flow_classes):
    m = Machine(flow_classes)
    t = m.spawn("W", "main", [5])
    m.run(t, stop=on_method_entry("W", "c"))
    assert t.frames[-1].code.name == "c" and t.frames[-1].pc == 0


def test_rewind_to_line_start(flow_classes):
    m = Machine(flow_classes)
    t = m.spawn("W", "c", [5])
    m.run(t, max_instrs=3)
    frame = t.frames[-1]
    rewind_to_line_start(t)
    assert frame.pc == frame.code.line_start(frame.pc)
    assert not frame.stack
    m.run(t)
    assert t.result == 10  # unchanged semantics after rewind


# -- locality policy ---------------------------------------------------------

def test_locality_policy_picks_file_host(flow_classes):
    eng = SODEngine(gige_cluster(3), flow_classes)
    eng.cluster.fs.host_file(eng.cluster.node("node2"), "/d/x", mb(1))
    pol = LocalityPolicy(engine=eng, path_of=lambda th: "/d/x")
    m = Machine(flow_classes)
    t = m.spawn("W", "main", [1])
    assert pol.destination(t) == "node2"
    pol2 = LocalityPolicy(engine=eng, path_of=lambda th: None)
    assert pol2.destination(t) is None


# -- speculative cloud retry ---------------------------------------------------------

SPEC_SRC = """
class T {
  static int crunch(int n) {
    int[] big = new int[n];
    for (int i = 0; i < n; i = i + 1) { big[i] = i; }
    int s = 0;
    for (int i = 0; i < n; i = i + 1) { s = s + big[i]; }
    return s;
  }
  static int main(int n) { return T.crunch(n); }
}
"""


def test_speculative_policy_rockets_to_cloud():
    from repro.cluster import Cluster, NodeSpec
    from repro.cluster.topology import _base, gige_cluster
    from repro.units import kb, gb
    classes = preprocess_program(compile_source(SPEC_SRC), "faulting")
    cluster = gige_cluster(1)
    cluster.add_node(NodeSpec(name="device", ram_bytes=kb(256)))
    cluster.add_node(NodeSpec(name="cloud", ram_bytes=gb(64), kind="cloud"))
    eng = SODEngine(cluster, classes)
    device = eng.host("device")
    t = eng.spawn(device, "T", "main", [50_000])  # 400 KB array: too big
    policy = SpeculativeCloudPolicy(eng, device, "cloud")
    result = policy.run(t)
    assert policy.migrated
    assert result == sum(range(50_000))


TWO_ARRAYS_SRC = """
class T {
  static int crunch(int n, int k) {
    int[] a = new int[n];
    for (int i = 0; i < n; i = i + 1) { a[i] = i; }
    int[] b = new int[k];
    for (int i = 0; i < k; i = i + 1) { b[i] = a[i % n] + 1; }
    int s = 0;
    for (int i = 0; i < k; i = i + 1) { s = s + b[i]; }
    return s;
  }
  static int main(int n, int k) { return T.crunch(n, k); }
}
"""


def test_speculative_policy_counts_what_the_device_allocated():
    """The second array fits the device's RAM alone but not after the
    first: the policy budgets what the heap already holds, as NEWARR's
    out-of-memory test does, and migrates instead of dying of it."""
    from repro.cluster import NodeSpec
    from repro.cluster.topology import gige_cluster
    from repro.units import gb, kb
    classes = preprocess_program(compile_source(TWO_ARRAYS_SRC), "faulting")
    cluster = gige_cluster(1)
    cluster.add_node(NodeSpec(name="device", ram_bytes=kb(64)))
    cluster.add_node(NodeSpec(name="cloud", ram_bytes=gb(64), kind="cloud"))
    eng = SODEngine(cluster, classes)
    device = eng.host("device")
    n, k = 4_000, 5_000  # 32,016 + 40,016 bytes > 65,536
    t = eng.spawn(device, "T", "main", [n, k])
    policy = SpeculativeCloudPolicy(eng, device, "cloud")
    assert policy.run(t) == sum(i % n + 1 for i in range(k))
    assert policy.migrated


def test_speculative_policy_stays_local_when_it_fits():
    from repro.cluster import NodeSpec
    from repro.cluster.topology import gige_cluster
    from repro.units import gb
    classes = preprocess_program(compile_source(SPEC_SRC), "faulting")
    cluster = gige_cluster(1)
    cluster.add_node(NodeSpec(name="device", ram_bytes=gb(1)))
    cluster.add_node(NodeSpec(name="cloud", kind="cloud"))
    eng = SODEngine(cluster, classes)
    device = eng.host("device")
    t = eng.spawn(device, "T", "main", [100])
    policy = SpeculativeCloudPolicy(eng, device, "cloud")
    assert policy.run(t) == sum(range(100))
    assert not policy.migrated


# -- demand faulting -------------------------------------------------------------------

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
def test_pointer_chase_faults_each_link_on_demand(build):
    """walk() migrates alone and chases a 12-link list living at home:
    each Link faults in exactly once, on either detection build."""
    classes = preprocess_program(compile_source(CHAIN_SRC), build)
    eng = SODEngine(gige_cluster(2), classes)
    home = eng.host("node0")
    t = eng.spawn(home, "T", "setup", [12])
    eng.run(home, t, stop=lambda th: th.frames[-1].code.name == "walk")
    worker, wt, _rec = eng.migrate(home, t, "node1", 1)
    eng.run(worker, wt)
    eng.complete_segment(worker, wt, home, t, 1)
    eng.run(home, t)
    assert t.result == Machine(classes).call("T", "setup", [12]) == 66
    assert worker.objman.stats.faults == 12


def test_roam_visits_hosts(flow_classes):
    # A tiny roaming itinerary over the flow program: send c() to node1.
    eng = SODEngine(gige_cluster(2), flow_classes)
    home = eng.host("node0")
    t = eng.spawn(home, "W", "main", [25])
    rep = roam(eng, home, t,
               itinerary=lambda th: "node1",
               trigger=lambda th: (th.frames[-1].code.name == "c"
                                   and th.frames[-1].pc == 0))
    assert rep.result == Machine(flow_classes).call("W", "main", [25])
    assert len(rep.records) == 1
