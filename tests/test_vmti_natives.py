"""VMTI debug interface and native registry tests."""

import pytest

from repro.cluster import Node, NodeSpec, gige_cluster
from repro.errors import NativeError, VMError
from repro.lang import compile_source
from repro.units import mb
from repro.vm import Machine, VMTI

from tests.helpers import compile_and_run

SRC = """
class T {
  static int level;
  static int outer(int n) { return T.inner(n) + 100; }
  static int inner(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) { acc = acc + i; }
    return acc;
  }
}
"""


@pytest.fixture()
def paused():
    classes = compile_source(SRC)
    m = Machine(classes)
    t = m.spawn("T", "outer", [5])
    m.run(t, stop=lambda th: th.frames[-1].code.name == "inner")
    return m, VMTI(m), t


def test_frame_inspection(paused):
    m, vmti, t = paused
    (mid, bci) = vmti.get_frame_location(t, 0)
    assert mid == ("T", "inner") and bci == 0
    (mid1, _) = vmti.get_frame_location(t, 1)
    assert mid1 == ("T", "outer")


def test_local_variable_table_and_locals(paused):
    m, vmti, t = paused
    table = vmti.get_local_variable_table(t, 0)
    names = [n for _s, n in table]
    assert "n" in names and "acc" in names
    assert vmti.get_local(t, 0, 0) == 5


def test_local_bad_depth_and_slot(paused):
    m, vmti, t = paused
    with pytest.raises(VMError):
        vmti.get_local(t, 9, 0)
    with pytest.raises(VMError):
        vmti.get_local(t, 0, 99)


def test_vmti_calls_charge_time(paused):
    m, vmti, t = paused
    before = m.clock
    for _ in range(10):
        vmti.get_local(t, 0, 0)
    assert m.clock - before == pytest.approx(10 * m.cost.vmti.get_local)
    assert vmti.calls >= 10


def test_statics_access(paused):
    m, vmti, t = paused
    vmti.set_static("T", "level", 7)
    assert vmti.get_static("T", "level") == 7


def test_force_early_return_and_pop_frame(paused):
    m, vmti, t = paused
    # Pop 'inner', hand a fabricated return value to 'outer'.
    vmti.force_early_return(t, 1234)
    m.run(t)
    assert t.result == 1234 + 100


def test_pop_frame_discards(paused):
    m, vmti, t = paused
    vmti.pop_frame(t)
    assert t.depth() == 1
    with pytest.raises(VMError):
        empty = type(t)("x")
        vmti.pop_frame(empty)


def test_raise_exception_injects(paused):
    m, vmti, t = paused
    vmti.raise_exception(t, "RuntimeException", "injected")
    m.run(t)
    assert t.uncaught is not None
    assert t.uncaught.class_name == "RuntimeException"


def test_vmti_denied_on_jamvm_node():
    classes = compile_source(SRC)
    m = Machine(classes, node=Node(NodeSpec(name="phone", has_vmti=False)))
    with pytest.raises(VMError):
        VMTI(m)


def test_breakpoint_via_vmti(paused):
    m, vmti, t = paused
    hits = []
    vmti.set_breakpoint("T", "inner", 2)
    vmti.set_breakpoint_callback(lambda mach, th: hits.append(th.frames[-1].pc))
    m.run(t)
    assert hits and all(pc == 2 for pc in hits)
    vmti.clear_breakpoint("T", "inner", 2)
    assert not m.breakpoints


# -- natives --------------------------------------------------------------------

def test_unknown_native_rejected():
    src = "class T { static int f() { return 1; } }"
    classes = compile_source(src)
    m = Machine(classes)
    with pytest.raises(NativeError):
        m.natives.lookup("Sys.frobnicate")


def test_unbound_migration_native_fails_loudly():
    _, m = compile_and_run("class T { static int f() { return 2; } }",
                           "T", "f")
    fn = m.natives.lookup("ObjMan.resolve")
    with pytest.raises(NativeError):
        fn(m, [None])


def test_fs_natives_need_cluster():
    src = 'class T { static int f() { return FS.size("/x"); } }'
    classes = compile_source(src)
    with pytest.raises(NativeError):
        Machine(classes).call("T", "f")


def test_fs_natives_with_cluster():
    cluster = gige_cluster(2)
    cluster.fs.host_file(cluster.node("node0"), "/d/a.txt", mb(2),
                         plant=[(100, "magicword")])
    src = """class T {
      static int f() {
        int size = FS.size("/d/a.txt");
        int hit = FS.scan("/d/a.txt", 0, size, "magicword");
        str w = FS.read("/d/a.txt", 100, 9);
        if (w == "magicword") { return hit; }
        return -1;
      } }"""
    classes = compile_source(src)
    m = Machine(classes, node=cluster.node("node0"), fs=cluster.fs)
    assert m.call("T", "f") == 100
    assert m.clock > 0.005  # disk time charged


def test_fs_list_returns_paths():
    cluster = gige_cluster(1)
    cluster.fs.host_file(cluster.node("node0"), "/p/one", 10)
    cluster.fs.host_file(cluster.node("node0"), "/p/two", 10)
    src = """class T { static int f() {
      str[] files = FS.list("/p/");
      return Sys.len(files);
    } }"""
    m = Machine(compile_source(src), node=cluster.node("node0"),
                fs=cluster.fs)
    assert m.call("T", "f") == 2


def test_sys_setnominal_changes_accounting():
    src = """class T { static int f() {
      int[] xs = new int[100];
      Sys.setNominal(xs, 1024);
      return Sys.nominalSize(xs);
    } }"""
    result, m = compile_and_run(src, "T", "f")
    assert result == 100 * 1024 + 16
    assert m.heap.allocated_bytes >= 100 * 1024


def test_sys_sleep_charges_wall_time():
    src = "class T { static void f() { Sys.sleep(2.5); } }"
    _, m = compile_and_run(src, "T", "f")
    assert m.clock >= 2.5


def test_sys_node_name_defaults_local():
    src = "class T { static str f() { return Sys.nodeName(); } }"
    result, _ = compile_and_run(src, "T", "f")
    assert result == "local"
