"""Corner-case coverage across modules."""

import pytest

from repro.cluster import gige_cluster
from repro.errors import CompileError, MigrationError
from repro.lang import compile_source
from repro.migration import SODEngine
from repro.preprocess import preprocess_program
from repro.vm import Machine

# -- engine corners ---------------------------------------------------------------

def test_flush_segment_effects_noop_when_clean(app_classes_faulting):
    eng = SODEngine(gige_cluster(2), app_classes_faulting)
    home = eng.host("node0")
    worker = eng.host("node1")
    worker.attach_object_manager()
    assert eng.flush_segment_effects(worker, home) == 0.0


def test_resync_statics_copies_home_values(app_classes_faulting):
    eng = SODEngine(gige_cluster(2), app_classes_faulting)
    home = eng.host("node0")
    worker = eng.host("node1", with_classes=True)
    home.machine.loader.load("App").statics["base"] = 77
    worker.machine.loader.load("App").statics["base"] = 0
    eng.resync_statics(worker, home)
    assert worker.machine.loader.load("App").statics["base"] == 77


def test_engine_hosts_are_cached(app_classes_faulting):
    eng = SODEngine(gige_cluster(2), app_classes_faulting)
    assert eng.host("node0") is eng.host("node0")


def test_fetch_remote_unknown_owner(app_classes_faulting):
    from repro.vm import RemoteRef
    eng = SODEngine(gige_cluster(2), app_classes_faulting)
    with pytest.raises(MigrationError):
        eng.fetch_remote("node0", RemoteRef(1, "ghost-node"))


def test_migrate_bad_segment_size(app_classes_faulting):
    eng = SODEngine(gige_cluster(2), app_classes_faulting)
    home = eng.host("node0")
    t = eng.spawn(home, "App", "work", [5])
    eng.run(home, t, stop=lambda th: th.frames[-1].code.name == "step")
    with pytest.raises(MigrationError):
        eng.migrate(home, t, "node1", nframes=99)


# -- heap / objects corners ----------------------------------------------------------

def test_heap_dangling_oid(app_machine):
    from repro.errors import VMError
    with pytest.raises(VMError):
        app_machine.heap.get(424242)
    assert app_machine.heap.maybe_get(424242) is None


def test_heap_adopt_assigns_fresh_oid(app_machine):
    cls = app_machine.loader.load("Counter")
    a = app_machine.heap.new_instance(cls)
    from repro.vm.objects import VMInstance
    stray = VMInstance(cls, oid=0)
    adopted = app_machine.heap.adopt(stray)
    assert adopted.oid > a.oid
    assert app_machine.heap.get(adopted.oid) is stray


def test_negative_array_length_host_checked(app_machine):
    from repro.errors import VMError
    with pytest.raises(VMError):
        app_machine.heap.new_array("int", -1)


def test_object_nominal_bytes_shapes(app_machine):
    cls = app_machine.loader.load("Counter")
    obj = app_machine.heap.new_instance(cls)
    base = obj.nominal_bytes()
    obj.fields["hits"] = 5
    assert obj.nominal_bytes() == base  # ints are fixed width
    arr = app_machine.heap.new_array("float", 10, 8)
    assert arr.nominal_bytes() == 16 + 80
    assert len(arr) == 10


# -- loader corners -------------------------------------------------------------------

def test_loader_define_after_link_rejected(app_classes_faulting):
    from repro.errors import LinkError
    m = Machine(app_classes_faulting)
    m.loader.load("App")
    from repro.bytecode import ClassFile
    with pytest.raises(LinkError):
        m.loader.define(ClassFile("App"))


def test_loader_self_extension_rejected():
    from repro.bytecode import ClassFile
    from repro.errors import LinkError
    m = Machine({"Loop": ClassFile("Loop", superclass="Loop")})
    with pytest.raises(LinkError):
        m.loader.load("Loop")


def test_loader_missing_hook_consulted():
    from repro.bytecode import ClassFile
    m = Machine({})
    calls = []

    def hook(name):
        calls.append(name)
        return ClassFile(name)

    m.loader.missing_class_hook = hook
    cls = m.loader.load("Lazily")
    assert cls.name == "Lazily" and calls == ["Lazily"]


def test_loader_load_listener_fires(app_classes_faulting):
    m = Machine(app_classes_faulting)
    seen = []
    m.loader.load_listener = lambda cls: seen.append(cls.name)
    m.loader.load("App")
    assert "App" in seen


# -- compile error reporting ----------------------------------------------------------

def test_compile_error_carries_position():
    try:
        compile_source("class T { static int f() { return zz; } }")
    except CompileError as e:
        assert e.line >= 1
        assert "zz" in str(e)
    else:  # pragma: no cover
        pytest.fail("expected CompileError")


# -- experiments Table helper -----------------------------------------------------------

def test_table_formatting_and_lookup():
    from repro.experiments.common import Table
    t = Table(title="T", header=("a", "b"))
    t.add("row1", 1.2345)
    t.add("row2", 250.0)
    text = t.format()
    assert "row1" in text and "1.23" in text and "250.0" in text
    assert t.cell("row2", "b") == 250.0
    with pytest.raises(KeyError):
        t.cell("ghost", "b")


def test_report_generate_subset_runs():
    from repro.experiments.report import generate
    out = generate(["figure5"])
    assert "Figure 5" in out and "Table II" not in out
