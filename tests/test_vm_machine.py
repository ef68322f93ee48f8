"""VM core tests: interpreter mechanics, exceptions, breakpoints, heap."""

import pytest

from repro.cluster import NodeSpec, Node
from repro.errors import LinkError, NativeError, VMError
from repro.lang import compile_source
from repro.vm import (Machine, RemoteRef, ThreadState, UncaughtGuestException,
                      VMArray, VMInstance, is_nullish, truthy)
from repro.vm.costmodel import CostModel
from repro.vm.objects import default_value

from tests.helpers import assemble, compile_and_run


# -- values --------------------------------------------------------------

def test_nullish_and_truthy():
    ref = RemoteRef(1, "home")
    assert is_nullish(None) and is_nullish(ref)
    assert truthy(ref)  # a remote ref stands for a real object
    assert not truthy(None) and not truthy(0) and not truthy("")
    assert truthy(5) and truthy("x")


def test_default_values():
    assert default_value("int") == 0
    assert default_value("float") == 0.0
    assert default_value("bool") is False
    assert default_value("str") == ""
    assert default_value("SomeClass") is None


# -- machine basics -----------------------------------------------------------

def test_call_static_method(app_machine):
    assert app_machine.call("App", "work", [4]) == 12 + 4 + 5


def test_spawn_rejects_missing_method(app_machine):
    with pytest.raises(LinkError):
        app_machine.spawn("App", "nope")


def test_clock_and_instr_count_advance(app_machine):
    app_machine.call("App", "work", [10])
    assert app_machine.instr_count > 50
    assert app_machine.clock > 0


def test_node_speed_scales_clock(app_classes_original):
    fast = Machine(app_classes_original)
    slow = Machine(app_classes_original,
                   node=Node(NodeSpec(name="phone", speed_factor=25.0)))
    fast.call("App", "work", [20])
    slow.call("App", "work", [20])
    assert slow.clock == pytest.approx(25 * fast.clock, rel=0.01)


def test_run_with_stop_condition(app_machine):
    t = app_machine.spawn("App", "work", [10])
    status = app_machine.run(
        t, stop=lambda th: th.frames[-1].code.name == "step")
    assert status == "stopped"
    assert t.frames[-1].code.name == "step"


def test_run_with_instr_limit(app_machine):
    t = app_machine.spawn("App", "work", [1000])
    assert app_machine.run(t, max_instrs=50) == "limit"


def test_uncaught_exception_raises_host_error():
    src = "class T { static int f() { throw new RuntimeException(); } }"
    classes = compile_source(src)
    with pytest.raises(UncaughtGuestException):
        Machine(classes).call("T", "f")


def test_uncaught_hook_consumes(app_classes_original):
    src = "class T { static int f() { return 1 / 0; } }"
    classes = compile_source(src)
    m = Machine(classes)
    seen = []
    m.on_uncaught = lambda mach, th, exc: (seen.append(exc.class_name), True)[1]
    t = m.spawn("T", "f")
    m.run(t)
    assert seen == ["ArithmeticException"]
    assert t.uncaught is None


def test_virtual_call_on_primitive_is_host_error():
    code = assemble("""
    method T.f static params=0 locals=0
      line 1
      CONST 5
      INVOKEVIRT 'm' 0
      RETV
    """)
    from repro.bytecode import ClassFile
    m = Machine({"T": ClassFile("T", methods={"f": code})})
    with pytest.raises(VMError):
        m.call("T", "f")


def test_getfield_unknown_field_is_link_error():
    src = """
    class C { int v; }
    class T { static int f() { C c = new C(); return c.v; } }
    """
    classes = compile_source(src)
    # Corrupt: rewrite field name at runtime
    code = classes["T"].methods["f"]
    for ins in code.instrs:
        if ins.op == "GETF":
            ins.a = "ghost"
    with pytest.raises(LinkError):
        Machine(classes).call("T", "f")


def test_throw_non_throwable_is_host_error():
    code = assemble("""
    method T.f static params=0 locals=0
      line 1
      CONST 5
      THROW
    """)
    from repro.bytecode import ClassFile
    m = Machine({"T": ClassFile("T", methods={"f": code})})
    with pytest.raises(VMError):
        m.call("T", "f")


def test_stdout_capture(app_classes_original):
    _, m = compile_and_run(
        'class T { static void f() { Sys.print(1); Sys.print("x"); } }',
        "T", "f")
    assert m.stdout == ["1", "x"]


# -- breakpoints -----------------------------------------------------------------

def test_breakpoint_fires_once_per_arrival(app_classes_original):
    m = Machine(app_classes_original)
    hits = []
    m.set_breakpoint(("App", "step", 0))
    m.on_breakpoint = lambda mach, th: hits.append(th.frames[-1].pc)
    m.call("App", "work", [3])
    assert hits == [0]
    with pytest.raises(AttributeError):
        m.breakpoints.add(("App", "step", 1))  # set_breakpoint writes it


def test_breakpoint_fires_per_frame_for_recursion():
    src = """class T { static int f(int n) {
      if (n == 0) { return 0; }
      return T.f(n - 1);
    } }"""
    classes = compile_source(src)
    m = Machine(classes)
    hits = []
    m.set_breakpoint(("T", "f", 0))
    m.on_breakpoint = lambda mach, th: hits.append(len(th.frames))
    m.call("T", "f", [3])
    assert hits == [1, 2, 3, 4]


def test_injected_exception_delivered(app_classes_original):
    src = """class T { static int f() {
      int x = 0;
      try {
        for (int i = 0; i < 100000; i = i + 1) { x = x + 1; }
      } catch (RuntimeException e) { return -7; }
      return x;
    } }"""
    classes = compile_source(src)
    m = Machine(classes)
    t = m.spawn("T", "f")
    m.run(t, max_instrs=50)
    t.pending_exception = m.make_exception("RuntimeException", "stop")
    m.run(t)
    assert t.result == -7


# -- OOM admission -----------------------------------------------------------------

def test_allocation_beyond_node_ram_raises_guest_oom():
    from repro.units import kb
    src = """class T { static int f(int n) {
      try { int[] big = new int[n]; return Sys.len(big); }
      catch (OutOfMemoryError e) { return -1; }
    } }"""
    classes = compile_source(src)
    node = Node(NodeSpec(name="tiny", ram_bytes=kb(64)))
    m = Machine(classes, node=node)
    assert m.call("T", "f", [100]) == 100
    assert m.call("T", "f", [100000]) == -1


# -- cost model ------------------------------------------------------------------------

def test_op_weights_affect_clock(app_classes_original):
    heavy = CostModel(instr_seconds=1e-9)
    m1 = Machine(app_classes_original, cost=heavy)
    m1.call("App", "work", [50])
    light = CostModel(instr_seconds=1e-9)
    light.op_weights = {}
    m2 = Machine(app_classes_original, cost=light)
    m2.call("App", "work", [50])
    assert m1.clock != m2.clock


@pytest.mark.parametrize("dispatch", ["fast", "legacy"])
def test_weight_of_no_whole_ticks_is_refused_at_decode(app_classes_original,
                                                       dispatch):
    """Every loop charges whole ticks (hundredths of a weight): a
    weight between two ticks is refused before anything runs."""
    cost = CostModel()
    cost.op_weights = dict(CostModel.op_weights, STORE=0.125)
    m = Machine(app_classes_original, cost=cost, dispatch=dispatch)
    with pytest.raises(VMError, match=r"STORE=0\.125 is not a whole"):
        m.call("App", "work", [50])
    assert m.instr_count == 0 and m.clock == 0.0


def test_cost_copy_overrides():
    c = CostModel(instr_seconds=1e-9)
    c2 = c.copy(exec_factor=4.0)
    assert c2.exec_factor == 4.0 and c.exec_factor == 1.0
    assert c2.instr_seconds == c.instr_seconds
