"""VM core tests: interpreter mechanics, exceptions, breakpoints, heap."""

import os
import subprocess
import sys
from pathlib import Path

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


# -- host code state --------------------------------------------------------

_ONE_CALL_EACH = """
import dis
from repro.lang import compile_source
from repro.vm import Machine
classes = compile_source(
    "class F { static int fib(int n) {"
    " if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); } }")
assert Machine(classes, dispatch="legacy").call("F", "fib", [15]) == 610
assert Machine(classes, jit=False).call("F", "fib", [15]) == 610
for loop in (Machine._run_loop, Machine._run_fast):
    plain = [i.opname for i in dis.get_instructions(loop)]
    adaptive = [i.opname for i in dis.get_instructions(loop, adaptive=True)]
    assert adaptive != plain, loop.__name__ + " is not specialized"
"""


def test_both_loops_run_specialized_after_one_call():
    """A fresh process's first run on each loop already executes
    specialized bytecode.  CPython 3.11 quickens a function after 8
    entries or 8 *unconditional* back edges, and each run enters its
    loop once, so a loop whose back edge is conditional runs its whole
    first seven runs unspecialized.  Kills the mutant that restores
    ``while frames:`` in ``Machine._run_loop`` on 3.11; 3.12 has no
    conditional backward jumps, so there the mutant cannot be seen."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", _ONE_CALL_EACH],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
