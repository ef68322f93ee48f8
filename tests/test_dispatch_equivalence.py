"""Differential suite: fast (pre-decoded, fused, inline-cached) dispatch
must be observationally identical to the legacy string-dispatched loop.

Covers every registry workload plus targeted programs for guest
exceptions, fused-sequence faults, inline-cache polymorphism, breakpoint
/ write-hook interplay, mid-fused-sequence suspension and resumption,
and capture/restore on fast-dispatch machines.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest

from repro.bytecode import opcodes as op
from repro.errors import VMError
from repro.lang import compile_source
from repro.migration import RestoreDriver, capture_segment, run_to_msp
from repro.preprocess import preprocess_program
from repro.preprocess.fuse import FUSED_NAMES, fused_coverage
from repro.vm import Machine, VMTI
from repro.vm import jit as jit_mod
from repro.vm.machine import UncaughtGuestException
from repro.vm.values import RemoteRef
from repro.workloads import registry
from repro.workloads.mixes import MIXES, SERVE_PROGRAMS, serve_compiled
from tests.helpers import assemble, tier1_dispatches

#: dispatch configurations under test: (label, Machine kwargs)
MODES = [
    ("fast", dict(dispatch="fast", fuse=True)),
    ("fast-nofuse", dict(dispatch="fast", fuse=False)),
]


def _run(classes, main, args, **kw):
    m = Machine(classes, **kw)
    try:
        result = m.call(main[0], main[1], list(args))
        err = None
    except UncaughtGuestException as exc:
        result, err = None, (exc.exc.class_name, exc.exc.fields.get("msg"))
    return m, result, err


def _assert_equivalent(classes, main, args):
    ref, r_ref, e_ref = _run(classes, main, args, dispatch="legacy")
    for label, kw in MODES:
        m, r, e = _run(classes, main, args, **kw)
        assert r == r_ref, f"{label}: result diverged"
        assert e == e_ref, f"{label}: uncaught-exception diverged"
        assert m.stdout == ref.stdout, f"{label}: stdout diverged"
        assert m.instr_count == ref.instr_count, f"{label}: instr_count"
        assert math.isclose(m.clock, ref.clock, rel_tol=1e-9, abs_tol=1e-12), \
            f"{label}: clock diverged ({m.clock} vs {ref.clock})"
    return ref


# -- every registry workload, original and preprocessed builds ---------------

@pytest.mark.parametrize("name", sorted(registry.WORKLOADS))
def test_registry_workloads_identical(name):
    w = registry.WORKLOADS[name]
    classes = registry.compiled(name, "original")
    ref = _assert_equivalent(classes, w.main, w.sim_args)
    assert ref.instr_count > 1000  # the suite actually executed something


@pytest.mark.parametrize("name", ["Fib", "TSP"])
def test_registry_workloads_identical_faulting_build(name):
    """The preprocessed (flattened + handler-injected) build too: its
    restoration LSWITCH prologues and fault-handler rows produce very
    different instruction shapes."""
    w = registry.WORKLOADS[name]
    classes = registry.compiled(name, "faulting")
    _assert_equivalent(classes, w.main, w.sim_args)


# -- guest exceptions, incl. faults from inside fused sequences --------------

EXC_SRC = """
class E {
  static int guarded(int a, int b) {
    int r = 0;
    try { r = a / b; }                       // LOAD+LOAD+DIV fused group
    catch (ArithmeticException e) { r = 111; }
    try { r = r + a % b; }
    catch (ArithmeticException e) { r = r + 222; }
    return r;
  }
  static int bounds(int n) {
    int[] xs = new int[4];
    int s = 0;
    try {
      for (int i = 0; i <= n; i = i + 1) { s = s + xs[i]; }
    } catch (IndexOutOfBoundsException e) { s = s + 7; }
    return s;
  }
  static int npe() {
    E x = null;
    try { return E.poke(x); }
    catch (NullPointerException e) { return 13; }
  }
  static int poke(E e) { return 1; }
  static str concat(int n) { return "n=" + n; }
  static int uncaught(int n) { return n / 0; }
}
"""


def exc_classes():
    return preprocess_program(compile_source(EXC_SRC), "original")


@pytest.mark.parametrize("main,args", [
    (("E", "guarded"), (7, 0)),
    (("E", "guarded"), (7, 2)),
    (("E", "bounds"), (10,)),
    (("E", "npe"), ()),
    (("E", "concat"), (42,)),
    (("E", "uncaught"), (5,)),
])
def test_guest_exceptions_identical(main, args):
    _assert_equivalent(exc_classes(), main, args)


# -- host-level errors: the faulting bci, from inside a fused group too -------

HOST_ERR_SRC = """
class B {
  static int main(int n) { int x = 5; int i = 0; int y = x[i]; return y; }
}
"""

HOST_ERR_LOOPS = {
    "legacy": dict(dispatch="legacy"),
    "tier 1": dict(jit=False),
    "tier 1 unfused": dict(jit=False, fuse=False),
    "tier 2 @1": dict(jit=True),
}


@pytest.mark.parametrize("build", ["original", "faulting"])
@pytest.mark.parametrize("loop", sorted(HOST_ERR_LOOPS))
def test_host_error_reports_the_faulting_bci(loop, build, monkeypatch):
    """``x[i]`` on an int is a host-level ``VMError`` out of ``ALOAD`` —
    on tier 1 the second to last component of a
    ``LOAD+LOAD+ALOAD+STORE`` group: ``frame.pc`` names the ``ALOAD``,
    not the group's first or last bci.  That
    is all a host-level error defines (``Machine.run``): ``instr_count``
    of the faulting group and tier 2's not yet written-back temps
    differ by loop and are not compared.  On tier 2 the literal ``5``
    is forwarded to the ``ALOAD`` — as a *name*: ``5.data`` would be a
    ``SyntaxError`` the compile swallows (``jit_compiles`` says not)."""
    monkeypatch.setattr(jit_mod, "JIT_THRESHOLD", 1)
    classes = preprocess_program(compile_source(HOST_ERR_SRC), build)
    code = classes["B"].methods["main"]
    m = Machine(classes, **HOST_ERR_LOOPS[loop])
    t = m.spawn("B", "main", [0])
    with pytest.raises(VMError, match="arrayload on int"):
        m.run(t)
    assert m.jit_compiles == (loop == "tier 2 @1")
    assert t.frames[-1].pc == [ins.op for ins in code.instrs].index(op.ALOAD)


# -- the fault rule: a STORE-tailed group faults at its second to last ------

FAULT_SRC = """
class F {
  static int[] data;
  static int div(int a, int b) { int r = 5; r = a / b; return r; }
  static int divc(int a, int b) {
    int r = 5;
    try { r = a / b; } catch (ArithmeticException e) { return r + 100; }
    return r;
  }
  static int mod(int a, int b) { int r = 5; r = a % b; return r; }
  static int modc(int a, int b) {
    int r = 5;
    try { r = a % b; } catch (ArithmeticException e) { return r + 100; }
    return r;
  }
  static int idx(int i) { int[] xs = new int[4]; int r = 5; r = xs[i]; return r; }
  static int idxc(int i) {
    int[] xs = new int[4];
    int r = 5;
    try { r = xs[i]; } catch (IndexOutOfBoundsException e) { return r + 100; }
    return r;
  }
  static int remote(int i) { int[] xs = F.data; int r = 5; r = xs[i]; return r; }
  static int sub(int a, int b) { int r = 5; r = a - b; return r; }
  static int subc(int a, int b) {
    int r = 5;
    try { r = a - b; } catch (Throwable e) { return r + 100; }
    return r;
  }
}
"""


def _remote_data(m):
    """``F.data`` is a remote-ref sentinel; ``ObjMan.resolve`` patches
    the faulting frame's copies of it with a local array (the object
    manager's convergence step, without a cluster)."""
    ref = RemoteRef(1, "home")
    m.loader.load("F").statics["data"] = ref
    arr = m.heap.new_array("int", 4, 4)
    for k in range(4):
        arr.data[k] = 10 * (k + 1)

    def resolve(machine, args):
        locs = machine.current_thread.frames[-1].locals
        for k, v in enumerate(locs):
            if v is ref:
                locs[k] = arr
    m.natives.register("ObjMan.resolve", resolve)


#: (pattern, method, args, build, set-up, faulting opcode); ``F.remote``
#: on ``faulting`` is caught by its injected ``__ObjectFault`` row and
#: retried, on ``flattened`` (no handler) the NPE is uncaught
FAULT_CASES = {
    "div": ("LOAD+LOAD+arith(m)+STORE", "div", (7, 0), "faulting", None,
            op.DIV),
    "mod": ("LOAD+LOAD+arith(m)+STORE", "mod", (7, 0), "faulting", None,
            op.MOD),
    "aload-bounds": ("LOAD+LOAD+ALOAD+STORE", "idx", (4,), "faulting",
                     None, op.ALOAD),
    "aload-remote": ("LOAD+LOAD+ALOAD+STORE", "remote", (2,), "flattened",
                     _remote_data, op.ALOAD),
    "op2-typeerror": ("LOAD+LOAD+arith+STORE", "sub", ("x", 1), "faulting",
                      None, op.SUB),
}


def _heap_blind(v):
    """A local, comparable across two machines' heaps."""
    if isinstance(v, RemoteRef):
        return ("remote", v.home_oid)
    oid = getattr(v, "oid", None)
    return v if oid is None else ("oid", oid)


def _fault_run(classes, method, args, setup, **kw):
    m = Machine(classes, jit=False, **kw)
    if setup is not None:
        setup(m)
    t = m.spawn("F", method, list(args))
    frame = t.frames[-1]
    try:
        m.run(t)
        host = None
    except TypeError as exc:  # a host-level error out of a 2-arg op
        host = type(exc).__name__
    # a frame that returned has no defined pc; one that faulted out
    # holds the faulting bci
    faulted = host is not None or t.uncaught is not None
    return m, frame, dict(
        pc=frame.pc if faulted else None, instr_count=m.instr_count,
        result=t.result,
        locals=[_heap_blind(v) for v in frame.locals],
        host=host, uncaught=t.uncaught and t.uncaught.class_name)


@pytest.mark.parametrize("caught", [False, True], ids=["uncaught", "caught"])
@pytest.mark.parametrize("case", sorted(FAULT_CASES))
def test_store_tailed_group_faults_like_unfused(case, caught):
    """Each STORE-tailed pattern with its binop / ``ALOAD`` throwing:
    tier 1 fused must stop at the faulting component's bci, charge
    exactly what unfused tier 1 charges and leave the destination local
    unwritten — uncaught, and caught by a guest handler (a host
    ``TypeError`` escapes the ``catch (Throwable)`` either way; the
    remote-ref fault is caught by the object-fault handler, which
    resolves the sentinel and re-runs the group)."""
    pattern, method, args, build, setup, fault_op = FAULT_CASES[case]
    if caught and setup is None:
        method += "c"  # the same body inside a try / catch
    elif caught:
        build = "faulting"  # its injected __ObjectFault row catches it
    classes = preprocess_program(compile_source(FAULT_SRC), build)
    m, frame, fused = _fault_run(classes, method, args, setup)
    # the unfused stream, and the hooked loop (which shares no charge
    # code with tier 1)
    for kw in (dict(fuse=False), dict(dispatch="legacy")):
        ref, _f, want = _fault_run(classes, method, args, setup, **kw)
        assert fused == want, kw
        assert math.isclose(m.clock, ref.clock, rel_tol=1e-12), kw
    # the fault really came from inside the pattern under test (its
    # destination local is compared above: left as it was)
    stream = m.decoded(frame.code)
    sites = [i for i, ins in enumerate(frame.code.instrs)
             if ins.op == fault_op and i >= 2
             and FUSED_NAMES.get(stream[i - 2][0]) == pattern
             and stream[i - 2][6][0] == 2]
    assert sites, f"no {pattern} group faults at {fault_op}"
    if not caught or fused["host"]:
        assert fused["pc"] in sites
    else:
        want = 30 if setup else 105  # retried / the handler saw r == 5
        assert fused["result"] == want and fused["uncaught"] is None


# -- inline caches -----------------------------------------------------------

POLY_SRC = """
class A { int tag; int get() { return 1; } }
class B extends A { int get() { return 2; } }
class S { static int base; }
class T extends S { }
class P {
  static int virt(int n) {
    A a = new A();
    A b = new B();
    int s = 0;
    for (int i = 0; i < n; i = i + 1) {
      A r = a;
      if (i % 2 == 1) { r = b; }
      s = s + r.get();                 // polymorphic site: cache rewrites
    }
    return s;
  }
  static int statics(int n) {
    T.base = 3;                        // PUTS resolved via subclass name
    int s = 0;
    for (int i = 0; i < n; i = i + 1) { s = s + T.base; }
    S.base = S.base + 1;
    return s + T.base;
  }
}
"""


def test_polymorphic_virtual_site_identical():
    classes = preprocess_program(compile_source(POLY_SRC), "original")
    ref = _assert_equivalent(classes, ("P", "virt"), (50,))
    assert ref.stdout == []


def test_static_home_cache_respects_inheritance():
    classes = preprocess_program(compile_source(POLY_SRC), "original")
    _assert_equivalent(classes, ("P", "statics"), (20,))
    # and the cached home really is the declaring superclass
    m = Machine(classes)
    m.call("P", "statics", [5])
    assert m.loader.load("S").statics["base"] == 4
    assert "base" not in m.loader.load("T").statics


# -- fusion structure ---------------------------------------------------------

LOOP_SRC = """
class L {
  static int sum(int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) { s = s + i; }
    return s;
  }
}
"""


def _loop_setup():
    classes = preprocess_program(compile_source(LOOP_SRC), "faulting")
    m = Machine(classes)
    code = m.loader.load("L").find_method("sum")
    return m, code, m.decoded(code)


def test_fused_stream_structure():
    # the nine patterns: a flattened group's closing STORE joins it
    assert sorted(FUSED_NAMES.values()) == sorted([
        "LOAD+LOAD", "CONST+STORE", "LOAD+GETF", "LOAD+STORE",
        "LOAD+LOAD+arith+STORE", "LOAD+LOAD+arith(m)+STORE",
        "LOAD+LOAD+ALOAD+STORE", "LOAD+JZ", "LOAD+JNZ"])
    m, code, stream = _loop_setup()
    cov = fused_coverage(stream)
    # the loop header (compare into a temp, branch on the temp), the
    # induction step, the temp copies and the literals must all have
    # fused
    assert {"LOAD+LOAD+arith+STORE", "LOAD+JZ", "LOAD+LOAD+arith(m)+STORE",
            "CONST+STORE", "LOAD+STORE"} <= set(cov), cov
    # streams are parallel to the original instrs: every slot is an
    # executable decode for its own bci, groups never run off the end,
    # and the component a slot names as the one that may fault is in it
    assert len(stream) == len(code.instrs)
    base = code.predecoded(m.cost.op_weights)
    for i, slot in enumerate(stream):
        assert slot[4] >= 1
        assert i + slot[4] <= len(stream)
        assert 0 <= slot[6][0] < slot[4]
        if slot[8] is not None:
            # STORE-tailed: the loop adds ``head`` (summed left to right)
            # and then the STORE's weight, as unfused STORE dispatch does
            ws = [w for _o, _a, _b, w in base[i:i + slot[4]]]
            assert slot[3] == ws[-1] and slot[8] == sum(ws[:-1])


def test_every_superinstruction_fires_on_the_flattened_builds():
    """The set is sized by what the deployed builds execute, and this
    is the evidence: every pattern is dispatched at a group start on
    ``faulting`` over the registry and serve programs (pc trace
    replayed against the fused streams), and has a site in the other
    two flattened builds.  A pattern only ``original`` can reach (a
    compare fused with its branch, say) fails this test."""
    names = set(FUSED_NAMES.values())
    catalogue = {spec for mix in ("paper", "mixed")
                 for spec, _w in MIXES[mix].choices}
    assert ({spec.program for spec in catalogue} == set(SERVE_PROGRAMS)
            >= set(registry.WORKLOADS))
    fired = Counter()
    for spec in catalogue:
        fired += tier1_dispatches(serve_compiled(spec.program),
                                  spec.main, spec.args)
    assert names <= set(fired), \
        f"never dispatched on faulting: {sorted(names - set(fired))}"
    for build in ("checking", "flattened"):
        sites = Counter()
        for prog in SERVE_PROGRAMS.values():
            classes = preprocess_program(compile_source(prog.source), build)
            m = Machine(classes)
            for cf in classes.values():
                for code in cf.methods.values():
                    sites.update(fused_coverage(m.decoded(code)))
        assert names <= set(sites), \
            f"no site on {build}: {sorted(names - set(sites))}"


def test_fast_and_unfused_share_results():
    classes = preprocess_program(compile_source(LOOP_SRC), "original")
    _assert_equivalent(classes, ("L", "sum"), (200,))


def test_hand_assembled_compare_jnz_runs_unfused():
    """No superinstruction spans a compare and its branch (flattened
    code stores the compare into a temp first, and the compiler never
    emits compare+JNZ at all: ``||`` lowers to ``DUP; JNZ``); assembled
    code that does use the sequence still executes — through the
    LOAD+LOAD+cmp / plain-JNZ decodes — identically to the legacy loop."""
    from repro.bytecode import ClassFile
    code = assemble("""
    method H.count static params=1 locals=2
      line 1
      CONST 0
      STORE 1
    Ltop:
      line 2
      LOAD 1
      CONST 1
      ADD
      STORE 1
      LOAD 1
      LOAD 0
      LT
      JNZ Ltop
      LOAD 1
      CONST 7
      EQ
      JNZ Lseven
      LOAD 1
      RETV
    Lseven:
      CONST -7
      RETV
    """)
    classes = {"H": ClassFile("H", None, [], {"count": code})}
    m = Machine(classes, dispatch="fast", fuse=True)
    cov = fused_coverage(m.decoded(m.loader.load("H").find_method("count")))
    assert not any("JNZ" in k and "cmp" in k for k in cov), cov
    for n, want in ((5, 5), (7, -7)):
        ref = _assert_equivalent(classes, ("H", "count"), (n,))
        assert ref.call("H", "count", [n]) == want


# -- suspension and resumption mid-fused-sequence -----------------------------

def _interior_bcis(stream):
    """Every original bci strictly inside the first of the widest fused
    groups — 4-wide; the first one is the loop header's ``LOAD i; LOAD
    n; LT; STORE t``, which executes once per iteration: entered at its
    ``LOAD n``, ``LT`` or ``STORE`` it finds one operand, both, or the
    result already on the stack."""
    width = max(slot[4] for slot in stream)
    assert width == 4, f"no 4-wide fused group found (widest {width})"
    start = next(i for i, slot in enumerate(stream) if slot[4] == width)
    return list(range(start + 1, start + width))


def test_resume_inside_fused_group_on_fast_loop():
    m, code, stream = _loop_setup()
    for interior in _interior_bcis(stream):
        t = m.spawn("L", "sum", [60])
        # stop exactly at the interior bci (slow loop, bci-precise)...
        status = m.run(t, stop=lambda th: th.frames[-1].pc == interior)
        assert status == "stopped"
        assert t.frames[-1].pc == interior
        # ...then resume on the fast loop: execution enters the middle
        # of a fused group and must run the interior slots unfused.
        m.run(t)
        assert t.result == sum(range(60))


def test_breakpoint_fires_mid_fused_sequence():
    for interior in _interior_bcis(_loop_setup()[2]):
        m, code, stream = _loop_setup()
        vmti = VMTI(m)
        hits = []
        vmti.set_breakpoint("L", "sum", interior)
        vmti.set_breakpoint_callback(
            lambda mach, th: hits.append(th.frames[-1].pc))
        t = m.spawn("L", "sum", [10])
        m.run(t)
        assert t.result == sum(range(10))
        assert hits and all(pc == interior for pc in hits)
        # the interior bci is loop-body code: it fires once per
        # iteration (n or n+1 times: the header or the step)
        assert len(hits) in (10, 11)


def test_native_installed_hooks_retreat_to_slow_loop():
    """The loop-selection guard: a native arms a breakpoint mid-run; the
    fast loop must notice at the safepoint and hand over to the
    hook-aware loop so the breakpoint actually fires."""
    src = """
    class G {
      static int go(int n) {
        Sys.armHook();
        int s = 0;
        for (int i = 0; i < n; i = i + 1) { s = s + i; }
        return s;
      }
    }
    """
    classes = preprocess_program(compile_source(src), "faulting")
    code = classes["G"].methods["go"]
    for k in range(3):  # each interior offset of a 4-wide group
        m = Machine(classes)
        hits = []

        def arm(machine, args):
            interior = _interior_bcis(machine.decoded(code))[k]
            machine.breakpoints.add(("G", "go", interior))
            machine.on_breakpoint = lambda mach, th: hits.append(
                th.frames[-1].pc)
            return None

        m.natives.register("Sys.armHook", arm)
        result = m.call("G", "go", [5])
        assert result == sum(range(5))
        assert hits, f"breakpoint armed by a native never fired ({k})"


# -- capture / restore on fast-dispatch machines ------------------------------

MIG_SRC = """
class Data { int v; }
class R {
  static Data shared;
  static int outer(int n) {
    R.shared = new Data();
    R.shared.v = 50;
    int x = R.middle(n);
    return x + R.shared.v;
  }
  static int middle(int n) { return R.inner(n) * 2; }
  static int inner(int n) {
    int acc = 3;
    for (int i = 0; i < n; i = i + 1) { acc = acc + i; }
    acc = acc + R.shared.v;
    return acc;
  }
}
"""


def test_capture_restore_roundtrip_on_fast_dispatch():
    """The restore dance (breakpoints + injected handlers + LSWITCH
    dispatch to the saved pc) runs on machines whose default dispatch is
    fast — exercising the fast→slow handover and bci-precise capture
    from a thread that was running fused code."""
    classes = preprocess_program(compile_source(MIG_SRC), "faulting")
    m = Machine(classes)  # fast dispatch
    t = m.spawn("R", "outer", [6])
    m.run(t, stop=lambda th: th.frames[-1].code.name == "inner")
    run_to_msp(m, t)
    top = t.frames[-1]
    assert top.pc in top.code.msps  # frame.pc is an original bci
    captured_pc = top.pc
    captured_locals = list(top.locals)
    state = capture_segment(VMTI(m), t, 1, home_node="home")

    dst = Machine(classes)  # fast dispatch on the destination too
    restored = RestoreDriver(dst, VMTI(dst), state).restore()
    assert restored.depth() == 1
    rf = restored.frames[-1]
    assert rf.pc == captured_pc
    assert not rf.stack
    # primitive locals travel by value (objects become remote refs)
    for a, b in zip(captured_locals, rf.locals):
        if isinstance(a, (int, float, bool, str)) or a is None:
            assert a == b


def test_full_migration_workflow_still_works(sod_engine, app_classes_faulting):
    """End-to-end SOD migration (engines drive breakpoints, write hooks
    and stop predicates) on machines whose default dispatch is fast."""
    expected = Machine(app_classes_faulting,
                       dispatch="legacy").call("App", "work", [5])
    eng = sod_engine
    home = eng.host("node0")
    t = eng.spawn(home, "App", "work", [5])
    eng.run(home, t, stop=lambda th: th.frames[-1].code.name == "step")
    worker, wt, _rec = eng.migrate(home, t, "node1", 1)
    eng.run(worker, wt)
    eng.complete_segment(worker, wt, home, t, 1)
    eng.run(home, t)
    assert t.result == expected


# -- the one preemption rule ---------------------------------------------------
#
# A quantum expires only before a safepoint instruction
# (``opcodes.is_safepoint``), once the run's budget is spent — in the
# hooked loop, tier 1 and tier-2 code alike, so *where* a thread is
# preempted never depends on which loop ran the slice.

#: registry programs at sizes that keep five modes x five runs quick
SCHEDULE_ARGS = {"Fib": (17,), "NQ": (6,), "FFT": (8, 1024), "TSP": (6,)}


@pytest.mark.parametrize("name", sorted(SCHEDULE_ARGS))
def test_preemption_schedule_is_tier_blind(name):
    """The whole preemption sequence — (stack depth, method, pc,
    instr_count) at every "preempted" — is *equal* across the legacy
    loop, tier 1 fused/unfused, and tier 2 at threshold 1 and the
    shipped one, for every budget in QUANTA, on the build serving
    runs; result / stdout / instr_count with it, the clock to 1e-9."""
    from minilang_fuzz import QUANTA, SCHEDULE_MODES, divergence

    w = registry.WORKLOADS[name]
    assert divergence(w.source, SCHEDULE_ARGS[name], "faulting",
                      SCHEDULE_MODES, QUANTA, w.main) is None


LEAF_LOOP_SRC = """
class G {
  static int main(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      acc = (acc + i * 7 + 3) % 100003;
    }
    return acc;
  }
}
"""


#: the three loops behind ``Machine.run``
LOOPS = ["legacy", "fast", "tier2"]


def _machine_on(loop, classes, cls, method):
    """A machine that executes ``cls.method`` on ``loop`` from its
    first instruction (tier 2: compiled ahead of the threshold)."""
    m = Machine(classes, jit=loop == "tier2",
                dispatch="legacy" if loop == "legacy" else "fast")
    if loop == "tier2":
        assert m.precompile(cls, method)
    return m


@pytest.mark.parametrize("loop", LOOPS)
def test_call_free_loop_preempts_at_its_back_edge(loop):
    """A loop with no calls still preempts — at its back-edge JMP, in
    interpreted and compiled code — so one such request cannot hold a
    node for the loop's duration; the overshoot past the budget is the
    rest of one loop body, and the machine records it."""
    classes = preprocess_program(compile_source(LEAF_LOOP_SRC), "original")
    oracle = Machine(classes, dispatch="legacy")
    expected = oracle.call("G", "main", [400])
    m = _machine_on(loop, classes, "G", "main")
    t = m.spawn("G", "main", [400])
    assert m.max_quantum_overshoot == 0
    slices = 0
    while m.run(t, quantum=50) == "preempted":
        slices += 1
        top = t.frames[-1]
        ins = top.code.instrs[top.pc]
        assert ins.op == "JMP" and ins.a <= top.pc
        assert m.instr_count <= (slices + 1) * 50 + 64 * slices
    assert slices > 20 and t.result == expected
    assert 0 < m.max_quantum_overshoot < 64
    assert m.instr_count == oracle.instr_count
    assert math.isclose(m.clock, oracle.clock, rel_tol=1e-9, abs_tol=1e-12)


def _opcode_sites():
    """One executable site per opcode (and per direction, for
    branches): ``label -> (instrs, site bci, exception rows)`` of a
    static method ``T.site()`` whose bci 0 is a NOP — so with
    ``quantum=1`` the budget is spent before everything after it — and
    in which only the site itself can be a safepoint before the final
    ``RET``."""
    from repro.bytecode.code import ExcEntry, Instr as I

    arr = [I(op.CONST, 2), I(op.NEWARR, "int", 8)]
    # operand set-up per opcode; straight-line sites only
    setup = {
        op.CONST: [], op.LOAD: [], op.NOP: [], op.NEW: [], op.GETS: [],
        op.JMP: [], op.RET: [], op.RETV: [I(op.CONST, 1)],
        op.STORE: [I(op.CONST, 1)], op.POP: [I(op.CONST, 1)],
        op.DUP: [I(op.CONST, 1)], op.PUTS: [I(op.CONST, 1)],
        op.ISREMOTE: [I(op.CONST, 1)], op.NEWARR: [I(op.CONST, 2)],
        op.NEG: [I(op.CONST, 1)], op.NOT: [I(op.CONST, 1)],
        op.SWAP: [I(op.CONST, 1), I(op.CONST, 2)],
        op.GETF: [I(op.NEW, "T")],
        op.PUTF: [I(op.NEW, "T"), I(op.CONST, 1)],
        op.ALOAD: arr + [I(op.CONST, 0)],
        op.ASTORE: arr + [I(op.CONST, 0), I(op.CONST, 5)],
        op.LEN: arr,
        op.JZ: [I(op.CONST, 1)], op.JNZ: [I(op.CONST, 0)],
        op.LSWITCH: [I(op.CONST, 1)],
        op.INVOKESTATIC: [I(op.CONST, 1)],
        op.INVOKEVIRT: [I(op.NEW, "T")],
        op.NATIVE: [I(op.CONST, 4.0)],
        op.THROW: [I(op.NEW, "ArithmeticException")],
    }
    setup.update({o: [I(op.CONST, 6), I(op.CONST, 3)] for o in (
        op.ADD, op.SUB, op.MUL, op.DIV, op.MOD,
        op.EQ, op.NE, op.LT, op.LE, op.GT, op.GE)})
    args = {
        op.CONST: (7,), op.LOAD: (0,), op.STORE: (0,), op.NEW: ("T",),
        op.GETF: ("f",), op.PUTF: ("f",), op.GETS: (("T", "s"),),
        op.PUTS: (("T", "s"),), op.NEWARR: ("int", 8),
        op.INVOKESTATIC: (("T", "id"), 1), op.INVOKEVIRT: ("get", 0),
        op.NATIVE: ("Sys.sqrt", 1),
    }

    def net(ins):
        pops, pushes = op.stack_effect(ins.op, ins.a, ins.b)
        return pushes - pops

    sites = {}
    for o in op.OPCODES:
        pre = [I(op.NOP)] + setup[o]
        at = len(pre)
        if o in op.BRANCHES:
            a = (at + 1,)            # forward, to the next instruction
        elif o == op.LSWITCH:
            a = ({1: at + 1}, at + 1)
        else:
            a = args.get(o, ())
        body = pre + [I(o, *a)]
        depth = sum(net(ins) for ins in body)
        rows = []
        if o == op.THROW:
            rows = [ExcEntry(0, at + 1, at + 1, "Throwable")]
            depth = 1                # the handler starts with the exception
        if o not in (op.RET, op.RETV):
            body += [I(op.POP)] * depth + [I(op.RET)]
        sites[o] = (body, at, rows)
    # taken backward branches: only the unconditional one is a safepoint
    for o, cond in ((op.JMP, []), (op.JZ, [I(op.CONST, 0)]),
                    (op.JNZ, [I(op.CONST, 1)])):
        n = len(cond)
        sites[o + " backward"] = (
            [I(op.NOP), I(op.JMP, 4), I(op.NOP), I(op.JMP, 6 + n)]
            + cond + [I(o, 2), I(op.NOP), I(op.RET)], 4 + n, [])
    return sites


OPCODE_SITES = _opcode_sites()


@pytest.mark.parametrize("label", sorted(OPCODE_SITES))
def test_quantum_expires_only_at_declared_safepoints(label):
    """Table-driven, per opcode: with the budget already spent, a run
    stops *before* the instruction iff ``opcodes.is_safepoint`` says
    so — in all three loops (catches a handler, a tier-2 template and
    the declared set drifting apart)."""
    from repro.bytecode import ClassFile
    from repro.bytecode.code import CodeObject, FieldDecl, Instr as I

    body, at, rows = OPCODE_SITES[label]
    site = body[at]
    declared = op.is_safepoint(site.op, site.a, at)
    for loop in LOOPS:
        helpers = {
            "id": CodeObject("T", "id", 1, 1, [I(op.LOAD, 0), I(op.RETV)]),
            "get": CodeObject("T", "get", 1, 1,
                              [I(op.LOAD, 0), I(op.GETF, "f"), I(op.RETV)],
                              is_static=False),
            "site": CodeObject("T", "site", 0, 1, body, exc_table=rows),
        }
        fields = [FieldDecl("f"), FieldDecl("s", is_static=True)]
        m = _machine_on(loop, {"T": ClassFile("T", None, fields, helpers)},
                        "T", "site")
        t = m.spawn("T", "site", [])
        assert m.run(t, quantum=1) == "preempted"
        stopped_before_site = (len(t.frames) == 1
                               and t.frames[-1].pc == at)
        assert stopped_before_site == declared, (label, loop)
        while m.run(t, quantum=1) == "preempted":
            pass
        assert t.finished and t.uncaught is None


# -- pure math natives: generated in line by tier 2 ----------------------------
#
# Tier 2 calls a ``PURE_MATH`` host function in line while the arguments
# are numbers and the registry still holds ``PURE_NATIVES``' own object;
# everything else takes the registry's function.  Which arm ran may not
# show: the result (or the exception class and ``frame.pc``) and
# ``instr_count`` are equal to the legacy loop's, the clock to 1e-9.

def _intrinsic_cases():
    """``(name, [argument tuples])`` per pure math native: every number
    type, what ``_num`` refuses (``bool``, ``None``, a string), min /
    max mixed both ways, and the host functions' own errors."""
    from repro.vm.natives import PURE_MATH

    one = [(7,), (-3,), (2.5,), (-0.5,), (True,), (None,), ("s",)]
    two = [(3, 2.5), (2.5, 3), (1, 1.0), (-4, 9), (1.5, False),
           (None, 2), (2, "s")]
    extra = {"Sys.sqrt": [(-1.0,)], "Sys.intOf": [(math.inf,), (math.nan,)],
             "Sys.floatOf": [(10 ** 400,)]}
    return [(name, {0: [()], 1: one, 2: two}[arity] + extra.get(name, []))
            for name, (_fn, arity) in sorted(PURE_MATH.items())]


def _intrinsic_outcome(classes, args, **kw):
    """Run ``T.go(*args)`` — on tier 2 compiled before its first
    instruction — and return ``(machine, outcome)``: the result's repr,
    or the host exception's class and the faulting ``frame.pc``."""
    m = Machine(classes, **kw)
    if m.jit:
        assert m.precompile("T", "go")
    t = m.spawn("T", "go", list(args))
    try:
        m.run(t)
        return m, repr(t.result)
    except Exception as exc:
        return m, (type(exc).__name__, t.frames[-1].pc)


@pytest.mark.parametrize("via", ["locals", "literals"])
@pytest.mark.parametrize("name,cases", _intrinsic_cases())
def test_intrinsic_matches_the_legacy_loop(name, cases, via):
    """Arguments read from locals meet the type guard; literal ones
    are known numbers at generation time and skip it."""
    from repro.bytecode import ClassFile
    from repro.bytecode.code import CodeObject, Instr as I

    for args in cases:
        n = len(args)
        push = [I(op.LOAD, i) for i in range(n)] if via == "locals" \
            else [I(op.CONST, a) for a in args]
        code = CodeObject("T", "go", n, n,
                          push + [I(op.NATIVE, name, n), I(op.RETV)])
        classes = {"T": ClassFile("T", None, [], {"go": code})}
        ref, want = _intrinsic_outcome(classes, args, dispatch="legacy")
        m, got = _intrinsic_outcome(classes, args, jit=True)
        assert got == want, (name, args)
        assert m.instr_count == ref.instr_count, (name, args)
        assert math.isclose(m.clock, ref.clock, rel_tol=1e-9,
                            abs_tol=1e-12), (name, args)
        assert m.jit_compiles == 1 and m.jit_compile_errors == 0


INTRINSIC_LOOP_SRC = """
class Q {
  static float go(int n) {
    float acc = 0.0;
    for (int i = 0; i < n; i = i + 1) {
      acc = acc + Sys.sqrt(Sys.floatOf(i * i + 1));
    }
    return acc;
  }
}
"""


@pytest.mark.parametrize("when", ["before", "after"])
def test_intrinsic_runs_a_re_registered_native(when):
    """``register("Sys.sqrt", custom)`` before the method tiers up and
    after it: the compiled code runs ``custom`` either way, and goes on
    at the bci after it with what ``custom`` wrote into the frame (it
    bumps the loop counter, the way ``ObjMan.resolve`` patches slots)."""
    classes = preprocess_program(compile_source(INTRINSIC_LOOP_SRC),
                                 "faulting")
    slot = classes["Q"].methods["go"].local_names.index("i")

    def custom(m, args):
        m.current_thread.frames[-1].locals[slot] += 1
        return -args[0]

    ref = Machine(classes, dispatch="legacy")
    ref.natives.register("Sys.sqrt", custom)
    want = ref.call("Q", "go", [9])
    m = Machine(classes, jit=True)
    if when == "before":
        m.natives.register("Sys.sqrt", custom)
    assert m.precompile("Q", "go")
    if when == "after":
        assert m.call("Q", "go", [9]) != want  # the host sqrt, in line
        m.natives.register("Sys.sqrt", custom)
        n0, c0 = m.instr_count, m.clock
    else:
        n0, c0 = 0, 0.0
    assert m.call("Q", "go", [9]) == want
    assert m.instr_count - n0 == ref.instr_count
    assert math.isclose(m.clock - c0, ref.clock, rel_tol=1e-9)
    assert m.jit_compiles == 1 and m.jit_compile_errors == 0


def test_intrinsic_preemption_schedule_is_tier_blind():
    """A quantum spent exactly where the loop reaches its first in-line
    native, one instruction later, and at every safepoint: the same
    preemption schedule — stack depth, pc, ``instr_count`` and the top
    frames' locals at every slice end — on every loop."""
    from minilang_fuzz import SCHEDULE_MODES, divergence

    classes = preprocess_program(compile_source(INTRINSIC_LOOP_SRC),
                                 "faulting")
    m = Machine(classes, dispatch="legacy")
    t = m.spawn("Q", "go", [6])

    def at_native(th):
        f = th.frames[-1]
        return f.code.instrs[f.pc].op == op.NATIVE

    assert m.run(t, stop=at_native) == "stopped"
    top = t.frames[-1]
    assert jit_mod._pure(top.code.instrs[top.pc])
    at = m.instr_count
    assert divergence(INTRINSIC_LOOP_SRC, (6,), "faulting", SCHEDULE_MODES,
                      (at, at + 1, 1), ("Q", "go")) is None
