"""Differential suite: fast (pre-decoded, fused, inline-cached) dispatch
must be observationally identical to the legacy (hooked) loop.

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
from repro.vm.values import RemoteRef
from repro.workloads import registry
from repro.workloads.mixes import MIXES, SERVE_PROGRAMS, serve_compiled
from tests.helpers import assemble, loop_meter, tier1_dispatches  # noqa: F401

#: dispatch configurations under test: (label, Machine kwargs)
MODES = [("fast", dict(dispatch="fast"))]


def _run(classes, main, args, **kw):
    m = Machine(classes, **kw)
    t = m.spawn(main[0], main[1], list(args))
    entry = t.frames[-1]
    m.run(t)
    if t.uncaught is None:
        return m, t.result, None
    # an uncaught throw leaves the entry frame at the bci it died at
    exc = t.uncaught
    return m, None, (exc.class_name, exc.fields.get("msg"), entry.pc)


def _assert_equivalent(classes, main, args):
    ref, r_ref, e_ref = _run(classes, main, args, dispatch="legacy")
    for label, kw in MODES:
        m, r, e = _run(classes, main, args, **kw)
        assert r == r_ref, f"{label}: result diverged"
        assert e == e_ref, f"{label}: uncaught-exception diverged"
        assert m.stdout == ref.stdout, f"{label}: stdout diverged"
        assert m.instr_count == ref.instr_count, f"{label}: instr_count"
        assert m.clock == ref.clock, \
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


#: what a cold tier-2 machine does with each registry program on the
#: ``faulting`` build at ``sim_args``: (instructions, clock ticks,
#: tier-2 compiles, guard bails, fused sites in the tier-1 streams of
#: the classes it loaded).  All five are deterministic on any host.
#: Freshly compiled classes: hotness lives on the code objects, so runs
#: of ``registry.compiled``'s shared classes earlier in the process
#: would tier them up sooner.
REGISTRY_COUNTS = {
    "FFT": (2_291_708, 144_384_140, 6, 0, 462),
    "Fib": (1_062_621, 65_705_450, 1, 0, 17),
    "NQ": (949_411, 60_493_640, 2, 0, 85),
    "TSP": (2_328_869, 153_060_460, 3, 0, 194),
}

#: each method's ``CodeObject.hotness`` after the same cold run (the
#: methods left out stay 0): a frame entry or a loop back-edge bumps a
#: method that has no closure yet, and a tier-1 return is no entry
REGISTRY_HOTNESS = {
    "FFT": {"FFT.checksum": 16, "FFT.compute": 16, "FFT.fft1d": 16,
            "FFT.fftCol": 16, "FFT.fftRow": 16, "FFT.finishUp": 1,
            "FFT.init": 16, "FFT.main": 3, "FFT.post": 2},
    "Fib": {"Fib.fib": 16, "Fib.main": 2},
    "NQ": {"NQ.main": 2, "NQ.ok": 16, "NQ.place": 16},
    "TSP": {"TSP.d": 16, "TSP.init": 16, "TSP.main": 1, "TSP.run": 2,
            "TSP.search": 16, "TSP.solve": 2},
}


@pytest.mark.parametrize("name", sorted(REGISTRY_COUNTS))
def test_registry_counts_on_the_faulting_build(name):
    """The counts above; the hooked loop and tier 1 execute the same
    instructions and ticks, to the same clock bits."""
    w = registry.WORKLOADS[name]
    classes = preprocess_program(compile_source(w.source), "faulting")
    m = Machine(classes, jit=True)
    m.call(w.main[0], w.main[1], list(w.sim_args))
    sites = sum(sum(fused_coverage(m.decoded(code)).values())
                for cls in m.loader.loaded_classes().values()
                for code in cls.cf.methods.values())
    assert (m.instr_count, m._ticks, m.jit_compiles, m.jit_guard_bails,
            sites) == REGISTRY_COUNTS[name]
    assert {f"{c}.{meth}": code.hotness
            for c, cf in classes.items() for meth, code in cf.methods.items()
            if code.hotness} == REGISTRY_HOTNESS[name]
    for kw in (dict(dispatch="legacy"), dict(jit=False)):
        other = Machine(classes, **kw)
        other.call(w.main[0], w.main[1], list(w.sim_args))
        assert (other.instr_count, other._ticks, other.clock) == \
            (m.instr_count, m._ticks, m.clock), kw


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
  static int thrownull() { throw null; }
  static int newarr(int n) { int[] xs = new int[n]; return 1; }
  static int pick(int k) {
    int r = 0;
    switch (k) { case 1: r = 10; break; case 2: r = 20; break; default: r = 30; }
    return r;
  }
  static int caught(int n) {
    int x = 1;
    try { x = n + 5; int[] xs = new int[n]; x = 0; }
    catch (IndexOutOfBoundsException e) { x = x * 10; }
    x = x + 3;
    switch (x) { case 43: x = x + 1000; break; default: x = x + 2000; }
    return x;
  }
}
"""


def exc_classes():
    classes = preprocess_program(compile_source(EXC_SRC), "original")
    # MiniLang has no LEN of its own (``Sys.len`` is a native)
    classes["E"].methods["lennull"] = assemble("""
    method E.lennull static params=0 locals=0
      line 1
      CONST None
      LEN
      RETV
    """)
    return classes


@pytest.mark.parametrize("main,args", [
    (("E", "guarded"), (7, 0)),
    (("E", "guarded"), (7, 2)),
    (("E", "bounds"), (10,)),
    (("E", "npe"), ()),
    (("E", "concat"), (42,)),
    (("E", "uncaught"), (5,)),
    (("E", "thrownull"), ()),
    (("E", "lennull"), ()),
    (("E", "newarr"), (-1,)),
    (("E", "pick"), (9,)),        # the LSWITCH default
])
def test_guest_exceptions_identical(main, args):
    """Uncaught, the entry frame's ``frame.pc`` is compared too: the
    THROW / LEN / NEWARR faults run tier 1's fallback arm."""
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
    exactly what the hooked loop charges and leave the destination local
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
    # the hooked loop (which shares no charge code with tier 1)
    ref, _f, want = _fault_run(classes, method, args, setup,
                               dispatch="legacy")
    assert fused == want
    assert m.clock == ref.clock
    # the fault really came from inside the pattern under test (its
    # destination local is compared above: left as it was)
    stream = m.decoded(frame.code)
    sites = [i for i, ins in enumerate(frame.code.instrs)
             if ins.op == fault_op and i >= 2
             and FUSED_NAMES.get(stream[i - 2][0]) == pattern
             and stream[i - 2][5] == 2]
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
        assert len(slot) == 7
        assert slot[3] >= 1
        assert i + slot[3] <= len(stream)
        assert 0 <= slot[5] < slot[3]
    # a run [start, end) is charged from the stored tick prefix: each
    # step of it is one instruction's ticks
    prefix = code._fused[id(m.cost.op_weights)][3]
    assert len(prefix) == len(stream) + 1 and prefix[0] == 0.0
    assert all(prefix[i + 1] - prefix[i] == w
               for i, (_o, _a, _b, w) in enumerate(base))


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


def test_the_oracle_table_covers_the_isa():
    """``machine._OPS`` holds one handler for each opcode of the ISA,
    and nothing else."""
    from repro.vm import machine as machine_mod
    assert set(machine_mod._OPS) == op.ALL_OPS


def test_tier1_enters_frames_only_in_its_driver():
    """``_run_fast``'s inner loop runs one frame, as a tier-2 closure
    does: a call arm builds the callee's ``Frame``, one arm returns for
    ``RET`` and ``RETV``, and both hand the next frame to the driver
    (the top of ``while frames:``).  So hotness is bumped and a closure
    looked up only there and at the ``JMP`` back-edge, and the frame
    registers are loaded once, in the driver."""
    import ast
    import inspect
    import re
    import textwrap

    tree = ast.parse(textwrap.dedent(inspect.getsource(Machine._run_fast)))
    loops = {ast.unparse(n.test): n for n in ast.walk(tree)
             if isinstance(n, ast.While)}
    inner = loops["True"]
    label = {id(inner): "inner"}
    arm = next(n for n in inner.body if isinstance(n, ast.If))
    while isinstance(arm, ast.If):  # the if / elif chain on ``oid``
        name = "+".join(sorted(re.findall(r"oid == I_(\w+)",
                                          ast.unparse(arm.test))))
        for stmt in arm.body:
            label[id(stmt)] = name or "fused"
        arm = arm.orelse[0] if arm.orelse else None

    def walk(node, where):
        where = label.get(id(node), where)
        yield where, node
        for child in ast.iter_child_nodes(node):
            yield from walk(child, where)

    spots = list(walk(loops["frames"], "driver"))
    bumps = [w for w, n in spots if isinstance(n, ast.Assign) and any(
        isinstance(t, ast.Attribute) and t.attr == "hotness"
        for t in n.targets)]
    lookups = [w for w, n in spots if isinstance(n, ast.Call)
               and ast.unparse(n.func) == "jm.get"]
    frames = [w for w, n in spots if isinstance(n, ast.Call)
              and ast.unparse(n.func) == "Frm.__new__"]
    loads = [(w, t.id) for w, n in spots if isinstance(n, ast.Assign)
             for t in n.targets if isinstance(t, ast.Name)
             and t.id in ("frame", "locs", "stack", "push", "pop")]
    streams = {w for w, n in spots if isinstance(n, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "stream"
                       for t in n.targets)}
    assert sorted(bumps) == sorted(lookups) == ["JMP", "driver"]
    assert sorted(frames) == ["INVOKESTATIC", "INVOKEVIRT"]
    assert sorted(loads) == [("driver", r) for r in
                             ("frame", "locs", "pop", "push", "stack")]
    assert streams == {"driver"}
    assert "RET+RETV" in label.values()


def test_hooked_loop_has_no_second_encoding():
    """``Machine._execute`` and ``_run_loop`` name no opcode and test no
    opcode set: every body lives in the handler table, so no copy of an
    opcode's semantics can return to the hooked loop."""
    import inspect
    import re

    for fn in (Machine._execute, Machine._run_loop):
        src = inspect.getsource(fn)
        assert not re.search(r"\bop\.[A-Z]+\b", src), fn.__name__
        assert not re.search(r"_ARITH|SAFEPOINT_OPS|OP_IDS|_I_[A-Z]", src), \
            fn.__name__
        assert not re.search(r"[\"'][A-Z]{2,}[\"']", src), fn.__name__


#: the plain opcodes tier 1 writes an arm for: the safepoints (their
#: arms poll the quantum and tier up) and the ones a bench workload
#: dispatches 1,000+ times per stream; every other opcode runs
#: ``Machine._execute`` from the fallback arm
HAND_WRITTEN_PLAIN = {op.JMP, op.INVOKESTATIC, op.INVOKEVIRT, op.NATIVE,
                      op.RET, op.RETV, op.LOAD, op.STORE, op.CONST,
                      op.GETS, op.ASTORE, op.POP, op.DUP}


def test_every_hand_written_arm_dispatches():
    """``_run_fast``'s arms are the nine superinstructions and
    :data:`HAND_WRITTEN_PLAIN`, and each one dispatches on this file's
    differential programs plus the four registry programs, run on the
    ``original`` and ``faulting`` builds (pc trace replayed against the
    fused streams): an arm nothing runs is a third encoding to delete."""
    import inspect
    import re

    from repro.preprocess import fuse
    from repro.vm import machine as machine_mod

    arms = set()
    for name in re.findall(r"oid == (\w+)",
                           inspect.getsource(Machine._run_fast)):
        fused = name.startswith("FI_")
        oid = getattr(fuse, "F" + name[2:]) if fused \
            else getattr(machine_mod, "_" + name)
        arms.add(FUSED_NAMES[oid] if fused else op.OPCODES[oid])
    assert arms == set(FUSED_NAMES.values()) | HAND_WRITTEN_PLAIN
    corpus = [(EXC_SRC, ("E", "guarded"), (7, 2)),
              (EXC_SRC, ("E", "guarded"), (7, 0)),  # groups throw, caught
              (EXC_SRC, ("E", "concat"), (42,)),
              (POLY_SRC, ("P", "virt"), (6,)),
              (POLY_SRC, ("P", "statics"), (5,)),
              (MIG_SRC, ("R", "outer"), (4,))]
    corpus += [(registry.WORKLOADS[name].source,
                registry.WORKLOADS[name].main, args)
               for name, args in sorted(SCHEDULE_ARGS.items())]
    fired = Counter()
    for build in ("original", "faulting"):
        for source, main, args in corpus:
            classes = preprocess_program(compile_source(source), build)
            fired += tier1_dispatches(classes, main, args)
    assert arms <= set(fired), f"never dispatched: {arms - set(fired)}"


#: the opcodes tier 2 writes a template for: the safepoints, the
#: branches, and the plain ones some bench workload executes 1,000+
#: times per stream in compiled code; every other opcode runs
#: ``Machine._execute`` from ``jit._Compiler.gen_oracle``
TEMPLATED = {op.JMP, op.INVOKESTATIC, op.INVOKEVIRT, op.NATIVE, op.RET,
             op.RETV, op.JZ, op.JNZ, op.LOAD, op.CONST, op.STORE, op.POP,
             op.DUP, op.ADD, op.SUB, op.MUL, op.DIV, op.MOD, op.EQ, op.NE,
             op.LT, op.LE, op.GT, op.GE, op.NEG, op.GETF, op.PUTF, op.GETS,
             op.NEW, op.ALOAD, op.ASTORE}


def misc_classes():
    """``E.misc``: the stack shuffles and host-bool producers MiniLang
    never emits, ``a - 5 + 100`` for a local ``a``."""
    classes = exc_classes()
    classes["E"].methods["misc"] = assemble("""
    method E.misc static params=1 locals=1
      line 1
      CONST 5
      LOAD 0
      SWAP
      NOP
      SUB
      LOAD 0
      ISREMOTE
      NOT
      JZ Lout
      CONST 100
      ADD
    Lout:
      RETV
    """)
    return classes


#: id -> (classes, main, args, the oracle-arm opcodes it executes);
#: THROW / LEN / NEWARR / LSWITCH reuse the exception programs above
ORACLE_ARM_RUNS = {
    "misc": (misc_classes, ("E", "misc"), (7,),
             {op.SWAP, op.NOP, op.ISREMOTE, op.NOT}),
    "thrownull": (exc_classes, ("E", "thrownull"), (), {op.THROW}),
    "lennull": (exc_classes, ("E", "lennull"), (), {op.LEN}),
    "newarr": (exc_classes, ("E", "newarr"), (3,), {op.NEWARR}),
    "newarr-neg": (exc_classes, ("E", "newarr"), (-1,), {op.NEWARR}),
    "pick": (exc_classes, ("E", "pick"), (2,), {op.LSWITCH}),
    "pick-default": (exc_classes, ("E", "pick"), (9,), {op.LSWITCH}),
    # locals stored in the block reach the handler and the switch arm
    "caught": (exc_classes, ("E", "caught"), (-1,), {op.NEWARR, op.LSWITCH}),
    "puts": (lambda: preprocess_program(compile_source(POLY_SRC),
                                        "original"),
             ("P", "statics"), (5,), {op.PUTS}),
}


def test_tier2_arms_are_the_templated_set():
    """``gen_op`` writes a template for :data:`TEMPLATED` and for
    nothing else, and every other opcode has a run below that executes
    it through the oracle arm."""
    import inspect
    import re

    arms = set(re.findall(r"\bop\.([A-Z]+)\b",
                          inspect.getsource(jit_mod._Compiler.gen_op)))
    arms |= set(jit_mod._INLINE_BINOP)
    assert arms == TEMPLATED
    assert set().union(*(r[3] for r in ORACLE_ARM_RUNS.values())) \
        == op.ALL_OPS - TEMPLATED


@pytest.mark.parametrize("case", sorted(ORACLE_ARM_RUNS))
def test_tier2_arms_oracle_runs_in_the_closure(case, monkeypatch):
    """At ``JIT_THRESHOLD`` 1 the method is compiled at its first
    entry, and each opcode of the case reaches ``Machine._execute``
    from inside the closure; result, uncaught exception (with the
    entry frame's pc), stdout, ``instr_count`` and clock equal the
    legacy loop's."""
    import sys

    make, main, args, ops = ORACLE_ARM_RUNS[case]
    monkeypatch.setattr(jit_mod, "JIT_THRESHOLD", 1)
    in_closure = Counter()
    real = Machine._execute

    def spy(self, thread, frame, ins):
        if sys._getframe(1).f_code.co_filename.startswith("<jit "):
            in_closure[ins.op] += 1
        return real(self, thread, frame, ins)

    monkeypatch.setattr(Machine, "_execute", spy)
    classes = make()
    ref, r_ref, e_ref = _run(classes, main, args, dispatch="legacy")
    m, r, e = _run(classes, main, args, jit=True)
    assert ops <= set(in_closure), in_closure
    assert m.jit_compiles >= 1 and m.jit_compile_errors == 0
    assert (r, e, m.stdout, m.instr_count, m.clock) == \
        (r_ref, e_ref, ref.stdout, ref.instr_count, ref.clock)


def test_fast_and_legacy_agree_on_loop_src():
    """``LOOP_SRC``'s counted loop on the ``original`` build: the fast
    loop gives the legacy loop's result, stdout, ``instr_count`` and
    clock."""
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
    m = Machine(classes, dispatch="fast")
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
    width = max(slot[3] for slot in stream)
    assert width == 4, f"no 4-wide fused group found (widest {width})"
    start = next(i for i, slot in enumerate(stream) if slot[3] == width)
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


MID_SRC = """
class M {
  int v;
  static int idx(int i) { int[] xs = new int[4]; int r = 5; r = xs[i]; return r; }
  static int fld() { M o = null; int r = 5; r = o.v; return r; }
}
"""


@pytest.mark.parametrize("method,args,fault_op", [
    ("idx", (4,), op.ALOAD), ("fld", (), op.GETF)])
def test_fallback_entered_mid_group_faults_like_legacy(method, args,
                                                       fault_op):
    """Stopped at the ``ALOAD`` of a ``LOAD+LOAD+ALOAD+STORE`` group or
    the ``GETF`` of a ``LOAD+GETF`` one, then resumed: tier 1 runs the
    plain slot through its fallback arm and faults there, with
    ``frame.pc``, ``instr_count`` and the clock of the legacy loop."""
    classes = preprocess_program(compile_source(MID_SRC), "faulting")
    code = classes["M"].methods[method]
    bci = next(i for i, ins in enumerate(code.instrs) if ins.op == fault_op)
    runs = []
    for kw in (dict(jit=False), dict(dispatch="legacy")):
        m = Machine(classes, **kw)
        stream = m.decoded(code)
        assert any(stream[h][3] > bci - h for h in range(bci)), \
            "the fault site is not inside a fused group"
        t = m.spawn("M", method, list(args))
        frame = t.frames[-1]
        assert m.run(t, stop=lambda th: th.frames[-1].pc == bci) \
            == "stopped"
        assert m.run(t) == "finished"
        runs.append((frame.pc, m.instr_count, m.clock,
                     t.uncaught.class_name))
    assert runs[0] == runs[1] and runs[0][0] == bci


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


ARM_SRC = """
class G {
  static int go(int n) {
    Sys.armHook();
    int s = 0;
    for (int i = 0; i < n; i = i + 1) { s = s + i; }
    return s;
  }
}
"""


def test_native_installed_hooks_retreat_to_slow_loop(loop_meter):
    """A native arms a breakpoint mid-run: it is planted at once as a
    trap in the running stream (inside a fused group: the group's head
    is unfused too), so it fires on the fast tiers and each hit hands
    exactly one instruction to the hooked loop."""
    classes = preprocess_program(compile_source(ARM_SRC), "faulting")
    code = classes["G"].methods["go"]
    for k in range(3):  # each interior offset of a 4-wide group
        m = Machine(classes)
        hits = []

        def arm(machine, args):
            interior = _interior_bcis(machine.decoded(code))[k]
            machine.set_breakpoint(("G", "go", interior))
            machine.on_breakpoint = lambda mach, th: hits.append(
                th.frames[-1].pc)
            return None

        m.natives.register("Sys.armHook", arm)
        loop_meter["hooked_instrs"] = 0
        result = m.call("G", "go", [5])
        assert result == sum(range(5))
        assert hits, f"breakpoint armed by a native never fired ({k})"
        assert loop_meter["hooked_instrs"] == len(hits)


@pytest.mark.parametrize("k", range(3))
def test_native_arming_its_own_compiled_method_leaves_the_closure(k):
    """Tier 2's status 5: a native called from ``go``'s compiled
    closure arms a breakpoint at an interior bci of ``go`` itself.  The
    running closure cannot see a trap planted in tier 1's stream, so it
    exits (one deopt), the driver re-enters the frame on tier 1, and
    the breakpoint fires at every later arrival — the hits of a legacy
    twin."""
    classes = preprocess_program(compile_source(ARM_SRC), "faulting")
    code = classes["G"].methods["go"]
    interior = _interior_bcis(Machine(classes).decoded(code))[k]
    runs = {}
    for dispatch in ("legacy", "fast"):
        m = Machine(classes, dispatch=dispatch, jit=True)
        hits = []

        def arm(machine, args):
            machine.set_breakpoint(("G", "go", interior))
            machine.on_breakpoint = lambda mach, th: hits.append(
                (th.frames[-1].pc, mach.instr_count))
            return None

        m.natives.register("Sys.armHook", arm)
        assert m.precompile("G", "go") == (dispatch == "fast")
        assert m.call("G", "go", [7]) == sum(range(7))
        runs[dispatch] = (hits, m.instr_count, m.clock, m.jit_deopts)
    hits, count, clock, deopts = runs["fast"]
    assert len(hits) in (7, 8) and deopts == 1
    assert runs["legacy"] == (hits, count, clock, 0)


CALLS_SRC = """
class H {
  static int leaf(int x) {
    if (x == 2) { Sys.armHook(); }
    return x + 1;
  }
  static int go(int n) {
    Sys.armHook();
    int s = 0;
    for (int i = 0; i < n; i = i + 1) { s = s + H.leaf(i); }
    return s;
  }
}
"""


@pytest.mark.parametrize("target", ["leaf", "go"])
def test_a_native_deopts_only_the_closures_of_live_frames(target):
    """Both methods compiled, ``go`` calling ``leaf`` closure to
    closure.  ``go``'s native arming ``leaf`` (no frame of it is live)
    costs no deopt: the next call finds ``leaf`` masked and runs it on
    tier 1.  ``leaf``'s native arming ``go`` (the caller on the host
    stack) deopts: ``leaf``'s closure exits and ``go``'s forwards it.
    Either way the hits, instructions and clock are a legacy twin's."""
    classes = preprocess_program(compile_source(CALLS_SRC), "faulting")
    go = classes["H"].methods["go"]
    bci = 0 if target == "leaf" else _interior_bcis(
        Machine(classes).decoded(go))[0]
    runs = {}
    for dispatch in ("legacy", "fast"):
        m = Machine(classes, dispatch=dispatch, jit=True)
        hits = []

        def arm(machine, args):
            if machine.current_thread.frames[-1].code.name != target:
                machine.set_breakpoint(("H", target, bci))
                machine.on_breakpoint = lambda mach, th: hits.append(
                    (th.frames[-1].code.name, mach.instr_count))
            return None

        m.natives.register("Sys.armHook", arm)
        for name in ("leaf", "go"):
            assert m.precompile("H", name) == (dispatch == "fast")
        assert m.call("H", "go", [6]) == sum(range(1, 7))
        runs[dispatch] = (hits, m.instr_count, m.clock)
        deopts = m.jit_deopts
    assert runs["fast"] == runs["legacy"]
    assert len(runs["fast"][0]) >= (6 if target == "leaf" else 3)
    assert deopts == (0 if target == "leaf" else 1)


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
    fast — exercising bci-precise capture from a thread that was
    running fused code."""
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

#: registry programs at sizes that keep four modes x five runs quick
SCHEDULE_ARGS = {"Fib": (17,), "NQ": (6,), "FFT": (8, 1024), "TSP": (6,)}

_SCHEDULE_ORACLES = {}


def schedule_oracle(name):
    """The legacy runs of registry program ``name`` at ``SCHEDULE_ARGS``
    under every budget in ``QUANTA``, without a stop, as ``divergence``
    keeps them.  Two tests compare against it (this file's tier-blind
    one and the never-firing declared stop's), so the first caller runs
    it and the second takes it over: tens of MiB are not held longer."""
    if name in _SCHEDULE_ORACLES:
        return _SCHEDULE_ORACLES.pop(name)
    from minilang_fuzz import QUANTA, divergence

    w = registry.WORKLOADS[name]
    oracle = _SCHEDULE_ORACLES[name] = {}
    divergence(w.source, SCHEDULE_ARGS[name], "faulting", [], QUANTA,
               w.main, oracle=oracle)
    return oracle


@pytest.mark.parametrize("name", sorted(SCHEDULE_ARGS))
def test_preemption_schedule_is_tier_blind(name):
    """The whole preemption sequence — (stack depth, method, pc,
    instr_count) at every "preempted" — is *equal* across the legacy
    loop, tier 1, and tier 2 at threshold 1 and the
    shipped one, for every budget in QUANTA, on the build serving
    runs; result / stdout / instr_count / clock with it."""
    from minilang_fuzz import QUANTA, SCHEDULE_MODES, divergence

    w = registry.WORKLOADS[name]
    assert divergence(w.source, SCHEDULE_ARGS[name], "faulting",
                      SCHEDULE_MODES, QUANTA, w.main,
                      oracle=schedule_oracle(name)) is None


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


VIRT_NPE_SRC = """
class V { int f() { return 1; } }
class N {
  static int go(V r, int n) {
    int a = n + 1;
    a = a * 2;
    return a + r.f();
  }
  static int guarded(V r, int n) {
    int a = n + 1;
    try { a = a * 2 + r.f(); } catch (NullPointerException e) { a = a + 100; }
    return a;
  }
}
"""


@pytest.mark.parametrize("method", ["go", "guarded"])
def test_virtual_call_on_null_charges_what_ran_before_it(method):
    """A null receiver's guest throw out of a virtual call is charged
    as the hooked loop charges it on every loop: the instructions before
    the call — on tier 2 still pending in the block's segment, which a
    call's poll does not flush — and the call itself once a handler
    takes it (mutant: tier 2's call-site fault record without the
    pending segment)."""
    classes = preprocess_program(compile_source(VIRT_NPE_SRC), "original")
    seen = {}
    for loop in LOOPS:
        m = _machine_on(loop, classes, "N", method)
        t = m.spawn("N", method, [None, 4])
        entry = t.frames[-1]
        m.run(t)
        exc = t.uncaught
        seen[loop] = (t.result, exc and exc.class_name, exc and entry.pc,
                      m.instr_count, m.clock)
    assert seen["tier2"] == seen["fast"] == seen["legacy"], seen
    assert (seen["legacy"][1] is None) == (method == "guarded")


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
    assert m.clock == oracle.clock


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
# show: the result (or the exception class and ``frame.pc``),
# ``instr_count`` and the clock are equal to the legacy loop's.

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
        assert m.clock == ref.clock, (name, args)
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


@pytest.mark.parametrize("when", ["before", "after", "sibling"])
def test_intrinsic_runs_a_re_registered_native(when):
    """``register("Sys.sqrt", custom)`` before the method tiers up and
    after it: the compiled code runs ``custom`` either way, and goes on
    at the bci after it with what ``custom`` wrote into the frame (it
    bumps the loop counter, the way ``ObjMan.resolve`` patches slots).
    ``sibling`` re-registers ``Sys.floatOf`` alone: one flag guards
    every pure site, so the ``Sys.sqrt`` site takes the registry path
    too, and nothing it computes or charges may show it."""
    classes = preprocess_program(compile_source(INTRINSIC_LOOP_SRC),
                                 "faulting")
    slot = classes["Q"].methods["go"].local_names.index("i")

    def custom(m, args):
        m.current_thread.frames[-1].locals[slot] += 1
        return -args[0]

    ref = Machine(classes, dispatch="legacy")
    m = Machine(classes, jit=True)
    if when == "sibling":
        for vm in (ref, m):
            vm.natives.register("Sys.floatOf", lambda vm, a: float(a[0]))
        assert not m.natives.pure_intact
    if when == "before":
        m.natives.register("Sys.sqrt", custom)
    assert m.precompile("Q", "go")
    if when == "after":
        # the host sqrt, in line; the oracle runs the same call first
        host = m.call("Q", "go", [9])
        assert ref.call("Q", "go", [9]) == host
        m.natives.register("Sys.sqrt", custom)
    if when != "sibling":
        ref.natives.register("Sys.sqrt", custom)
    want = ref.call("Q", "go", [9])
    assert when != "after" or host != want
    assert m.call("Q", "go", [9]) == want
    assert m.instr_count == ref.instr_count
    assert m.clock == ref.clock
    assert m.jit_compiles == 1 and m.jit_compile_errors == 0


def test_intrinsic_pure_intact_tracks_the_pure_names_only():
    """``NativeRegistry.pure_intact``: binding a migration namespace
    leaves it set; re-registering a pure name clears it, and putting
    that name's own wrapper back sets it again."""
    from repro.vm.natives import PURE_NATIVES, NativeRegistry

    reg = NativeRegistry()
    assert reg.pure_intact
    reg.register("ObjMan.resolve", lambda m, a: None)
    reg.register("CapturedState.read", lambda m, a: None)
    assert reg.pure_intact
    reg.register("Sys.floatOf", lambda m, a: float(a[0]))
    assert not reg.pure_intact
    reg.register("Sys.floatOf", PURE_NATIVES["Sys.floatOf"])
    assert reg.pure_intact


def test_intrinsic_charge_scales_with_the_node_speed():
    """Tier 2 charges an in-line native's base cost itself: on a node
    with ``speed_factor`` 2.5, and again after a chaos-style straggle
    changed ``_speed`` between runs, the clock and the count equal
    the legacy loop's."""
    from repro.cluster.node import Node, NodeSpec

    classes = preprocess_program(compile_source(INTRINSIC_LOOP_SRC),
                                 "faulting")
    ref, m = (Machine(classes, node=Node(NodeSpec("n", speed_factor=2.5)),
                      **kw) for kw in ({"dispatch": "legacy"}, {"jit": True}))
    assert m.precompile("Q", "go")
    for speed in (2.5, 2.5 * 3.0):
        ref._speed = m._speed = speed
        assert m.call("Q", "go", [40]) == ref.call("Q", "go", [40])
        assert m.instr_count == ref.instr_count
        assert m.clock == ref.clock
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
