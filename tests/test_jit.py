"""Tier-2 specializing JIT: compile, OSR, deopt, and namespace hygiene.

The broad semantic net is the tier2-vs-legacy differential fuzzer
(``minilang_fuzz.py``); these tests pin the tier-up *mechanics*: when
compilation fires, that OSR catches single-activation loops, that
guard bails and deopts are counted and harmless, that compiled maps
are per-namespace and reclaimed with the namespace, that a full
serving run leaves no decoded/compiled cache growth behind, and that
the two process-wide levels under those maps — templates on the code
object, the text-keyed factory cache — share only code.

Every test here (and in the whole suite) also runs under conftest's
``jit_compile_failures`` check: no compile may die of anything but a
refusal.
"""

from __future__ import annotations

import ast
import functools
import gc
import weakref

import pytest

import repro.vm.jit as jit_mod
from repro.lang import compile_source
from repro.preprocess import preprocess_program
from tests.helpers import serve_mix
from repro.vm.costmodel import CostModel
from repro.vm.machine import Machine
from repro.workloads.mixes import MIXES

LOOP_SRC = """
class P {
  static int s;
  static int work(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      acc = (acc + i * 3 + P.s) % 100003;
      P.s = P.s + 1;
    }
    return acc;
  }
  static int caller(int n) {
    int t = 0;
    for (int i = 0; i < n; i = i + 1) {
      t = (t + P.work(4)) % 100003;
    }
    return t;
  }
}
"""

VIRT_SRC = """
class V { int tag; int f(int a) { return a + this.tag; } }
class VA extends V { int f(int a) { return a * 2 + this.tag; } }
class VB extends VA { int f(int a) { return a - this.tag; } }
class P {
  static int call(V r, int a) { return r.f(a); }
  static int mega(int n) {
    V x = new V();
    V y = new VA();
    V z = new VB();
    x.tag = 1; y.tag = 2; z.tag = 3;
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      acc = acc + P.call(x, i) + P.call(y, i) + P.call(z, i);
    }
    return acc;
  }
}
"""


def _classes(src=LOOP_SRC, build="original"):
    return preprocess_program(compile_source(src), build)


def _pair(src, cls, meth, args, build="original"):
    """(tier-1 result machine, tier-2 result machine) for one call."""
    classes = _classes(src, build)
    m1 = Machine(classes, jit=False)
    r1 = m1.call(cls, meth, list(args))
    m2 = Machine(classes, jit=True)
    r2 = m2.call(cls, meth, list(args))
    return (m1, r1), (m2, r2)


def test_in_line_return_value_rides_the_status_tuple():
    """A compiled callee called in line (``rd > 0``) hands its value
    back in the status-1 tuple.  A status 1 for which the caller's frame
    is not the top is forwarded as it came: under another in-line
    caller, the 4-tuple unchanged; from the closure the driver called,
    its value delivered first onto the top frame's operand stack, as a
    return to the driver puts it.  The callee here is a stand-in that
    leaves another frame on top (mutants: the ``frames[-1] is not
    frame`` guard dropped; the forwarded value not delivered; the rd-0
    closure passing the 4-tuple on)."""
    from repro.vm.frames import Frame

    m = Machine(_classes(), jit=True)
    assert m.precompile("P", "caller")
    cls = m.loader.load("P")
    caller, work = cls.find_method("caller"), cls.find_method("work")
    other = Frame(work)

    def callee(m, thread, frame, frames, ql, w_acc, n_acc, rd=0):
        assert rd == depth + 1 and frame.code is work
        frames.pop()
        frames.append(other)
        return (1, w_acc + 100.0, n_acc + 1, 42)

    m._compiled[work] = (callee, {0: 0})
    for depth in (1, 0):
        t = m.spawn("P", "caller", [1])
        res = m._compiled[caller][0](m, t, t.frames[-1], t.frames, 0,
                                     0.0, 0, depth)
        assert res[0] == 1 and t.frames[-1] is other
        if depth:
            assert res[3] == 42 and other.stack == []
        else:
            assert len(res) == 3 and other.stack == [42]


def test_hot_method_tiers_up_and_matches_tier1():
    """Repeated activations cross JIT_THRESHOLD, the method compiles,
    and result / instr_count / clock agree with tier-1 exactly."""
    (m1, r1), (m2, r2) = _pair(LOOP_SRC, "P", "caller", [64])
    assert r2 == r1
    assert m2.instr_count == m1.instr_count
    assert m2.clock == m1.clock
    assert m2.jit_compiles > 0 and m2._compiled
    assert m1.jit_compiles == 0 and not m1._compiled


def test_osr_compiles_single_activation_loop():
    """One activation, many back-edges: the loop tiers up at the
    backward jump (on-stack replacement), not only at frame entry."""
    classes = _classes()
    m = Machine(classes, jit=True)
    r = m.call("P", "work", [2000])
    assert m.jit_compiles > 0
    ref = Machine(classes, jit=False).call("P", "work", [2000])
    assert r == ref


def test_megamorphic_call_site_counts_guard_bails():
    """Three receiver classes rotating through one virtual call site:
    the compiled inline-cache guard misses, the bail is counted, and
    the rebind path still computes the tier-1 result."""
    (m1, r1), (m2, r2) = _pair(VIRT_SRC, "P", "mega", [200])
    assert r2 == r1 and m2.instr_count == m1.instr_count
    assert m2.jit_guard_bails > 0


def test_repro_jit_env_toggle(monkeypatch):
    classes = _classes()
    monkeypatch.setenv("REPRO_JIT", "0")
    assert Machine(classes).jit is False
    monkeypatch.setenv("REPRO_JIT", "1")
    assert Machine(classes).jit is True
    # explicit argument beats the environment
    assert Machine(classes, jit=False).jit is False
    # the JIT rides the fast dispatcher only
    assert Machine(classes, dispatch="legacy", jit=True).jit is False


def test_precompile_skips_the_warmup():
    """`precompile` makes the closure available before any activation,
    and the first run already executes tier-2 (no further compiles)."""
    classes = _classes()
    m = Machine(classes, jit=True)
    assert m.precompile("P", "work") is True
    compiles = m.jit_compiles
    ref = Machine(classes, jit=False).call("P", "work", [500])
    assert m.call("P", "work", [500]) == ref
    assert m.jit_compiles == compiles  # ran the precompiled closure
    assert m.precompile("P", "nosuch") is False
    assert Machine(classes, jit=False).precompile("P", "work") is False


def test_refused_code_is_not_retried(monkeypatch):
    """A method the compiler refuses is marked once and interpreted
    forever after — the tier-up driver must not re-attempt it on every
    activation."""
    classes = _classes()
    m = Machine(classes, jit=True)
    calls = []
    orig = jit_mod.compile_code

    def counting(machine, code, jm):
        calls.append(code.qualname)
        return None  # refuse everything

    monkeypatch.setattr(jit_mod, "compile_code", counting)
    ref = Machine(classes, jit=False).call("P", "caller", [64])
    assert m.call("P", "caller", [64]) == ref
    assert m.jit_compiles == 0
    for code, entry in m._compiled.items():
        assert entry is False
    assert len(calls) == len(set(calls))  # one attempt per code object
    monkeypatch.setattr(jit_mod, "compile_code", orig)


def test_compile_error_is_counted_not_swallowed(monkeypatch,
                                                jit_compile_failures):
    """A code-generator bug (anything but a refusal) still leaves the
    method on tier 1 with the right answer — but it is counted, so the
    suite-wide zero check can see what results cannot."""
    def boom(self):
        raise RuntimeError("injected code-generator bug")

    monkeypatch.setattr(jit_mod._Compiler, "compile", boom)
    classes = _classes()
    m = Machine(classes, jit=True)
    ref = Machine(classes, jit=False).call("P", "caller", [64])
    assert m.call("P", "caller", [64]) == ref
    assert m.jit_compiles == 0
    assert m._compiled and all(e is False for e in m._compiled.values())
    assert m.jit_compile_errors == len(m._compiled)  # once per method
    assert sorted(jit_compile_failures) == sorted(
        c.qualname for c in m._compiled)
    jit_compile_failures.clear()


# -- namespaces ----------------------------------------------------------------


def test_namespaced_threads_compile_into_their_own_map(monkeypatch):
    monkeypatch.setattr(jit_mod, "JIT_THRESHOLD", 1)
    classes = _classes()
    m = Machine(classes, jit=True)
    ta = m.spawn("P", "work", [50], namespace="a")
    m.run(ta)
    troot = m.spawn("P", "work", [50])
    m.run(troot)
    assert ta.result == troot.result
    # the namespace compiled against its own static cells, the root
    # against the root's: separate closures in separate maps
    assert m._compiled_ns["a"] and m._compiled
    ns_codes = set(m._compiled_ns["a"])
    root_codes = set(m._compiled)
    assert ns_codes and root_codes
    for code in ns_codes & root_codes:
        a, b = m._compiled_ns["a"][code], m._compiled[code]
        if a and b:
            assert a[0] is not b[0]


def test_drop_namespace_reclaims_compiled_map(monkeypatch):
    monkeypatch.setattr(jit_mod, "JIT_THRESHOLD", 1)
    m = Machine(_classes(), jit=True)
    t = m.spawn("P", "work", [50], namespace="gone")
    m.run(t)
    assert m._compiled_ns["gone"]
    m.drop_namespace("gone")
    assert "gone" not in m._compiled_ns
    assert "gone" not in m._decoded_ns
    assert not m.has_namespace("gone")


def test_invalidate_caches_drops_compiled_closures():
    m = Machine(_classes(), jit=True)
    m.precompile("P", "work")
    assert m._compiled
    m.invalidate_caches()
    assert not m._compiled


def test_serve_run_namespace_and_cache_maps_return_to_baseline():
    """The reclamation regression test: after a completed serving run
    of an isolation-heavy mix with the JIT on, every host's namespace
    count and per-namespace decoded/compiled cache maps are back to
    baseline (empty) — long serving runs must not pin dead req{rid}
    state."""
    from repro.cluster import serve_cluster
    from repro.serve import ClusterScheduler, LoadGenerator
    from repro.workloads.mixes import serve_classpath

    mix = MIXES["paper"]
    n = 12
    sched = ClusterScheduler(serve_cluster(3),
                             serve_classpath(mix.programs()))
    rep = sched.serve(LoadGenerator(mix, n, seed=11))
    assert rep.served == rep.correct == n
    assert rep.stats["isolated"] > 0
    assert rep.stats["tier2_compiles"] > 0  # the JIT actually ran
    assert rep.stats["jit_compile_errors"] == 0
    for h in sched.engine.hosts.values():
        mach = h.machine
        assert not mach._namespaces
        assert not mach._decoded_ns
        assert not mach._compiled_ns
    # root-namespace caches may legitimately hold shared-program state;
    # engine-level per-request bookkeeping must be gone
    assert not sched.engine._ns_home and not sched.engine._ns_sites


# -- the process-wide levels: templates and the factory cache --------------------
#
# Under the per-(machine, namespace) maps: a CodeObject memoises its
# generated templates by link shape (what saves a fresh namespace the
# generator), and jit._factory memoises (filename, generated source) ->
# _mk (what saves CPython's compile() for equal text from *different*
# code objects).  Other tests warm the factory, so its tests assert on
# cache_info() *deltas* and object identity, never on absolutes.


def _work_code(m, namespace=None):
    return m.namespace(namespace).load("P").find_method("work")


@pytest.fixture
def generations(monkeypatch):
    """Every run of the tier-2 generator, as (CodeObject, link shape)."""
    runs = []
    generate = jit_mod._Compiler.compile

    def counting(self):
        runs.append((self.code, self.shape))
        return generate(self)

    monkeypatch.setattr(jit_mod._Compiler, "compile", counting)
    return runs


def test_second_namespace_generates_nothing(generations):
    """Same method, two namespaces on one machine: the generator runs
    once and both compiles are *links* of its template — same code
    object, but distinct closures over each namespace's own cells."""
    m = Machine(_classes(), jit=True)
    assert m.precompile("P", "work", namespace="a")
    assert m.precompile("P", "work", namespace="b")
    assert len(generations) == 1
    assert m.jit_compiles == 2  # a link still counts as a compile
    fa = m._compiled_ns["a"][_work_code(m, "a")][0]
    fb = m._compiled_ns["b"][_work_code(m, "b")][0]
    assert fa is not fb
    assert fa.__code__ is fb.__code__
    assert fa.__jit_source__ is fb.__jit_source__  # one string per body
    # ...and each closure runs against its own namespace's statics
    for ns, n in (("a", 30), ("b", 50)):
        t = m.spawn("P", "work", [n], namespace=ns)
        m.run(t)
        assert m.namespace(ns).load("P").statics["s"] == n
    assert m.namespace(None).load("P").statics["s"] == 0


def test_serving_generates_once_per_code_and_link_shape(generations):
    """A serving run compiles in every fresh ``req{rid}`` namespace but
    generates at most once per distinct (CodeObject, link shape) — at
    least 5x fewer generator runs than links."""
    from repro.workloads.mixes import serve_classpath

    for cf in serve_classpath(MIXES["paper"].programs()).values():
        for code in cf.methods.values():
            code._tier2 = None  # the registry's class files are cached
    rep = serve_mix("paper", n_nodes=4, n_requests=24, seed=7)
    assert rep.served == rep.correct == 24
    assert rep.stats["jit_compile_errors"] == 0
    assert len(generations) == len(set(generations))
    assert 0 < 5 * len(generations) <= rep.stats["tier2_compiles"]


def test_templates_die_with_their_class():
    """Templates live on the CodeObject and nowhere else: when the
    class goes, so do they (no registry to bound or sweep).  Only the
    bounded text level keeps a ``_mk`` alive, and holds no code object."""
    m = Machine(_classes(), jit=True)
    assert m.precompile("P", "work")
    code = _work_code(m)
    (tpl,) = code._tier2[2].values()
    code_ref, mk_ref = weakref.ref(code), weakref.ref(tpl.mk)
    del m, code, tpl
    gc.collect()
    assert code_ref() is None and mk_ref() is not None
    jit_mod._factory.cache_clear()
    gc.collect()
    assert mk_ref() is None


def test_two_machines_share_the_factory():
    """Separately built class files, separate machines: the generated
    source is the same text, so the code is compiled once."""
    m1 = Machine(_classes(), jit=True)
    m2 = Machine(_classes(), jit=True)
    assert m1.precompile("P", "work")
    before = jit_mod._factory.cache_info()
    assert m2.precompile("P", "work")
    after = jit_mod._factory.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    f1 = m1._compiled[_work_code(m1)][0]
    f2 = m2._compiled[_work_code(m2)][0]
    assert f1 is not f2 and f1.__code__ is f2.__code__
    assert m1.call("P", "work", [40]) == m2.call("P", "work", [40])
    assert m1.loader.load("P").statics["s"] == 40  # not 80: own cells


def test_cost_weight_change_is_a_different_cache_entry(monkeypatch):
    """Weights are literals in the generated source, so new weights
    are a new text: a template hit is verified against a snapshot of
    the table, so a table *mutated in place* regenerates too — also
    for a method whose only compile was in a namespace since dropped,
    which ``invalidate_caches()`` no longer reaches — and the relinked
    closures' clock equals legacy dispatch under the new weights (a
    legacy twin run through the same history)."""
    monkeypatch.setattr(jit_mod, "JIT_THRESHOLD", 1)  # runs stay in tier 2
    classes = _classes()
    cost = CostModel()
    cost.op_weights = dict(CostModel.op_weights)
    m = Machine(classes, cost=cost, jit=True)
    legacy = Machine(classes, cost=cost, dispatch="legacy")
    stock = Machine(classes, dispatch="legacy")
    assert m.precompile("P", "work")
    old = m._compiled[_work_code(m)][0]
    for vm in m, legacy, stock:
        vm.run(vm.spawn("P", "caller", [3], namespace="gone"))
    caller = m.namespace("gone").load("P").find_method("caller")
    old_caller = m._compiled_ns["gone"][caller][0]
    m.drop_namespace("gone")
    cost.op_weights.update(STORE=7.25, PUTS=3.5)
    m.invalidate_caches()
    assert m.precompile("P", "work")
    new = m._compiled[_work_code(m)][0]
    assert new.__code__ is not old.__code__
    assert new.__jit_source__ != old.__jit_source__
    clock = m.clock
    assert m.call("P", "caller", [300]) == legacy.call("P", "caller", [300])
    new_caller = m._compiled[caller][0]
    assert new_caller.__code__ is not old_caller.__code__
    assert new_caller.__jit_source__ != old_caller.__jit_source__
    assert m.instr_count == legacy.instr_count
    assert m.clock == legacy.clock
    stock.call("P", "caller", [300])
    assert m.clock - clock > 1.5 * (stock.clock - clock)


def test_weight_table_edit_reaches_tier1_of_a_dropped_namespace():
    """The tier-1 twin of the test above: ``predecoded()`` verifies
    its per-code stream against a snapshot of the weight table, so a
    table mutated in place rebuilds the stream of a method that only a
    since-dropped namespace ever ran (``invalidate_caches()`` reaches
    only code the machine still maps; identity alone would hand tier 1
    the old weights)."""
    classes = _classes()
    cost = CostModel()
    cost.op_weights = dict(CostModel.op_weights)
    m = Machine(classes, cost=cost, jit=False)
    legacy = Machine(classes, cost=cost, dispatch="legacy")
    for vm in m, legacy:
        vm.run(vm.spawn("P", "caller", [3], namespace="gone"))
        vm.drop_namespace("gone")
    cost.op_weights.update(STORE=7.25, PUTS=3.5)
    m.invalidate_caches()
    assert m.call("P", "caller", [300]) == legacy.call("P", "caller", [300])
    assert m.instr_count == legacy.instr_count
    assert m.clock == legacy.clock


def test_factory_cache_is_bounded():
    """More distinct methods than the bound: the cache evicts, it does
    not grow (the fuzzers compile thousands of one-off methods)."""
    before = jit_mod._factory.cache_info()
    maxsize = before.maxsize
    for k in range(maxsize + 8):
        src = "class B%d { static int f(int n) { return n + %d; } }" % (k, k)
        m = Machine(_classes(src), jit=True)
        assert m.precompile(f"B{k}", "f")
        assert m.call(f"B{k}", "f", [1]) == k + 1
    after = jit_mod._factory.cache_info()
    assert after.misses - before.misses == maxsize + 8  # all distinct
    assert after.currsize == maxsize


@pytest.mark.parametrize("namespaces", [(None,), ("a", "b")])
def test_refusal_is_memoised_per_namespace_not_in_the_factory(
        monkeypatch, namespaces):
    """A refused method is ``False`` in each namespace's own map; it
    never reaches the shared levels (nothing was generated) and is not
    an error."""
    monkeypatch.setattr(jit_mod, "_MAX_INSTRS", 1)
    m = Machine(_classes(), jit=True)
    before = jit_mod._factory.cache_info()
    for ns in namespaces:
        assert m.precompile("P", "work", namespace=ns) is False
        jm = m._compiled if ns is None else m._compiled_ns[ns]
        assert jm[_work_code(m, ns)] is False
    assert jit_mod._factory.cache_info() == before
    assert not _work_code(m)._tier2[2]  # ...nor in a template
    assert m.jit_compiles == 0 and m.jit_compile_errors == 0


# -- the generator's shape on the deployed build ----------------------------------
#
# Tier 2 compiles what a flattened group *means* (jit.py's header): these
# read the generated source of every method of the registry and serve
# programs on the ``faulting`` build — the code every serving and
# migration path runs — all link sites bound (the steady-state shape).

@functools.lru_cache(maxsize=None)
def _deployed_templates():
    """[(CodeObject, _Template, {block id: its statements})]"""
    from repro.workloads import registry
    from repro.workloads.mixes import SERVE_PROGRAMS, serve_compiled

    weights = CostModel().op_weights
    out, seen = [], set()
    for classes in [registry.compiled(n, "faulting")
                    for n in registry.WORKLOADS] + \
            [serve_compiled(p) for p in SERVE_PROGRAMS]:
        for cf in classes.values():
            for code in cf.methods.values():
                if code.qualname in seen or not code.instrs:
                    continue
                seen.add(code.qualname)
                shape = frozenset(i for i, ins in enumerate(code.instrs)
                                  if ins.op in jit_mod._SITE_OPS)
                tpl = jit_mod._Compiler(code, weights, shape).compile()
                loop = next(n for n in ast.walk(
                    ast.parse(tpl.mk.__jit_source__))
                    if isinstance(n, ast.While))
                blocks, arm = {}, loop.body[0]
                while True:  # the ``if b == k: ... elif ...`` chain
                    blocks[arm.test.comparators[0].value] = arm.body
                    if not arm.orelse:
                        break
                    arm, = arm.orelse
                assert blocks.keys() == set(tpl.entries.values())
                out.append((code, tpl, blocks))
    assert len(out) >= 25
    return out


def _is_call_to(node, name):
    return isinstance(node, ast.Call) and \
        isinstance(node.func, ast.Name) and node.func.id == name


def test_known_bools_branch_raw():
    """A compare's result is a host bool: no ``T()`` coercion may be
    applied to it — not directly, and not after the round trip through
    a temp the flattened build gives every condition (``LT; STORE t;
    LOAD t; JZ``)."""
    coerced = []
    for code, _tpl, blocks in _deployed_templates():
        for body in blocks.values():
            bools = set()  # unparsed targets currently holding a bool
            for node in ast.walk(ast.Module(body, [])):
                if isinstance(node, ast.Assign):
                    is_bool = isinstance(node.value, ast.Compare)
                    for t in map(ast.unparse, node.targets):
                        (bools.add if is_bool else bools.discard)(t)
            for node in ast.walk(ast.Module(body, [])):
                if _is_call_to(node, "T") and \
                        ast.unparse(node.args[0]) in bools:
                    coerced.append((code.qualname, ast.unparse(node)))
    assert not coerced, coerced[:5]


def test_generated_text_compiles_without_warnings():
    """Every template of the deployed programs, and a ``JZ`` / ``JNZ``
    on each kind of literal condition (``CONST 0; JZ``), compiles with
    ``SyntaxWarning`` raised as an error.  A branch on a name not known
    to be a bool tests ``is True`` / ``is False`` before ``T``; on a
    literal that text would be a ``SyntaxWarning`` ("is" with a
    literal), so a literal keeps ``T`` alone (mutant: the literal check
    dropped from ``_Compiler.truth``)."""
    import warnings

    from repro.bytecode.code import CodeObject, Instr as I
    from repro.bytecode import opcodes as op

    weights = CostModel().op_weights
    sources = [tpl.mk.__jit_source__ for _c, tpl, _b in _deployed_templates()]
    for lit in (0, 1, 2.5, "s", None, True, -3):
        for branch in (op.JZ, op.JNZ):
            code = CodeObject("L", "go", 0, 1, [
                I(op.NOP), I(op.CONST, lit), I(branch, 4), I(op.NOP),
                I(op.RET)])
            src = jit_mod._Compiler(code, weights, frozenset()).compile() \
                .mk.__jit_source__
            assert f"T({lit!r})" in src or lit is True, src
            sources.append(src)
    with warnings.catch_warnings():
        warnings.simplefilter("error", SyntaxWarning)
        for src in sources:
            compile(src, "<jit>", "exec")


def _targets_of(ins):
    if ins.op in ("JMP", "JZ", "JNZ"):
        return [ins.a]
    if ins.op == "LSWITCH":
        return [*ins.a.values(), ins.b]
    return []


class _Flow:
    """One method's control flow as the block rules read it.  The
    *body* is what bci 0 reaches along fall-through and branch edges,
    exception edges left out; the injected handlers lie outside it."""

    def __init__(self, code):
        instrs = code.instrs
        self.body, work = set(), [0]
        while work:
            i = work.pop()
            if i < len(instrs) and i not in self.body:
                self.body.add(i)
                work.extend(_targets_of(instrs[i]))
                if instrs[i].op not in ("JMP", "LSWITCH", "RET", "RETV",
                                        "THROW"):
                    work.append(i + 1)
        self.body_targets = {t for i in self.body
                             for t in _targets_of(instrs[i])}
        self.native_edges = {b for i, ins in enumerate(instrs)
                             if ins.op == "NATIVE" for b in (i, i + 1)}
        #: the edges of every native but the pure math ones (generated
        #: in line)
        self.opaque_edges = {b for i, ins in enumerate(instrs)
                             if ins.op == "NATIVE" and not jit_mod._pure(ins)
                             for b in (i, i + 1)}
        self.cuts = {0} | self.body_targets | self.opaque_edges | \
            {e.handler for e in code.exc_table}
        #: the soft leaders only handler code branches to: MSPs and
        #: retry points that are not block boundaries anyway
        self.handler_only = {t for i, ins in enumerate(instrs)
                             if i not in self.body
                             for t in _targets_of(ins)} - self.cuts


def _gotos(body):
    """``(spilled, [block ids])`` per ``b = ...; continue`` exit of a
    block: whether operands were spilled on the way out, and every
    block the exit can select."""
    for node in ast.walk(ast.Module(body, [])):
        for stmts in (getattr(node, "body", None),
                      getattr(node, "orelse", None)):
            if not isinstance(stmts, list) or len(stmts) < 2 or \
                    not isinstance(stmts[-1], ast.Continue):
                continue
            goto = stmts[-2]
            assert ast.unparse(goto.targets[0]) == "b"
            spilled = len(stmts) > 2 and ast.unparse(stmts[-3]).startswith(
                ("fstack.append(", "fstack.extend("))
            yield spilled, [k.value for k in ast.walk(goto.value)
                            if isinstance(k, ast.Constant)
                            and type(k.value) is int]


def test_blocks_spill_only_into_body_targets_native_edges_or_the_next_leader():
    """``fstack.append(x); b = k; continue`` -> ``elif b == k: v1 =
    fstack.pop()`` is a trip through the operand stack and the dispatch
    chain.  A block exits with operands spilled only into (i) a branch
    target of the method body, (ii) an edge of a ``NATIVE`` (see the
    next test), or (iii) the next leader — and (iii) only from a *soft*
    entry block (one at an MSP, retry point or resume), which stops at
    any leader so no text is generated twice.  A block entered at a cut
    generates on through every soft leader, carrying its names."""
    bad = []
    for code, tpl, blocks in _deployed_templates():
        bci_of = {k: bci for bci, k in tpl.entries.items()}
        flow = _Flow(code)
        for k, body in blocks.items():
            start = bci_of[k]
            following = min((b for b in tpl.entries if b > start),
                            default=None)
            for spilled, ids in _gotos(body):
                for bci in map(bci_of.get, ids if spilled else ()):
                    if bci in flow.body_targets or \
                            bci in flow.native_edges:
                        continue
                    if bci != following or start in flow.cuts:
                        bad.append((code.qualname, start, bci))
    assert not bad, bad[:5]


def test_body_blocks_never_dispatch_to_a_handler_only_leader():
    """A block entered at bci 0 or at a body branch target (the blocks
    a run that never migrates or faults executes) leaves through the
    dispatch loop only for body entries: never for an MSP or retry
    point that only the restoration / object-fault handlers branch
    to, which would cut the hot path at every source line."""
    bad = []
    for code, tpl, blocks in _deployed_templates():
        bci_of = {k: bci for bci, k in tpl.entries.items()}
        flow = _Flow(code)
        for k, body in blocks.items():
            if bci_of[k] != 0 and bci_of[k] not in flow.body_targets:
                continue
            for _spilled, ids in _gotos(body):
                bad += [(code.qualname, bci_of[k], bci_of[i]) for i in ids
                        if bci_of[i] in flow.handler_only]
    assert not bad, bad[:5]


def test_body_target_blocks_lead_the_dispatch_chain():
    """The ``if b == k`` chain is ordered by who enters it: every block
    at a body branch target has a lower id (is compared sooner) than
    every block at a resume or handler-only leader — a fault handler's
    retry ``JMP`` is not a loop that would pull its leaders forward."""
    for code, tpl, _blocks in _deployed_templates():
        flow = _Flow(code)
        body_cuts = flow.cuts & flow.body
        hot = [k for b, k in tpl.entries.items() if b in flow.body_targets]
        cold = [k for b, k in tpl.entries.items() if b not in body_cuts]
        if hot and cold:
            assert max(hot) < min(cold), code.qualname


def _native_lookups(body):
    """The native names a block's statements call through the registry
    (``m.natives.lookup(name)(m, args)``)."""
    return [node.args[0].value for node in ast.walk(ast.Module(body, []))
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) == "m.natives.lookup"]


def test_no_inline_continuation_crosses_a_native():
    """A ``NATIVE`` other than a pure math one is generated in exactly
    one block, the one that starts at it, and that block ends right
    after it: restoration handlers are chains of
    ``CapturedState.read`` natives, each native and each instruction
    after one a resume entry, so continuing in line through them would
    generate every suffix of the chain again (measured on a copy that
    did: ``peak_rss_mb`` 30 -> 88 MiB)."""
    from repro.vm.natives import PURE_MATH

    for code, tpl, blocks in _deployed_templates():
        bci_of = {k: bci for bci, k in tpl.entries.items()}
        for k, body in blocks.items():
            opaque = [nm for nm in _native_lookups(body)
                      if nm not in PURE_MATH]
            if opaque:
                bci = bci_of[k]
                assert len(opaque) == 1 and code.instrs[bci].op == "NATIVE" \
                    and not jit_mod._pure(code.instrs[bci]), \
                    (code.qualname, bci)
                src = ast.unparse(ast.Module(body, []))
                assert src.endswith(f"b = {tpl.entries[bci + 1]}\ncontinue"), \
                    (code.qualname, bci)


def test_pure_natives_run_in_line():
    """A pure math native's fast arm — the statements after its guard
    ``if not (... m.natives.pure_intact): <registry path>`` up to the
    next one — makes one call of the bound host function and neither
    flushes the accounting, calls ``m.charge(`` nor touches the
    registry, and a block that did not start at the native goes on
    past it: on every deployed template, including FFT's ``checksum``
    loop (the paper's migration point), whose two natives per
    iteration used to end three blocks."""
    from repro.vm.natives import PURE_MATH

    def is_guard(stmt):
        return isinstance(stmt, ast.If) and \
            "pure_intact" in ast.unparse(stmt.test)

    seen = set()
    for code, tpl, blocks in _deployed_templates():
        bci_of = {k: bci for bci, k in tpl.entries.items()}
        mk = tpl.mk.__code__
        bound = dict(zip(mk.co_varnames[2:mk.co_argcount], tpl.shared))
        for k, body in blocks.items():
            guards = [i for i, stmt in enumerate(body) if is_guard(stmt)]
            for i, j in zip(guards, guards[1:] + [len(body)]):
                stmt = body[i]
                bci = next(s.value.value for s in stmt.body
                           if ast.unparse(s).startswith("frame.pc = "))
                name = code.instrs[bci].a
                assert jit_mod._pure(code.instrs[bci]), (code.qualname, bci)
                assert _native_lookups(stmt.body) == [name]
                fast = body[i + 1:j]  # up to the next pure native's guard
                src = ast.unparse(ast.Module(fast, []))
                for text in ("m._ticks +=", "m.instr_count +=", "n_acc = 0",
                             "m.charge(", "m.natives."):
                    assert text not in src, (code.qualname, bci, text)
                host = [node for node in ast.walk(ast.Module(fast, []))
                        if isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and any(bound.get(node.func.id) is fn
                                for fn, _arity in PURE_MATH.values())]
                assert len(host) == 1, (code.qualname, bci)
                assert bound[host[0].func.id] is PURE_MATH[name][0]
                if bci_of[k] != bci:
                    exit_after = f"b = {tpl.entries[bci + 1]}"
                    assert exit_after not in map(ast.unparse, fast), \
                        (code.qualname, bci)
                seen.add((code.qualname, name))
    assert {("FFT.checksum", "Sys.floatOf"),
            ("FFT.checksum", "Sys.sqrt")} <= seen, sorted(seen)


def test_generated_source_stays_within_a_quarter_of_the_per_group_one():
    """The duplication guard: a leader generated in line *and* as a
    resume entry is generated twice.  The same set of methods was
    19,089 lines when every leader was a block of its own (the parent
    of the change that introduced fall-through; 29 templates)."""
    lines = sum(tpl.mk.__jit_source__.count("\n")
                for _code, tpl, _blocks in _deployed_templates())
    assert lines <= 1.25 * 19_089, lines


def test_generating_through_soft_leaders_costs_at_most_a_tenth_more_text():
    """Blocks that run on through MSPs, retry points and resumes carry
    more code each, and every soft leader keeps an entry block too.
    The same 29 templates were 741,059 B of source when every branch
    target cut a block, and 782,355 B (+5.6%) once a block stopped only
    where the method body branches."""
    size = sum(len(tpl.mk.__jit_source__)
               for _code, tpl, _blocks in _deployed_templates())
    assert size <= 1.10 * 741_059, size


# -- soft entries: the leaders only the migration machinery enters ----------------

#: (migrated method, main's arguments) per registry program
SOFT_ENTRY_RUNS = {"Fib": ("fib", (12,)), "NQ": ("ok", (6,)),
                   "TSP": ("search", (6,))}


def _migrated_at(name, meth, args, msp, tier2):
    """Run ``name`` on a home node until ``meth``'s frame sits at
    ``msp``, SOD-migrate that frame and run it on the worker — as tier
    2 (the method compiled there before its frame resumes at ``msp``)
    or on the legacy loop — then complete it home.  Returns ``(result,
    worker instr_count, worker clock, faults)`` for the worker's run,
    or None if the run never reaches ``msp``."""
    from repro.cluster import gige_cluster
    from repro.migration import SODEngine
    from repro.workloads import registry

    eng = SODEngine(gige_cluster(2), registry.compiled(name, "faulting"))
    home = eng.host("node0")
    t = eng.spawn(home, *registry.WORKLOADS[name].main, list(args))
    qualname = f"{name}.{meth}"
    if eng.run(home, t, stop=lambda th: th.frames[-1].pc == msp and
               th.frames[-1].code.qualname == qualname) != "stopped":
        return None
    worker, wt, _rec = eng.migrate(home, t, "node1", 1)
    m = worker.machine
    if tier2:
        assert m.precompile(name, meth)
        assert wt.frames[-1].pc == msp in m._compiled[wt.frames[-1].code][1]
    else:
        m.dispatch, m.jit = "legacy", False
    n0 = m.instr_count
    eng.run(worker, wt)
    observed = (m.instr_count - n0, m.clock, worker.objman.stats.faults)
    eng.complete_segment(worker, wt, home, t, 1)
    eng.run(home, t)
    assert m.jit_compile_errors == 0
    return (t.result,) + observed


@pytest.mark.parametrize("name", sorted(SOFT_ENTRY_RUNS))
def test_soft_entries_under_tier2_match_the_legacy_loop(name):
    """A frame restored at an MSP resumes in a compiled closure at the
    MSP's *soft* entry block (only the restoration ``LSWITCH`` branches
    there), and on NQ / TSP its first use of a remote array faults
    inside the closure: the object-fault handler ``JMP``s back to its
    retry point, another soft entry.  At every MSP of the method, the
    worker's run must equal the legacy loop's: result, ``instr_count``
    and clock (``==``), with the same faults.

    Other campaigns reach these entries but compare no counts there.
    Over the stock seeds the tier-2 migration fuzz enters a closure at
    such an MSP 7 times and at an object-fault handler 3 times, and
    checks result / stdout only; the migration, multi-hop, tier-2 and
    declared-stop fuzzers enter neither; a 40-request ``offload``
    serve run enters both (263 / 314 times) against a results-only
    oracle."""
    from repro.workloads import registry

    meth, args = SOFT_ENTRY_RUNS[name]
    want = Machine(registry.compiled(name, "faulting"),
                   dispatch="legacy").call(*registry.WORKLOADS[name].main,
                                           list(args))
    code = registry.compiled(name, "faulting")[name].methods[meth]
    faults = 0
    for msp in sorted(code.msps):
        got = _migrated_at(name, meth, args, msp, tier2=True)
        ref = _migrated_at(name, meth, args, msp, tier2=False)
        assert got is not None and ref is not None, msp
        assert got[0] == ref[0] == want, msp
        assert got[1:] == ref[1:], (msp, got, ref)
        faults += got[3]
    assert (faults > 0) == (name != "Fib")


HANDLER_SRC = """
class W {
  static int f(int n) {
    int[] a = new int[2];
    int x = 1;
    int r = 0;
    try { x = n + 5; r = a[n]; } catch (IndexOutOfBoundsException e) { r = x * 10; }
    int y = 3;
    try { y = n * 7; r = r + y % (n - n); } catch (ArithmeticException e) { r = r + y; }
    return r;
  }
}
"""


@pytest.mark.parametrize("build", ["original", "faulting"])
def test_guest_handler_reads_locals_assigned_in_the_faulting_block(
        build, monkeypatch):
    """``x = n + 5`` and the out-of-bounds ``a[n]`` (then ``y = n * 7``
    and ``% 0``) share a block, so tier 2 holds ``x`` in a Python name
    when ``ALOAD`` throws — and has written it to ``frame.locals``
    before arming the fault record, because the handler reads it."""
    monkeypatch.setattr(jit_mod, "JIT_THRESHOLD", 1)
    classes = _classes(HANDLER_SRC, build)
    for n in (1, 2, 9):
        ref = Machine(classes, dispatch="legacy")
        want = ref.call("W", "f", [n])
        m = Machine(classes, jit=True)
        assert m.call("W", "f", [n]) == want
        assert want == ((n + 5) * 10 if n >= 2 else 0) + n * 7
        assert m.jit_compiles == 1 and m.jit_compile_errors == 0
        assert m.instr_count == ref.instr_count


DIVMOD_SRC = """
class D {
  static int f(int a, int b) {
    int r = a / 3 + a % 3 + 7 / 2 + 7 % 2 + a / -3 + a % -3 + -7 / 2;
    r = r + -7 % 2 + 9 / b + 9 % b + a / b + a % b;
    try { r = r + a / 0; } catch (ArithmeticException e) { r = r + 1000; }
    try { r = r + 5 % (b - b); } catch (ArithmeticException e) { r = r + 4000; }
    return r;
  }
  static float g(float x, int b) { return x / b + x % b + x / 2 + 3 % x; }
}
"""


@pytest.mark.parametrize("build", ["original", "faulting"])
def test_inline_divmod_is_java_division(build, monkeypatch):
    """``//`` / ``%`` stand in for ``_div`` / ``_mod`` only for a
    non-negative int over a positive one; negative operands (variable
    or literal), a zero divisor (likewise) and floats take the helpers —
    every combination equals the legacy loop."""
    monkeypatch.setattr(jit_mod, "JIT_THRESHOLD", 1)
    classes = _classes(DIVMOD_SRC, build)
    for a, b in [(7, 2), (-7, 2), (7, -2), (-7, -2), (0, 5), (100, 7)]:
        for meth, args in (("f", [a, b]), ("g", [a + 0.5, b])):
            ref = Machine(classes, dispatch="legacy")
            want = ref.call("D", meth, args)
            m = Machine(classes, jit=True)
            assert m.call("D", meth, args) == want
            assert m.instr_count == ref.instr_count
            assert m.jit_compiles == 1 and m.jit_compile_errors == 0
