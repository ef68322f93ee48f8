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
import math
import weakref

import pytest

import repro.serve.scheduler as scheduler_mod
import repro.vm.jit as jit_mod
from repro.lang import compile_source
from repro.preprocess import preprocess_program
from repro.serve import serve_mix
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


def test_hot_method_tiers_up_and_matches_tier1():
    """Repeated activations cross JIT_THRESHOLD, the method compiles,
    and result / instr_count / clock agree with tier-1 exactly."""
    (m1, r1), (m2, r2) = _pair(LOOP_SRC, "P", "caller", [64])
    assert r2 == r1
    assert m2.instr_count == m1.instr_count
    assert math.isclose(m2.clock, m1.clock, rel_tol=1e-9, abs_tol=1e-12)
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


def test_work_profile_drives_precompilation(monkeypatch):
    """Once the profile knows a program is heavy, later requests of it
    tier up at spawn (tier2_precompiles > 0 in the report stats)."""
    monkeypatch.setattr(scheduler_mod, "PRECOMPILE_INSTRS", 1_000)
    # spaced arrivals: early requests complete (seeding the profile)
    # before later ones spawn — back-to-back arrivals all spawn first
    rep = serve_mix("parallel", n_nodes=2, n_requests=10, seed=3,
                    interarrival=0.05)
    assert rep.served == rep.correct == 10
    assert rep.stats["tier2_precompiles"] > 0


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
    closures' clock equals legacy dispatch under the new weights."""
    monkeypatch.setattr(jit_mod, "JIT_THRESHOLD", 1)  # runs stay in tier 2
    classes = _classes()
    cost = CostModel()
    cost.op_weights = dict(CostModel.op_weights)
    m = Machine(classes, cost=cost, jit=True)
    assert m.precompile("P", "work")
    old = m._compiled[_work_code(m)][0]
    t = m.spawn("P", "caller", [3], namespace="gone")
    m.run(t)
    caller = m.namespace("gone").load("P").find_method("caller")
    old_caller = m._compiled_ns["gone"][caller][0]
    m.drop_namespace("gone")
    cost.op_weights.update(STORE=7.25, PUTS=3.5)
    m.invalidate_caches()
    assert m.precompile("P", "work")
    new = m._compiled[_work_code(m)][0]
    assert new.__code__ is not old.__code__
    assert new.__jit_source__ != old.__jit_source__
    legacy = Machine(classes, cost=cost, dispatch="legacy")
    clock, instrs = m.clock, m.instr_count
    assert m.call("P", "caller", [300]) == legacy.call("P", "caller", [300])
    new_caller = m._compiled[caller][0]
    assert new_caller.__code__ is not old_caller.__code__
    assert new_caller.__jit_source__ != old_caller.__jit_source__
    assert m.instr_count - instrs == legacy.instr_count
    assert math.isclose(m.clock - clock, legacy.clock,
                        rel_tol=1e-9, abs_tol=1e-12)
    stock = Machine(classes, dispatch="legacy")
    stock.call("P", "caller", [300])
    assert not math.isclose(m.clock - clock, stock.clock, rel_tol=1e-3)


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
    m.run(m.spawn("P", "caller", [3], namespace="gone"))
    m.drop_namespace("gone")
    cost.op_weights.update(STORE=7.25, PUTS=3.5)
    m.invalidate_caches()
    legacy = Machine(classes, cost=cost, dispatch="legacy")
    clock, instrs = m.clock, m.instr_count
    assert m.call("P", "caller", [300]) == legacy.call("P", "caller", [300])
    assert m.instr_count - instrs == legacy.instr_count
    assert math.isclose(m.clock - clock, legacy.clock,
                        rel_tol=1e-9, abs_tol=1e-12)


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
    """A compare / ``NOT`` / ``ISREMOTE`` result is a host bool: no
    ``T()`` coercion may be applied to it — not directly, and not after
    the round trip through a temp the flattened build gives every
    condition (``LT; STORE t; LOAD t; JZ``)."""
    coerced = []
    for code, _tpl, blocks in _deployed_templates():
        for body in blocks.values():
            bools = set()  # unparsed targets currently holding a bool
            for node in ast.walk(ast.Module(body, [])):
                if isinstance(node, ast.Assign):
                    v = node.value
                    is_bool = isinstance(v, ast.Compare) or (
                        isinstance(v, ast.UnaryOp)
                        and isinstance(v.op, ast.Not)) or (
                        _is_call_to(v, "isinstance")
                        and ast.unparse(v.args[1]) == "RR")
                    for t in map(ast.unparse, node.targets):
                        (bools.add if is_bool else bools.discard)(t)
            for node in ast.walk(ast.Module(body, [])):
                if _is_call_to(node, "T") and \
                        ast.unparse(node.args[0]) in bools:
                    coerced.append((code.qualname, ast.unparse(node)))
    assert not coerced, coerced[:5]


def _branch_targets(code):
    targets = {e.handler for e in code.exc_table}
    for ins in code.instrs:
        if ins.op in ("JMP", "JZ", "JNZ"):
            targets.add(ins.a)
        elif ins.op == "LSWITCH":
            targets.update(ins.a.values())
            targets.add(ins.b)
    return targets


def _native_edge(code, bci):
    return "NATIVE" in (code.instrs[bci].op, code.instrs[bci - 1].op)


def test_no_block_spills_into_a_leader_nobody_branches_to():
    """``fstack.append(x); b = k; continue`` -> ``elif b == k: v1 =
    fstack.pop()`` is how an operand used to reach every call: a trip
    through the operand stack and the dispatch chain into a block only
    its predecessor can reach.  Such a leader is generated in line now;
    what a block still exits to with operands spilled is a branch
    target, or the edge of a ``NATIVE`` (see the next test)."""
    bad = []
    for code, tpl, blocks in _deployed_templates():
        bci_of = {k: bci for bci, k in tpl.entries.items()}
        targets = _branch_targets(code)
        for body in blocks.values():
            for node in ast.walk(ast.Module(body, [])):
                for stmts in (getattr(node, "body", None),
                              getattr(node, "orelse", None)):
                    if not isinstance(stmts, list) or len(stmts) < 3 or \
                            not isinstance(stmts[-1], ast.Continue):
                        continue
                    spill, goto = stmts[-3:-1]
                    if not ast.unparse(spill).startswith(
                            ("fstack.append(", "fstack.extend(")):
                        continue
                    assert ast.unparse(goto.targets[0]) == "b"
                    for k in ast.walk(goto.value):
                        if isinstance(k, ast.Constant) and \
                                type(k.value) is int:
                            bci = bci_of[k.value]
                            if bci not in targets and \
                                    not _native_edge(code, bci):
                                bad.append((code.qualname, bci))
    assert not bad, bad[:5]


def test_no_inline_continuation_crosses_a_native():
    """A ``NATIVE`` is generated in exactly one block, the one that
    starts at it, and that block ends right after it: restoration
    handlers are chains of ``CapturedState.read`` natives, each native
    and each instruction after one a resume entry, so continuing in
    line through them would generate every suffix of the chain again
    (measured on a scratch copy: ``peak_rss_mb`` 30 -> 88 MiB)."""
    for code, tpl, blocks in _deployed_templates():
        bci_of = {k: bci for bci, k in tpl.entries.items()}
        for k, body in blocks.items():
            src = ast.unparse(ast.Module(body, []))
            n = src.count("m.natives.lookup(")
            if n:
                bci = bci_of[k]
                assert n == 1 and code.instrs[bci].op == "NATIVE", \
                    (code.qualname, bci)
                assert src.endswith(f"b = {tpl.entries[bci + 1]}\ncontinue"), \
                    (code.qualname, bci)


def test_generated_source_stays_within_a_quarter_of_the_per_group_one():
    """The duplication guard: a leader generated in line *and* as a
    resume entry is generated twice.  The same set of methods was
    19,089 lines when every leader was a block of its own (the parent
    of the change that introduced fall-through; 29 templates)."""
    lines = sum(tpl.mk.__jit_source__.count("\n")
                for _code, tpl, _blocks in _deployed_templates())
    assert lines <= 1.25 * 19_089, lines


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
