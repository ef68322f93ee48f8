"""Per-request static isolation: class-loader namespaces.

The load-bearing test is the solo-vs-served differential: every
request served from the ``"paper"`` mix — FFT and TSP keep their
working state in mutable statics — must produce exactly the result a
solo run of the same program produces, including requests whose frames
migrate (and re-hop) mid-run.  Before namespaces, interleaving two FFT
requests on one machine corrupted both; these tests prove the
namespace machinery restores solo semantics at every layer: the VM,
the migration engine and the cluster scheduler.
"""

from __future__ import annotations

import pytest

import repro.vm.jit as jit_mod
from repro.bytecode import opcodes as op
from repro.cluster import gige_cluster, serve_cluster
from repro.errors import MigrationError
from repro.lang import compile_source
from repro.migration import SODEngine
from repro.migration.capture import run_to_msp
from repro.preprocess import preprocess_program
from repro.serve import (ClusterScheduler, FrontDoorPlacement,
                         LoadGenerator, QueueDepthPolicy, serve_mix)
from repro.vm.machine import Machine
from repro.workloads.mixes import (MIXES, RequestMix, RequestSpec,
                                   expected_request_result, needs_isolation,
                                   serve_classpath)

STATIC_SRC = """
class P {
  static int s;
  static str tag;
  static int work(int n) {
    for (int i = 0; i < n; i = i + 1) {
      P.s = P.s + 1;
      P.tag = "n" + P.s;
    }
    return P.s;
  }
}
"""


def _classes(build="faulting"):
    return preprocess_program(compile_source(STATIC_SRC), build)


# -- VM level ------------------------------------------------------------------


def test_namespaces_isolate_static_cells_under_interleaving():
    """Two namespaced threads and a root thread time-slice on ONE
    machine; each sees only its own cells, exactly as three solo runs
    would."""
    _interleave(Machine(_classes("original")))


def _interleave(m):
    ta = m.spawn("P", "work", [5], namespace="a")
    tb = m.spawn("P", "work", [3], namespace="b")
    troot = m.spawn("P", "work", [7])
    threads = [ta, tb, troot]
    while any(not t.finished for t in threads):
        for t in threads:
            if not t.finished:
                m.run(t, quantum=3)
    assert (ta.result, tb.result, troot.result) == (5, 3, 7)
    assert m.loader.load("P").statics["s"] == 7
    assert m.namespace("a").load("P").statics["s"] == 5
    assert m.namespace("b").load("P").statics["tag"] == "n3"


def test_namespaces_isolate_static_cells_under_shared_tier2_code(monkeypatch):
    """The same interleaving with every activation compiled: the three
    ``P.work`` closures are links of ONE cached factory (shared code
    object), yet a PUTS in ``a`` stays invisible in ``b`` and in the
    root — only immutable code crosses the namespace boundary."""
    monkeypatch.setattr(jit_mod, "JIT_THRESHOLD", 1)
    m = Machine(_classes("original"), jit=True)
    _interleave(m)
    maps = [m._compiled, m._compiled_ns["a"], m._compiled_ns["b"]]
    fns = [cf[0] for jm in maps for code, cf in jm.items()
           if code.name == "work"]
    assert len(fns) == 3 and len(set(fns)) == 3
    assert len({fn.__code__ for fn in fns}) == 1


# -- the shared/isolated boundary of tier-2 code ---------------------------------
#
# Process-wide and immutable: CodeObject.instrs, its predecoded streams,
# tier-2 templates, jit._factory.  Per (machine, namespace): linked
# classes and statics, decoded streams with their inline-cache cells,
# compiled closures and every cell in them.  (ROADMAP direction 4.)

BOUNDARY_SRC = """
class H { static int h; static int inc(int x) { H.h = H.h + x; return H.h; } }
class V { int tag; int f(int a) { return a + this.tag; } }
class P {
  static int s;
  static int bump(int n) { P.s = P.s + n; return P.s; }
  static int work(int n) {
    int r = 0;
    for (int i = 0; i < n; i = i + 1) { r = P.bump(1); }
    return r;
  }
  static int mixed(int n) {
    V v = new V();
    v.tag = n;
    int r = 0;
    switch (n) { case 1: r = 10; break; case 2: r = 20; break; default: r = 30; }
    P.s = P.s + 1;
    return r + v.f(P.s) + H.inc(n) + H.h + P.bump(n);
  }
}
"""


def _boundary_classes():
    return preprocess_program(compile_source(BOUNDARY_SRC), "original")


def test_precompiled_namespace_closure_calls_through_its_own_map():
    """``precompile(namespace=...)`` links the closure to the map it
    compiles into: its direct compiled->compiled calls must never reach
    a root-namespace closure (and the root's static cells)."""
    m = Machine(_boundary_classes(), jit=True)
    assert m.call("P", "work", [100]) == 100  # root: work and bump compiled
    assert m.precompile("P", "work", namespace="a")
    t = m.spawn("P", "work", [10], namespace="a")
    m.run(t)
    assert t.result == 10
    assert m.namespace("a").load("P").statics["s"] == 10
    assert m.loader.load("P").statics["s"] == 100
    work = m.namespace("a").load("P").find_method("work")
    fn = m._compiled_ns["a"][work][0]
    cells = dict(zip(fn.__code__.co_freevars, fn.__closure__))
    assert cells["JM"].cell_contents is m._compiled_ns["a"]


def _link_mixed(m, ns):
    """``P.mixed`` linked in fresh namespace ``ns`` with ``P`` and
    ``V`` linked and ``H`` not: every kind of slot, bound and lazy."""
    m.namespace(ns).load("V")
    assert m.precompile("P", "mixed", namespace=ns)
    mixed = m.namespace(ns).load("P").find_method("mixed")
    return mixed, m._compiled_ns[ns][mixed][0]


def test_template_holds_no_namespace_state():
    """Walk everything a template references: no machine, loader,
    linked class, statics dict, or list (guard cells are lists) —
    nothing mutable, nothing any one namespace owns."""
    from repro.vm.classloader import ClassLoader
    from repro.vm.objects import VMClass

    m = Machine(_boundary_classes(), jit=True)
    mixed, _fn = _link_mixed(m, "a")
    (tpl,) = mixed._tier2[2].values()
    # every slot kind: a site's value, an element of it, a guard cell
    assert {(bci is None, i) for bci, i in tpl.slots} == {
        (False, None), (False, 0), (False, 1), (True, 1)}
    statics = {id(c.statics) for ld in m.loaders()
               for c in ld.loaded_classes().values()}
    seen, todo = set(), [tpl]
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        assert not isinstance(x, (Machine, ClassLoader, VMClass, list)), x
        assert id(x) not in statics
        if isinstance(x, dict):
            todo.extend(x.keys())
            todo.extend(x.values())
        elif isinstance(x, (tuple, frozenset)):
            todo.extend(x)
        elif callable(x) and getattr(x, "__closure__", None):
            todo.extend(c.cell_contents for c in x.__closure__)


def test_linked_closures_share_only_immutable_code():
    """One template linked into two namespaces: cell by cell, the two
    closures hold the same object only if it is code (a function, a
    class, a CodeObject), a str / number / None / sentinel, a tuple
    (``FT``), or a read-only int -> int map built by the generator
    (``EN``, ``LSWITCH`` tables).  Turning any link slot into a
    template constant breaks this or the walk above."""
    import types

    from repro.bytecode.code import CodeObject
    from repro.vm.machine import _MISSING

    m = Machine(_boundary_classes(), jit=True)
    (_mixed, fa), (mixed, fb) = _link_mixed(m, "a"), _link_mixed(m, "b")
    assert len(mixed._tier2[2]) == 1 and fa.__code__ is fb.__code__
    private = set()
    for name, ca, cb in zip(fa.__code__.co_freevars, fa.__closure__,
                            fb.__closure__):
        a, b = ca.cell_contents, cb.cell_contents
        if a is not b:
            private.add(name.rstrip("0123456789"))
            continue
        assert a is None or a is _MISSING or isinstance(
            a, (str, int, float, tuple, type, types.FunctionType,
                CodeObject)) or (
            isinstance(a, dict) and all(
                type(k) is int and type(v) is int for k, v in a.items())
        ), (name, a)
    # the compiled map and every slot but ``mc`` (the callee's code)
    assert private == {"JM", "cls", "sd", "sc", "vc", "ic", "gc", "mp"}
    for ns in ("a", "b"):
        t = m.spawn("P", "mixed", [2], namespace=ns)
        m.run(t)
        assert t.result == 30
        assert m.namespace(ns).load("H").statics["h"] == 2
    assert m.loader.is_loaded("H") is False


def test_namespace_shares_classpath_but_not_linked_classes():
    m = Machine(_classes("original"))
    ns = m.namespace("x")
    assert ns._classpath is m.loader._classpath  # one classpath object
    cls = ns.load("P")
    assert cls.namespace == "x"
    assert m.loader.load("P") is not cls
    assert m.loader.load("P").namespace is None


def test_drop_namespace_reclaims_state():
    m = Machine(_classes("original"))
    t = m.spawn("P", "work", [2], namespace="gone")
    m.run(t)
    assert m.has_namespace("gone") and m._decoded_ns["gone"]
    m.drop_namespace("gone")
    assert not m.has_namespace("gone")
    assert "gone" not in m._decoded_ns
    # root state untouched
    assert m.loader.load("P").statics["s"] == 0


# -- tier 1's stored stream: built once, linked per namespace -----------------


def _run_in(m, namespaces, n=2):
    for ns in namespaces:
        t = m.spawn("P", "work", [n], namespace=ns)
        m.run(t)
        assert t.result == n
    return m.namespace(namespaces[0]).load("P").find_method("work")


def test_namespace_streams_share_the_stored_stream_but_no_cell():
    """Two namespaces link ``P.work``'s one stored stream: every slot
    without an inline-cache cell is the same tuple in both, and each
    cached site holds a cell of its own, bound to its namespace's
    static home."""
    m = Machine(_classes(), jit=False)
    work = _run_in(m, ["a", "b"])
    sa, sb = m._decoded_ns["a"][work], m._decoded_ns["b"][work]
    assert sa is not sb and len(sa) == len(sb) == len(work.instrs)
    cells = 0
    for x, y in zip(sa, sb):
        if not isinstance(x[5], list):
            assert x is y
            continue
        cells += 1
        assert x[5] is not y[5] and x[:5] == y[:5] and x[6:] == y[6:]
    assert cells >= 2  # GETS/PUTS P.s, P.tag
    for ns, stream in (("a", sa), ("b", sb)):
        statics = m.namespace(ns).load("P").statics
        bound = [s[5][0] for s in stream
                 if isinstance(s[5], list) and s[5][0] is not None]
        assert bound and all(c[0] is statics for c in bound)
    # the stored stream itself holds no cell
    (tpl,) = work._fused.values()
    assert not any(isinstance(s[5], list) for s in tpl[1])


def test_stored_stream_rebuilds_on_weight_edit_and_invalidate(monkeypatch):
    """A hit needs the very ``predecoded()`` stream it was built from:
    an in-place weight edit and ``invalidate_decoded()`` each force one
    rebuild, a plain re-link none."""
    from repro.bytecode.code import TICKS_PER_WEIGHT
    from repro.preprocess import fuse
    from repro.vm.machine import _ARITH, _FAST2

    builds = []
    build = fuse._build
    monkeypatch.setattr(fuse, "_build", lambda code, *a: (
        builds.append(code.qualname), build(code, *a))[1])
    code = _classes()["P"].methods["work"]
    weights = dict(Machine().cost.op_weights)  # private: edited below

    def link():
        return fuse.decode_and_fuse(code, weights, _ARITH, _FAST2)

    s1, s2 = link(), link()
    assert len(builds) == 1 and s1 is not s2 and len(code._fused) == 1
    assert [s[0] for s in s1] == [s[0] for s in s2]
    weights[op.LOAD] = weights.get(op.LOAD, 1.0) * 2
    s3 = link()
    assert len(builds) == 2 and len(code._fused) == 1
    i = next(i for i, ins in enumerate(code.instrs) if ins.op == op.LOAD
             and s3[i][4] == 1)
    assert s3[i][3] == weights[op.LOAD] * TICKS_PER_WEIGHT != s1[i][3]
    code.invalidate_decoded()
    assert code._fused == {}
    link()
    assert len(builds) == 3


def test_tier2_seeds_read_the_namespace_own_tier1_cells(monkeypatch):
    """``cache_seeds`` reads the linking namespace's stream, never the
    stored one or another namespace's: tier 2 compiled in ``a`` starts
    from ``a``'s warmed tier-1 cells."""
    from repro.preprocess.fuse import cache_seeds

    m = Machine(_classes(), jit=True)
    work = _run_in(m, ["a", "b"])  # below JIT_THRESHOLD: tier 1 only
    assert not m._compiled_ns["a"] and not m._compiled_ns["b"]
    read = []
    monkeypatch.setattr(jit_mod, "cache_seeds", lambda stream, code: (
        read.append(stream), cache_seeds(stream, code))[1])
    assert m.precompile("P", "work", namespace="a")
    assert read == [m._decoded_ns["a"][work]]
    seeds = cache_seeds(read[0], work)
    assert seeds and all(cell is read[0][bci][5]
                         for bci, cell in seeds.items())
    others = {id(s[5]) for s in m._decoded_ns["b"][work]}
    assert not any(id(cell) in others for cell in seeds.values())
    t = m.spawn("P", "work", [3], namespace="a")
    m.run(t)
    assert t.result == 5 and m.namespace("b").load("P").statics["s"] == 2


def test_serving_builds_each_stream_at_most_once(monkeypatch):
    """Ten ``paper``-mix requests, each in its own namespace on four
    hosts, link tier-1 streams many times and build each method's at
    most once (the serve programs' stored streams are dropped first,
    so every build is counted)."""
    from collections import Counter

    import repro.vm.machine as machine_mod
    from repro.preprocess import fuse

    for cf in serve_classpath(MIXES["paper"].programs()).values():
        for code in cf.methods.values():
            code._fused.clear()
    builds, links = Counter(), Counter()
    build, link = fuse._build, machine_mod.decode_and_fuse

    def counted_build(code, *a):
        builds[code] += 1
        return build(code, *a)

    def counted_link(code, *a, **k):
        links[code] += 1
        return link(code, *a, **k)

    monkeypatch.setattr(fuse, "_build", counted_build)
    monkeypatch.setattr(machine_mod, "decode_and_fuse", counted_link)
    rep = serve_mix("paper", n_nodes=4, n_requests=10, seed=5)
    assert rep.served == rep.correct == 10
    assert builds and max(builds.values()) == 1
    assert set(links) == set(builds)
    assert sum(links.values()) > 2 * len(builds)


# -- engine level --------------------------------------------------------------


def _spawn_ns_at_msp(eng, home, n, ns):
    t = home.machine.spawn("P", "work", [n], namespace=ns)
    run_to_msp(home.machine, t)
    return t


def test_namespaced_migration_round_trips_into_home_namespace():
    """A namespaced segment migrates, runs remotely, and its static
    write-back lands in the *home's matching namespace* — root cells on
    both machines stay at defaults."""
    eng = SODEngine(gige_cluster(2), _classes())
    home = eng.host("node0")
    t = _spawn_ns_at_msp(eng, home, 4, "reqX")
    worker, wt, _rec = eng.migrate(home, t, "node1", 1)
    assert wt.namespace == "reqX"
    eng.run(worker, wt)
    eng.complete_segment(worker, wt, home, t, 1)
    assert t.result == 4
    assert home.machine.namespace("reqX").load("P").statics["s"] == 4
    assert home.machine.loader.load("P").statics["s"] == 0
    assert worker.machine.loader.load("P").statics["s"] == 0


def test_delta_markers_never_cross_namespaces():
    """Nothing a shipment leaves behind crosses namespaces — stated on
    values (there are no markers to cross any more: every capture ships
    the statics it captured and every restore writes them).  After A
    and B each ran a segment on one worker, a re-offload in namespace
    A carries A's cells and leaves B's and the root's alone, on the
    worker and at home."""
    eng = SODEngine(gige_cluster(2), _classes())
    home = eng.host("node0")

    def cells(host):
        return {ns: host.machine.namespace(ns).load("P").statics["s"]
                for ns in ("A", "B", None)}

    ta = _spawn_ns_at_msp(eng, home, 3, "A")
    worker, wta, _rec = eng.migrate(home, ta, "node1", 1)
    eng.run(worker, wta)
    eng.complete_segment(worker, wta, home, ta, 1)

    tb = _spawn_ns_at_msp(eng, home, 5, "B")
    worker, wtb, _rec = eng.migrate(home, tb, "node1", 1)
    assert cells(worker) == {"A": 3, "B": 0, None: 0}  # B restored fresh
    eng.run(worker, wtb)
    eng.complete_segment(worker, wtb, home, tb, 1)
    assert ta.result == 3 and tb.result == 5
    assert cells(home) == cells(worker) == {"A": 3, "B": 5, None: 0}

    ta2 = _spawn_ns_at_msp(eng, home, 2, "A")
    worker, wta2, _rec = eng.migrate(home, ta2, "node1", 1)
    assert cells(worker) == {"A": 3, "B": 5, None: 0}
    eng.run(worker, wta2)
    eng.complete_segment(worker, wta2, home, ta2, 1)
    assert ta2.result == 3 + 2  # namespace A's cells carried over
    assert cells(home) == cells(worker) == {"A": 5, "B": 5, None: 0}


def test_cross_home_colocation_allowed_in_distinct_namespaces():
    """The PR 2 whole-worker refusal is gone: segments of the same
    statics-bearing class from two different homes co-locate on one
    worker when each carries its own namespace — disjoint cells, no
    conflict, both homes get their own values back."""
    eng = SODEngine(gige_cluster(3), _classes())
    homes, threads = [], []
    for i, node in enumerate(("node0", "node1")):
        h = eng.host(node)
        t = h.machine.spawn("P", "work", [3 + i], namespace=f"req{i}")
        run_to_msp(h.machine, t)
        homes.append(h)
        threads.append(t)

    w0, wt0, _ = eng.migrate(homes[0], threads[0], "node2", 1)
    # co-location accepted (same class, different home, different ns)
    w1, wt1, _ = eng.migrate(homes[1], threads[1], "node2", 1)
    assert w0 is w1
    eng.run(w0, wt0)
    eng.run(w1, wt1)
    eng.complete_segment(w0, wt0, homes[0], threads[0], 1)
    eng.complete_segment(w1, wt1, homes[1], threads[1], 1)
    assert threads[0].result == 3 and threads[1].result == 4
    assert homes[0].machine.namespace("req0").load("P").statics["s"] == 3
    assert homes[1].machine.namespace("req1").load("P").statics["s"] == 4


def test_cross_home_colocation_still_refused_in_one_namespace():
    """Sanity: within a single namespace (here, root) the conflict is
    real and the engine still refuses it."""
    eng = SODEngine(gige_cluster(3), _classes())
    homes, threads = [], []
    for node in ("node0", "node1"):
        h = eng.host(node)
        t = h.machine.spawn("P", "work", [2])
        run_to_msp(h.machine, t)
        homes.append(h)
        threads.append(t)
    w, wt, _ = eng.migrate(homes[0], threads[0], "node2", 1)
    with pytest.raises(MigrationError, match="cross-home static"):
        eng.migrate(homes[1], threads[1], "node2", 1)
    eng.run(w, wt)
    eng.complete_segment(w, wt, homes[0], threads[0], 1)


def test_namespaced_rehop_chain_completes_home():
    """home -> node1 -> node2 chain entirely inside one namespace: the
    final write-back lands in the home's namespace and the chain nodes
    keep clean root cells."""
    eng = SODEngine(gige_cluster(3), _classes())
    home = eng.host("node0")
    t = _spawn_ns_at_msp(eng, home, 6, "chain")
    w1, wt, _ = eng.migrate(home, t, "node1", 1)
    eng.run(w1, wt, max_instrs=20)
    if wt.finished:  # pragma: no cover - schedule drift guard
        pytest.skip("segment finished before the hop")
    w2, wt2, _ = eng.rehop_segment(w1, wt, "node2", home)
    assert wt2.namespace == "chain"
    eng.run(w2, wt2)
    eng.complete_segment(w2, wt2, home, t, 1)
    assert t.result == 6
    assert home.machine.namespace("chain").load("P").statics["s"] == 6
    for h in (home, w1, w2):
        assert h.machine.loader.load("P").statics["s"] == 0


# -- the solo-vs-served differential -------------------------------------------


def test_paper_mix_serves_statics_heavy_programs_correctly():
    """The acceptance differential: every request served from the
    ``"paper"`` mix (FFT/TSP included, many in flight, offload enabled)
    returns byte-identical results to a solo run of the same program.
    The report's ``correct`` counter IS that comparison — each served
    result is checked against ``expected_request_result``, a standalone
    legacy-dispatch machine."""
    rep = serve_mix("paper", n_nodes=4, n_requests=20, seed=5)
    assert rep.served == rep.correct == 20
    assert rep.failed == 0 and rep.unserved == 0
    assert rep.stats["isolated"] > 0
    mix = MIXES["paper"]
    assert any(needs_isolation(p) for p in mix.programs())


def test_paper_mix_scales_across_nodes():
    """Namespaced FFT/TSP requests beside reentrant Fib/NQ: four nodes
    serve the paper mix at least twice as fast as one (virtual time),
    offloading isolated requests on the way."""
    def serve(n_nodes):
        rep = serve_mix("paper", n_nodes=n_nodes, n_requests=8, seed=7,
                        offload=QueueDepthPolicy(max_seg_hops=2))
        assert rep.served == rep.correct == 8
        return rep

    solo, multi = serve(1), serve(4)
    assert multi.stats["isolated"] > 0 and multi.stats["sod_offloads"] > 0
    assert multi.throughput >= 2.0 * solo.throughput


def test_namespacing_every_request_costs_no_throughput():
    """The reentrant mix served with every request namespaced and with
    none: virtual throughput within 5% (equal when last measured)."""
    reps = {iso: serve_mix("parallel", n_nodes=4, n_requests=8, seed=7,
                           offload=QueueDepthPolicy(max_seg_hops=2),
                           isolation=iso)
            for iso in ("off", "all")}
    assert reps["all"].stats["isolated"] == 8
    assert reps["off"].stats["isolated"] == 0
    off, every = reps["off"].throughput, reps["all"].throughput
    assert abs(every - off) <= 0.05 * off


def test_paper_mix_differential_with_migration_and_rehops():
    """Front-door serving of an FFT/TSP-only stream with chains
    enabled: every offload and every chain hop moves an *isolated*
    request's frames, and every result still matches its solo run —
    the namespace travels with the segment."""
    mix = RequestMix("paper-iso", (
        (RequestSpec("FFT", (4, 8)), 2.0),
        (RequestSpec("TSP", (5,)), 3.0),
        (RequestSpec("TSP", (6,)), 1.0),
    ))
    n = 14
    sched = ClusterScheduler(
        serve_cluster(6), serve_classpath(mix.programs()),
        placement=FrontDoorPlacement(),
        # chain bars lowered so this small deterministic stream
        # actually exercises Fig. 1c hops on isolated requests
        offload=QueueDepthPolicy(max_seg_hops=2,
                                 rehop_threshold_mult=1.0,
                                 rehop_gap_extra=0.0,
                                 rehop_remaining_mult=1.0))
    rep = sched.serve(LoadGenerator(mix, n, seed=3))
    assert rep.served == rep.correct == n
    assert rep.failed == 0 and rep.unserved == 0
    assert rep.stats["isolated"] == n  # every request non-reentrant
    assert rep.stats["sod_offloads"] > 0  # migrated mid-request...
    assert rep.stats["seg_rehops"] > 0  # ...and re-hopped mid-request
    # per-request namespaces were reclaimed on completion everywhere
    assert all(not h.machine._namespaces
               for h in sched.engine.hosts.values())
    # and the load index drained (no phantom load from isolation)
    assert all(c == 0 for c in sched.load_index.count.values())


def test_solo_oracle_agrees_with_registry_results():
    """The serve-size FFT/TSP entry points produce deterministic solo
    results (the oracle the differential leans on is itself stable
    across dispatch modes)."""
    for spec in (RequestSpec("FFT", (4, 8)), RequestSpec("TSP", (6,))):
        want = expected_request_result(spec)
        from repro.workloads.mixes import serve_compiled
        m = Machine(serve_compiled(spec.program))  # fast dispatch
        got = m.call(spec.main[0], spec.main[1], list(spec.args))
        assert got == want


def test_checkpoint_round_trips_namespace():
    """A segment checkpoint — its wire bytes — keeps its namespace
    tag: a resumed task must land in the same cells it left."""
    from repro.migration import capture_segment
    from repro.runtime.wire import capture_from_wire, capture_to_wire

    eng = SODEngine(gige_cluster(2), _classes())
    home = eng.host("node0")
    t = _spawn_ns_at_msp(eng, home, 3, "ckpt")
    state = capture_segment(home.vmti, t, 1, home_node="node0")
    assert state.namespace == "ckpt"
    back = capture_from_wire(capture_to_wire(state))
    assert back.namespace == "ckpt"
    assert back.statics == state.statics


# -- on-demand class loads in a namespace sync from the TRUE home --------------

HELPER_SRC = """
class Helper { static int s; }
class P {
  static int work(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      acc = acc + Helper.s;
    }
    return acc;
  }
}
"""


def test_on_demand_class_syncs_from_namespace_true_home():
    """A worker's load_listener is bound to whichever home spawned it
    first; a namespaced segment from a *different* home that links a
    helper class on demand must still receive that home's namespace
    cells (not the spawning home's defaults), and the query must not
    materialize empty namespaces on the wrong machine."""
    classes = preprocess_program(compile_source(HELPER_SRC), "faulting")
    eng = SODEngine(gige_cluster(3), classes)
    h1 = eng.host("node1")
    worker = eng.worker_host("node2", h1)  # listener now bound to node1

    h0 = eng.host("node0")
    t = h0.machine.spawn("P", "work", [3], namespace="reqN")
    # the request's namespace cells live on node0: Helper.s = 42 there
    h0.machine.namespace("reqN").load("Helper").statics["s"] = 42
    run_to_msp(h0.machine, t)
    w, wt, _ = eng.migrate(h0, t, "node2", 1)
    assert w is worker
    eng.run(w, wt)  # links Helper on demand inside namespace "reqN"
    eng.complete_segment(w, wt, h0, t, 1)
    assert t.result == 42 * 3  # node0's cells, not node1's defaults
    # ...and peeking never created the namespace on the wrong home
    assert not h1.machine.has_namespace("reqN")


def test_namespace_define_cannot_replace_shared_classpath():
    """The classpath is one object for every context on the machine;
    a namespace cannot see which siblings (or the root) linked a file,
    so redefining through a namespace must be a hard error — silently
    swapping the shared entry would run divergent code for one class
    name across namespaces."""
    from repro.bytecode.code import ClassFile
    from repro.errors import LinkError

    m = Machine(_classes("original"))
    m.loader.load("P")  # root links P
    ns = m.namespace("x")
    with pytest.raises(LinkError, match="shared classpath"):
        ns.define(ClassFile("P"))
    # additive defines still work and are visible machine-wide
    ns.define(ClassFile("Fresh"))
    assert m.loader.has_classfile("Fresh")
