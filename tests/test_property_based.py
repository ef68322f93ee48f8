"""Property-based tests (hypothesis) on core invariants, plus the
grammar-based MiniLang differential fuzzer (see ``minilang_fuzz.py``)."""

from hypothesis import given, settings, strategies as st

from repro.bytecode.verifier import stack_depths, verify
from repro.cluster import gige_cluster
from repro.lang import compile_source
from repro.migration import GraphDecoder, GraphEncoder
from repro.preprocess import flatten, preprocess_program
from repro.sim import Environment
from repro.units import mb
from repro.vm import Machine
from tests.helpers import FUZZ_COUNT, FUZZ_SEED, fuzz_budget

# -- expression compiler vs python oracle -------------------------------------

_int_expr = st.recursive(
    st.integers(min_value=-50, max_value=50).map(str),
    lambda inner: st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner)
    .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
    max_leaves=12,
)


@given(_int_expr)
@settings(max_examples=60, deadline=None)
def test_integer_expressions_match_python(expr):
    src = f"class T {{ static int f() {{ return {expr}; }} }}"
    got = Machine(compile_source(src)).call("T", "f")
    assert got == eval(expr)


@given(st.integers(min_value=-200, max_value=200),
       st.integers(min_value=1, max_value=20))
@settings(max_examples=50, deadline=None)
def test_java_division_and_modulo_identity(a, b):
    src = f"""class T {{ static int f() {{
      return ({a} / {b}) * {b} + ({a} % {b});
    }} }}"""
    assert Machine(compile_source(src)).call("T", "f") == a


# -- flattening preserves semantics on generated programs ------------------------

@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1,
                max_size=6),
       st.integers(min_value=0, max_value=12))
@settings(max_examples=30, deadline=None)
def test_flatten_preserves_loop_accumulation(coeffs, n):
    body = " + ".join(f"{c} * i" for c in coeffs)
    src = f"""class T {{ static int f(int n) {{
      int s = 0;
      for (int i = 0; i < n; i = i + 1) {{ s = s + ({body}); }}
      return s;
    }} }}"""
    classes = compile_source(src)
    ref = Machine(classes).call("T", "f", [n])
    for build in ("flattened", "faulting", "checking"):
        pp = preprocess_program(classes, build)
        assert Machine(pp).call("T", "f", [n]) == ref


@given(st.integers(min_value=0, max_value=10))
@settings(max_examples=20, deadline=None)
def test_flattened_code_has_empty_stack_at_every_line_start(n):
    src = f"""class T {{
      static int g(int x) {{ return x * 3; }}
      static int f(int n) {{
        int acc = {n};
        for (int i = 0; i < n; i = i + 1) {{
          acc = T.g(acc) + T.g(i) - acc / 2;
        }}
        return acc;
      }} }}"""
    for code in compile_source(src)["T"].methods.values():
        out = flatten(code).code
        verify(out)
        depths = stack_depths(out)
        for bci, _ in out.line_table:
            assert depths.get(bci, 0) == 0
        assert out.msps


# -- graph encode/decode roundtrip --------------------------------------------------

_value = st.one_of(st.integers(min_value=-1000, max_value=1000),
                   st.booleans(), st.text(max_size=8),
                   st.floats(allow_nan=False, allow_infinity=False,
                             width=32))


@given(st.lists(_value, min_size=0, max_size=8))
@settings(max_examples=40, deadline=None)
def test_graph_roundtrip_primitive_arrays(values)\
        :
    src = "class Box { int v; } class T { static int f() { return 0; } }"
    m = Machine(compile_source(src))
    kind = "ref"
    arr = m.heap.new_array("ref", len(values), 8)
    # wrap each value in a Box-like instance chain via fields when int
    arr.data[:] = list(values)
    enc = GraphEncoder(this_node="w", eager=True)
    root = enc.encode(arr)
    dec = GraphDecoder(m.heap, m.loader, "w", enc.graph)
    out = dec.decode(root)
    assert list(out.data) == list(values)
    assert enc.nbytes > 0


@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=20, deadline=None)
def test_graph_roundtrip_linked_list(n):
    src = "class L { int v; L next; } class T { static int f() { return 0; } }"
    m = Machine(compile_source(src))
    head = None
    for i in range(n):
        node = m.heap.new_instance(m.loader.load("L"))
        node.fields["v"] = i
        node.fields["next"] = head
        head = node
    enc = GraphEncoder(this_node="w", eager=True)
    root = enc.encode(head)
    out = GraphDecoder(m.heap, m.loader, "w", enc.graph).decode(root)
    seen = []
    while out is not None:
        seen.append(out.fields["v"])
        out = out.fields["next"]
    assert seen == list(range(n - 1, -1, -1))


# -- FS.scan consistency with FS.read + indexOf ----------------------------------------

@given(st.integers(min_value=0, max_value=mb(2) - 64),
       st.integers(min_value=16, max_value=4096))
@settings(max_examples=30, deadline=None)
def test_fs_scan_agrees_with_read_indexof(plant_off, window):
    cluster = gige_cluster(1)
    path = f"/prop/f{plant_off}_{window}"
    cluster.fs.host_file(cluster.node("node0"), path, mb(2),
                         plant=[(plant_off, "NEEDLE99")])
    src = f"""class T {{
      static int scan(int off, int len) {{
        return FS.scan("{path}", off, len, "NEEDLE99");
      }}
      static int via_read(int off, int len) {{
        str s = FS.read("{path}", off, len);
        int idx = Sys.indexOf(s, "NEEDLE99");
        if (idx < 0) {{ return -1; }}
        return off + idx;
      }} }}"""
    m = Machine(compile_source(src), node=cluster.node("node0"),
                fs=cluster.fs)
    lo = max(0, plant_off - window // 2)
    got_scan = m.call("T", "scan", [lo, window])
    got_read = m.call("T", "via_read", [lo, window])
    assert got_scan == got_read


# -- simulation kernel ordering ------------------------------------------------------

@given(st.lists(st.floats(min_value=0.001, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_sim_kernel_fires_in_time_order(delays):
    env = Environment()
    fired = []

    def proc(d):
        yield env.timeout(d)
        fired.append(env.now)

    for d in delays:
        env.process(proc(d))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# -- migration correctness on randomized programs ---------------------------------------

@given(st.integers(min_value=1, max_value=15),
       st.integers(min_value=2, max_value=9))
@settings(max_examples=15, deadline=None)
def test_migration_equivalence_randomized(n, modulus):
    from repro.migration import SODEngine
    src = f"""
    class Acc {{ int total; }}
    class T {{
      static Acc acc;
      static int main(int n) {{
        T.acc = new Acc();
        int r = T.work(n);
        return r + T.acc.total;
      }}
      static int work(int n) {{
        int s = 0;
        for (int i = 0; i < n; i = i + 1) {{
          s = s + i % {modulus};
          T.acc.total = T.acc.total + 1;
        }}
        return s;
      }}
    }}"""
    classes = preprocess_program(compile_source(src), "faulting")
    ref = Machine(classes).call("T", "main", [n])
    eng = SODEngine(gige_cluster(2), classes)
    home = eng.host("node0")
    t = eng.spawn(home, "T", "main", [n])
    eng.run(home, t, stop=lambda th: th.frames[-1].code.name == "work")
    result, _rec = eng.run_segment_remote(home, t, "node1", 1)
    assert result == ref


# -- grammar-based differential fuzzing ---------------------------------------
#
# minilang_fuzz generates random-but-valid MiniLang programs and checks
# the fast (pre-decoded/fused/inline-cached) interpreter against the
# legacy loop on stdout/result/uncaught/instr_count/clock, shrinking
# failures to a minimal program.  Seeds derive from string-seeded
# Random (SHA-512), so pytest-randomly cannot perturb the stream;
# override with REPRO_FUZZ_SEED / REPRO_FUZZ_COUNT (tests/helpers.py:
# the one size knob; each campaign below keeps its share of it).


def test_minilang_fuzz_generator_is_deterministic():
    from minilang_fuzz import generate

    a, b = generate(FUZZ_SEED), generate(FUZZ_SEED)
    assert a.render() == b.render() and a.main_args == b.main_args
    assert generate(FUZZ_SEED + 1).render() != a.render()


def test_minilang_fuzz_shrinker_removes_statements():
    from minilang_fuzz import generate

    prog = generate(FUZZ_SEED)
    sites = prog.removable_sites()
    assert sites  # generated programs have shrinkable statements
    smaller = prog.without(sites[0])
    assert len(smaller.render()) < len(prog.render())
    # return statements are never removable
    for mi, si in smaller.removable_sites():
        assert not smaller.methods[mi][2][si].text.startswith("return ")


#: each generated program's legacy oracle runs, shared by the two
#: dispatch differentials below: they walk the same seeds, so in one
#: session each program's oracle runs once
_LEGACY_RUNS: dict = {}


def test_minilang_fuzz_differential_fast_vs_legacy():
    from minilang_fuzz import run_fuzz

    failure = run_fuzz(FUZZ_SEED, FUZZ_COUNT, legacy_runs=_LEGACY_RUNS)
    assert failure is None, failure


def test_minilang_fuzz_generates_switch_and_virtual_dispatch():
    """The generator actually reaches the new grammar: a window of the
    seeded stream must contain switch statements, V-hierarchy objects,
    and float arithmetic (guards against probability-band drift
    silently turning the new coverage off)."""
    from minilang_fuzz import generate

    sources = [generate(FUZZ_SEED + i).render() for i in range(40)]
    assert sum("switch (" in s for s in sources) >= 5
    assert sum("new VA()" in s or "new VB()" in s for s in sources) >= 5
    assert sum("float f" in s for s in sources) >= 5


def test_minilang_fuzz_differential_tier2_vs_legacy():
    """Differential fuzz of the *tier-2 JIT* against the legacy oracle
    on stdout / result / uncaught / instr_count / clock, with the
    hotness threshold dropped to 1 so the
    generated programs' methods actually compile into closures.  The
    oracle runs are the tier-1 differential's, where it ran first."""
    from minilang_fuzz import TIER2_MODES, run_fuzz

    failure = run_fuzz(FUZZ_SEED, fuzz_budget(120), modes=TIER2_MODES,
                       legacy_runs=_LEGACY_RUNS)
    assert failure is None, failure


def test_minilang_fuzz_declared_stop_vs_the_same_predicate_polled():
    """Differential fuzz of the *declared* ``stop``: a seeded
    ``on_method_entry`` (method, ``min_depth``; sometimes ``any_of``
    two) per generated program, run with its ``at`` declaration
    — trapped at bci 0 on tier 1 and tier 2 — against the same
    predicate polled undeclared by the legacy loop: every stop of the
    ``roam`` resume pattern, every preemption under a rotating budget,
    and the usual result / uncaught / stdout / instr_count / clock."""
    from minilang_fuzz import run_declared_stop_fuzz

    failure = run_declared_stop_fuzz(FUZZ_SEED, fuzz_budget(40))
    assert failure is None, failure


def test_minilang_fuzz_tier2_deopt_at_capture_and_migration():
    """Forced deopt mid-compiled-region: each program runs with the JIT
    on and is frozen by a scheduler quantum at a seeded-random cut —
    the quantum is polled at safepoints *inside* compiled closures, so
    the freeze deoptimizes live tier-2 frames — then the deoptimized
    frames are SOD-migrated to a second node, completed home, and
    result/uncaught/stdout compared against the straight-line oracle."""
    from minilang_fuzz import run_tier2_migration_fuzz

    failure = run_tier2_migration_fuzz(FUZZ_SEED, fuzz_budget(40))
    assert failure is None, failure


def test_minilang_fuzz_tier2_warm_code_cache_matches_cold():
    """A slice of both tier-2 fuzz modes (incl. the faulting build and
    deopt-at-capture migration) twice in one process: the second pass
    compiles the same programs on fresh machines, so every closure is
    *linked* from the process-wide factory cache (no new miss) — and
    must match the legacy oracle exactly as the cold pass does."""
    from minilang_fuzz import TIER2_MODES, run_fuzz, \
        run_tier2_migration_fuzz

    import repro.vm.jit as jit

    def one_pass():
        failure = run_fuzz(FUZZ_SEED, 16, modes=TIER2_MODES)
        assert failure is None, failure
        failure = run_tier2_migration_fuzz(FUZZ_SEED, 10)
        assert failure is None, failure
        return jit._factory.cache_info()

    jit._factory.cache_clear()
    cold = one_pass()
    # the slice fits the bound, so nothing the warm pass needs was evicted
    assert 0 < cold.misses == cold.currsize <= cold.maxsize
    warm = one_pass()
    assert warm.misses == cold.misses
    assert warm.hits - cold.hits == cold.hits + cold.misses  # same calls


def test_minilang_fuzz_migration_at_random_capture_points():
    """Differential fuzz of the *migration* path: every generated
    program is frozen at a seeded-random instruction count, its top
    frames SOD-migrated to a second node, completed home, and the
    final result/uncaught/stdout compared against the straight-line
    oracle.  (This is the harness that caught on-demand-loaded classes
    linking default statics instead of the home's current values.)"""
    from minilang_fuzz import run_migration_fuzz

    failure = run_migration_fuzz(FUZZ_SEED, fuzz_budget(60))
    assert failure is None, failure


def test_minilang_fuzz_multihop_chains_at_random_capture_points():
    """Differential fuzz of the Fig. 1c *multi-hop* path: each program
    freezes at a seeded-random cut, migrates home -> node1, runs a
    random slice, re-hops node1 -> node2 (sometimes -> node3) with
    effects flushed home at every hop, completes directly home, and
    the final result/uncaught/stdout must match the straight-line
    oracle."""
    from minilang_fuzz import run_multihop_fuzz

    failure = run_multihop_fuzz(FUZZ_SEED, fuzz_budget(40))
    assert failure is None, failure
