"""A declared ``stop`` runs on the fast tiers; the same predicate
undeclared, polled before every instruction by the hooked loop, is the
oracle it is held to.

``on_method_entry`` carries ``entry_of``; ``Machine.run`` then traps at
bci 0 of the named methods (``Machine._run_declared``) instead of
retreating to ``_run_loop``.  Every comparison here is against
``lambda th: trigger(th)`` — no declaration, so the hooked loop — on a
fresh machine: the stop point, every later stop of the ``roam`` resume
pattern, the preemption schedule when a ``quantum`` rides along, what
the machine's caches look like afterwards, and (by count, not by time)
that the hooked loop executed only the instructions that carry a trap.
The generated-program version is ``minilang_fuzz.run_declared_stop_fuzz``.
"""

from __future__ import annotations

import functools
import math

import pytest

import repro.vm.jit as jit_mod
import repro.vm.machine as machine_mod
from minilang_fuzz import flat_frames
from repro.lang import compile_source
from repro.preprocess import preprocess_program
from repro.vm import Machine
from repro.vm.frames import any_of, on_depth, on_method_entry
from repro.workloads import registry


def _undeclared(trigger):
    """The same predicate without its declaration: the oracle side."""
    assert trigger.entry_of
    polled = lambda thread: trigger(thread)  # noqa: E731
    assert not hasattr(polled, "entry_of")
    return polled


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


# -- (1) the stop point, registry programs x builds x tiers --------------------

def _fresh(name, build, hotness):
    """Fresh code objects (hotness is shared per ``CodeObject``), every
    method's profile preset to ``hotness``."""
    w = registry.WORKLOADS[name]
    classes = preprocess_program(compile_source(w.source), build)
    for cf in classes.values():
        for code in cf.methods.values():
            code.hotness = hotness
    return classes


def _to_trigger_and_on(name, build, stop, hotness=0, **kw):
    """Run to the trigger, snapshot, run on to completion, snapshot."""
    w = registry.WORKLOADS[name]
    m = Machine(_fresh(name, build, hotness), **kw)
    t = m.spawn(w.main[0], w.main[1], list(w.sim_args))
    status = m.run(t, stop=stop)
    at_stop = (status, flat_frames(t), m.instr_count, tuple(m.stdout))
    clock_at_stop = m.clock
    assert m.run(t) == "finished"
    assert m.jit_compile_errors == 0
    return (at_stop, clock_at_stop,
            (t.result, m.instr_count, tuple(m.stdout)), m.clock)


@functools.lru_cache(maxsize=None)
def _oracle(name, build):
    """The hooked loop's answer; it does not depend on tier knobs."""
    w = registry.WORKLOADS[name]
    return _to_trigger_and_on(name, build, _undeclared(w.trigger()))


TIERS = {
    "cold": dict(hotness=0),
    "warm": dict(hotness=jit_mod.JIT_THRESHOLD),   # tier 2 at first entry
    "nojit": dict(jit=False),
    "nofuse": dict(fuse=False),
}


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("build", ["original", "faulting"])
@pytest.mark.parametrize("name", sorted(registry.WORKLOADS))
def test_declared_trigger_stops_where_the_hooked_loop_does(name, build, tier):
    """Status, every frame's (method, pc, stack, locals), instr_count
    and stdout at the stop are *equal* to the undeclared run's, the
    clock to 1e-9; run on to completion, result / instr_count / clock
    agree again."""
    w = registry.WORKLOADS[name]
    got = _to_trigger_and_on(name, build, w.trigger(), **TIERS[tier])
    want = _oracle(name, build)
    assert got[0] == want[0]
    assert got[0][0] == "stopped"
    assert _close(got[1], want[1])
    assert got[2] == want[2] and got[2][0] == registry.expected_result(name)
    assert _close(got[3], want[3])


# -- (2) every hit, every way a frame reaches bci 0 ------------------------------

ENTRY_SRC = """
class Sh { int k; int area(int s) { return s * this.k; } }
class E {
  static int leaf(int a) { return a + 1; }
  static int spin(int n) { while (n > 0) { n = n - 1; } return n; }
  static int deep(int n) {
    if (n <= 0) { return 0; }
    return 1 + E.deep(n - 1);
  }
  static int risky(int d) {
    if (d == 0) { int[] a = new int[1]; return a[5]; }
    return E.risky(d - 1);
  }
  static int tryRisky(int d) {
    int r = 0;
    try { r = E.risky(d); } catch (IndexOutOfBoundsException e) { r = d; }
    return r;
  }
  static int main(int n) {
    Sh sh = new Sh();
    sh.k = 3;
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      acc = (acc + E.leaf(i) + sh.area(i) + E.spin(i % 4)) % 100003;
    }
    acc = acc + E.tryRisky(3) + E.tryRisky(2);
    return acc + E.deep(150);
  }
}
"""

#: trigger label -> (predicate factory, main's argument)
ENTRY_TRIGGERS = {
    "invokestatic": (lambda: on_method_entry("E", "leaf"), 40),
    "invokevirt": (lambda: on_method_entry("Sh", "area"), 40),
    "while-first": (lambda: on_method_entry("E", "spin"), 40),
    "deep-recursion": (lambda: on_method_entry("E", "deep", min_depth=90),
                       2),
    "after-unwind": (lambda: on_method_entry("E", "risky"), 2),
    "any-of": (lambda: any_of(on_method_entry("E", "leaf", min_depth=2),
                              on_method_entry("E", "tryRisky")), 40),
}

#: (label, ``_observe`` kwargs: Machine's, plus the JIT threshold)
ENTRY_TIERS = [("tier1", dict(jit=False)),
               ("tier1-nofuse", dict(jit=False, fuse=False)),
               ("tier2-at-once", dict(jit=True, threshold=1)),
               ("tier2-shipped", dict(jit=True))]


def _every_stop(classes, n, stop, **kw):
    """``minilang_fuzz._observe`` on ``E.main(n)``: every run carries
    ``stop`` and each "stopped" resumes the way ``workflow.roam`` does
    (one instruction under ``max_instrs=1``, then ``stop`` again).
    Returns the stops as (depth, method, pc, instr_count, frames),
    the end state (result, uncaught, stdout, instr_count) and the clock."""
    from minilang_fuzz import _observe

    result, err, stdout, instrs, clock, compile_errors, schedule = _observe(
        classes, [n], main=("E", "main"), stop=stop, **kw)
    assert compile_errors == 0 and all(r[-1] == "stop" for r in schedule)
    return ([r[:-1] for r in schedule], (result, err, stdout, instrs),
            clock)


@pytest.mark.parametrize("build", ["original", "faulting"])
@pytest.mark.parametrize("label", sorted(ENTRY_TRIGGERS))
def test_every_stop_equals_the_hooked_loops(label, build):
    """Not just the first hit: the whole sequence of stops — entered
    through INVOKESTATIC, INVOKEVIRT, a compiled->compiled direct call
    (caller at tier 2 from its first entry), recursion past the JIT's
    inline-depth cap, re-entry after a guest exception unwound through
    the method, and the back edge of a method that *opens with a loop*
    (its ``JMP 0`` lands on the trapped slot every iteration, where a
    frame-push check would see nothing) — is the hooked loop's."""
    make, n = ENTRY_TRIGGERS[label]
    classes = preprocess_program(compile_source(ENTRY_SRC), build)
    if label == "while-first":
        spin = classes["E"].methods["spin"]
        assert any(i.op == "JMP" and i.a == 0 for i in spin.instrs)
    if label == "deep-recursion":
        assert 150 > jit_mod._MAX_INLINE_DEPTH
    want = _every_stop(classes, n, _undeclared(make()))
    assert len(want[0]) > (1 if label != "deep-recursion" else 50)
    assert all(row[2] == 0 for row in want[0])  # every stop at a bci 0
    for tier, kw in ENTRY_TIERS:
        got = _every_stop(classes, n, make(), **kw)
        assert got[0] == want[0], f"{tier}: stops diverged"
        assert got[1] == want[1], f"{tier}: end state diverged"
        assert _close(got[2], want[2]), f"{tier}: clock diverged"


def test_spawn_of_the_named_method_stops_before_its_first_instruction():
    classes = preprocess_program(compile_source(ENTRY_SRC), "original")
    for kw in (dict(jit=False), dict(jit=True)):
        m = Machine(classes, **kw)
        assert m.precompile("E", "leaf") or not m.jit
        t = m.spawn("E", "leaf", [41])
        assert m.run(t, stop=on_method_entry("E", "leaf")) == "stopped"
        assert (m.instr_count, m.clock, t.frames[-1].pc) == (0, 0.0, 0)
        assert m.run(t, max_instrs=1) == "limit" and m.instr_count == 1
        assert m.run(t, stop=on_method_entry("E", "leaf")) == "finished"
        assert t.result == 42


def test_only_a_complete_declaration_is_a_declaration():
    """``any_of`` is declared iff every part is (the union of the
    sets); ``on_depth`` and friends cannot promise a bci."""
    a, b = on_method_entry("E", "leaf"), on_method_entry("Sh", "area", 2)
    assert any_of(a, b).entry_of == {("E", "leaf"), ("Sh", "area")}
    assert not hasattr(any_of(a, on_depth(4)), "entry_of")
    assert not hasattr(on_depth(4), "entry_of")
    classes = preprocess_program(compile_source(ENTRY_SRC), "original")
    want = _every_stop(classes, 9, _undeclared(any_of(a, b)))
    assert len(want[0]) == 9 + 9
    for stop in (any_of(a, b), any_of(a, b, on_depth(999))):
        got = _every_stop(classes, 9, stop)
        assert got[:2] == want[:2] and _close(got[2], want[2])


# -- (4) a quantum rides along ---------------------------------------------------

@pytest.mark.parametrize("firing", [False, True], ids=["never", "firing"])
@pytest.mark.parametrize("name", ["FFT", "Fib", "NQ", "TSP"])
def test_preemption_schedule_with_a_declared_stop(name, firing):
    """``test_preemption_schedule_is_tier_blind``'s harness with a
    declared ``stop`` on every run: each "preempted" *and* each
    "stopped" lands on the same (depth, method, pc, instr_count) as on
    the legacy loop polling the predicate undeclared, in every mode and
    under every budget — the quantum's absolute watermark survives the
    fast loop's re-entries after a trap."""
    from minilang_fuzz import QUANTA, SCHEDULE_MODES, divergence
    from test_dispatch_equivalence import SCHEDULE_ARGS

    w = registry.WORKLOADS[name]
    stop = on_method_entry(*w.trigger_method,
                           min_depth=2 if firing else 99)
    assert divergence(w.source, SCHEDULE_ARGS[name], "faulting",
                      SCHEDULE_MODES, QUANTA, w.main, stop=stop) is None


# -- (5) no residue ----------------------------------------------------------------

RESIDUE_SRC = """
class R {
  static int hits;
  static int work(int a) { R.hits = R.hits + 1; return a * 2 + 1; }
  static int main(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) { acc = (acc + R.work(i)) % 100003; }
    return acc;
  }
  static int boom(int n) {
    int acc = R.main(n);
    Sys.boom();
    return acc;
  }
}
"""


def _cache_state(m):
    """Identity snapshot of every decoded slot and compiled entry."""
    maps = [(None, m._decoded, m._compiled)] + [
        (tag, m._decoded_ns[tag], m._compiled_ns[tag])
        for tag in sorted(m._decoded_ns)]
    return [(tag, {c.qualname: [id(s) for s in stream]
                   for c, stream in dec.items()},
             {c.qualname: id(cf) for c, cf in comp.items()})
            for tag, dec, comp in maps]


def _assert_unchanged(m, before):
    """Every slot and closure that existed is the same object; a
    stream tier 1 decoded since (the named method ran there while
    masked) is an ordinary one (``_assert_clean``); nothing compiled
    appeared or vanished."""
    for (tag, dec0, comp0), (tag1, dec1, comp1) in zip(
            before, _cache_state(m), strict=True):
        assert tag == tag1 and comp1 == comp0
        assert {q: dec1.get(q) for q in dec0} == dec0


def _assert_clean(m):
    assert m._traps is None
    for loader_map in [m._decoded, *m._decoded_ns.values()]:
        for stream in loader_map.values():
            assert machine_mod._TRAP not in stream
    for comp in [m._compiled, *m._compiled_ns.values()]:
        assert all(cf for cf in comp.values()), "a masked entry survived"


def test_a_declared_run_leaves_what_a_plain_run_leaves(monkeypatch):
    """After a declared-stop run that stopped, one that finished (the
    trigger never fires), and one that died of a host error: every
    decoded stream and compiled entry that existed is the same object
    as before, nothing is masked, and the next plain run enters the
    method through its tier-2 closure again."""
    monkeypatch.setattr(jit_mod, "JIT_THRESHOLD", 1)
    classes = preprocess_program(compile_source(RESIDUE_SRC), "original")
    m = Machine(classes, jit=True)

    def boom(machine, args):
        raise RuntimeError("host error mid-run")
    m.natives.register("Sys.boom", boom)
    plain = m.call("R", "main", [30])          # warm: everything compiled
    work = m.loader.load("R").find_method("work")
    assert m._compiled[work]
    before = _cache_state(m)
    trigger = on_method_entry("R", "work", min_depth=2)

    t = m.spawn("R", "main", [30])
    assert m.run(t, stop=trigger) == "stopped"
    _assert_clean(m)
    _assert_unchanged(m, before)

    i0 = m.instr_count
    t = m.spawn("R", "main", [30])
    assert m.run(t, stop=on_method_entry("R", "work", 99)) == "finished"
    assert t.result == plain
    ref = Machine(classes, jit=True)
    assert ref.call("R", "main", [30]) == plain
    assert m.instr_count - i0 == ref.instr_count
    _assert_clean(m)
    _assert_unchanged(m, before)

    t = m.spawn("R", "boom", [5])
    with pytest.raises(RuntimeError, match="host error"):
        m.run(t, stop=on_method_entry("R", "work", 99))
    _assert_clean(m)
    boom_code = m.loader.load("R").find_method("boom")
    assert m._compiled.pop(boom_code)        # the one newcomer
    _assert_unchanged(m, before)

    # tier 2 is back: the next plain run calls work's own closure
    calls = []
    fn, entries = m._compiled[work]
    m._compiled[work] = (lambda *a: calls.append(1) or fn(*a), entries)
    assert m.call("R", "main", [30]) == plain
    assert len(calls) >= 30


def test_a_method_first_seen_during_the_declared_run_is_left_unmasked(
        monkeypatch):
    """Streams decoded and tier-ups declined *during* the run (cold
    machine) are undone too: afterwards the method compiles normally."""
    monkeypatch.setattr(jit_mod, "JIT_THRESHOLD", 1)
    classes = preprocess_program(compile_source(RESIDUE_SRC), "original")
    m = Machine(classes, jit=True)
    t = m.spawn("R", "main", [12])
    assert m.run(t, stop=on_method_entry("R", "work", 99)) == "finished"
    work = m.loader.load("R").find_method("work")
    assert work in m._decoded and work not in m._compiled
    _assert_clean(m)
    compiles = m.jit_compiles
    m.call("R", "main", [3])
    assert m._compiled[work] and m.jit_compiles == compiles + 1


def test_traps_stay_in_the_namespace_that_runs():
    """A thread of namespace ``a`` stopped at the method does not make
    a thread of ``b`` or of the root stop: only the running maps are
    ever patched, and only for the duration of the run."""
    classes = preprocess_program(compile_source(RESIDUE_SRC), "original")
    m = Machine(classes)
    for ns in ("a", "b", None):          # link + decode everywhere first
        m.run(m.spawn("R", "main", [4], namespace=ns))
    ta = m.spawn("R", "main", [20], namespace="a")
    assert m.run(ta, stop=on_method_entry("R", "work")) == "stopped"
    _assert_clean(m)
    oracle = Machine(classes)
    want = oracle.call("R", "main", [20])
    for ns in ("b", None):
        i0 = m.instr_count
        t = m.spawn("R", "main", [20], namespace=ns)
        assert m.run(t) == "finished" and t.result == want
        assert m.instr_count - i0 == oracle.instr_count
    assert m.run(ta) == "finished" and ta.result == want
    assert m.namespace("a").load("R").statics["hits"] == 4 + 20


# -- (6) the hooked loop executes only the instructions that carry a trap ---------

@pytest.fixture()
def loop_meter(monkeypatch):
    """Instructions executed inside ``_run_loop`` and trap hits."""
    meter = {"hooked_instrs": 0, "trap_hits": 0}
    real_loop = Machine._run_loop
    trap_id = machine_mod._TRAP[0]
    real_trap = machine_mod._COLD[trap_id]

    def run_loop(self, *a, **k):
        i0 = self.instr_count
        try:
            return real_loop(self, *a, **k)
        finally:
            meter["hooked_instrs"] += self.instr_count - i0

    def trap(*a):
        meter["trap_hits"] += 1
        return real_trap(*a)

    monkeypatch.setattr(Machine, "_run_loop", run_loop)
    monkeypatch.setitem(machine_mod._COLD, trap_id, trap)
    return meter


@pytest.mark.parametrize("build", ["original", "faulting"])
def test_fft_reaches_its_trigger_off_the_hooked_loop(loop_meter, build):
    """The paper's Table III/IV run to ``FFT.checksum``: 2,169,673
    (faulting) / 829,051 (original) instructions, every one of them
    inside ``_run_loop`` while ``stop`` evicted the run — now at most
    the one under the trap (here none: the first hit stops)."""
    w = registry.WORKLOADS["FFT"]
    m = Machine(registry.compiled("FFT", build))
    t = m.spawn(w.main[0], w.main[1], list(w.sim_args))
    assert m.run(t, stop=w.trigger()) == "stopped"
    assert t.frames[-1].code.qualname == "FFT.checksum"
    assert m.instr_count > 800_000
    assert loop_meter["hooked_instrs"] <= 1
    assert loop_meter["trap_hits"] == 1


def test_a_call_dense_trigger_that_never_fires_steps_once_per_hit(
        loop_meter):
    """The worst case for a trap — the named method *is* the program
    (``Fib.fib``, a depth no run reaches): every call is a hit, and
    each hit costs exactly one hooked instruction, not the method."""
    w = registry.WORKLOADS["Fib"]
    m = Machine(registry.compiled("Fib", "faulting"))
    t = m.spawn(w.main[0], w.main[1], list(w.sim_args))
    assert m.run(t, stop=on_method_entry("Fib", "fib", 99)) == "finished"
    assert t.result == registry.expected_result("Fib")
    assert loop_meter["hooked_instrs"] == loop_meter["trap_hits"] > 10_000
    plain = Machine(registry.compiled("Fib", "faulting"))
    plain.call(w.main[0], w.main[1], list(w.sim_args))
    assert m.instr_count == plain.instr_count
    assert _close(m.clock, plain.clock)
