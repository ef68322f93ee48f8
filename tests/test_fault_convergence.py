"""A remote object faults once per frame that holds its sentinel (paper
III.C: object faulting is "analogous to page faults in OS" — one fault,
then "in normal execution no extra instruction runs").

``ObjMan.resolve`` patches the receiver temp, every slot of the
faulting frame holding a sentinel of the same ``(home_oid, home_node)``
and the sentinel's origin.  Without the middle step a sentinel passed
*by value* (a restored frame resuming at a call line hands its
unfetched array to the callee) re-faults on every access: the callee's
parameter is neither the temp nor the origin."""

from __future__ import annotations

import pytest

import repro.migration.sodee as sodee
from repro.cluster import gige_cluster
from repro.lang import compile_source
from repro.migration import SODEngine
from repro.migration.capture import run_to_msp
from repro.migration.object_manager import WorkerObjectManager
from repro.preprocess import preprocess_program
from repro.serve import build_serving
from repro.vm import Machine
from repro.vm import jit as jit_mod
from repro.vm.natives import _deref
from repro.vm.objects import VMInstance
from repro.vm.values import LOC_LOCAL, RemoteRef
from repro.workloads import programs
from repro.workloads.mixes import serve_compiled

#: how the machines of one engine execute: the legacy loop, tier 1, and
#: tier 2 compiling every method at first entry
LOOPS = {
    "legacy": (dict(dispatch="legacy"), None),
    "tier1": (dict(jit=False), None),
    "tier2": (dict(jit=True), 1),
}


def _counting_fetch(mp):
    """Every ``WorkerObjectManager.fetch`` (one per ``ObjMan.resolve``
    on the faulting build) as ``(key, faulting frame)``; holding the
    frames keeps their identities distinct."""
    calls = []
    fetch = WorkerObjectManager.fetch

    def counted(objman, ref):
        thread = objman.machine.current_thread
        calls.append(((ref.home_oid, ref.home_node),
                      thread.frames[-1] if thread is not None else None))
        return fetch(objman, ref)

    mp.setattr(WorkerObjectManager, "fetch", counted)
    return calls


# -- (a) QS resumed at its recursive call line ---------------------------------

QS_N = 96
CALL_LINE = programs.QSORT.splitlines().index("    QS.sort(xs, lo, j);") + 1
NFRAMES = 2


def _qs_offloaded(kw, threshold):
    """``QS.main(QS_N)`` run at home until the *second-level* ``sort``
    frame is about to execute its first recursive call line, its top
    two frames offloaded and completed remotely.  The top restored
    frame never dereferenced ``xs``: it passes the sentinel on by
    value.  Returns the run's facts and the fetch log."""
    classes = serve_compiled("QS")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sodee, "Machine",
                   lambda *a, **k: Machine(*a, **kw, **k))
        if threshold is not None:
            mp.setattr(jit_mod, "JIT_THRESHOLD", threshold)
        calls = _counting_fetch(mp)
        eng = SODEngine(gige_cluster(2), dict(classes))
        home = eng.host("node0")
        t = eng.spawn(home, "QS", "main", [QS_N])

        def at_call_line(th):
            f = th.frames[-1]
            return (th.depth() == 1 + NFRAMES and f.code.name == "sort"
                    and f.pc in f.code.msps
                    and f.code.line_of(f.pc) == CALL_LINE)

        assert eng.run(home, t, stop=at_call_line) == "stopped"
        worker, wt, _rec = eng.migrate(home, t, "node1", NFRAMES)
        assert all(isinstance(f.locals[0], RemoteRef) for f in wt.frames)
        eng.run(worker, wt)
        assert wt.finished and wt.uncaught is None
        fetched_by = list(worker.objman.fetched_by[wt])
        eng.complete_segment(worker, wt, home, t, NFRAMES)
        eng.run(home, t)
    facts = dict(result=t.result, calls=[key for key, _f in calls],
                 faults=worker.objman.stats.faults,
                 home_instrs=home.machine.instr_count,
                 worker_instrs=worker.machine.instr_count,
                 bytes=eng.cluster.network.total_bytes())
    clocks = (home.machine.clock, worker.machine.clock, eng.timeline)
    return facts, clocks, calls, fetched_by


@pytest.fixture(scope="module")
def qs_runs():
    return {name: _qs_offloaded(*LOOPS[name]) for name in LOOPS}


def test_by_value_sentinel_faults_once_per_frame(qs_runs):
    """The array reaches ``sort`` frames by value, thousands of element
    accesses follow, and ``resolve`` runs once per frame that received
    the sentinel — here once per restored frame: each hands its own
    sentinel to one callee, whose first access converges the callee's
    parameter and the restored frame's slot.  Which loop ran the
    segment changes nothing modeled: results, fetches, instruction
    counts, bytes and clocks equal."""
    oracle = Machine(serve_compiled("QS"), dispatch="legacy")
    want = oracle.call("QS", "main", [QS_N])
    facts, clocks, calls, _fb = qs_runs["tier2"]
    assert facts["result"] == want
    assert facts["faults"] == 1  # one object, fetched once
    assert len(calls) == NFRAMES
    frames = [frame for _key, frame in calls]
    assert len({id(f) for f in frames}) == len(frames)  # never twice in one
    for loop in "legacy", "tier1":
        other, other_clocks, _c, _fb = qs_runs[loop]
        assert other == facts, loop
        assert other_clocks == clocks, loop


def test_fetched_by_holds_each_key_once(qs_runs):
    """A cache hit joins the thread's epoch without growing its list:
    ``fetched_by`` is bounded by distinct objects, in first-fetch
    order."""
    facts, _clocks, _calls, fetched_by = qs_runs["tier2"]
    assert len(facts["calls"]) > len(set(facts["calls"]))  # a hit happened
    assert fetched_by == list(dict.fromkeys(facts["calls"]))


# -- (b) serving level ----------------------------------------------------------


def test_offload_serving_resolves_per_fault_not_per_access(monkeypatch):
    """A 20-request burst through one front door (every segment is
    frozen by quantum preemption, mostly at a call line): resolve calls
    stay within a small multiple of real faults."""
    calls = _counting_fetch(monkeypatch)
    sched, load = build_serving(mix="offload", n_nodes=4, n_requests=20,
                                placement="front-door", max_seg_hops=2)
    rep = sched.serve(load)
    assert rep.served == rep.correct == 20 and rep.stats["sod_offloads"]
    faults = sum(h.objman.stats.faults for h in sched.engine.hosts.values()
                 if h.objman is not None)
    assert faults and len(calls) <= 4 * faults + 20


# -- (c) the sweep is identity-scoped -------------------------------------------

SWEEP_SRC = """
class D { int v; }
class P {
  static int pick(D a, D b, D c, D a2) {
    int x = a.v;
    Sys.probe();
    return x + a2.v;
  }
  static int second(int k, int[] xs) { return Sys.lenOfSecond(k, xs); }
  static int viaCall(int[] xs) { return P.second(3, xs); }
}
"""


@pytest.fixture(scope="module")
def sweep_classes():
    return preprocess_program(compile_source(SWEEP_SRC), "faulting")


def test_sweep_patches_only_the_faulted_identity(sweep_classes, monkeypatch):
    """A frame holding two sentinels of the faulted object, one of
    another object and one of the same oid at another home: the fault
    on the first converges both of its copies and nothing else."""
    calls = _counting_fetch(monkeypatch)
    eng = SODEngine(gige_cluster(3), sweep_classes)
    home = eng.host("node0")
    D = home.machine.loader.load("D")
    d, e = home.machine.heap.new_instance(D), home.machine.heap.new_instance(D)
    d.fields["v"], e.fields["v"] = 5, 7
    t = eng.spawn(home, "P", "pick", [d, e, e, d])
    run_to_msp(home.machine, t)
    worker, wt, _rec = eng.migrate(home, t, "node1", 1)
    frame = wt.frames[-1]
    frame.locals[2] = RemoteRef(d.oid, "node2", (LOC_LOCAL, frame, 2))
    seen = []
    worker.machine.natives.register(
        "Sys.probe", lambda m, args: seen.append(
            list(m.current_thread.frames[-1].locals[:4])))
    eng.run(worker, wt)
    assert wt.result == 10 and len(calls) == 1
    [(a, b, c, a2)] = seen
    assert isinstance(a, VMInstance) and a2 is a
    assert (b.home_oid, b.home_node) == (e.oid, "node0")
    assert (c.home_oid, c.home_node) == (d.oid, "node2")


def test_native_fault_on_a_later_argument_makes_progress(sweep_classes):
    """The handler of a native site hard-codes the *first* argument's
    temp.  When the faulting value is a later argument that arrived by
    value, neither that temp nor the origin (the caller's slot) is what
    the re-executed group loads: only the frame sweep ends the loop."""
    eng = SODEngine(gige_cluster(2), sweep_classes)
    home = eng.host("node0")
    xs = home.machine.heap.new_array("int", 6)
    t = eng.spawn(home, "P", "viaCall", [xs])
    run_to_msp(home.machine, t)
    worker, wt, _rec = eng.migrate(home, t, "node1", 1)
    worker.machine.natives.register(
        "Sys.lenOfSecond", lambda m, args: len(_deref(m, args[1]).data))
    eng.run(worker, wt, max_instrs=2000)
    assert wt.finished and wt.result == 6
    assert worker.objman.stats.faults == 1
