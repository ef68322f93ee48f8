"""The real-parallel backend, held to the virtual-time oracle.

A same-seed **differential** between the multiprocess wall-clock
backend and the virtual-time oracle on the paper mix — results,
correctness flags, and tenant attribution must be equal request by
request (timings and placement excluded — those are the quantities the
backends are supposed to disagree on); a worker-process crash must
surface as chaos-style recovery on the survivors, never as a hang or a
wrong answer; and a worker must not accumulate per-request state.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import weakref

import pytest
from test_jit import generations  # noqa: F401  (fixture)

from repro.runtime.crosscheck import (CrosscheckError,
                                      crosscheck_real_vs_virtual,
                                      virtual_request_rows)
from repro.runtime.real import (REAL_QUANTUM, _prefork, _Worker,
                                available_cores, serve_real)

#: small enough to stay civil on a 1-core CI box, large enough to mix
#: programs and (with 2 procs) exercise the control plane
N_SMALL = 6

#: wall-clock ceiling for every real-backend run in this suite: these
#: runs take ~1 s; a hang must fail loudly long before CI's timeout
DEADLINE = float(os.environ.get("REPRO_REAL_DEADLINE_S", "180"))


# -- front door ----------------------------------------------------------------


def test_real_backend_needs_at_least_one_proc():
    with pytest.raises(ValueError, match="at least one worker"):
        serve_real(mix="paper", n_requests=2, seed=7, procs=0)


# -- the differential ----------------------------------------------------------


def _real(n=N_SMALL, seed=7, procs=2, **kw):
    kw.setdefault("deadline_s", DEADLINE)
    return serve_real(mix="paper", n_requests=n, seed=seed, procs=procs,
                      **kw)


def test_real_backend_serves_the_paper_mix_correctly():
    rep = _real()
    assert rep["backend"] == "real" and rep["procs"] == 2
    assert rep["served"] == rep["correct"] == N_SMALL
    assert rep["failed"] == rep["unserved"] == 0
    # every request rode a real process: worker attribution is total
    assert {r["worker"] for r in rep["requests"]} <= {"proc0", "proc1"}
    assert rep["wall"]["seconds"] > 0.0


def test_same_seed_virtual_and_real_agree_request_by_request():
    rep = _real()
    summary = crosscheck_real_vs_virtual(rep)
    assert summary["ok"] and summary["compared"] == N_SMALL


def test_crosscheck_catches_a_wrong_result():
    rep = _real()
    rep["requests"][2]["result"] = "corrupted"
    rep["requests"][2]["correct"] = False
    with pytest.raises(CrosscheckError, match="req 2"):
        crosscheck_real_vs_virtual(rep)


def test_crosscheck_catches_a_missing_request():
    rep = _real()
    del rep["requests"][1]
    with pytest.raises(CrosscheckError, match="req 1: missing"):
        crosscheck_real_vs_virtual(rep)


def test_differential_with_tenants_preserves_attribution():
    from repro.serve import parse_tenants
    tenants = parse_tenants("gold:w=3,free:w=1")
    rep = _real(n=N_SMALL, tenants=tenants, arrival_rate=50.0)
    assert rep.get("tenants"), "per-tenant counters missing"
    # the report carries the described run (tenants rows, arrival
    # rate), so the oracle needs nothing handed to it a second time
    assert rep["config"]["tenants"] == tenants.to_dict()
    summary = crosscheck_real_vs_virtual(rep)
    assert summary["ok"]


def test_virtual_rows_align_with_real_rids():
    """The alignment invariant the cross-checker rests on: row *i* of
    the virtual run is the same (program, args) as real rid *i*."""
    rows = virtual_request_rows(mix="paper", n_requests=N_SMALL, seed=7)
    rep = _real()
    assert len(rows) == N_SMALL
    for i, v in enumerate(rows):
        r = rep["requests"][i]
        assert (r["rid"], r["program"], tuple(r["args"])) == \
            (i, v["program"], tuple(v["args"]))


def test_migration_ships_real_bytes_and_stays_correct():
    """A small quantum forces mid-request control traffic: stolen work
    crosses the pipe as an eager SOD image with verified class tokens,
    and every result still matches the oracle."""
    rep = _real(n=4, seed=7, quantum=2000)
    s = rep["sched"]
    crosscheck_real_vs_virtual(rep)
    if s["migrations"]:  # timing-dependent on a loaded box
        assert s["image_bytes"] > 0 and s["token_bytes"] > 0


def test_worker_namespaces_stay_bounded_across_requests():
    """Every request runs in a namespace minted for it (``rq<rid>@`` at
    start, ``mig<rid>@`` after a restore); the worker must drop it when
    the request finishes or is captured away, or linked classes,
    decoded streams and tier-2 closures pile up for the life of the
    process.  One in-process worker serves 60 requests — every fifth
    one captured mid-run and restored from its own image — and its
    loader count never grows, while every result matches the oracle."""
    from multiprocessing import Pipe

    from repro.runtime import wire
    from repro.serve.loadgen import LoadGenerator
    from repro.workloads.mixes import MIXES, expected_request_result

    specs = [spec for _when, _tenant, spec in
             LoadGenerator(MIXES["paper"], 60, seed=7).schedule()]
    parent, child = Pipe()
    w = _Worker(child, "proc0", "paper", REAL_QUANTUM)
    w._handle(("run", [(rid, s.program, list(s.args))
                       for rid, s in enumerate(specs)]))

    def replies():
        while parent.poll(0):
            yield wire.decode(parent.recv_bytes())

    def n_loaders():
        return len(w.machine.loaders())

    # steady state: the root loader and the one running request
    bound = n_loaders() + 1
    migrated = 0
    for rid, spec in enumerate(specs):
        w._start_next()
        _rid, thread = w.running
        if rid % 5 == 0 and w.machine.run(thread, quantum=500) != "finished":
            w._handle(("capture", rid))
            assert w.running is None
            (kind, got, image, instrs), = replies()
            assert (kind, got) == ("image", rid)
            assert n_loaders() < bound  # the rq namespace is gone
            w._handle(("restore", image, instrs))
            _rid, thread = w.running
            migrated += 1
        while w.machine.run(thread, quantum=REAL_QUANTUM) != "finished":
            pass
        assert n_loaders() <= bound
        w._finish(rid, thread)
        (kind, got, result, _instrs), = replies()
        assert (kind, got) == ("done", rid)
        assert result == expected_request_result(spec)
        assert n_loaders() < bound
    assert migrated >= 6
    parent.close()
    child.close()


def test_migrated_request_reports_every_instruction_it_executed():
    """A request captured mid-run and finished from its own image
    reports the victim's share and the thief's: its ``done`` count
    equals a solo ``Machine`` run's, whichever worker finished it."""
    from multiprocessing import Pipe

    from repro.runtime import wire
    from repro.vm.machine import Machine
    from repro.workloads.mixes import (MIXES, RequestSpec,
                                       expected_request_result,
                                       serve_classpath)

    spec = RequestSpec("TSP", (6,))  # the paper mix's heaviest: statics
    solo = Machine(serve_classpath(MIXES["paper"].programs()))
    t = solo.spawn(*spec.main, list(spec.args), namespace="solo")
    solo.run(t)
    parent, child = Pipe()
    w = _Worker(child, "proc0", "paper", REAL_QUANTUM)
    w._handle(("run", [(0, spec.program, list(spec.args))]))
    w._start_next()
    _rid, thread = w.running
    for quantum in (3000, 5000):  # two hops: victim, thief, thief again
        assert w.machine.run(thread, quantum=quantum) == "preempted"
        w._handle(("capture", 0))
        kind, rid, image, instrs = wire.decode(parent.recv_bytes())
        assert (kind, rid) == ("image", 0) and instrs >= quantum
        w._handle(("restore", image, instrs))
        _rid, thread = w.running
    while w.machine.run(thread, quantum=REAL_QUANTUM) != "finished":
        pass
    w._finish(0, thread)
    kind, rid, result, instrs = wire.decode(parent.recv_bytes())
    assert (kind, rid, result) == ("done", 0, expected_request_result(spec))
    assert instrs == solo.instr_count
    parent.close()
    child.close()


# -- pre-fork state: code is built once and inherited, cells never -------------


@pytest.fixture
def cold_prefork():
    """The pre-fork step as a cold process meets it: no memo entry, no
    decoded stream or template on any serve program, no factory entry
    (other tests fill and drop each of these independently)."""
    from repro.vm import jit
    from repro.workloads.mixes import SERVE_PROGRAMS, serve_classpath

    _prefork.cache_clear()
    for cf in serve_classpath(SERVE_PROGRAMS).values():
        for code in cf.methods.values():
            code.invalidate_decoded()
    jit._factory.cache_clear()
    yield
    _prefork.cache_clear()


def _serve_every_spec(classes, mix):
    """Each spec of ``mix`` the way a worker serves it: a fresh
    namespace of one machine, dropped afterwards."""
    from repro.vm.machine import Machine
    from repro.workloads.mixes import MIXES, expected_request_result

    m = Machine(classes)
    for spec, _w in MIXES[mix].choices:
        t = m.spawn(*spec.main, list(spec.args), namespace="rq")
        m.run(t)
        assert t.result == expected_request_result(spec)
        m.drop_namespace("rq")
    return m


@pytest.mark.parametrize("mix", ["paper", "scale"])
def test_after_the_prefork_step_a_fresh_machine_only_links(
        mix, cold_prefork, generations):
    """Everything that is a function of the classpath exists once the
    pre-fork step returns: a *fresh* machine serving every spec in
    fresh namespaces runs the generator zero times and never reaches
    CPython's ``compile()`` — it links."""
    from repro.vm import jit

    classes, _tokens = _prefork(mix)
    assert generations, "the step itself generates (cold templates)"
    del generations[:]
    misses = jit._factory.cache_info().misses
    m = _serve_every_spec(classes, mix)
    assert m.jit_compiles > 0 and m.jit_compile_errors == 0
    assert generations == []
    assert jit._factory.cache_info().misses == misses


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="inheritance is what fork gives; spawn recomputes (below)")
def test_forked_workers_generate_nothing(cold_prefork, monkeypatch,
                                         tmp_path):
    """End to end through the fork: the generator is patched in the
    parent *after* the pre-fork step to log every run to a file, the
    children inherit the patch, and the file stays empty — every
    worker of the run only linked.  (``steal=False``: a restored image
    resumes mid-method in a namespace no fresh request resembles, and
    may ask for a link shape of its own — lazily, as before.)"""
    from repro.vm import jit

    _prefork("paper")
    log = tmp_path / "generated.txt"
    generate = jit._Compiler.compile

    def logging(self):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {self.code.qualname}\n")
        return generate(self)

    monkeypatch.setattr(jit._Compiler, "compile", logging)
    rep = _real(n=12, procs=2, steal=False)
    assert rep["served"] == rep["correct"] == 12
    assert {r["worker"] for r in rep["requests"]} == {"proc0", "proc1"}
    assert not log.exists() or log.read_text() == ""
    crosscheck_real_vs_virtual(rep)


def test_second_call_does_no_warm_up_and_nothing_of_the_vm_survives(
        cold_prefork, monkeypatch):
    """The throwaway machine is built once per mix per process, and it
    is thrown away: after the first call nothing keeps it, its heap,
    its namespaces or its threads alive — the memo holds class files
    and tokens.  A second call builds no machine at all
    in the control plane."""
    from repro.vm.frames import ThreadState
    from repro.vm.machine import Machine

    built, refs, tags = [], [], set()
    init, spawn = Machine.__init__, Machine.spawn

    def tracking_init(self, *a, **kw):
        init(self, *a, **kw)
        built.append(kw.get("dispatch", "fast"))
        refs.extend((weakref.ref(self), weakref.ref(self.heap)))

    def tracking_spawn(self, *a, **kw):
        tags.add(kw["namespace"])
        refs.append(weakref.ref(self.namespace(kw["namespace"])))
        return spawn(self, *a, **kw)

    monkeypatch.setattr(Machine, "__init__", tracking_init)
    monkeypatch.setattr(Machine, "spawn", tracking_spawn)
    first = _real()
    assert built.count("fast") == 1  # (legacy ones: the result oracle)
    assert _prefork.cache_info().misses == 1
    classes, tokens = _prefork("paper")
    assert set(tokens) == set(classes)
    assert all(isinstance(t, bytes) for t in tokens.values())
    gc.collect()
    assert len(refs) > 4 and all(r() is None for r in refs)
    assert not [t for t in gc.get_objects()  # (slotted: no weakrefs)
                if isinstance(t, ThreadState) and t.namespace in tags]
    n = len(built)
    second = _real()
    assert len(built) == n and _prefork.cache_info().misses == 1
    assert [(r["rid"], r["result"]) for r in first["requests"]] == [
        (r["rid"], r["result"]) for r in second["requests"]]


def test_prefork_step_does_not_perturb_the_virtual_oracle(cold_prefork):
    """The step raises ``CodeObject.hotness`` on class files the
    virtual backend shares (``serve_compiled`` is cached per process);
    ``ClusterScheduler.__init__`` resets it, so a recorded chaos run
    replays byte-identically across a real run, and the real run still
    agrees with the oracle."""
    from repro.chaos import replay_trace, run_recorded, traces_equal

    t1, rep1 = run_recorded({"mix": "paper", "n_requests": 12,
                             "chaos_seed": 42, "placement": "front-door"})
    rep = _real()
    t2, rep2 = replay_trace(t1)
    assert traces_equal(t1, t2)
    assert rep1.served == rep2.served
    assert crosscheck_real_vs_virtual(rep)["ok"]


def _tokens_of_a_cold_process(conn_):
    assert _prefork.cache_info().currsize == 0
    conn_.send(_prefork("paper")[1])
    conn_.close()


def test_spawned_worker_computes_the_same_prefork_state():
    """The ``spawn`` fallback has no inheritance: the worker's own call
    of the same function, on an empty memo, must arrive at the parent's
    tokens (or every image it sends would be refused)."""
    ctx = multiprocessing.get_context("spawn")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_tokens_of_a_cold_process, args=(child,))
    proc.start()
    child.close()
    assert parent.poll(DEADLINE), "spawned worker never answered"
    tokens = parent.recv()
    proc.join(timeout=30.0)
    assert proc.exitcode == 0
    _classes, mine = _prefork("paper")
    assert tokens == mine and len(tokens) > 4
    parent.close()


# -- crash recovery ------------------------------------------------------------


def test_worker_crash_recovers_like_chaos_crash_node():
    """SIGKILL a worker mid-run: the control plane must requeue its
    outstanding requests onto survivors (counted as crashes/retries,
    the chaos ``crash_node`` vocabulary) and the run must still produce
    oracle-correct results for *every* request — no hang, no loss."""
    rep = _real(n=8, procs=2,
                fault_plan={"kill_worker": 0, "after_done": 2})
    s = rep["sched"]
    assert s["crashes"] == 1
    assert s["retries"] >= 1
    assert rep["served"] == rep["correct"] == 8
    crosscheck_real_vs_virtual(rep)
    # the survivor finished the dead worker's share
    survivors = {r["worker"] for r in rep["requests"]}
    assert "proc1" in survivors


def test_corrupt_frame_from_a_worker_is_that_workers_crash(monkeypatch):
    """A frame the wire decoder refuses means the pipe's stream can no
    longer be trusted: the control plane kills that worker and the
    ordinary crash path requeues what it owed — no raw traceback, no
    lost request."""
    from repro.runtime import real, wire
    parent_pid = os.getpid()
    recv = real._recv
    fired = []

    def flaky_recv(conn_):
        msg = recv(conn_)
        # (forked workers inherit this patch; only the parent trips it)
        if os.getpid() == parent_pid and not fired and msg[0] == "done":
            fired.append(msg)
            raise wire.WireError("bad UTF-8 in string")
        return msg

    monkeypatch.setattr(real, "_recv", flaky_recv)
    rep = _real(n=8, procs=2)
    assert fired and rep["sched"]["crashes"] == 1
    assert rep["served"] == rep["correct"] == 8
    crosscheck_real_vs_virtual(rep)


def test_corrupt_frame_to_a_worker_exits_it_quietly(capfd):
    """Worker side of the same rule: undecodable control bytes, or a
    well-formed image whose class tokens the worker refuses, end the
    worker process cleanly (exit code 0, nothing on stderr) — to the
    control plane that is a crash like any other."""
    import multiprocessing
    from repro.runtime import wire
    from repro.runtime.real import _worker_main
    refused = wire.encode(("restore", wire.encode(
        {"rid": 0, "classes": [("TSP", b"\0" * wire.CLASS_TOKEN_LEN)]}), 0))
    ctx = multiprocessing.get_context("fork")
    for frame in (b"S\x00\x00\x00\x01\xff", refused):
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=_worker_main,
                           args=(child, "w", "paper", REAL_QUANTUM))
        proc.start()
        child.close()
        assert parent.recv_bytes()  # the worker came up and reported idle
        parent.send_bytes(frame)
        proc.join(timeout=30.0)
        assert proc.exitcode == 0
        parent.close()
    assert capfd.readouterr().err == ""


def test_wedged_run_hits_the_deadline_not_a_hang():
    """Kill the only worker after everything it owes is dispatched but
    with completions still outstanding *and no survivor to requeue to*:
    the run must terminate with a loud error, never block on a pipe."""
    with pytest.raises(RuntimeError, match="all workers dead"):
        serve_real(mix="paper", n_requests=4, seed=7, procs=1,
                   fault_plan={"kill_worker": 0, "after_done": 1},
                   deadline_s=DEADLINE)


@pytest.mark.parametrize("kw,error", [
    ({"procs": 1, "fault_plan": {"kill_worker": 0, "after_done": 1}},
     "all workers dead"),
    ({"procs": 2, "deadline_s": 0.0}, "deadline"),
], ids=["all-dead", "deadline"])
def test_a_failed_run_leaves_no_worker_process(kw, error):
    """The error exits share the normal one's shutdown: every worker
    process is stopped and joined before the error leaves."""
    with pytest.raises(RuntimeError, match=error):
        serve_real(mix="paper", n_requests=4, seed=7,
                   **{"deadline_s": DEADLINE, **kw})
    assert multiprocessing.active_children() == []


def test_available_cores_reports_a_positive_count():
    assert available_cores() >= 1
