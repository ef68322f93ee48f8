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

import os

import pytest

from repro.runtime.crosscheck import (CrosscheckError,
                                      crosscheck_real_vs_virtual,
                                      virtual_request_rows)
from repro.runtime.real import (REAL_QUANTUM, _Worker, available_cores,
                                serve_real)

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

    # steady state: the root loader, the static-defaults namespace the
    # marker codec reads, and the one running request
    bound = n_loaders() + 2
    migrated = 0
    for rid, spec in enumerate(specs):
        w._start_next()
        _rid, thread = w.running
        if rid % 5 == 0 and w.machine.run(thread, quantum=500) != "finished":
            w._handle(("capture", rid))
            assert w.running is None
            (kind, got, image), = replies()
            assert (kind, got) == ("image", rid)
            assert n_loaders() < bound  # the rq namespace is gone
            w._handle(("restore", image))
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


def test_corrupt_frame_to_a_worker_exits_it_quietly():
    """Worker side of the same rule: undecodable control bytes end the
    worker process cleanly (exit code 0, nothing on stderr) — to the
    control plane that is a crash like any other."""
    import multiprocessing
    from repro.runtime.real import _worker_main
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_worker_main,
                       args=(child, "w", "paper", REAL_QUANTUM))
    proc.start()
    child.close()
    assert parent.recv_bytes()  # the worker came up and reported idle
    parent.send_bytes(b"S\x00\x00\x00\x01\xff")
    proc.join(timeout=30.0)
    assert proc.exitcode == 0
    parent.close()


def test_wedged_run_hits_the_deadline_not_a_hang():
    """Kill the only worker after everything it owes is dispatched but
    with completions still outstanding *and no survivor to requeue to*:
    the run must terminate with a loud error, never block on a pipe."""
    with pytest.raises(RuntimeError, match="all workers dead"):
        serve_real(mix="paper", n_requests=4, seed=7, procs=1,
                   fault_plan={"kill_worker": 0, "after_done": 1},
                   deadline_s=DEADLINE)


def test_available_cores_reports_a_positive_count():
    assert available_cores() >= 1
