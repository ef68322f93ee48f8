"""The real backend's control plane, driven without a fork.

:class:`repro.runtime.real.ControlPlane` holds every scheduling rule of
the real backend and does no I/O, so each protocol state a worker can
die in is a scripted message sequence here: no process, no pipe, no
sleep, no timing.  Every run ends with the plane's contract checked
whole — each rid has exactly one terminal row, and its result is the
solo oracle's (``expected_request_result``).  The forked tests in
``test_runtime_backends.py`` stay the integration check.
"""

from __future__ import annotations

import pytest

from repro.runtime import wire
from repro.runtime.crosscheck import crosscheck_real_vs_virtual
from repro.runtime.real import ControlPlane
from repro.serve.loadgen import LoadGenerator
from repro.workloads.mixes import MIXES, expected_request_result

TOKEN = b"\x07" * wire.CLASS_TOKEN_LEN


class Cluster:
    """Scripted workers: the plane's actions land in per-worker queues
    (head = running), and a test speaks for a worker on demand."""

    def __init__(self, n_requests: int, procs: int, **kw):
        schedule = LoadGenerator(MIXES["paper"], n_requests,
                                 seed=7).schedule()
        self.plane = ControlPlane(schedule, procs, **kw)
        self.queue = {i: [] for i in range(procs)}
        self.killed = []
        self.sent = []  # every ("send", i, msg) action, in order
        self.apply(self.plane.start())

    def apply(self, actions):
        for act in actions:
            if act[0] == "kill":
                self.killed.append(act[1])
                continue
            self.sent.append(act)
            _send, i, msg = act
            if msg[0] == "run":
                self.queue[i] += [rid for rid, _prog, _args in msg[1]]
            elif msg[0] == "restore":
                self.queue[i].insert(0, wire.decode(msg[1])["rid"])

    def says(self, i, *msg):
        self.apply(self.plane.on_message(i, msg))

    def dies(self, i):
        self.apply(self.plane.on_death(i))

    def done(self, i):
        """Worker ``i`` finishes its running request."""
        rid = self.queue[i].pop(0)
        _tenant, spec = self.plane.spec_of[rid]
        self.says(i, "done", rid, expected_request_result(spec), 1000)
        return rid

    def image(self, i):
        """Worker ``i`` answers a capture with its running request."""
        rid = self.queue[i].pop(0)
        self.says(i, "image", rid, wire.encode(
            {"rid": rid, "classes": [("TSP", TOKEN)]}), 500)
        return rid

    def last(self, i):
        """The latest message sent to worker ``i``."""
        return [msg for _s, j, msg in self.sent if j == i][-1]

    def runs_after(self, n_sent):
        """Rids dispatched in ``run`` messages after the first ``n_sent``."""
        return [rid for _s, _j, msg in self.sent[n_sent:]
                if msg[0] == "run" for rid, _p, _a in msg[1]]

    def drain(self):
        """Surviving workers finish everything they hold; then check
        the plane's contract over every rid."""
        while not self.plane.finished:
            i = next(i for i, q in self.queue.items()
                     if q and i not in self.killed)
            self.done(i)
        rows = self.plane.report_rows()
        assert [r["rid"] for r in rows] == sorted(self.plane.spec_of)
        for r in rows:
            _tenant, spec = self.plane.spec_of[r["rid"]]
            assert r["state"] == "done" and r["correct"]
            assert r["result"] == expected_request_result(spec)
        return {r["rid"]: r for r in rows}


def _capture_outstanding():
    """Worker 1 idles while worker 0 runs rid 2, its last request: the
    plane asks worker 0 for an image of it."""
    c = Cluster(4, 2)  # proc0 owes [0, 2], proc1 [1, 3]
    c.done(0)
    c.done(1)
    c.done(1)
    c.says(1, "idle")
    assert c.last(0) == ("capture", 2)
    return c


def test_initial_placement_is_round_robin_in_schedule_order():
    c = Cluster(5, 2)
    assert c.queue == {0: [0, 2, 4], 1: [1, 3]}
    assert c.killed == [] and not c.plane.finished
    c.drain()


def test_death_while_a_capture_is_outstanding():
    """Mid-image send: the victim dies before its image arrives.  The
    request requeues on the survivor, and the image, should its bytes
    still come out of the dead pipe, is dropped."""
    c = _capture_outstanding()
    c.dies(0)
    assert c.queue[1] == [2]
    c.says(0, "image", 2, wire.encode({"rid": 2, "classes": []}), 500)
    assert c.queue[1] == [2] and c.plane.sched["migrations"] == 0
    rows = c.drain()
    assert rows[2]["worker"] == "proc1" and rows[2]["retries"] == 1
    s = c.plane.sched
    assert (s["crashes"], s["retries"], s["image_bytes"]) == (1, 1, 0)


def test_death_after_giveback_before_gaveback():
    """Mid-giveback: the victim dies after the plane asked for queued
    rows and before they came back.  Everything it owed requeues; the
    late ``gaveback`` is dropped and steals nothing."""
    c = Cluster(4, 2)  # proc0 owes [0, 2], proc1 [1, 3]
    c.done(1)
    c.done(1)
    c.says(1, "idle")
    assert c.last(0) == ("giveback", 1)
    c.dies(0)
    assert c.queue[1] == [0, 2]
    c.says(0, "gaveback", [(2, "TSP", [5])])
    assert c.queue[1] == [0, 2] and c.plane.sched["steals"] == 0
    rows = c.drain()
    assert {rows[0]["retries"], rows[2]["retries"]} == {1}
    assert c.plane.sched["retries"] == 2


def test_death_right_after_a_done_does_not_rerun_that_request():
    """Result before ack: a ``done`` the plane has read is final, so the
    worker's death right after it re-runs only what it still owed."""
    c = Cluster(4, 2)
    mark = len(c.sent)
    assert c.done(0) == 0
    c.dies(0)
    assert c.runs_after(mark) == [2]
    rows = c.drain()
    assert rows[0]["worker"] == "proc0" and rows[0]["retries"] == 0
    assert rows[2]["worker"] == "proc1" and rows[2]["retries"] == 1


def test_death_of_the_thief_after_restore_was_sent():
    """During steal: the image reached the plane and the restore went
    to the thief, which dies.  The request requeues from scratch on the
    victim, and its row is not marked migrated."""
    c = _capture_outstanding()
    assert c.image(0) == 2
    assert c.last(1)[0] == "restore" and c.queue[1] == [2]
    assert c.plane.sched["migrations"] == 1
    c.dies(1)
    assert c.queue[0] == [2]
    rows = c.drain()
    assert rows[2]["worker"] == "proc0"
    assert rows[2]["retries"] == 1 and rows[2]["migrated"] is False


def test_a_migrated_request_is_marked_and_counted():
    c = _capture_outstanding()
    c.image(0)
    rows = c.drain()
    assert rows[2]["worker"] == "proc1" and rows[2]["migrated"] is True
    s = c.plane.sched
    assert s["migrations"] == 1 and s["token_bytes"] == len(TOKEN)


@pytest.mark.parametrize("procs", [1, 2])
def test_the_last_live_worker_dying_raises(procs):
    c = Cluster(4, procs)
    for i in range(procs - 1):
        c.dies(i)
    with pytest.raises(RuntimeError, match="all workers dead"):
        c.dies(procs - 1)


def test_the_last_death_after_every_result_is_not_an_error():
    c = Cluster(2, 1)
    c.done(0)
    c.done(0)
    assert c.plane.finished
    c.dies(0)
    assert c.plane.sched["crashes"] == 1


def test_fault_plan_fires_on_the_message_that_reaches_k():
    """``after_done: 2`` fires on the second finished request, whoever
    finished it, and not a message earlier; the killed worker's
    buffered results are dropped, so they cannot outrun the kill."""
    c = Cluster(6, 2, fault_plan={"kill_worker": 0, "after_done": 2})
    c.done(1)
    assert c.killed == []
    c.done(1)
    assert c.killed == [0]
    assert c.queue[1] == [5, 0, 2, 4]
    buffered = c.queue[0].pop(0)
    _tenant, spec = c.plane.spec_of[buffered]
    c.says(0, "done", buffered, expected_request_result(spec), 1000)
    assert buffered not in c.plane.results
    rows = c.drain()
    assert {r["worker"] for r in rows.values()} == {"proc1"}
    s = c.plane.sched
    assert (s["crashes"], s["retries"]) == (1, 3)


def test_fault_plan_after_zero_fires_at_start():
    c = Cluster(4, 2, fault_plan={"kill_worker": 1, "after_done": 0})
    assert c.killed == [1] and c.queue[0] == [0, 2, 1, 3]
    c.drain()


@pytest.mark.parametrize("msg", [
    ("done", 0, 2297),                     # wrong arity
    ("done", 99, 2297, 1000),              # a rid nobody owes
    ("done", 1, 2297, 1000),               # a rid another worker owes
    ("done", [0], 2297, 1000),             # an unhashable rid
    ("hello",),                            # an unknown kind
    ("gaveback", [(2, "TSP")]),            # a short row
    ("image", 0, b"not wire bytes", 500),  # an image with no manifest
    "done",                                # not a tuple at all
], ids=["arity", "unknown-rid", "foreign-rid", "unhashable-rid", "kind",
        "gaveback-row", "image-manifest", "bare-string"])
def test_a_misshapen_message_is_that_workers_crash(msg):
    """A frame that decodes but has no shape a worker sends is treated
    like a frame that does not decode: the sender is killed and what it
    owed requeues.  No exception leaves the plane."""
    c = Cluster(4, 2)  # proc0 owes [0, 2]
    c.apply(c.plane.on_message(0, msg))
    assert c.killed == [0]
    assert c.queue[1] == [1, 3, 0, 2]
    c.drain()
    s = c.plane.sched
    assert (s["crashes"], s["retries"]) == (1, 2)


def test_a_bounced_image_is_not_a_migration():
    """When the image arrives no thief is idle any more, so it goes back
    to its victim: its bytes crossed two pipes, but nothing moved."""
    c = Cluster(6, 3)  # proc0 [0, 3], proc1 [1, 4], proc2 [2, 5]
    c.done(0)
    c.done(2)
    c.done(2)
    c.says(2, "idle")
    assert c.last(1) == ("giveback", 1)
    c.done(1)
    assert c.last(0) == ("capture", 3)
    c.queue[1].pop()  # proc1 hands rid 4 back; proc2 takes it
    c.says(1, "gaveback", [(4, "NQ", [5])])
    assert c.queue[2] == [4] and c.plane.sched["steals"] == 1
    c.image(0)
    assert c.last(0)[0] == "restore" and c.queue[0] == [3]
    rows = c.drain()
    s = c.plane.sched
    assert s["migrations"] == 0 and s["image_bytes"] > 0
    assert rows[3]["worker"] == "proc0" and rows[3]["migrated"] is False


def test_no_steal_leaves_a_lone_running_request_in_place():
    c = Cluster(4, 2, steal=False)
    c.done(0)
    c.done(1)
    c.done(1)
    n = len(c.sent)
    c.says(1, "idle")
    assert len(c.sent) == n
    c.drain()


def test_crosscheck_reads_a_repr_result_by_the_planes_rule():
    """A result that could not go on the wire as itself arrives as
    ``("@repr", repr(value))``.  The plane marks it correct when the
    repr is the oracle's, and the crosscheck reads it by the same rule
    instead of calling the flag inconsistent."""
    c = Cluster(2, 2)
    for i in (0, 1):
        rid = c.queue[i].pop(0)
        _tenant, spec = c.plane.spec_of[rid]
        c.says(i, "done", rid,
               ("@repr", repr(expected_request_result(spec))), 1000)
    rows = c.plane.report_rows()
    assert c.plane.finished and all(r["correct"] for r in rows)
    report = {"config": {"mix": "paper", "n_requests": 2, "seed": 7},
              "requests": rows}
    assert crosscheck_real_vs_virtual(report)["compared"] == 2
