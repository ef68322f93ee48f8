"""Discrete-event kernel tests."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Resource, Store


def _run(env, gen):
    """Start ``gen``, drain the queue, return the process's value."""
    proc = env.process(gen)
    env.run()
    assert proc.triggered
    return proc.value


def test_timeout_advances_clock():
    env = Environment()
    fired = []

    def proc():
        yield env.timeout(2.5)
        fired.append(env.now)

    _run(env, proc())
    assert fired == [2.5]
    assert env.now == 2.5


def test_timeout_carries_value():
    env = Environment()

    def proc():
        v = yield env.timeout(1.0, value="hello")
        return v

    assert _run(env, proc()) == "hello"


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_same_time_events_fire_in_scheduling_order():
    env = Environment()
    order = []

    def make(name):
        def proc():
            yield env.timeout(1.0)
            order.append(name)
        return proc

    env.process(make("a")())
    env.process(make("b")())
    env.process(make("c")())
    env.run()
    assert order == ["a", "b", "c"]


def test_nested_processes_sequence():
    env = Environment()
    log = []

    def child():
        yield env.timeout(1)
        log.append(("child", env.now))
        return 42

    def parent():
        v = yield env.process(child())
        log.append(("parent", env.now, v))

    _run(env, parent())
    assert log == [("child", 1.0), ("parent", 1.0, 42)]


def test_any_of_returns_first():
    env = Environment()

    def proc():
        winner = yield env.any_of([env.timeout(5, "slow"),
                                   env.timeout(1, "fast")])
        return (env.now, winner)

    now, (idx, val) = _run(env, proc())
    assert now == 1.0
    assert (idx, val) == (1, "fast")


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_callback_on_already_fired_event_runs_now():
    env = Environment()
    ev = env.event()
    ev.succeed("x")
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    assert got == ["x"]


def test_run_until_stops_clock():
    env = Environment()

    def proc():
        yield env.timeout(10)

    env.process(proc())
    env.run(until=4.0)
    assert env.now == 4.0


def test_yielding_non_event_raises():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_resource_serializes_two_holders():
    env = Environment()
    res = Resource(env, capacity=1)
    spans = []

    def worker(name, hold):
        yield res.request()
        start = env.now
        yield env.timeout(hold)
        res.release()
        spans.append((name, start, env.now))

    env.process(worker("a", 2.0))
    env.process(worker("b", 1.0))
    env.run()
    assert spans == [("a", 0.0, 2.0), ("b", 2.0, 3.0)]


def test_resource_capacity_two_runs_parallel():
    env = Environment()
    res = Resource(env, capacity=2)
    done = []

    def worker(name):
        yield res.request()
        yield env.timeout(1.0)
        res.release()
        done.append((name, env.now))

    env.process(worker("a"))
    env.process(worker("b"))
    env.run()
    assert done == [("a", 1.0), ("b", 1.0)]


def test_resource_release_without_request_raises():
    env = Environment()
    res = Resource(env)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_bad_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_schedule_into_past_rejected():
    env = Environment()
    env._schedule(5.0, lambda _: None, None)
    env.run()
    with pytest.raises(SimulationError):
        env._schedule(1.0, lambda _: None, None)


def test_resource_many_waiters_fifo_stress():
    """Thousands of queued requests drain strictly FIFO; the deque-based
    wait queue keeps each wakeup O(1) (a list.pop(0) queue is O(n) per
    release and quadratic overall)."""
    env = Environment()
    res = Resource(env, capacity=1)
    n = 5000
    order = []

    def worker(i):
        yield res.request()
        yield env.timeout(0.001)
        res.release()
        order.append(i)

    for i in range(n):
        env.process(worker(i))
    env.run()
    assert order == list(range(n))
    assert env.now == pytest.approx(n * 0.001)
    assert not res._waiters and res.in_use == 0  # fully drained


# -- Store (FIFO item queue) ---------------------------------------------------

def test_store_put_before_get_preserves_fifo():
    env = Environment()
    store = Store(env)
    for i in range(4):
        store.put(i)
    assert len(store) == 4
    got = []

    def consumer():
        while True:
            item = yield store.get()
            if item is None:
                break
            got.append(item)

    store.put(None)
    env.process(consumer())
    env.run()
    assert got == [0, 1, 2, 3]


def test_store_blocked_getters_wake_fifo():
    env = Environment()
    store = Store(env)
    served = []

    def consumer(name):
        item = yield store.get()
        served.append((name, item, env.now))

    def producer():
        yield env.timeout(1.0)
        store.put("x")
        yield env.timeout(1.0)
        store.put("y")

    env.process(consumer("a"))
    env.process(consumer("b"))
    env.process(producer())
    env.run()
    # oldest getter gets the first item, at the producer's time
    assert served == [("a", "x", 1.0), ("b", "y", 2.0)]


def test_store_remove_steals_only_queued_items():
    env = Environment()
    store = Store(env)
    store.put("keep")
    store.put("steal")
    assert store.remove("steal")
    assert not store.remove("steal")  # already gone
    assert store.get().value == "keep"


# -- scale hardening: trampolined resume + batched puts ----------------------


def test_process_drains_deep_ready_queue_without_recursion():
    """A consumer looping over an already-full store used to recurse
    once per ready item (each yielded event fired synchronously inside
    the previous resume): draining thousands of items must use O(1)
    Python stack — a 64-node scheduler backlog is exactly this shape."""
    env = Environment()
    store = Store(env)
    n = 5000  # comfortably past the default recursion limit
    for i in range(n):
        store.put(i)
    got = []

    def consumer():
        for _ in range(n):
            item = yield store.get()
            got.append(item)

    _run(env, consumer())
    assert got == list(range(n))


def test_store_put_many_wakes_getters_in_order():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(k):
        item = yield store.get()
        got.append((k, item))

    for k in range(3):
        env.process(consumer(k))
    env.run()  # both consumers now blocked
    store.put_many(["a", "b", "c", "d", "e"])
    env.run()
    # oldest getter gets the oldest item; the remainder queues
    assert got == [(0, "a"), (1, "b"), (2, "c")]
    assert list(store.items) == ["d", "e"]
    assert len(store) == 2


def test_store_put_many_into_empty_store_just_queues():
    env = Environment()
    store = Store(env)
    store.put_many([1, 2, 3])
    assert list(store.items) == [1, 2, 3]
