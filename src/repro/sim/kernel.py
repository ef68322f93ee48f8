"""A compact discrete-event simulation kernel.

The cluster substrate and the multi-hop migration workflows need a
virtual clock with overlapping activities (e.g. Fig. 1c of the paper:
a segment transfers to node 3 *while* node 2 executes the top frame, so
the second hop's freeze time is hidden).  This module provides a minimal,
dependency-free kernel in the style of SimPy:

* :class:`Environment` owns the clock and the event queue.
* A *process* is a Python generator that yields :class:`Event` objects;
  the kernel resumes it when the yielded event fires.
* ``env.timeout(dt)`` produces an event that fires ``dt`` seconds later.

Determinism: events scheduled for the same timestamp fire in scheduling
order (a monotonically increasing sequence number breaks ties), so runs
are bit-reproducible.

The kernel is the serving layer's hot path: at thousands of concurrent
guest threads every quantum costs one ``Store.get`` and one ``timeout``
round-trip, so this module is written for constant factors —
``__slots__`` everywhere, a single-callback fast slot on events (the
overwhelmingly common case), lambda-free timeout scheduling, and a
*trampolined* process resume: a process whose yielded event is already
triggered (a run queue with work waiting) continues in a loop instead
of recursing, so a node draining a thousand-deep queue cannot overflow
the Python stack.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError

ProcessGen = Generator["Event", Any, Any]


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, is *triggered* with an optional value, and
    then fires: every waiting callback/process receives the value.
    """

    __slots__ = ("env", "_cb", "_cbs", "triggered", "value", "name")

    def __init__(self, env: "Environment", name: str = ""):
        self.env = env
        # Nearly every event has exactly one waiter (the process that
        # yielded it): a dedicated slot avoids allocating a list per
        # event; ``_cbs`` overflows only when several wait on one event.
        self._cb: Optional[Callable[["Event"], None]] = None
        self._cbs: Optional[list[Callable[["Event"], None]]] = None
        self.triggered = False
        self.value: Any = None
        self.name = name

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn`` to run when the event fires.  If the event has
        already fired, ``fn`` runs at the current simulated time."""
        if self.triggered:
            fn(self)
        elif self._cb is None:
            self._cb = fn
        elif self._cbs is None:
            self._cbs = [fn]
        else:
            self._cbs.append(fn)

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event *now* with ``value``."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        cb, cbs = self._cb, self._cbs
        self._cb = self._cbs = None
        if cb is not None:
            cb(self)
        if cbs is not None:
            for fn in cbs:
                fn(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.triggered else "pending"
        return f"<Event {self.name or id(self)} {state}>"


class Process(Event):
    """A running generator; also an event that fires when the generator
    returns (with its return value)."""

    __slots__ = ("gen",)

    def __init__(self, env: "Environment", gen: ProcessGen, name: str = ""):
        super().__init__(env, name=name or getattr(gen, "__name__", "process"))
        self.gen = gen
        # Kick off at current time.
        env._schedule(env.now, self._resume, None)

    def _resume(self, fired: Optional[Event]) -> None:
        # Trampoline: while the yielded event has already fired (a run
        # queue with items waiting, a zero-delay handoff), keep feeding
        # the generator here instead of recursing through add_callback —
        # a node draining an arbitrarily deep queue uses O(1) stack and
        # observes exactly the same synchronous ordering.
        send = self.gen.send
        while True:
            try:
                target = send(fired.value if fired is not None else None)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            if not isinstance(target, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded {target!r}, "
                    f"expected an Event")
            if not target.triggered:
                target.add_callback(self._resume)
                return
            fired = target


class Environment:
    """The simulation environment: clock + event queue + runner."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Callable, Any]] = []
        self._seq = 0

    # -- scheduling ------------------------------------------------------

    def _schedule(self, at: float, fn: Callable, arg: Any) -> None:
        if at < self.now - 1e-15:
            raise SimulationError(f"cannot schedule at {at} < now {self.now}")
        self._seq += 1
        heapq.heappush(self._queue, (at, self._seq, fn, arg))

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Event:
        """An event firing ``delay`` seconds from now, carrying ``value``."""
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        ev = Event(self, name=name)
        # The bound succeed is the scheduled callable directly: no
        # closure allocation per timeout (the kernel's hottest path).
        self._schedule(self.now + delay, ev.succeed, value)
        return ev

    def event(self, name: str = "") -> Event:
        """A bare event to be triggered manually via :meth:`Event.succeed`."""
        return Event(self, name=name)

    def process(self, gen: ProcessGen, name: str = "") -> Process:
        """Start ``gen`` as a process at the current time."""
        return Process(self, gen, name=name)

    # -- running ---------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains (or the clock passes ``until``).
        Returns the final simulated time."""
        queue = self._queue
        pop = heapq.heappop
        if until is None:
            while queue:
                at, _seq, fn, arg = pop(queue)
                self.now = at
                fn(arg)
            return self.now
        while queue:
            if queue[0][0] > until:
                self.now = until
                return self.now
            at, _seq, fn, arg = pop(queue)
            self.now = at
            fn(arg)
        return self.now


class Store:
    """An unbounded FIFO item queue connecting producer and consumer
    processes (e.g. a scheduler's per-node run queue).

    ``put(item)`` delivers immediately: if a consumer is blocked in
    ``get()`` the oldest one wakes at the current simulated time,
    otherwise the item queues.  ``get()`` returns an event whose value
    is the item.  Ordering is strictly FIFO on both sides, so runs are
    deterministic.

    ``items`` is deliberately exposed: schedulers inspect queue depth
    for load accounting and may remove queued items (work stealing /
    request handoff) via :meth:`remove`.
    """

    __slots__ = ("env", "name", "items", "_getters")

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        #: queued items, oldest first (only items no consumer has taken)
        self.items: deque = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Enqueue ``item`` (wakes the oldest blocked getter, if any)."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def put_many(self, items: Iterable[Any]) -> None:
        """Enqueue a batch in order: blocked getters are woken one per
        item (oldest getter, oldest item) and the remainder is extended
        onto the queue in a single pass — one batched run-queue wakeup
        instead of k separate ``put`` bookkeeping rounds."""
        getters = self._getters
        it = iter(items)
        for item in it:
            if getters:
                getters.popleft().succeed(item)
            else:
                self.items.append(item)
                self.items.extend(it)
                return

    def get(self) -> Event:
        """An event firing with the next item (immediately if one is
        queued, else when a producer puts one)."""
        ev = self.env.event(name=f"{self.name or 'store'}.get")
        if self.items:
            ev.succeed(self.items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def remove(self, item: Any) -> bool:
        """Remove a specific queued item (for handoff/stealing).
        Returns False if the item is no longer queued."""
        try:
            self.items.remove(item)
            return True
        except ValueError:
            return False


class Resource:
    """A counted resource (e.g. a link slot or a CPU) with FIFO queueing.

    ``request()`` returns an event that fires when a unit is granted;
    ``release()`` hands the unit to the next waiter.
    """

    __slots__ = ("env", "capacity", "in_use", "_waiters")

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        # deque: release() wakes the oldest waiter in O(1); a list's
        # pop(0) is O(n) and melts under thousands of queued requests
        self._waiters: deque[Event] = deque()

    def request(self) -> Event:
        """An event firing when a unit of the resource is acquired."""
        ev = self.env.event(name="resource.request")
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Release one unit; wakes the oldest waiter if any."""
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            if self.in_use <= 0:
                raise SimulationError("release() without matching request()")
            self.in_use -= 1
