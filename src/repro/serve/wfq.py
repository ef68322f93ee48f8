"""Weighted fair queueing across tenants (stride scheduling).

A node's run queue used to be one FIFO :class:`repro.sim.kernel.Store`:
whoever enqueued the most work got the most quanta, so one abusive
tenant flooding the front door could starve everyone else's latency on
every node it touched.  :class:`FairStore` keeps the Store interface
(``get``/``put``/``put_many``/``remove``/``items``/``len``) but
maintains one FIFO *per tenant* and dequeues by **virtual finish
time** — classic stride scheduling over :class:`~repro.serve.tenants.
Tenant.weight`:

* each tenant carries a ``pass`` value; dequeuing one of its requests
  advances the pass by ``1 / weight`` (its *stride*), so a tenant with
  twice the weight is selected twice as often when both have backlog;
* selection is the backlogged tenant with the smallest ``(pass,
  name)`` — the name tie-break keeps runs bit-deterministic;
* a tenant that goes idle forfeits banked credit: on re-activation its
  pass is clamped up to the queue's virtual time, the standard fix
  that stops a sleeping tenant from hoarding an unbounded burst
  entitlement.

One dequeue corresponds to one scheduler quantum (an unfinished
request re-enqueues after its quantum), so per-dequeue charging *is*
per-quantum CPU charging to within a partial final quantum.  Migrated
segments carry their parent's tenant, so offloading a tenant's work to
another node never launders it into a different tenant's share there.

Requests without a tenant (and control sentinels like the scheduler's
``_STOP``) ride a default bucket with ``default_weight``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, Iterator, Optional

#: bucket key for items that carry no tenant (root traffic, sentinels)
_ROOT = ""

#: "no item" marker distinct from any queued item
_EMPTY = object()


class FairStore:
    """A per-tenant weighted fair run queue (Store-compatible)."""

    __slots__ = ("env", "name", "weights", "default_weight", "_queues",
                 "_pass", "_vt", "_getters", "_size")

    def __init__(self, env, name: str = "",
                 weights: Optional[Dict[str, float]] = None,
                 default_weight: float = 1.0):
        self.env = env
        self.name = name
        self.weights = dict(weights or {})
        self.default_weight = default_weight
        #: per-tenant FIFO of queued items
        self._queues: Dict[str, deque] = {}
        #: per-tenant virtual pass (advances by stride per dequeue)
        self._pass: Dict[str, float] = {}
        #: queue virtual time: the pass of the last-scheduled tenant
        self._vt = 0.0
        self._getters: deque = deque()
        self._size = 0

    # -- bucket plumbing ----------------------------------------------------

    @staticmethod
    def _key(item: Any) -> str:
        return getattr(item, "tenant", None) or _ROOT

    def _stride(self, key: str) -> float:
        return 1.0 / self.weights.get(key, self.default_weight)

    def _charge(self, key: str, clamp: bool) -> None:
        """Advance ``key``'s pass by one stride.  ``clamp`` lifts a
        stale pass up to the current virtual time first — used when the
        item never queued (direct handoff to a blocked getter: the
        queue was empty, so there is no backlog entitlement to keep)."""
        p = self._pass.get(key, self._vt)
        if clamp and p < self._vt:
            p = self._vt
        self._vt = p
        self._pass[key] = p + self._stride(key)

    # -- Store interface ----------------------------------------------------

    @property
    def items(self) -> Iterator[Any]:
        """Queued items in scheduling order: tenants by ``(pass,
        name)``, FIFO within each tenant.  A lazy iterator — the
        bounded victim scan must not pay O(queue) to look at its
        window.  Do not mutate the store while iterating."""
        for key in sorted(self._queues,
                          key=lambda k: (self._pass.get(k, 0.0), k)):
            yield from self._queues[key]

    def put(self, item: Any) -> None:
        """Enqueue ``item`` under its tenant's bucket (wakes the oldest
        blocked getter directly when one is waiting)."""
        if self._getters:
            # Getters only wait while the store is empty, so fairness
            # is vacuous here; charge the stride and hand it over.
            self._charge(self._key(item), clamp=True)
            self._getters.popleft().succeed(item)
            return
        key = self._key(item)
        q = self._queues.get(key)
        if q is None:
            q = self._queues[key] = deque()
        if not q:
            # (Re)activation: forfeit credit accumulated while idle.
            p = self._pass.get(key, 0.0)
            if p < self._vt:
                self._pass[key] = self._vt
            elif key not in self._pass:
                self._pass[key] = self._vt
        q.append(item)
        self._size += 1

    def put_many(self, items: Iterable[Any]) -> None:
        for item in items:
            self.put(item)

    def get(self):
        """An event firing with the next item by weighted fair order
        (immediately if anything is queued)."""
        ev = self.env.event(name=f"{self.name or 'fairstore'}.get")
        item = self._pop()
        if item is not _EMPTY:
            ev.succeed(item)
        else:
            self._getters.append(ev)
        return ev

    def _pop(self) -> Any:
        if not self._size:
            return _EMPTY
        best_key: Optional[str] = None
        best = None
        for key, q in self._queues.items():
            if not q:
                continue
            k = (self._pass.get(key, 0.0), key)
            if best is None or k < best:
                best, best_key = k, key
        q = self._queues[best_key]
        item = q.popleft()
        self._size -= 1
        self._charge(best_key, clamp=False)
        return item

    def remove(self, item: Any) -> bool:
        """Remove a specific queued item (handoff/victim stealing /
        crash drain).  Returns False if it is no longer queued."""
        q = self._queues.get(self._key(item))
        if q is None:
            return False
        try:
            q.remove(item)
        except ValueError:
            return False
        self._size -= 1
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        depths = {k: len(q) for k, q in self._queues.items() if q}
        return f"<FairStore {self.name!r} {depths}>"
