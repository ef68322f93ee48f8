"""One event sink for the SOD runtime and the serving scheduler.

The :class:`~repro.migration.sodee.SODEngine` (every migration, object
fault and write-back, on the engine timeline) and the
:class:`~repro.serve.scheduler.ClusterScheduler` (arrivals, placement,
offloads, faults, recoveries, completions, in virtual time) report
through one duck-typed call, ``tracer.emit(now, kind, fields)``.  A
:class:`Tracer` attached to either keeps each event as the dict a
recorded trace holds, ``{"t": now, "kind": kind, **fields}`` —
:mod:`repro.chaos.trace` writes them verbatim — and
:func:`format_timeline` renders them as an aligned textual trace::

    t=  0.000 ms  migrate       node0 -> node1  frames=1 state=187B
    t=  9.601 ms  fault         node1 <- node0  oid=3 bytes=24
    t= 11.205 ms  writeback     node1 -> node0  bytes=88
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List

#: event keys the timeline prints in its fixed columns
_COLUMNS = ("t", "kind", "src", "dst")


class Tracer:
    """Records the events an engine or a scheduler emits.  The engine
    reports from the points every caller converges on (the one shipment
    commit, the one write-back, the fetch service), so ``migrate``,
    ``migrate_many``, chain re-hops, residual pushes, faults and
    revalidations are all seen — by whatever route they were reached.
    Attach with :meth:`attach`; :meth:`detach` turns tracing back off.
    """

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        self._target: Any = None

    def attach(self, target: Any) -> "Tracer":
        """Start receiving ``target``'s events (an engine or a
        scheduler: anything with a ``tracer`` slot)."""
        if self._target is not None:
            raise ValueError("tracer already attached")
        self._target = target
        target.tracer = self
        return self

    def detach(self) -> None:
        """Stop receiving events (idempotent)."""
        if self._target is not None:
            self._target.tracer = None
            self._target = None

    def emit(self, now: float, kind: str, fields: Dict[str, Any]) -> None:
        """The engine's and the scheduler's duck-typed tracer protocol."""
        self.events.append({"t": now, "kind": kind, **fields})

    # -- queries ----------------------------------------------------------------

    def of_kind(self, kind: str) -> List[Dict[str, Any]]:
        """All events of one kind, in order."""
        return [e for e in self.events if e["kind"] == kind]

    def counts(self) -> Dict[str, int]:
        """Event-kind histogram."""
        return dict(Counter(e["kind"] for e in self.events))


def format_timeline(tracer: Tracer) -> str:
    """Render a tracer's events as an aligned textual timeline."""
    lines = []
    for e in tracer.events:
        detail = " ".join(f"{k}={_fmt(v)}" for k, v in e.items()
                          if k not in _COLUMNS)
        lines.append(f"t={e['t'] * 1e3:10.3f} ms  {e['kind']:<10s} "
                     f"{e.get('src', '')} -> {e.get('dst', '')}  {detail}")
    return "\n".join(lines)


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.3f}"
    return str(v)
