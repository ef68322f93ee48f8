"""Structured event tracing for the SOD runtime.

Attach a :class:`Tracer` to a :class:`~repro.migration.sodee.SODEngine`
to record every migration, object fault and write-back with
simulated timestamps — the observability layer a production middleware
would ship with, and what the examples use to print timelines.

Events are plain records; :func:`format_timeline` renders them as an
aligned textual trace::

    t=  0.000 ms  migrate       node0 -> node1  frames=1 state=187B
    t=  9.601 ms  fault         node1 <- node0  oid=3 bytes=24
    t= 11.205 ms  writeback     node1 -> node0  bytes=88
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.migration.sodee import SODEngine


@dataclass(frozen=True)
class TraceEvent:
    """One runtime event on the engine timeline."""

    at: float          # engine timeline, seconds
    kind: str          # migrate / fault / writeback
    src: str
    dst: str
    detail: Dict[str, Any]


class Tracer:
    """Records the events an engine emits.  The engine reports from the
    points every caller converges on (the one shipment commit, the one
    write-back, the fetch service), so ``migrate``, ``migrate_many``,
    chain re-hops, residual pushes, faults and revalidations are all
    seen — by whatever route they were reached.  Attach with
    :meth:`attach`; :meth:`detach` turns tracing back off.
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self._engine: Optional[SODEngine] = None

    def attach(self, engine: SODEngine) -> "Tracer":
        """Start receiving ``engine``'s events."""
        if self._engine is not None:
            raise ValueError("tracer already attached")
        self._engine = engine
        engine.tracer = self
        return self

    def detach(self) -> None:
        """Stop receiving events (idempotent)."""
        if self._engine is not None:
            self._engine.tracer = None
            self._engine = None

    def emit(self, now: float, kind: str, fields: Dict[str, Any]) -> None:
        """The engine's (and scheduler's) duck-typed tracer protocol."""
        detail = dict(fields)
        self.events.append(TraceEvent(now, kind, detail.pop("src", ""),
                                      detail.pop("dst", ""), detail))

    # -- queries ----------------------------------------------------------------

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """All events of one kind, in order."""
        return [e for e in self.events if e.kind == kind]

    def counts(self) -> Dict[str, int]:
        """Event-kind histogram."""
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out


def format_timeline(tracer: Tracer) -> str:
    """Render a tracer's events as an aligned textual timeline."""
    lines = []
    for e in tracer.events:
        detail = " ".join(f"{k}={_fmt(v)}" for k, v in e.detail.items())
        lines.append(f"t={e.at * 1e3:10.3f} ms  {e.kind:<10s} "
                     f"{e.src} -> {e.dst}  {detail}")
    return "\n".join(lines)


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.3f}"
    return str(v)
