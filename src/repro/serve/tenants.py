"""Tenants: the unit of QoS in a multi-tenant serving cluster.

"Millions of users" means *tenants*, not an open firehose of anonymous
requests: traffic arrives on behalf of identified customers with
conflicting demand, and the cluster owes each of them an isolated
share — of CPU (weighted fair scheduling, :mod:`repro.serve.wfq`) and
of admission (per-tenant shedding, :class:`repro.serve.policies.
AdaptiveShed`).

A :class:`Tenant` is pure configuration — everything mutable lives in
the scheduler — so a :class:`TenantSet` can ride a recorded trace and
replay byte-identically.

Semantics of the knobs:

* ``weight`` — the tenant's share of every node's CPU under weighted
  fair queueing, and its fair share of admission capacity.  A tenant
  with weight 2 gets twice the quanta of a tenant with weight 1 when
  both have backlog.
* ``priority`` — the *shedding* tier: 0 is shed last, larger numbers
  shed earlier as overload deepens (the adaptive controller scales its
  admit threshold down per priority rank).  Priority orders who is
  refused at the door; ``weight`` divides the CPU among those admitted.
* ``rate_factor`` — multiplies the load generator's base per-tenant
  arrival rate; the "abusive tenant" scenario is one tenant with
  ``rate_factor=10`` and everyone else at 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import ClusterError


@dataclass(frozen=True)
class Tenant:
    """One tenant's QoS configuration (immutable)."""

    name: str
    weight: float = 1.0
    #: shedding tier: 0 = highest priority (shed last)
    priority: int = 0
    #: arrival-rate multiplier for the load generator
    rate_factor: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ClusterError("tenant needs a non-empty name")
        if self.weight <= 0:
            raise ClusterError(
                f"tenant {self.name!r}: weight must be > 0, "
                f"got {self.weight}")
        if self.priority < 0:
            raise ClusterError(
                f"tenant {self.name!r}: priority must be >= 0, "
                f"got {self.priority}")
        if self.rate_factor <= 0:
            raise ClusterError(
                f"tenant {self.name!r}: rate_factor must be > 0, "
                f"got {self.rate_factor}")

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "weight": self.weight,
                "priority": self.priority, "rate_factor": self.rate_factor}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Tenant":
        unknown = sorted(set(d) - set(cls.__dataclass_fields__))
        if unknown:
            raise ClusterError(
                f"tenant row {d.get('name')!r}: unknown key(s) {unknown}; "
                f"known: {sorted(cls.__dataclass_fields__)}")
        return cls(**d)


class TenantSet:
    """An ordered, name-keyed set of tenants.

    Order is declaration order and is part of the configuration (it
    breaks merge ties in the load generator), so a replayed trace sees
    the exact same schedule.  An *empty* TenantSet is equivalent to no
    tenants at all: the scheduler and load generator treat both as the
    single-tenant legacy mode (byte-identical serving)."""

    def __init__(self, tenants: Optional[List[Tenant]] = None):
        self._tenants: Dict[str, Tenant] = {}
        for t in tenants or []:
            if t.name in self._tenants:
                raise ClusterError(f"duplicate tenant {t.name!r}")
            self._tenants[t.name] = t

    def __iter__(self) -> Iterator[Tenant]:
        return iter(self._tenants.values())

    def __bool__(self) -> bool:
        return bool(self._tenants)

    def get(self, name: Optional[str]) -> Optional[Tenant]:
        return self._tenants.get(name) if name is not None else None

    @property
    def total_weight(self) -> float:
        return sum(t.weight for t in self._tenants.values())

    def share(self, name: str) -> float:
        """The tenant's fair share of cluster capacity in [0, 1]."""
        return self._tenants[name].weight / self.total_weight

    def to_dict(self) -> List[Dict[str, Any]]:
        return [t.to_dict() for t in self._tenants.values()]

    @classmethod
    def from_dict(cls, rows: Optional[List[Dict[str, Any]]]
                  ) -> Optional["TenantSet"]:
        if rows is None:
            return None
        return cls([Tenant.from_dict(r) for r in rows])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TenantSet({list(self._tenants.values())!r})"


#: parse keys accepted by :func:`parse_tenants`
_PARSE_KEYS = {
    "w": ("weight", float), "weight": ("weight", float),
    "p": ("priority", int), "priority": ("priority", int),
    "r": ("rate_factor", float), "rate": ("rate_factor", float),
}


def parse_tenants(spec: str) -> TenantSet:
    """Parse the CLI tenant syntax into a :class:`TenantSet`.

    ``spec`` is comma-separated tenant entries, each
    ``name[:key=value]*`` with keys ``w``/``weight``, ``p``/
    ``priority`` and ``r``/``rate`` (rate factor):

    >>> ts = parse_tenants("gold:w=3:p=0,silver:w=2:p=1,free:w=1:p=2:r=10")
    >>> [t.name for t in ts]
    ['gold', 'silver', 'free']
    """
    tenants: List[Tenant] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        name = parts[0].strip()
        kw: Dict[str, Any] = {}
        for part in parts[1:]:
            if "=" not in part:
                raise ClusterError(
                    f"bad tenant option {part!r} in {entry!r} "
                    f"(expected key=value)")
            key, _, val = part.partition("=")
            mapped = _PARSE_KEYS.get(key.strip())
            if mapped is None:
                raise ClusterError(
                    f"unknown tenant option {key!r} in {entry!r}; "
                    f"known: {sorted(set(_PARSE_KEYS))}")
            field, conv = mapped
            kw[field] = conv(val)
        tenants.append(Tenant(name, **kw))
    if not tenants:
        raise ClusterError(f"no tenants in spec {spec!r}")
    return TenantSet(tenants)
