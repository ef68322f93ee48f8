"""Requests and the load generator.

A :class:`Request` is one admitted guest-program invocation moving
through the scheduler; the :class:`LoadGenerator` turns a request mix
into a deterministic arrival stream inside the event kernel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.serve.tenants import TenantSet
from repro.vm.frames import ThreadState
from repro.workloads.mixes import RequestMix, RequestSpec


@dataclass
class Request:
    """One unit of schedulable work.

    ``kind`` is ``"request"`` for an admitted guest-program invocation
    and ``"segment"`` for the worker-side half of a SOD offload (the
    migrated top frames executing remotely on behalf of a parent
    request).  Segments are scheduled like requests and are never
    counted as served; under a policy with ``max_seg_hops > 0`` a hot
    worker may re-offload one along a Fig. 1c chain (each hop is a
    fresh segment request for the same parent — ``hops`` counts the
    chain length, reusing the pre-start handoff counter, which
    segments never use).
    """

    rid: int
    spec: Optional[RequestSpec] = None
    kind: str = "request"
    #: virtual admission / first-run / completion times (env.now)
    arrival: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: the guest thread (created on first quantum) and the node whose
    #: machine owns its frames
    thread: Optional[ThreadState] = None
    host_node: Optional[str] = None
    #: lifecycle: queued -> running -> (remote ->) queued -> done|failed
    #: ("shed" = refused at the front door by admission control)
    state: str = "queued"
    result: Any = None
    error: Optional[str] = None
    #: pre-start handoff count (bounded by the policy's max_hops)
    hops: int = 0
    #: class-loader namespace tag this request's thread runs in (None
    #: for reentrant programs; non-reentrant requests get a fresh
    #: per-request namespace at first spawn — their own static cells
    #: on every node the request or its segments touch)
    namespace: Optional[str] = None
    #: quanta this request has consumed
    quanta: int = 0
    #: guest instructions executed on this request's behalf so far
    #: (segments credit their instructions back to the parent on
    #: completion, so the count spans remote work too) — feeds the
    #: online per-program work profile used for victim selection
    instrs: int = 0
    #: times this request's top frames were offloaded via SOD
    sod_offloads: int = 0
    #: for segments: the request whose frames these are, and how many
    parent: Optional["Request"] = None
    nframes: int = 0
    #: chaos layer: times this request was restarted from scratch after
    #: a fault (bounded by the scheduler's ``max_retries``)
    retries: int = 0
    #: chaos layer: set on a segment whose parent was recovered
    #: elsewhere — whoever holds it next discards it instead of
    #: running/completing it (the exactly-once recovery arbiter)
    cancelled: bool = False
    #: tenant this request is billed to (segments inherit their
    #: parent's tenant, so offloading never launders one tenant's load
    #: into another's share); None = the legacy single-tenant mode
    tenant: Optional[str] = None
    #: namespace was leased from the tenant's warm pool — completion
    #: recycles the tag back to the pool instead of forgetting it
    #: (retry/failure paths retire it regardless: a cancelled zombie
    #: segment may still write the tag's cells on its worker later)
    pooled: bool = False

    @property
    def depth(self) -> int:
        return self.thread.depth() if self.thread is not None else 0

    def label(self) -> str:
        if self.kind == "segment":
            return f"seg#{self.rid}<-{self.parent.label()}"
        return f"req#{self.rid}:{self.spec.label()}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.label()} {self.state}>"


class LoadGenerator:
    """Turns a :class:`RequestMix` into a deterministic arrival stream.

    Three arrival models, in increasing generality:

    * **fixed-gap** (the legacy default): ``interarrival`` is the fixed
      virtual gap between admissions; 0 models a burst that is already
      queued when serving starts.  The whole schedule is a pure
      function of (mix, n, seed, interarrival) and is byte-identical
      to what pre-tenant builds produced.
    * **open-loop Poisson** (``arrival_rate`` set, no tenants):
      exponential interarrival gaps at ``arrival_rate`` requests per
      virtual second.  Open-loop means arrivals never wait for
      completions — offered load keeps coming past saturation, which
      is exactly what overload control must be measured against.
    * **per-tenant Poisson** (``tenants`` set): every tenant gets an
      *independently seeded* stream — arrivals at ``arrival_rate *
      tenant.rate_factor``, program draws from the mix under a
      tenant-keyed seed.  Each stream is a pure function of (mix,
      seed, tenant name, rate), **never** of the other tenants, so
      adding or removing a tenant leaves everyone else's request
      sequence byte-identical (one shared ``Random`` here is a
      determinism bug waiting to happen).  Streams are merged by
      ``(time, tenant name)`` and truncated to ``n_requests`` total.
    """

    def __init__(self, mix: RequestMix, n_requests: int, seed: int = 0,
                 interarrival: float = 0.0,
                 tenants: Optional[TenantSet] = None,
                 arrival_rate: Optional[float] = None):
        if n_requests < 1:
            raise ValueError(f"need at least one request, got {n_requests}")
        if interarrival < 0:
            raise ValueError(f"negative interarrival {interarrival}")
        if arrival_rate is not None and arrival_rate <= 0:
            raise ValueError(f"arrival rate must be > 0, got {arrival_rate}")
        if tenants and arrival_rate is None:
            raise ValueError("tenant streams need an arrival_rate")
        self.mix = mix
        self.n_requests = n_requests
        self.seed = seed
        self.interarrival = interarrival
        #: empty/None both mean legacy single-tenant mode
        self.tenants = tenants if tenants else None
        self.arrival_rate = arrival_rate

    def specs(self) -> List[RequestSpec]:
        return self.mix.draw(self.n_requests, seed=self.seed)

    def tenant_stream(self, name: str, rate_factor: float = 1.0
                      ) -> List[Tuple[float, RequestSpec]]:
        """One tenant's ``(arrival time, spec)`` stream: ``n_requests``
        Poisson arrivals at ``arrival_rate * rate_factor``.  A pure
        function of (mix, seed, name, rate) — independent of every
        other tenant by construction.  String seeding hashes with
        SHA-512, so the stream is stable across processes."""
        rate = self.arrival_rate * rate_factor
        rng = random.Random(
            f"loadgen:{self.mix.name}:{self.seed}:tenant:{name}")
        specs = self.mix.draw(self.n_requests,
                              seed=f"{self.seed}:tenant:{name}")
        t = 0.0
        out: List[Tuple[float, RequestSpec]] = []
        for spec in specs:
            t += rng.expovariate(rate)
            out.append((t, spec))
        return out

    def schedule(self) -> List[Tuple[float, Optional[str], RequestSpec]]:
        """The merged arrival schedule: ``(time, tenant, spec)`` rows
        in admission order, ``n_requests`` total.  Ties across tenants
        break by name; within a tenant the sort is stable, so FIFO
        order survives."""
        if self.tenants:
            events: List[Tuple[float, Optional[str], RequestSpec]] = []
            for t in self.tenants:
                for when, spec in self.tenant_stream(t.name, t.rate_factor):
                    events.append((when, t.name, spec))
            events.sort(key=lambda e: (e[0], e[1]))
            return events[: self.n_requests]
        if self.arrival_rate:
            return [(when, None, spec)
                    for when, spec in self.tenant_stream("")]
        return [(i * self.interarrival, None, spec)
                for i, spec in enumerate(self.specs())]

    def admit_proc(self, scheduler):
        """Kernel process admitting the stream into ``scheduler``."""
        env = scheduler.env
        if self.tenants or self.arrival_rate:
            now = env.now
            for when, tenant, spec in self.schedule():
                if when > now:
                    yield env.timeout(when - now)
                    now = when
                scheduler.submit(spec, tenant=tenant)
            return
        # Legacy fixed-gap path, kept byte-for-byte: re-deriving the
        # gaps from absolute times would perturb them by float ulps
        # and break bit-reproducibility of the pre-tenant benchmarks.
        for i, spec in enumerate(self.specs()):
            if i and self.interarrival:
                yield env.timeout(self.interarrival)
            scheduler.submit(spec)
