"""Point-to-point network model.

Links have a latency (one-way propagation, seconds) and a bandwidth
(bytes/second).  Transferring ``n`` bytes over a link takes
``latency + n / bandwidth`` seconds; a round trip with a small reply is
``2 * latency + n / bandwidth + reply / bandwidth``.

The model is intentionally simple — the paper's tables depend on byte
counts and link speeds, not on protocol dynamics — but it supports
per-message overhead bytes (headers/serialization framing) and
half-duplex contention via the event kernel when used with
:meth:`Network.transfer_proc`.

Fault injection (the chaos layer): links can be *failed* and *healed*
(:meth:`Network.fail_link` / :meth:`Network.heal_link`, with
:meth:`Network.partition` grouping them), and nodes can be *crashed*
(:meth:`Network.crash_node`).  The contention-aware process helpers
return a delivered/dropped verdict — a message is delivered iff its
link was up when it entered the wire, is still up when its transfer
time elapses, and no failure epoch ticked in between (a link that
flapped down-and-up mid-flight still loses the message, like a TCP
connection reset).  With no faults injected the timing and the event
schedule are byte-identical to the fault-free model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Iterable, Tuple

from repro.errors import ClusterError
from repro.sim.kernel import Environment, Event, Resource
from repro.units import gbps, us


@dataclass
class LinkSpec:
    """A directed link's characteristics.

    Attributes:
        bandwidth: bytes per second.
        latency: one-way propagation delay, seconds.
        per_message_bytes: fixed framing overhead added to every message.
    """

    bandwidth: float = gbps(1)
    latency: float = us(80)  # typical GigE + switch hop
    per_message_bytes: int = 64

    def transfer_time(self, nbytes: int) -> float:
        """One-way time to move ``nbytes`` (including framing overhead)."""
        if nbytes < 0:
            raise ClusterError(f"negative transfer size {nbytes}")
        return self.latency + (nbytes + self.per_message_bytes) / self.bandwidth

class Network:
    """All-pairs network over named nodes.

    A default link spec applies to every pair; specific pairs can be
    overridden (e.g. the Wi-Fi + rate-limited router path to the iPhone).
    Links are symmetric unless both directions are overridden.
    """

    def __init__(self, env: Environment | None = None,
                 default: LinkSpec | None = None):
        self.env = env or Environment()
        self.default = default or LinkSpec()
        self._overrides: Dict[Tuple[str, str], LinkSpec] = {}
        self._resources: Dict[Tuple[str, str], Resource] = {}
        #: total bytes moved, per (src, dst) — for experiment reporting
        self.bytes_moved: Dict[Tuple[str, str], int] = {}
        #: total messages sent, per (src, dst)
        self.messages: Dict[Tuple[str, str], int] = {}
        #: bytes that would have crossed each link but were elided by a
        #: transfer cache hit (class tokens, object revalidations) —
        #: the migration fast path's savings meter
        self.bytes_saved: Dict[Tuple[str, str], int] = {}
        #: chaos state: directed links currently down, crashed nodes,
        #: and failure epochs (each fail bumps one — an in-flight
        #: message checks its epoch on landing, so a link that went
        #: down and healed mid-flight still drops it)
        self._down: set = set()
        self._dead: set = set()
        self._link_epoch: Dict[Tuple[str, str], int] = {}
        self._node_epoch: Dict[str, int] = {}
        #: messages dropped by injected faults, per (src, dst)
        self.dropped: Dict[Tuple[str, str], int] = {}

    def set_link(self, a: str, b: str, spec: LinkSpec,
                 symmetric: bool = True) -> None:
        """Override the link between ``a`` and ``b``."""
        self._overrides[(a, b)] = spec
        if symmetric:
            self._overrides[(b, a)] = spec

    def link(self, src: str, dst: str) -> LinkSpec:
        """The link spec used from ``src`` to ``dst``."""
        if src == dst:
            # Loopback: effectively free but not zero (memcpy-ish).
            return LinkSpec(bandwidth=gbps(80), latency=us(1), per_message_bytes=0)
        return self._overrides.get((src, dst), self.default)

    # -- fault injection (the chaos layer) --------------------------------

    def fail_link(self, a: str, b: str, symmetric: bool = True) -> None:
        """Take the ``a -> b`` link down (both directions by default).
        Messages currently on the wire are lost (their failure epoch
        ticks), and new transfers report dropped until healed."""
        self._down.add((a, b))
        self._link_epoch[(a, b)] = self._link_epoch.get((a, b), 0) + 1
        if symmetric:
            self._down.add((b, a))
            self._link_epoch[(b, a)] = self._link_epoch.get((b, a), 0) + 1

    def heal_link(self, a: str, b: str, symmetric: bool = True) -> None:
        """Bring the ``a -> b`` link back up."""
        self._down.discard((a, b))
        if symmetric:
            self._down.discard((b, a))

    def partition(self, group: Iterable[str], others: Iterable[str]) -> None:
        """Fail every link between ``group`` and ``others`` (both
        directions): a network partition between the two sides."""
        for a in group:
            for b in others:
                self.fail_link(a, b)

    def heal_partition(self, group: Iterable[str],
                       others: Iterable[str]) -> None:
        """Heal every link a matching :meth:`partition` call failed."""
        for a in group:
            for b in others:
                self.heal_link(a, b)

    def crash_node(self, name: str) -> None:
        """Node ``name`` died: every message in flight to or from it is
        lost and every future transfer touching it reports dropped."""
        self._dead.add(name)
        self._node_epoch[name] = self._node_epoch.get(name, 0) + 1

    def is_up(self, src: str, dst: str) -> bool:
        """Can a message currently enter the ``src -> dst`` wire?"""
        return ((src, dst) not in self._down
                and src not in self._dead and dst not in self._dead)

    def _epoch(self, src: str, dst: str) -> int:
        """Combined failure epoch of the directed link and its
        endpoints — unchanged across a transfer iff no fault touched
        the path mid-flight."""
        return (self._link_epoch.get((src, dst), 0)
                + self._node_epoch.get(src, 0)
                + self._node_epoch.get(dst, 0))

    def _record_drop(self, src: str, dst: str) -> None:
        key = (src, dst)
        self.dropped[key] = self.dropped.get(key, 0) + 1

    def total_dropped(self) -> int:
        """All messages injected faults have destroyed so far."""
        return sum(self.dropped.values())

    # -- instantaneous accounting (no contention) -------------------------

    def transfer_time(self, src: str, dst: str, nbytes: int) -> float:
        """Time to move ``nbytes`` from ``src`` to ``dst``, and record it."""
        spec = self.link(src, dst)
        t = spec.transfer_time(nbytes)
        key = (src, dst)
        self.bytes_moved[key] = self.bytes_moved.get(key, 0) + nbytes
        self.messages[key] = self.messages.get(key, 0) + 1
        return t

    def rtt(self, src: str, dst: str, request_bytes: int, reply_bytes: int) -> float:
        """Round-trip request/reply time, recorded in both directions."""
        t = self.transfer_time(src, dst, request_bytes)
        t += self.transfer_time(dst, src, reply_bytes)
        return t

    # -- event-kernel integration (contention-aware) ----------------------

    def _resource(self, src: str, dst: str) -> Resource:
        key = (src, dst)
        if key not in self._resources:
            self._resources[key] = Resource(self.env, capacity=1)
        return self._resources[key]

    def transfer_proc(self, src: str, dst: str,
                      nbytes: int) -> Generator[Event, None, bool]:
        """A process generator performing a serialized transfer on the
        (src, dst) link: concurrent transfers on the same directed link
        queue up FIFO.  Yields kernel events; usable with
        ``env.process(net.transfer_proc(...))`` or via ``ok = yield
        from ...``.  Returns True iff the message was delivered: a
        transfer attempted on a down link (or one whose link/endpoint
        failed mid-flight) still burns its wire time — the sender only
        learns of the loss when the timeout expires, as with a real
        connection — but returns False."""
        res = self._resource(src, dst)
        yield res.request()
        up0 = self.is_up(src, dst)
        e0 = self._epoch(src, dst)
        try:
            yield self.env.timeout(self.transfer_time(src, dst, nbytes))
        finally:
            res.release()
        ok = up0 and self.is_up(src, dst) and self._epoch(src, dst) == e0
        if not ok:
            self._record_drop(src, dst)
        return ok

    def occupy_proc(self, src: str, dst: str,
                    seconds: float) -> Generator[Event, None, bool]:
        """Hold the directed (src, dst) link for ``seconds`` of
        *already-accounted* transfer time: the caller computed (and
        recorded) the byte-level cost elsewhere — e.g. a bulk SOD
        offload message priced by the migration engine — and this
        serializes its occupancy so concurrent transfers queue FIFO
        instead of overlapping for free.  No bytes are re-recorded.
        Returns the same delivered verdict as :meth:`transfer_proc`."""
        res = self._resource(src, dst)
        yield res.request()
        up0 = self.is_up(src, dst)
        e0 = self._epoch(src, dst)
        try:
            yield self.env.timeout(seconds)
        finally:
            res.release()
        ok = up0 and self.is_up(src, dst) and self._epoch(src, dst) == e0
        if not ok:
            self._record_drop(src, dst)
        return ok

    def record_saved(self, src: str, dst: str, nbytes: int) -> None:
        """Account bytes a transfer-cache hit kept off the (src, dst)
        link (the payload was *not* moved; only the savings meter
        advances)."""
        if nbytes <= 0:
            return
        key = (src, dst)
        self.bytes_saved[key] = self.bytes_saved.get(key, 0) + nbytes

    def total_bytes(self) -> int:
        """All bytes moved over every link so far."""
        return sum(self.bytes_moved.values())

    def total_saved(self) -> int:
        """All bytes elided by transfer-cache hits so far."""
        return sum(self.bytes_saved.values())
