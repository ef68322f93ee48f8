"""Incrementally-maintained cluster load indexes.

The scheduler's hot path asks two questions thousands of times per
serving run: *how loaded is this node?* and *who is the best
underloaded target?*.  The seed implementation answered the second by
scanning every node and recomputing each weighted load from queue
state — O(n) per decision, which melts once the cluster reaches
dozens of nodes serving thousands of requests.  This module keeps the
answers in state sized by nodes and racks, never by updates:

* **event-driven counters** — every enqueue, dequeue, run-slot
  change, and delivery-in-flight bumps a per-node runnable count by
  ±1; weighted load is ``count / cpu_weight``, never recomputed from
  scratch.  A bump writes the node's count and load (and its tenant's
  count) and nothing else;
* **rack scans** — a rack's minimum is a scan of its live members
  (``rack_size``, 4 by default) for the least ``(load, node)``;
* **a bounded-staleness cross-rack digest** — the gossip signal.  A
  node always has fresh knowledge of its *own* rack (one switch hop
  away), but consults a cached digest for the rest of the cluster:
  one ``(load, rack)`` row per rack, sorted once per gossip round and
  refreshed at most every ``staleness`` virtual seconds.  Remote racks
  may therefore look up to ``staleness`` out of date — exactly the
  bounded error a periodic gossip/heartbeat protocol gives a real
  cluster — while the common case reads the digest's first row or two
  instead of polling every peer.

Determinism: all tie-breaking is by ``(load, name)`` within a rack
and ``(load, rack)`` across racks, and staleness is measured in
*virtual* time, so runs replay bit-identically.

:func:`recompute_load` / :func:`naive_pick` are the from-scratch
reference implementations of the same decision rule; the property
tests drive both through randomized schedules and require exact
agreement (with ``staleness=0``) — that is the proof the incremental
state never drifts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ClusterError

#: default gossip bound, virtual seconds: requests are milliseconds of
#: guest compute, so a 1 ms digest is at most ~one request stale while
#: cutting cross-rack refreshes to one per gossip interval
DEFAULT_STALENESS = 1e-3


class LoadIndex:
    """Weighted-load index over a cluster's nodes: O(1) bumps, a pick
    scans one rack and reads the gossip digest's first rows."""

    def __init__(self, cluster, staleness: float = DEFAULT_STALENESS):
        if staleness < 0:
            raise ClusterError(f"negative staleness bound {staleness}")
        names = list(cluster.names())
        self.staleness = staleness
        self.weights: Dict[str, float] = {
            n: cluster.node(n).spec.cpu_weight for n in names}
        self.rack_of: Dict[str, str] = {n: cluster.rack_of(n) for n in names}
        self.racks: Dict[str, List[str]] = cluster.racks()
        #: runnable-or-imminent threads per node (the event-driven counter)
        self.count: Dict[str, int] = {n: 0 for n in names}
        #: runnable-or-imminent threads per *tenant* across the whole
        #: cluster — the admission controller's fair-share signal.
        #: Only tenant-tagged work is counted (segments bill to their
        #: parent's tenant), so legacy single-tenant runs keep this
        #: empty and pay nothing.
        self.tenant_count: Dict[str, int] = {}
        #: summed cpu_weight of *live* nodes — the denominator of a
        #: tenant's fair share; shrinks when a node crash-retires so
        #: fair shares track the capacity that actually remains
        self.live_capacity: float = sum(self.weights.values())
        #: current weighted load per node (count / cpu_weight)
        self._load: Dict[str, float] = {n: 0.0 for n in names}
        #: crashed nodes (chaos layer): retired nodes keep their
        #: counters (the scheduler's -1 bumps must stay balanced while
        #: it drains the dead queue) but leave their rack's live list
        self._retired: set = set()
        #: live members per rack, sorted by name: a scan that keeps the
        #: first of equal loads breaks ties by ``(load, node)``
        self._live: Dict[str, List[str]] = {
            r: sorted(members) for r, members in self.racks.items()}
        #: the gossip digest: ``(load, rack, node)`` per rack with a
        #: live member at the last round, sorted by ``(load, rack)``
        self._digest: List[Tuple[float, str, str]] = []
        self._gossip_at: Optional[float] = None
        #: index entries examined — rack members scanned plus digest
        #: rows read (the deterministic cost metric the scale
        #: benchmark records per decision)
        self.ops = 0
        #: cross-rack digest refreshes performed
        self.gossip_rounds = 0

    # -- event-driven updates ----------------------------------------------

    def load(self, node: str, extra: int = 0) -> float:
        """Runnable-or-imminent threads on ``node`` per unit of serving
        capacity: the queue, the running slot, deliveries already in
        flight toward the node (so simultaneous offload decisions don't
        dogpile one idle target), and ``extra`` — work the caller knows
        about but has already popped from the queue (the request in
        hand).  O(1): reads the event-driven counter; the from-scratch
        definition it must always agree with is :func:`recompute_load`
        (property-tested)."""
        if extra:
            return self._load[node] + extra / self.weights[node]
        return self._load[node]

    def add(self, node: str, delta: int,
            tenant: Optional[str] = None) -> None:
        """Apply a runnable-count change (enqueue/dequeue/run/finish/
        delivery ±1), O(1).  ``tenant`` bills the same change to a
        tenant's cluster-wide counter."""
        c = self.count[node] + delta
        if c < 0:
            raise ClusterError(
                f"load index underflow on {node}: {self.count[node]}{delta:+d}")
        self.count[node] = c
        if tenant is not None:
            t = self.tenant_count.get(tenant, 0) + delta
            if t < 0:
                raise ClusterError(
                    f"tenant load underflow for {tenant!r}: "
                    f"{self.tenant_count.get(tenant, 0)}{delta:+d}")
            self.tenant_count[tenant] = t
        self._load[node] = c / self.weights[node]

    def retire(self, node: str) -> None:
        """Remove a crashed node from every future load answer: it
        leaves its rack's live list (a rack left empty drops out of
        the next gossip round and of the saturation vote at once), and
        :meth:`pick_underloaded` will never return it.  The runnable
        counters keep working so the scheduler can drain the dead
        node's queue with balanced ±1 bumps."""
        if node in self._retired:
            return
        self._retired.add(node)
        self._live[self.rack_of[node]].remove(node)
        self.live_capacity -= self.weights[node]

    def is_live(self, node: str) -> bool:
        return node not in self._retired

    # -- rack minima --------------------------------------------------------

    def rack_min(self, rack: str,
                 exclude: Optional[str] = None) -> Optional[Tuple[float, str]]:
        """Freshest ``(load, node)`` minimum of one rack's live
        members, skipping ``exclude``: a scan of the rack."""
        members = self._live[rack]
        self.ops += len(members)
        loads = self._load
        best: Optional[Tuple[float, str]] = None
        for node in members:
            if node != exclude:
                load = loads[node]
                if best is None or load < best[0]:
                    best = (load, node)
        return best

    # -- the gossip digest --------------------------------------------------

    def _gossip(self, now: float) -> None:
        """One gossip round: re-digest every rack's minimum and sort
        the rows.  Runs at most once per ``staleness`` interval, so its
        O(nodes) scan amortizes to a few entries per decision."""
        self._gossip_at = now
        self.gossip_rounds += 1
        rows = []
        for rack in self.racks:
            m = self.rack_min(rack)
            if m is not None:  # a rack whose members all crashed: no row
                rows.append((m[0], rack, m[1]))
        rows.sort()
        self._digest = rows

    def _maybe_gossip(self, now: float) -> None:
        if (self._gossip_at is None
                or now - self._gossip_at >= self.staleness):
            self._gossip(now)

    def remote_min(self, now: float, exclude_rack: str
                   ) -> Optional[Tuple[float, str]]:
        """Best ``(load, node)`` outside ``exclude_rack`` according to
        the (≤ ``staleness``-old) gossip digest."""
        self._maybe_gossip(now)
        for load, rack, node in self._digest:
            self.ops += 1
            if rack != exclude_rack:
                return load, node
        return None

    def saturated(self, now: float, threshold: float) -> bool:
        """Does the gossip digest report *every* rack saturated — its
        least-loaded node at or above ``threshold`` weighted threads?
        The front-door admission stub reads this before queueing a
        request; like every cross-rack question it runs on the (≤
        ``staleness``-old) digest.  The rows are sorted, so the first
        row of a rack that still has a live member decides."""
        self._maybe_gossip(now)
        for load, rack, _ in self._digest:
            if self._live[rack]:  # a fully-crashed rack cannot veto shedding
                return load >= threshold
        return True

    # -- the decision -------------------------------------------------------

    def pick_underloaded(self, now: float, src: str, src_load: float,
                         min_gap: float) -> Optional[str]:
        """The best offload target seen from ``src``: the lighter of
        (a) the freshest minimum of ``src``'s own rack and (b) the
        gossip digest's best remote-rack node, with same-rack winning
        ties (one switch hop beats an aggregation-switch crossing).

        The remote candidate comes from a digest that may be up to
        ``staleness`` old, so it is *probed* before committing: its
        current load (an O(1) read — one peer asked, not the whole
        cluster) replaces the digest value.  Without the probe every
        hot node ships to the digest's argmin until the next gossip
        round — the dogpile that fresh in-flight accounting exists to
        prevent.  Returns None unless the chosen target is at least
        ``min_gap`` weighted threads below ``src_load``."""
        local = self.rack_min(self.rack_of[src], exclude=src)
        remote = self.remote_min(now, self.rack_of[src])
        if remote is not None and remote[1] in self._retired:
            # The digest is allowed to be stale, but a crashed node is
            # never a target: the probe that follows would read its
            # frozen (attractive) load, so the candidacy dies here and
            # the next gossip round digests its rack afresh.
            remote = None
        if remote is not None:
            remote = (self._load[remote[1]], remote[1])  # probe: fresh load
        if local is not None and (remote is None or local[0] <= remote[0]):
            cand = local
        else:
            cand = remote
        if cand is None or src_load - cand[0] < min_gap:
            return None
        return cand[1]


# -- from-scratch references (property-test oracles) ---------------------------


def recompute_load(sched, node: str, extra: int = 0) -> float:
    """Reference weighted load recomputed from scheduler state: queue
    depth + the running slot + deliveries in flight, per unit of
    capacity.  The incremental counter must always equal this."""
    busy = 1 if sched.running.get(node) is not None else 0
    in_flight = sched.pending.get(node, 0)
    queued = sum(1 for _ in sched.stores[node].items)
    return (queued + busy + in_flight + extra) \
        / sched.cluster.node(node).spec.cpu_weight


def naive_pick(index: LoadIndex, src: str, src_load: float,
               min_gap: float) -> Optional[str]:
    """Reference decision: full scan implementing exactly the documented
    rule (fresh loads everywhere — i.e. ``staleness=0`` semantics)."""
    src_rack = index.rack_of[src]
    local: Optional[Tuple[float, str]] = None
    for n in index.racks[src_rack]:
        if n == src or not index.is_live(n):
            continue
        key = (index.load(n), n)
        if local is None or key < local:
            local = key
    remote: Optional[Tuple[float, str, str]] = None
    for rack, members in index.racks.items():
        if rack == src_rack:
            continue
        live = [(index.load(n), n) for n in members if index.is_live(n)]
        if not live:
            continue
        m = min(live)
        key = (m[0], rack, m[1])
        if remote is None or key < remote:
            remote = key
    if local is not None and (remote is None or local[0] <= remote[0]):
        cand: Optional[Tuple[float, str]] = local
    else:
        cand = (remote[0], remote[2]) if remote is not None else None
    if cand is None or src_load - cand[0] < min_gap:
        return None
    return cand[1]


class StreamingQuantile:
    """O(1)-space streaming quantile estimator (the P² algorithm,
    Jain & Chlamtac 1985).

    Five markers track the running ``p``-quantile without storing the
    sample; below five observations the exact linearly-interpolated
    quantile of the stored prefix is returned.  Fully deterministic —
    the same observation sequence always yields the same estimate —
    so scheduler runs replay bit-identically."""

    __slots__ = ("p", "n", "q", "pos", "want", "_seed")

    def __init__(self, p: float = 0.75):
        self.p = p
        self.n = 0
        self._seed: List[float] = []
        self.q: List[float] = []
        self.pos: List[int] = []
        self.want: List[float] = []

    def observe(self, x: float) -> None:
        self.n += 1
        if self.q:
            self._update(x)
            return
        self._seed.append(float(x))
        if len(self._seed) < 5:
            return
        # Transition to marker mode: the five samples become markers.
        self._seed.sort()
        p = self.p
        self.q = list(self._seed)
        self.pos = [1, 2, 3, 4, 5]
        self.want = [1.0, 1 + 2 * p, 1 + 4 * p, 3 + 2 * p, 5.0]
        self._seed = []

    def _update(self, x: float) -> None:
        q, pos = self.q, self.pos
        p = self.p
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = max(q[4], x)
            k = 3
        else:
            k = 0
            while k < 3 and x >= q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            pos[i] += 1
        want = self.want
        want[1] += p / 2
        want[2] += p
        want[3] += (1 + p) / 2
        want[4] += 1
        # Adjust interior markers toward their desired positions.
        for i in (1, 2, 3):
            d = want[i] - pos[i]
            if (d >= 1 and pos[i + 1] - pos[i] > 1) or \
                    (d <= -1 and pos[i - 1] - pos[i] < -1):
                d = 1 if d > 0 else -1
                cand = self._parabolic(i, d)
                if q[i - 1] < cand < q[i + 1]:
                    q[i] = cand
                else:
                    q[i] = q[i] + d * (q[i + d] - q[i]) / (pos[i + d]
                                                          - pos[i])
                pos[i] += d

    def _parabolic(self, i: int, d: int) -> float:
        q, n = self.q, self.pos
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))

    def estimate(self) -> Optional[float]:
        """Current quantile estimate (None before any observation)."""
        if self.q:
            return self.q[2]
        if not self._seed:
            return None
        xs = sorted(self._seed)
        if len(xs) == 1:
            return xs[0]
        r = self.p * (len(xs) - 1)
        lo = int(r)
        frac = r - lo
        if lo + 1 >= len(xs):
            return xs[-1]
        return xs[lo] + frac * (xs[lo + 1] - xs[lo])


class WorkProfile:
    """Online per-program cost profile for offload victim selection.

    Learns from completed requests (segment work is credited back to
    the parent, so the profile covers the whole request even when parts
    ran remotely).  One statistic per program: a streaming **P75** of
    instructions-per-request (:class:`StreamingQuantile`), which is
    what ``remaining()`` budgets against.  On bimodal mixes — the same
    program cheap for most arguments, expensive for a tail — a mean
    would sit uselessly between the modes and veto threads from the
    expensive mode as "nearly done" when most of their work is still
    ahead; the 75th percentile keeps the heavy mode offloadable while
    still fencing off genuinely-finishing threads.

    ``remaining(req)`` estimates how much work a running request (or a
    migrated segment of one — work done on the parent's behalf counts)
    still has; the offload policies use it to stop shipping
    deep-but-nearly-done threads whose residual work is worth less
    than the migration itself."""

    #: quantile the remaining-work budget is measured against
    QUANTILE = 0.75

    def __init__(self) -> None:
        self._quant: Dict[str, StreamingQuantile] = {}

    def observe(self, program: str, instrs: int) -> None:
        """Fold one completed request's instruction count in."""
        sq = self._quant.get(program)
        if sq is None:
            sq = self._quant[program] = StreamingQuantile(self.QUANTILE)
        sq.observe(instrs)

    def p75(self, program: str) -> Optional[float]:
        sq = self._quant.get(program)
        return sq.estimate() if sq is not None else None

    def remaining(self, req) -> Optional[float]:
        """Estimated instructions left in ``req``, measured against the
        program's P75 cost; None when the program has no profile yet.
        For a migrated segment, the work already done spans the
        parent's pre-offload quanta plus the segment's own."""
        spec = req.spec
        done = req.instrs
        if spec is None and req.parent is not None:
            spec = req.parent.spec
            done += req.parent.instrs
        if spec is None:
            return None
        budget = self.p75(spec.program)
        if budget is None:
            return None
        return max(0.0, budget - done)
