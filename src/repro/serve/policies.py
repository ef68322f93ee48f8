"""Admission placement and the offload policy.

Placement decides where a freshly admitted request first queues; the
offload policy decides when a node is hot enough to push work away —
either *handing off* a request that has not started yet (cheap: only a
descriptor crosses the wire) or *SOD-offloading* the top frames of a
running thread (the paper's stack-on-demand migration, executed through
the engine's capture/transfer/restore machinery).

All load questions are answered by the scheduler's incremental
:class:`repro.serve.loadindex.LoadIndex` — O(1) per-node load reads and
target picks that scan one rack and read the gossip digest's first
rows — never by scanning the cluster.  Decisions read only state that
is a deterministic function of the run so far (counters, machine
clocks, topology, virtual time), so scheduler runs replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

# -- admission placement -------------------------------------------------------


class FrontDoorPlacement:
    """Everything arrives at one front node (a single ingress box); the
    offload policies are then the only path to the rest of the cluster —
    the pure elasticity scenario."""

    def __init__(self, node: Optional[str] = None):
        self.node = node

    def place(self, sched, req) -> str:
        return self.node or sched.front


class WeightedRoundRobinPlacement:
    """Smooth weighted round-robin over node capacities (the classic
    nginx algorithm): each round every node gains its weight, the
    richest node wins the request and pays the total back.

    Node weights are fixed for a scheduler's lifetime, and with
    integerized weights the algorithm is periodic (over one period of
    ``sum(weights)`` picks every node wins exactly its weight's worth
    and the credits return to zero) — so the cycle is precomputed once
    and each admission is an O(1) cursor step.  Sweeping every node's
    credit per request would be an O(n) hot-path scan at cluster
    scale, exactly what this PR removes elsewhere."""

    #: longest precomputed pick cycle; weight ratios whose exact period
    #: would exceed it are rounded to a 255-level approximation instead
    MAX_CYCLE = 4096

    def __init__(self):
        self._sched_ref: Optional[int] = None
        self._key: Optional[tuple] = None
        self._cycle: list = []
        self._pos = 0

    def place(self, sched, req) -> str:
        # A scheduler's cluster and weights are immutable for its
        # lifetime, so the common case is an identity check; the full
        # (names, weights) key is only rebuilt when this placement
        # instance moves to a different scheduler.
        if id(sched) != self._sched_ref:
            names = sched.node_names
            weights = tuple(sched.cluster.node(n).spec.cpu_weight
                            for n in names)
            key = (tuple(names), weights)
            if self._key != key:
                self._build_cycle(names, weights)
                self._key = key
            self._sched_ref = id(sched)
        node = self._cycle[self._pos]
        self._pos = (self._pos + 1) % len(self._cycle)
        return node

    def _build_cycle(self, names, weights) -> None:
        from fractions import Fraction
        from math import gcd
        self._pos = 0
        # Integerize weight *ratios* (relative to the lightest node, so
        # a tiny absolute weight keeps its tiny share instead of being
        # floored to parity with the rest).
        lightest = min(weights)
        ratios = [w / lightest for w in weights]
        fracs = [Fraction(r).limit_denominator(64) for r in ratios]
        denom = 1
        for f in fracs:
            denom = denom * f.denominator // gcd(denom, f.denominator)
        ints = [max(1, int(f * denom)) for f in fracs]
        common = 0
        for w in ints:
            common = gcd(common, w)
        ints = [w // common for w in ints]
        if sum(ints) > self.MAX_CYCLE:
            # Extreme ratios: approximate on a shrinking scale until
            # the period actually fits the cap (at scale 1 every node
            # rounds to weight >= 1, so the period bottoms out at n —
            # node counts beyond MAX_CYCLE are not a supported regime).
            top = max(ratios)
            scale = 255.0
            while True:
                ints = [max(1, round(r * scale / top)) for r in ratios]
                common = 0
                for w in ints:
                    common = gcd(common, w)
                ints = [w // common for w in ints]
                total = sum(ints)
                if total <= self.MAX_CYCLE or scale <= 1.0:
                    break
                scale = max(1.0, scale * self.MAX_CYCLE / (total * 1.05))
        total = sum(ints)
        credit = {n: 0 for n in names}
        cycle = []
        for _ in range(total):
            best = None
            best_c = 0
            for n, w in zip(names, ints):
                c = credit[n] = credit[n] + w
                if best is None or c > best_c:
                    best, best_c = n, c
            credit[best] -= total
            cycle.append(best)
        self._cycle = cycle


# -- admission control ---------------------------------------------------------


@dataclass
class ShedWhenSaturated:
    """Front-door admission stub: when the gossip digest reports every
    rack saturated (each rack's least-loaded node already at or above
    ``max_node_load`` weighted threads), the scheduler *sheds* the
    request — counted in ``stats["shed"]`` — instead of queueing
    unboundedly.  A shed request is finished-on-arrival with state
    ``"shed"``: the client got a fast overload signal rather than an
    unbounded queueing delay.

    This is deliberately a stub of real overload control: the full
    open-loop Poisson sweep past saturation (latency/goodput knees,
    adaptive thresholds) stays a future PR; the hook and accounting
    land here so that sweep has something to drive."""

    max_node_load: float = 8.0

    def admit(self, sched, req) -> bool:
        return not sched.load_index.saturated(
            sched.env.now, self.max_node_load)


@dataclass
class AdaptiveShed:
    """Adaptive overload control: learn the latency/goodput knee
    online and shed per-tenant by priority with hysteresis.

    The static stub has to be told ``max_node_load`` — picked wrong it
    either sheds work a healthy cluster could serve or admits until
    queueing delay destroys every SLO.  This controller *learns* the
    threshold from observed end-to-end latency, AIMD-style:

    * every completed request's sojourn time feeds a sliding window;
      each full ``window``, the exact windowed P95 is compared to the
      ``slo`` target — above it the admit threshold multiplies down
      (``decrease``), comfortably below it (``margin * slo``) the
      threshold multiplies back up (``increase``), bounded to
      ``[min_load, max_load]``.  Multiplicative decrease finds the
      knee in a few windows even when the initial guess is far off;
      the gentle increase reclaims capacity after the storm passes.
      (The long-horizon P² :class:`~repro.serve.loadindex.
      StreamingQuantile` tracks the *whole-run* P95 for reporting; the
      control loop needs a windowed estimate that forgets the past, so
      it keeps an exact small window instead.)
    * shedding is **per-tenant by priority**: a tenant at priority
      rank ``r`` is shed once the digest reports saturation at
      ``threshold * priority_scale**r`` — lower-priority tenants
      (larger rank) are refused earlier, so as overload deepens the
      cluster degrades gracefully tier by tier instead of collapsing
      for everyone at once.
    * each tier's shed decision carries **hysteresis**: once tier
      ``r`` sheds, it keeps shedding until load falls below
      ``hysteresis`` times its bar — without the band, load hovering
      at the threshold flaps admit/shed on alternating requests.
    * a **fair-share cap** bounds any single tenant to ``fair_factor``
      times its weight-share of the cluster's runnable capacity
      (``threshold * live_capacity`` weighted threads), floored at
      ``min_tenant_slots`` so small tenants always get a foothold.
      This is what an abusive tenant hits: its own backlog saturates
      its cap and *its* requests shed while everyone else's latency
      stays at the knee.  (``fair_factor`` > 1 keeps the cluster
      work-conserving when others are idle.)

    All state is a deterministic function of the completed-request
    sequence, so runs replay bit-identically.
    """

    #: end-to-end (arrival -> completion) P95 latency target, virtual
    #: seconds — the knee the controller steers the cluster to
    slo: float = 0.1
    #: initial per-node weighted-load admit threshold (the stub's knob;
    #: the controller moves it from here)
    init_load: float = 8.0
    min_load: float = 1.0
    max_load: float = 64.0
    #: completed requests per control window
    window: int = 32
    #: multiplicative decrease / increase applied to the threshold
    decrease: float = 0.7
    increase: float = 1.15
    #: the windowed P95 must fall below ``margin * slo`` before the
    #: threshold is allowed back up (a dead band against breathing)
    margin: float = 0.8
    #: a shedding tier readmits only below ``hysteresis`` * its bar
    hysteresis: float = 0.8
    #: per-priority-rank threshold scaling (rank r's bar is
    #: ``threshold * priority_scale**r``)
    priority_scale: float = 0.7
    #: fair-share cap multiplier (> 1 = work-conserving headroom)
    fair_factor: float = 2.0
    #: every tenant may always hold at least this many runnable slots
    min_tenant_slots: int = 4

    #: current admit threshold (mutated by the control loop)
    threshold: float = field(init=False)
    #: control-loop activity counters (reported in run stats)
    adjust_down: int = field(init=False, default=0)
    adjust_up: int = field(init=False, default=0)
    fair_sheds: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.threshold = self.init_load
        self._lat: List[float] = []
        #: priority ranks currently shedding (the hysteresis state)
        self._shedding: Dict[int, bool] = {}

    # -- the admit decision -------------------------------------------------

    def admit(self, sched, req) -> bool:
        tenants = getattr(sched, "tenants", None)
        tenant = tenants.get(req.tenant) if tenants else None
        index = sched.load_index
        if tenant is not None and tenants.total_weight > 0:
            cap = max(float(self.min_tenant_slots),
                      self.fair_factor * tenants.share(tenant.name)
                      * self.threshold * index.live_capacity)
            if index.tenant_count.get(tenant.name, 0) >= cap:
                self.fair_sheds += 1
                return False
        rank = tenant.priority if tenant is not None else 0
        bar = self.threshold * (self.priority_scale ** rank)
        now = sched.env.now
        if self._shedding.get(rank):
            if index.saturated(now, bar * self.hysteresis):
                return False
            self._shedding[rank] = False
            return True
        if index.saturated(now, bar):
            self._shedding[rank] = True
            return False
        return True

    # -- the control loop ---------------------------------------------------

    def observe(self, sched, req) -> None:
        """Fold one *served* request's end-to-end latency into the
        control window (the scheduler calls this on completion; shed
        and failed requests never reach it — they carry no service
        latency)."""
        self._lat.append(req.finished_at - req.arrival)
        if len(self._lat) < self.window:
            return
        xs = sorted(self._lat)
        self._lat.clear()
        p95 = xs[min(len(xs) - 1, int(0.95 * (len(xs) - 1) + 0.5))]
        if p95 > self.slo:
            new = max(self.min_load, self.threshold * self.decrease)
            if new != self.threshold:
                self.adjust_down += 1
            self.threshold = new
        elif p95 < self.margin * self.slo:
            new = min(self.max_load, self.threshold * self.increase)
            if new != self.threshold:
                self.adjust_up += 1
            self.threshold = new


# -- offload policies ----------------------------------------------------------


@dataclass
class QueueDepthPolicy:
    """The offload policy: a node is hot when its weighted runnable
    count reaches ``depth_threshold``, and work — a pre-start request
    by handoff, a running thread by SOD offload, a preempted segment by
    a chain hop — moves to a node at least ``min_gap`` weighted threads
    lighter.

    Attributes:
        min_depth: frames a thread needs before SOD offload is
            considered (the residual stack must keep >= 1 frame).
        mig_frames: how many top frames a SOD offload ships.
        max_hops: pre-start handoffs a request may take before it must
            run where it is (prevents ping-ponging descriptors).
        batch_limit: max threads captured into one bulk offload message
            (see :meth:`repro.migration.sodee.SODEngine.migrate_many`).
        depth_threshold: weighted runnable count at which a node is hot.
        min_gap: how many weighted threads lighter a target must be.
        min_remaining_quanta: a running thread is only worth shipping if
            its *estimated remaining work* (learned online, see
            :class:`repro.serve.loadindex.WorkProfile`) is at least this
            many scheduler quanta — a deep-but-nearly-done thread
            finishes at home sooner than its capture+transfer+restore
            would take.  Programs with no profile yet are always
            eligible (fall back to the depth rule).
        max_seg_hops: chain hops a migrated *segment* may take beyond
            its first offload (the paper's Fig. 1c): an overloaded
            worker re-offloads a preempted segment onward, still
            anchored to the home node (completion returns directly,
            never back through the chain).  0 keeps the single-hop
            scheduler.
    """

    min_depth: int = 4
    mig_frames: int = 3
    max_hops: int = 2
    batch_limit: int = 3
    depth_threshold: float = 2.0
    min_gap: float = 2.0
    min_remaining_quanta: float = 1.0
    max_seg_hops: int = 0
    #: a chain hop re-pays capture + wire + restore for work that was
    #: already moved once, so it must clear a higher bar than a first
    #: offload: the hop node this much hotter than ``depth_threshold``,
    #: the target this much lighter than ``min_gap`` alone, and the
    #: remaining work worth this many times the first-offload minimum
    rehop_threshold_mult: float = 2.0
    rehop_gap_extra: float = 2.0
    rehop_remaining_mult: float = 2.0

    def handoff_target(self, sched, node: str) -> Optional[str]:
        load = sched.load_index.load(node, 1)
        if load < self.depth_threshold:
            return None
        return sched.pick_underloaded(node, load, self.min_gap)

    def victim_ok(self, sched, req) -> bool:
        """Shared victim filter: only started, deep-enough requests
        whose estimated remaining work justifies the migration."""
        if req.kind != "request" or req.depth < self.min_depth:
            return False
        remaining = sched.profile.remaining(req)
        if (remaining is not None
                and remaining < self.min_remaining_quanta * sched.quantum):
            sched.stats["victim_vetoes"] += 1
            return False
        return True

    def offload_target(self, sched, node: str, req) -> Optional[str]:
        if not self.victim_ok(sched, req):
            return None
        load = sched.load_index.load(node, 1)
        if load < self.depth_threshold:
            return None
        return sched.pick_underloaded(node, load, self.min_gap)

    def rehop_ok(self, sched, seg) -> bool:
        """Is a preempted segment worth moving another hop?  Its chain
        budget must allow it, and its estimated remaining work —
        parent's pre-offload quanta plus the segment's own, counted
        against the program's P75 — must justify re-paying
        capture + transfer + restore (a stiffer bar than the first
        offload's: ``rehop_remaining_mult``)."""
        if seg.kind != "segment" or seg.hops >= self.max_seg_hops:
            return False
        remaining = sched.profile.remaining(seg)
        if (remaining is not None
                and remaining < self.rehop_remaining_mult
                * self.min_remaining_quanta * sched.quantum):
            sched.stats["victim_vetoes"] += 1
            return False
        return True

    def rehop_target(self, sched, node: str, seg) -> Optional[str]:
        """Where a Fig. 1c chain continues: the same gossip-digest pick
        the other decisions ride; None when this hop is not
        hot enough or no target light enough to clear the chain bar."""
        if self.max_seg_hops <= 0 or not self.rehop_ok(sched, seg):
            return None
        load = sched.load_index.load(node, 1)
        if load < self.rehop_threshold_mult * self.depth_threshold:
            return None
        return sched.pick_underloaded(
            node, load, self.min_gap + self.rehop_gap_extra)
