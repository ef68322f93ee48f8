"""The chaos injector: a kernel process that applies a fault plan.

The injector rides the same discrete-event kernel as everything else,
so fault arrival is deterministic: a crash at virtual second 0.01 lands
between the same two scheduler events on every run of the same
(cluster, mix, seed, plan) — which is what makes chaos runs *and their
recoveries* replayable byte-for-byte.

Each fault kind maps onto one seam:

* crash      -> ``scheduler.crash_node`` (which cascades into the
                network, the load index, and the engine);
* link       -> ``network.fail_link`` / ``heal_link``;
* partition  -> ``network.partition`` / ``heal_partition``;
* straggle   -> the host machine's CPU speed scale (restored after
                ``heal`` seconds).
"""

from __future__ import annotations

from typing import Optional

from repro.chaos.faults import FaultEvent, FaultPlan


class ChaosInjector:
    """Applies a :class:`FaultPlan` to a running ``ClusterScheduler``."""

    def __init__(self, sched, plan: FaultPlan):
        plan.validate(sched.node_names, sched.front)
        self.sched = sched
        self.plan = plan
        self.applied = 0

    def start(self) -> "ChaosInjector":
        """Spawn the injector process (call before ``sched.serve``)."""
        self.sched.env.process(self._proc(), name="chaos")
        return self

    # -- the process -------------------------------------------------------

    def _proc(self):
        env = self.sched.env
        for ev in self.plan:
            if ev.at > env.now:
                yield env.timeout(ev.at - env.now)
            self._apply(ev)

    def _apply(self, ev: FaultEvent) -> None:
        sched = self.sched
        self.applied += 1
        if ev.kind == "crash":
            sched.crash_node(ev.node)
        elif ev.kind == "link":
            sched.network.fail_link(ev.src, ev.dst)
            sched._trace("fault", fault="link", src=ev.src, dst=ev.dst,
                         heal=ev.heal)
            if ev.heal > 0:
                sched.env.process(self._heal_link(ev), name="heal-link")
        elif ev.kind == "partition":
            others = [n for n in sched.node_names if n not in ev.nodes]
            sched.network.partition(ev.nodes, others)
            sched._trace("fault", fault="partition", nodes=list(ev.nodes),
                         heal=ev.heal)
            if ev.heal > 0:
                sched.env.process(self._heal_partition(ev, others),
                                  name="heal-partition")
        elif ev.kind == "straggle":
            self._straggle(ev)

    def _heal_link(self, ev: FaultEvent):
        yield self.sched.env.timeout(ev.heal)
        self.sched.network.heal_link(ev.src, ev.dst)
        self.sched._trace("heal", fault="link", src=ev.src, dst=ev.dst)

    def _heal_partition(self, ev: FaultEvent, others):
        yield self.sched.env.timeout(ev.heal)
        self.sched.network.heal_partition(ev.nodes, others)
        self.sched._trace("heal", fault="partition", nodes=list(ev.nodes))

    # -- stragglers --------------------------------------------------------

    def _machine(self, node: str) -> Optional[object]:
        """The node's VM, created on demand (a straggle may land before
        any request has run there) — never for a dead node."""
        if node in self.sched.dead:
            return None
        return self.sched._host(node).machine

    def _straggle(self, ev: FaultEvent) -> None:
        machine = self._machine(ev.node)
        if machine is None:
            return
        machine._speed *= ev.factor
        self.sched._trace("fault", fault="straggle", node=ev.node,
                          factor=ev.factor, heal=ev.heal)
        if ev.heal > 0:
            self.sched.env.process(self._recover_straggle(ev),
                                   name="heal-straggle")

    def _recover_straggle(self, ev: FaultEvent):
        yield self.sched.env.timeout(ev.heal)
        machine = self._machine(ev.node)
        if machine is not None:
            machine._speed /= ev.factor
            self.sched._trace("heal", fault="straggle", node=ev.node)
