"""Fault plans: seeded, serializable schedules of injected failures.

A :class:`FaultPlan` is a list of :class:`FaultEvent`s on the virtual
clock — node crashes, link failures (optionally healing), partitions,
and straggler slowdowns.  Plans are plain data: they serialize to JSON
(so a recorded trace embeds the exact faults it ran under and a replay
re-injects them), and :func:`random_plan` derives one deterministically
from a seed, so ``serve --chaos <seed>`` names a reproducible disaster.

Semantics (enforced by the injector/scheduler, documented here):

* **crash** — permanent.  The node's JVM process dies: guest threads
  and worker caches (its classpath, its retained object copies) are
  gone; in-flight transfers touching the node are lost.  The *front*
  node (ingress + classpath home) never crashes — a plan naming it is
  rejected.
* **link** — the directed pair goes down both ways; ``heal`` seconds
  later it comes back (0 = stays down).  Messages on the wire when the
  link fails are lost even if it heals before their timeout expires.
* **partition** — every link between ``nodes`` and the rest of the
  cluster fails, healing together after ``heal`` seconds.
* **straggle** — the node's CPU runs ``factor`` times slower for
  ``heal`` seconds (0 = forever).  Nothing is lost; work just drags,
  which is what exercises the offload policies under asymmetry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.errors import ClusterError

KINDS = ("crash", "link", "partition", "straggle")


@dataclass
class FaultEvent:
    """One scheduled fault on the virtual clock."""

    at: float
    kind: str
    node: str = ""                 # crash / straggle
    src: str = ""                  # link
    dst: str = ""                  # link
    nodes: tuple = ()              # partition group
    heal: float = 0.0              # link/partition/straggle duration
    factor: float = 4.0            # straggle slowdown multiplier

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ClusterError(f"unknown fault kind {self.kind!r}")
        if self.at < 0:
            raise ClusterError(f"fault scheduled at negative time {self.at}")
        self.nodes = tuple(self.nodes)

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"at": self.at, "kind": self.kind}
        if self.node:
            d["node"] = self.node
        if self.src:
            d["src"] = self.src
            d["dst"] = self.dst
        if self.nodes:
            d["nodes"] = list(self.nodes)
        if self.heal:
            d["heal"] = self.heal
        if self.kind == "straggle":
            d["factor"] = self.factor
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FaultEvent":
        return cls(at=d["at"], kind=d["kind"], node=d.get("node", ""),
                   src=d.get("src", ""), dst=d.get("dst", ""),
                   nodes=tuple(d.get("nodes", ())),
                   heal=d.get("heal", 0.0), factor=d.get("factor", 4.0))

    def label(self) -> str:
        if self.kind == "crash":
            return f"crash({self.node})"
        if self.kind == "link":
            return f"link({self.src}-{self.dst}, heal={self.heal:g})"
        if self.kind == "partition":
            return f"partition({','.join(self.nodes)}, heal={self.heal:g})"
        return f"straggle({self.node} x{self.factor:g}, heal={self.heal:g})"


@dataclass
class FaultPlan:
    """An ordered fault schedule (sorted by time, stable by insertion)."""

    events: List[FaultEvent] = field(default_factory=list)
    #: the seed this plan was derived from (0 = hand-built) — carried
    #: into traces so a replayed run can name its disaster
    seed: int = 0

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda e: e.at)

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def crashes(self) -> List[str]:
        return [e.node for e in self.events if e.kind == "crash"]

    def validate(self, node_names: Sequence[str], front: str) -> None:
        """Reject plans naming unknown nodes or crashing the front."""
        known = set(node_names)
        for e in self.events:
            for n in (e.node, e.src, e.dst, *e.nodes):
                if n and n not in known:
                    raise ClusterError(f"fault plan names unknown node "
                                       f"{n!r} in {e.label()}")
            if e.kind == "crash" and e.node == front:
                raise ClusterError(
                    f"fault plan crashes the front node {front!r} "
                    f"(ingress + classpath home cannot die)")

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed,
                "events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FaultPlan":
        return cls(events=[FaultEvent.from_dict(e) for e in d["events"]],
                   seed=d.get("seed", 0))


def random_plan(node_names: Sequence[str], seed: int,
                horizon: float = 0.05,
                n_crashes: int = 1,
                n_link_failures: int = 1,
                n_stragglers: int = 1,
                partition_prob: float = 0.25) -> FaultPlan:
    """Derive a reproducible fault schedule from ``seed``.

    Faults land in ``(0, horizon)`` virtual seconds — pick a horizon
    inside the serving run's expected makespan or the faults hit an
    empty cluster.  The front node (``node_names[0]``) is exempt from
    crashes; everything else is fair game, but at least one node stays
    alive (crashes are capped at n-2 victims)."""
    if len(node_names) < 2:
        raise ClusterError("chaos needs at least two nodes")
    rng = random.Random(f"fault-plan-{seed}")
    front = node_names[0]
    crashable = [n for n in node_names[1:]]
    events: List[FaultEvent] = []
    n_crashes = min(n_crashes, len(crashable) - 1) if len(crashable) > 1 \
        else min(n_crashes, 1)
    victims = rng.sample(crashable, max(0, n_crashes))
    for v in victims:
        events.append(FaultEvent(at=rng.uniform(0.1, 0.9) * horizon,
                                 kind="crash", node=v))
    for _ in range(n_link_failures):
        src = rng.choice(node_names)
        dst = rng.choice([n for n in node_names if n != src])
        events.append(FaultEvent(
            at=rng.uniform(0.05, 0.8) * horizon, kind="link",
            src=src, dst=dst,
            heal=rng.uniform(0.05, 0.3) * horizon))
    for _ in range(n_stragglers):
        node = rng.choice(node_names)
        events.append(FaultEvent(
            at=rng.uniform(0.0, 0.5) * horizon, kind="straggle",
            node=node, factor=rng.choice([2.0, 4.0, 8.0]),
            heal=rng.uniform(0.1, 0.5) * horizon))
    if len(node_names) >= 4 and rng.random() < partition_prob:
        k = rng.randint(1, len(node_names) // 2)
        group = tuple(rng.sample([n for n in node_names if n != front], k))
        events.append(FaultEvent(
            at=rng.uniform(0.1, 0.7) * horizon, kind="partition",
            nodes=group, heal=rng.uniform(0.05, 0.25) * horizon))
    plan = FaultPlan(events=events, seed=seed)
    plan.validate(node_names, front)
    return plan
