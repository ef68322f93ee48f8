"""Cluster nodes.

A :class:`Node` models one machine: a CPU speed factor (1.0 = the paper's
Xeon E5540 reference node; the iPhone 3G is ~25x slower), a RAM capacity
used by admission checks for migration targets, and a set of locally
hosted files (see :mod:`repro.cluster.nfs`).

Nodes do not run code themselves; VMs (:class:`repro.vm.machine.Machine`)
are *placed* on nodes and charge their instruction costs scaled by the
node's speed factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.units import gb


@dataclass
class NodeSpec:
    """Static description of a machine.

    Attributes:
        name: unique node name within a cluster.
        speed_factor: CPU time multiplier relative to the reference node
            (bigger = slower).  The paper's cluster nodes are 1.0; the
            iPhone 3G (412 MHz ARM vs 2.53 GHz Xeon) is ~25.
        ram_bytes: physical memory, used for admission checks.
        has_vmti: whether the node's JVM exposes the debug interface
            (JamVM on the iPhone does not; restoration then falls back to
            Java-serialization at Java level, which is much slower,
            cf. paper section IV.D).
        kind: freeform tag ("server", "phone", "cloud") used by policies.
        cpu_weight: relative serving capacity used by the elastic
            scheduler for weighted queue-depth balancing (a node with
            weight 2 should carry twice the runnable threads of a
            weight-1 node).  Independent of ``speed_factor`` so
            placement preferences can be tuned without changing the
            timing model.
    """

    name: str
    speed_factor: float = 1.0
    ram_bytes: int = gb(32)
    has_vmti: bool = True
    kind: str = "server"
    cpu_weight: float = 1.0


class Node:
    """A machine in the simulated cluster."""

    def __init__(self, spec: NodeSpec):
        self.spec = spec
        #: files hosted locally: path -> SimFile (set by FileSystem)
        self.local_files: Dict[str, object] = {}

    @property
    def name(self) -> str:
        return self.spec.name

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.name} x{self.spec.speed_factor:g}>"
