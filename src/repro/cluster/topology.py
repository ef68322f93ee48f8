"""Canned topologies matching the paper's testbeds.

* :func:`gige_cluster` — the evaluation cluster: N Xeon nodes on GigE
  with NFS-mounted home directories (sections IV.A-IV.C).
* :func:`wan_grid` — the simulated WAN grid of 10 NFS servers used in
  the task-roaming study (section IV.C).
* :func:`phone_setup` — a cluster node plus an iPhone 3G behind a
  rate-limited Wi-Fi router (section IV.D, Table VII).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.network import LinkSpec, Network
from repro.cluster.nfs import DiskSpec, FileSystem
from repro.cluster.node import Node, NodeSpec
from repro.errors import ClusterError
from repro.sim.kernel import Environment
from repro.units import gb, gbps, kbps, mb, ms, us


@dataclass
class Cluster:
    """A set of nodes + the network + the shared file system.

    Nodes are grouped into named *racks* (``add_node(..., rack=...)``,
    default one flat rack).  The rack structure is what the serving
    layer's load indexes aggregate over: a node always has fresh load
    knowledge of its own rack (one switch hop away) and consults a
    bounded-staleness summary for the rest of the cluster, so an
    offload decision scans one rack, never the whole cluster.
    """

    env: Environment
    network: Network
    fs: FileSystem
    nodes: Dict[str, Node] = field(default_factory=dict)
    #: node name -> rack id
    node_rack: Dict[str, str] = field(default_factory=dict)

    def add_node(self, spec: NodeSpec, rack: str = "rack000") -> Node:
        """Create and register a node in ``rack``."""
        if spec.name in self.nodes:
            raise ClusterError(f"duplicate node {spec.name}")
        n = Node(spec)
        self.nodes[spec.name] = n
        self.node_rack[spec.name] = rack
        return n

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        try:
            return self.nodes[name]
        except KeyError:
            raise ClusterError(f"no such node: {name}") from None

    def names(self) -> List[str]:
        return list(self.nodes)

    def rack_of(self, name: str) -> str:
        """The rack a node belongs to."""
        try:
            return self.node_rack[name]
        except KeyError:
            raise ClusterError(f"no such node: {name}") from None

    def racks(self) -> Dict[str, List[str]]:
        """Rack id -> member node names, in registration order."""
        out: Dict[str, List[str]] = {}
        for name, rack in self.node_rack.items():
            out.setdefault(rack, []).append(name)
        return out


def _base(default_link: LinkSpec) -> Cluster:
    env = Environment()
    net = Network(env, default=default_link)
    fs = FileSystem(net, DiskSpec())
    return Cluster(env=env, network=net, fs=fs)


def gige_cluster(n_nodes: int = 2, ram_bytes: int = gb(32)) -> Cluster:
    """The paper's evaluation cluster: GigE, 32 GB Xeon nodes named
    ``node0..node{n-1}``."""
    cluster = _base(LinkSpec(bandwidth=gbps(1), latency=us(80)))
    for i in range(n_nodes):
        cluster.add_node(NodeSpec(name=f"node{i}", ram_bytes=ram_bytes))
    return cluster


def serve_cluster(n_nodes: int = 4,
                  cpu_weights: Optional[List[float]] = None,
                  ram_bytes: int = gb(32),
                  rack_size: int = 4,
                  cross_rack_latency: float = us(320)) -> Cluster:
    """The elastic-serving testbed: ``n_nodes`` GigE nodes named
    ``node0..node{n-1}``, grouped into racks of ``rack_size``.

    Links within a rack are one switch hop (the default GigE latency);
    links between racks cross an aggregation switch and pay
    ``cross_rack_latency`` one way, so topology-aware offload placement
    has a real gradient to exploit.  ``cpu_weights`` (one per node)
    makes the cluster heterogeneous: weight w serves w times the
    requests of weight 1 and runs guest code w times faster
    (``speed_factor = 1/w``).
    """
    if cpu_weights is not None and len(cpu_weights) != n_nodes:
        raise ClusterError(
            f"expected {n_nodes} cpu weights, got {len(cpu_weights)}")
    if rack_size < 1:
        raise ClusterError(f"rack size must be >= 1, got {rack_size}")
    cluster = _base(LinkSpec(bandwidth=gbps(1), latency=us(80)))
    for i in range(n_nodes):
        w = cpu_weights[i] if cpu_weights is not None else 1.0
        if w <= 0:
            raise ClusterError(f"node{i}: cpu weight must be > 0, got {w}")
        cluster.add_node(NodeSpec(name=f"node{i}", ram_bytes=ram_bytes,
                                  speed_factor=1.0 / w, cpu_weight=w),
                         rack=f"rack{i // rack_size:03d}")
    slow = LinkSpec(bandwidth=gbps(1), latency=cross_rack_latency)
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if i // rack_size != j // rack_size:
                cluster.network.set_link(f"node{i}", f"node{j}", slow)
    return cluster


def wan_grid(n_servers: int = 10) -> Cluster:
    """WAN-connected grid: one client plus ``n_servers`` NFS servers.

    WAN links are much slower than GigE (the roaming study's gains come
    from avoiding WAN NFS reads): 200 Mbps with 5 ms one-way latency.
    """
    cluster = _base(LinkSpec(bandwidth=gbps(0.2), latency=ms(5)))
    cluster.add_node(NodeSpec(name="client"))
    for i in range(n_servers):
        cluster.add_node(NodeSpec(name=f"server{i}"))
    return cluster


def phone_setup(bandwidth_kbps: float = 764.0) -> Cluster:
    """A cluster node plus an iPhone 3G over rate-limited Wi-Fi.

    The iPhone 3G: 412 MHz ARM (≈25x slower than the Xeon reference),
    128 MB RAM, JamVM without JVMTI (``has_vmti=False``), behind a router
    whose bandwidth-control service caps the link at ``bandwidth_kbps``.
    """
    cluster = _base(LinkSpec(bandwidth=gbps(1), latency=us(80)))
    cluster.add_node(NodeSpec(name="server"))
    cluster.add_node(NodeSpec(
        name="iphone",
        speed_factor=25.0,
        ram_bytes=mb(128),
        has_vmti=False,
        kind="phone",
    ))
    wifi = LinkSpec(bandwidth=kbps(bandwidth_kbps), latency=ms(4),
                    per_message_bytes=48)
    cluster.network.set_link("server", "iphone", wifi)
    return cluster
