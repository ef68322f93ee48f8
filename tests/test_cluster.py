"""Cluster substrate tests: nodes, links, NFS, topologies."""

import pytest

from repro.cluster import (Cluster, DiskSpec, FileSystem, LinkSpec, Network,
                           NodeSpec, gige_cluster, phone_setup,
                           wan_grid)
from repro.errors import ClusterError
from repro.units import gbps, kbps, mb, us


# -- links / network ------------------------------------------------------

def test_link_transfer_time_includes_latency_and_framing():
    spec = LinkSpec(bandwidth=1000.0, latency=0.5, per_message_bytes=100)
    # 900 payload + 100 framing at 1000 B/s + 0.5 s latency
    assert spec.transfer_time(900) == pytest.approx(1.5)


def test_link_rejects_negative_size():
    with pytest.raises(ClusterError):
        LinkSpec().transfer_time(-1)


def test_network_default_and_override():
    net = Network(default=LinkSpec(bandwidth=gbps(1)))
    slow = LinkSpec(bandwidth=kbps(50))
    net.set_link("a", "phone", slow)
    assert net.link("a", "phone") is slow
    assert net.link("phone", "a") is slow  # symmetric
    assert net.link("a", "b").bandwidth == gbps(1)


def test_network_loopback_is_cheap():
    net = Network()
    assert net.transfer_time("a", "a", mb(1)) < net.transfer_time("a", "b", mb(1))


def test_network_accounts_bytes_and_messages():
    net = Network()
    net.transfer_time("a", "b", 1000)
    net.transfer_time("a", "b", 500)
    assert net.bytes_moved[("a", "b")] == 1500
    assert net.messages[("a", "b")] == 2
    assert net.total_bytes() == 1500


def test_rtt_counts_both_directions():
    net = Network()
    net.rtt("a", "b", 100, 200)
    assert net.bytes_moved[("a", "b")] == 100
    assert net.bytes_moved[("b", "a")] == 200


def test_transfer_proc_serializes_on_same_link():
    net = Network()
    env = net.env
    done = []

    def xfer(name, nbytes):
        yield from net.transfer_proc("a", "b", nbytes)
        done.append((name, env.now))

    env.process(xfer("one", mb(100)))
    env.process(xfer("two", mb(100)))
    env.run()
    t1 = done[0][1]
    t2 = done[1][1]
    assert t2 == pytest.approx(2 * t1, rel=0.01)


# -- nodes ------------------------------------------------------------------

# -- file system ---------------------------------------------------------------

@pytest.fixture()
def fs_pair():
    cluster = gige_cluster(2)
    f = cluster.fs.host_file(cluster.node("node1"), "/data/a.txt", mb(10),
                             plant=[(1000, "needle")])
    return cluster, f


def test_stat_and_exists(fs_pair):
    cluster, f = fs_pair
    assert cluster.fs.stat("/data/a.txt").size == mb(10)
    assert cluster.fs.exists("/data/a.txt")
    assert not cluster.fs.exists("/data/b.txt")
    with pytest.raises(ClusterError):
        cluster.fs.stat("/data/missing")


def test_duplicate_file_rejected(fs_pair):
    cluster, _ = fs_pair
    with pytest.raises(ClusterError):
        cluster.fs.host_file(cluster.node("node0"), "/data/a.txt", 10)


def test_listdir_prefix(fs_pair):
    cluster, _ = fs_pair
    cluster.fs.host_file(cluster.node("node0"), "/data/b.txt", 10)
    cluster.fs.host_file(cluster.node("node0"), "/other/c.txt", 10)
    assert cluster.fs.listdir("/data/") == ["/data/a.txt", "/data/b.txt"]


def test_window_content_is_deterministic(fs_pair):
    _, f = fs_pair
    w1 = f.window(4096, 256)
    w2 = f.window(4096, 256)
    assert w1 == w2
    assert len(w1) == 256


def test_window_plant_visible(fs_pair):
    _, f = fs_pair
    w = f.window(900, 300)
    assert "needle" in w


def test_window_plant_partial_overlap(fs_pair):
    _, f = fs_pair
    # window covers only the first 3 chars of the plant at offset 1000
    w = f.window(900, 103)
    assert w.endswith("nee")


def test_window_out_of_range(fs_pair):
    _, f = fs_pair
    with pytest.raises(ClusterError):
        f.window(mb(10) - 10, 100)


def test_local_read_cheaper_than_nfs(fs_pair):
    cluster, _ = fs_pair
    local = cluster.fs.read_cost("node1", "/data/a.txt", 0, mb(10))
    remote = cluster.fs.read_cost("node0", "/data/a.txt", 0, mb(10))
    assert local < remote


def test_nfs_read_pipelines_disk_and_wire(fs_pair):
    cluster, _ = fs_pair
    remote = cluster.fs.read_cost("node0", "/data/a.txt", 4096, mb(1))
    disk = mb(1) / cluster.fs.disk.read_bandwidth
    wire = cluster.network.link("node1", "node0").transfer_time(mb(1))
    assert remote == pytest.approx(max(disk, wire)
                                   + cluster.network.rtt("node0", "node1", 256, 0),
                                   rel=0.05)


def test_read_returns_content_and_cost(fs_pair):
    cluster, _ = fs_pair
    content, cost = cluster.fs.read("node0", "/data/a.txt", 990, 100)
    assert "needle" in content
    assert cost > 0


# -- topologies -------------------------------------------------------------------

def test_gige_cluster_nodes():
    c = gige_cluster(4)
    assert sorted(c.names()) == ["node0", "node1", "node2", "node3"]
    assert c.node("node0").spec.has_vmti


def test_duplicate_node_rejected():
    c = gige_cluster(1)
    with pytest.raises(ClusterError):
        c.add_node(NodeSpec(name="node0"))


def test_unknown_node_rejected():
    c = gige_cluster(1)
    with pytest.raises(ClusterError):
        c.node("nope")


def test_wan_grid_has_client_and_servers():
    c = wan_grid(3)
    assert "client" in c.names()
    assert "server2" in c.names()


def test_phone_setup_properties():
    c = phone_setup(128)
    phone = c.node("iphone")
    assert not phone.spec.has_vmti
    assert phone.spec.speed_factor > 10
    link = c.network.link("server", "iphone")
    assert link.bandwidth == pytest.approx(kbps(128))
