"""Table VI — locality gain from migrating a full-text search to the
NFS server hosting its data (3 x 600 MB files).

Three configurations per system, as in the paper:
run on the NFS client with no migration; migrate to the server right
before any file is read; run natively on the server.  Performance gain
is (no-mig - mig) / mig.

Shape claims: SODEE converts most of the possible gain (its migration is
cheap); JESSICA2 gains almost nothing (its JVM's I/O path is the
bottleneck on both nodes); Xen gains almost nothing (migration overhead
eats the locality win).
"""

from __future__ import annotations

from typing import Tuple

from repro.baselines import Jessica2Engine, XenEngine
from repro.cluster import gige_cluster
from repro.experiments.common import Table
from repro.lang import compile_source
from repro.migration import SODEngine
from repro.migration.policies import on_method_entry
from repro.preprocess import preprocess_program
from repro.units import mb
from repro.vm.costmodel import jessica2_model, sodee_model, xen_model
from repro.workloads import programs

PAPER = {
    "JESSICA2": (358.10, 348.08, 343.31, 2.88),
    "Xen": (57.72, 57.29, 50.71, 0.75),
    "SODEE": (23.25, 18.81, 16.01, 23.60),
}

FILE_MB = 600
NEEDLE = "xylophone"


def _setup(build: str):
    classes = preprocess_program(compile_source(programs.TEXTSEARCH), build)
    cluster = gige_cluster(2)
    server = cluster.node("node1")
    paths = []
    for i in range(3):
        path = f"/data/big{i}.txt"
        cluster.fs.host_file(server, path, mb(FILE_MB),
                             plant=[(mb(FILE_MB) - 4096, NEEDLE)])
        paths.append(path)
    return classes, cluster, paths


def _args(paths):
    return [paths[0], paths[1], paths[2], NEEDLE]


def run_sodee() -> Tuple[float, float, float]:
    """(no-mig, mig, on-server) seconds for SODEE."""
    classes, cluster, paths = _setup("faulting")
    eng = SODEngine(cluster, classes, cost=sodee_model())
    home = eng.host("node0")
    t = eng.spawn(home, "Search", "run3", _args(paths))
    eng.run(home, t)
    no_mig = eng.timeline

    classes, cluster, paths = _setup("faulting")
    eng = SODEngine(cluster, classes, cost=sodee_model())
    home = eng.host("node0")
    t = eng.spawn(home, "Search", "run3", _args(paths))
    # Trigger before any file is read: at entry of the first searchFile.
    eng.run(home, t, stop=on_method_entry("Search", "searchFile"))
    # Migrate the whole remaining job (run3 + searchFile frames).
    result, _rec = eng.run_segment_remote(home, t, "node1",
                                          nframes=t.depth())
    assert result == 3, result
    mig = eng.timeline

    classes, cluster, paths = _setup("faulting")
    eng = SODEngine(cluster, classes, cost=sodee_model())
    server = eng.host("node1")
    t = eng.spawn(server, "Search", "run3", _args(paths))
    eng.run(server, t)
    local = eng.timeline
    return no_mig, mig, local


def run_jessica2() -> Tuple[float, float, float]:
    classes, cluster, paths = _setup("faulting")
    eng = Jessica2Engine(cluster, classes, jessica2_model())
    m, t = eng.start("Search", "run3", _args(paths), at="node0")
    eng.run(m, t)
    no_mig = eng.timeline

    classes, cluster, paths = _setup("faulting")
    eng = Jessica2Engine(cluster, classes, jessica2_model())
    m, t = eng.start("Search", "run3", _args(paths), at="node0")
    eng.run(m, t, stop=on_method_entry("Search", "searchFile"))
    dm, wt, _rec = eng.migrate(m, t, "node1")
    result = eng.finish(dm, wt)
    assert result == 3, result
    mig = eng.timeline

    classes, cluster, paths = _setup("faulting")
    eng = Jessica2Engine(cluster, classes, jessica2_model())
    m, t = eng.start("Search", "run3", _args(paths), at="node1")
    eng.run(m, t)
    local = eng.timeline
    return no_mig, mig, local


def run_xen() -> Tuple[float, float, float]:
    classes, cluster, paths = _setup("original")
    eng = XenEngine(cluster, classes, xen_model())
    m, t = eng.start("Search", "run3", _args(paths), at="node0")
    eng.run(m, t)
    no_mig = eng.timeline

    classes, cluster, paths = _setup("original")
    eng = XenEngine(cluster, classes, xen_model())
    m, t = eng.start("Search", "run3", _args(paths), at="node0")
    eng.run(m, t, stop=on_method_entry("Search", "searchFile"))
    m, t, _rec = eng.migrate(m, t, "node1")
    result = eng.finish(m, t)
    assert result == 3, result
    mig = eng.timeline

    classes, cluster, paths = _setup("original")
    eng = XenEngine(cluster, classes, xen_model())
    m, t = eng.start("Search", "run3", _args(paths), at="node1")
    eng.run(m, t)
    local = eng.timeline
    return no_mig, mig, local


def run() -> Table:
    t = Table(
        title="Table VI — NFS text-search locality (seconds, paper vs repro)",
        header=("System", "nomig(p)", "nomig", "mig(p)", "mig",
                "server(p)", "server", "gain%(p)", "gain%"),
    )
    for system, runner in (("JESSICA2", run_jessica2), ("Xen", run_xen),
                           ("SODEE", run_sodee)):
        p = PAPER[system]
        no_mig, mig, local = runner()
        gain = 100.0 * (no_mig - mig) / mig
        t.add(system, p[0], no_mig, p[1], mig, p[2], local, p[3], gain)
    return t


if __name__ == "__main__":  # pragma: no cover
    print(run().format())
