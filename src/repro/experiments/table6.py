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

from typing import Dict, Tuple

from repro.baselines import Jessica2Engine, XenEngine
from repro.cluster import gige_cluster
from repro.experiments.common import System, Table, run_system
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
    """The classes, the cluster with the three files on the server, and
    ``Search.run3``'s arguments."""
    classes = preprocess_program(compile_source(programs.TEXTSEARCH), build)
    cluster = gige_cluster(2)
    server = cluster.node("node1")
    paths = [f"/data/big{i}.txt" for i in range(3)]
    for path in paths:
        cluster.fs.host_file(server, path, mb(FILE_MB),
                             plant=[(mb(FILE_MB) - 4096, NEEDLE)])
    return classes, cluster, [*paths, NEEDLE]


#: the three systems at their default cost models; SODEE migrates the
#: whole remaining job (the run3 and searchFile frames)
SYSTEMS: Dict[str, System] = {
    "JESSICA2": System(Jessica2Engine, "faulting", jessica2_model),
    "Xen": System(XenEngine, "original", xen_model),
    "SODEE": System(SODEngine, "faulting", sodee_model, whole_stack=True),
}

#: (start node, trigger): on the client; migrated to the server right
#: before the first file is read; natively on the server
PLACEMENTS = (("node0", None),
              ("node0", on_method_entry("Search", "searchFile")),
              ("node1", None))


def measure(system: System) -> Tuple[float, ...]:
    """(no-mig, mig, on-server) seconds for one system."""
    seconds = []
    for at, trigger in PLACEMENTS:
        classes, cluster, args = _setup(system.build)
        eng, result, _rec = run_system(system, cluster, classes,
                                       system.model(), ("Search", "run3"),
                                       args, at=at, trigger=trigger)
        assert result == 3, result
        seconds.append(eng.timeline)
    return tuple(seconds)


def run() -> Table:
    t = Table(
        title="Table VI — NFS text-search locality (seconds, paper vs repro)",
        header=("System", "nomig(p)", "nomig", "mig(p)", "mig",
                "server(p)", "server", "gain%(p)", "gain%"),
    )
    for name, system in SYSTEMS.items():
        p = PAPER[name]
        no_mig, mig, local = measure(system)
        gain = 100.0 * (no_mig - mig) / mig
        t.add(name, p[0], no_mig, p[1], mig, p[2], local, p[3], gain)
    return t


if __name__ == "__main__":  # pragma: no cover
    print(run().format())
