"""Task roaming study (section IV.C): ten 300 MB files on ten WAN NFS
servers; a search task roams to each server instead of pulling the data
over the WAN.  Paper: 124.3 s -> 36.71 s, speedup 3.39.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import wan_grid
from repro.experiments.common import Table
from repro.lang import compile_source
from repro.migration import SODEngine
from repro.migration.policies import LocalityPolicy
from repro.migration.workflow import roam
from repro.preprocess import preprocess_program
from repro.units import mb
from repro.vm.costmodel import sodee_model
from repro.workloads import programs

PAPER_NO_MIG = 124.3
PAPER_ROAMING = 36.71
PAPER_SPEEDUP = 3.39

N_SERVERS = 10
FILE_MB = 300
NEEDLE = "xylophone"


def _setup():
    classes = preprocess_program(compile_source(programs.TEXTSEARCH),
                                 "faulting")
    cluster = wan_grid(N_SERVERS)
    for i in range(N_SERVERS):
        cluster.fs.host_file(cluster.node(f"server{i}"),
                             f"/grid/doc{i}.txt", mb(FILE_MB),
                             plant=[(mb(FILE_MB) - 2048, NEEDLE)])
    return classes, cluster


@dataclass
class RoamingResult:
    no_mig_seconds: float
    roaming_seconds: float

    @property
    def speedup(self) -> float:
        return self.no_mig_seconds / self.roaming_seconds


def measure() -> RoamingResult:
    # No migration: everything pulled over WAN NFS.
    classes, cluster = _setup()
    eng = SODEngine(cluster, classes, cost=sodee_model())
    client, t = eng.start("Search", "runMany", ["/grid/", NEEDLE],
                          at="client")
    assert eng.finish(client, t) == N_SERVERS
    no_mig = eng.timeline

    # Roaming: each searchFile call ships to the node hosting its file.
    # Workers are spawned on demand (ten distinct grid servers; nothing
    # is pre-started for the task, unlike the two-node cluster runs).
    classes, cluster = _setup()
    eng = SODEngine(cluster, classes, cost=sodee_model(),
                    prestart_workers=False)
    client, t = eng.start("Search", "runMany", ["/grid/", NEEDLE],
                          at="client")
    policy = LocalityPolicy(
        engine=eng,
        path_of=lambda th: th.frames[-1].locals[0]
        if isinstance(th.frames[-1].locals[0], str) else None)
    trigger = lambda th: (th.frames[-1].code.name == "searchFile"
                          and th.frames[-1].pc == 0)
    rep = roam(eng, client, t, itinerary=policy.destination,
               trigger=trigger, nframes=1)
    assert rep.result == N_SERVERS
    return RoamingResult(no_mig_seconds=no_mig,
                         roaming_seconds=rep.total_time)


def run() -> Table:
    r = measure()
    t = Table(
        title="Roaming study (section IV.C, paper vs repro)",
        header=("metric", "paper", "repro"),
    )
    t.add("no-migration (s)", PAPER_NO_MIG, r.no_mig_seconds)
    t.add("roaming (s)", PAPER_ROAMING, r.roaming_seconds)
    t.add("speedup", PAPER_SPEEDUP, r.speedup)
    return t


if __name__ == "__main__":  # pragma: no cover
    print(run().format())
