"""Table II — execution time on each system with and without migration.

The JDK column is the calibration anchor (per-instruction time is chosen
so the reduced-size run lands on the paper's JDK seconds); every other
column is *measured* from the mechanisms: agent overhead, execution
factors, migration latency, object faults, write-back.
"""

from __future__ import annotations

from repro.experiments.common import SYSTEMS, Table, outcome
from repro.workloads import WORKLOADS

#: paper values: workload -> (JDK, then (no-mig, mig) per system)
PAPER = {
    "Fib": (12.10, (12.13, 12.19), (12.03, 12.19), (49.57, 49.69), (26.65, 30.35)),
    "NQ": (6.26, (6.38, 6.41), (6.27, 6.58), (38.20, 38.40), (13.85, 18.76)),
    "FFT": (12.39, (12.60, 12.71), (12.48, 15.02), (255.3, 257.8), (16.52, 23.68)),
    "TSP": (2.92, (3.04, 3.22), (3.09, 3.23), (20.93, 21.85), (7.01, 13.46)),
}


def run() -> Table:
    header = ["App", "JDK(p)", "JDK"]
    for s in SYSTEMS:
        header += [f"{s} nomig(p)", f"{s} nomig", f"{s} mig(p)", f"{s} mig"]
    t = Table(title="Table II — execution time (seconds, paper 'p' vs repro)",
              header=header)
    for name in WORKLOADS:
        paper = PAPER[name]
        row = [name, paper[0], outcome("JDK", name, False).exec_seconds]
        for i, s in enumerate(SYSTEMS):
            p_nomig, p_mig = paper[1 + i]
            row += [p_nomig, outcome(s, name, False).exec_seconds,
                    p_mig, outcome(s, name, True).exec_seconds]
        t.add(*row)
    t.notes.append("JDK column calibrates instruction time; see repro.workloads.registry.")
    return t


if __name__ == "__main__":  # pragma: no cover
    print(run().format())
