"""Figure 1 — the three SOD execution flows, demonstrated and timed.

The paper's figure is qualitative; the reproduction runs a three-frame
program through each flow and reports per-flow timelines plus the
latency hidden by overlap in flows (b) and (c).  All three flows must
produce the identical result of a local run — that is the headline
correctness property of the whole system.
"""

from __future__ import annotations

from typing import Tuple

from repro.cluster import gige_cluster
from repro.experiments.common import Table
from repro.lang import compile_source
from repro.migration import SODEngine
from repro.migration.policies import on_method_entry
from repro.migration.workflow import multi_hop, partial_return, total_migration
from repro.preprocess import preprocess_program
from repro.units import to_ms
from repro.vm.costmodel import sodee_model
from repro.vm.machine import Machine

# Three nested calls, each doing enough work that overlap is visible.
SOURCE = """
class Flow {
  static int trace;
  static int main(int n) {
    Flow.trace = 1;
    int r = Flow.outer(n);
    return r + Flow.trace;
  }
  static int outer(int n) { return Flow.middle(n) * 3 + 1; }
  static int middle(int n) { return Flow.inner(n) + 7; }
  static int inner(int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) {
      s = s + i * i % 97;
    }
    Flow.trace = Flow.trace + 1;
    return s;
  }
}
"""

N = 60000  # enough inner work to hide a residual push behind it


def _fresh():
    classes = preprocess_program(compile_source(SOURCE), "faulting")
    eng = SODEngine(gige_cluster(3), classes,
                    cost=sodee_model(instr_seconds=2e-7))
    home = eng.host("node0")
    t = eng.spawn(home, "Flow", "main", [N])
    eng.run(home, t, stop=on_method_entry("Flow", "inner"))
    return classes, eng, home, t


def reference() -> int:
    classes = preprocess_program(compile_source(SOURCE), "faulting")
    return Machine(classes).call("Flow", "main", [N])


def run() -> Table:
    ref = reference()
    t = Table(
        title="Figure 1 — SOD execution flows (repro timings)",
        header=("flow", "result", "ok", "total ms", "hidden ms",
                "migrations"),
    )

    classes, eng, home, th = _fresh()
    rep = partial_return(eng, home, th, "node1", nframes=1)
    t.add("(a) partial, return home", rep.result, rep.result == ref,
          to_ms(rep.total_time), to_ms(rep.hidden_latency),
          len(rep.records))

    classes, eng, home, th = _fresh()
    rep = total_migration(eng, home, th, "node1", top_frames=1)
    t.add("(b) total migration", rep.result, rep.result == ref,
          to_ms(rep.total_time), to_ms(rep.hidden_latency),
          len(rep.records))

    classes, eng, home, th = _fresh()
    rep = multi_hop(eng, home, th, "node1", "node2",
                    top_frames=1, second_frames=2)
    t.add("(c) multi-hop workflow", rep.result, rep.result == ref,
          to_ms(rep.total_time), to_ms(rep.hidden_latency),
          len(rep.records))
    t.notes.append("hidden ms = second-hop latency overlapped with "
                   "segment-1 execution (freeze-time hiding, section II.A)")
    return t


if __name__ == "__main__":  # pragma: no cover
    print(run().format())
