#!/usr/bin/env python
"""The three elastic execution flows of the paper's Fig. 1:

(a) partial migration with return-to-home;
(b) total migration (residual pushed behind the executing segment);
(c) multi-hop workflow across three nodes with freeze-time hiding.

All three must produce the same answer as a purely local run.

Run:  python examples/elastic_workflows.py
"""

from repro.cluster import gige_cluster
from repro.lang import compile_source
from repro.migration import SODEngine
from repro.migration.policies import on_method_entry
from repro.migration.workflow import (multi_hop, partial_return,
                                      total_migration)
from repro.preprocess import preprocess_program
from repro.units import to_ms
from repro.vm import Machine
from repro.vm.costmodel import sodee_model

SOURCE = """
class Pipeline {
  static int audit;
  static int main(int n) {
    Pipeline.audit = 1;
    int r = Pipeline.stage1(n);
    return r + Pipeline.audit;
  }
  static int stage1(int n) { return Pipeline.stage2(n) * 2 + 1; }
  static int stage2(int n) { return Pipeline.stage3(n) + 7; }
  static int stage3(int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) { s = s + i % 13; }
    Pipeline.audit = Pipeline.audit + 1;
    return s;
  }
}
"""

N = 60_000


def fresh():
    classes = preprocess_program(compile_source(SOURCE), "faulting")
    engine = SODEngine(gige_cluster(3), classes,
                       cost=sodee_model(instr_seconds=2e-7))
    home = engine.host("node0")
    thread = engine.spawn(home, "Pipeline", "main", [N])
    engine.run(home, thread,
               stop=on_method_entry("Pipeline", "stage3"))
    return engine, home, thread


def main() -> None:
    classes = preprocess_program(compile_source(SOURCE), "faulting")
    expected = Machine(classes).call("Pipeline", "main", [N])
    print(f"local reference: {expected}\n")

    engine, home, thread = fresh()
    rep = partial_return(engine, home, thread, "node1", nframes=1)
    print(f"(a) partial return : result={rep.result} "
          f"total={to_ms(rep.total_time):8.2f} ms")
    assert rep.result == expected

    engine, home, thread = fresh()
    rep = total_migration(engine, home, thread, "node1", top_frames=1)
    print(f"(b) total migration: result={rep.result} "
          f"total={to_ms(rep.total_time):8.2f} ms  "
          f"hidden={to_ms(rep.hidden_latency):6.2f} ms "
          f"(residual push behind stage3 execution)")
    assert rep.result == expected

    engine, home, thread = fresh()
    rep = multi_hop(engine, home, thread, "node1", "node2",
                    top_frames=1, second_frames=2)
    print(f"(c) multi-hop      : result={rep.result} "
          f"total={to_ms(rep.total_time):8.2f} ms  "
          f"hidden={to_ms(rep.hidden_latency):6.2f} ms "
          f"(second hop latency hidden, value forwarded node1->node2)")
    assert rep.result == expected

    print("\nall three flows agree with the local run.")


if __name__ == "__main__":
    main()
