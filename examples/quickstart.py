#!/usr/bin/env python
"""Quickstart: compile a guest program, preprocess it for migration,
run it locally, then migrate its hot method to another node mid-flight.

Run:  python examples/quickstart.py
"""

from repro.cluster import gige_cluster
from repro.lang import compile_source
from repro.migration import SODEngine
from repro.migration.policies import on_method_entry
from repro.preprocess import preprocess_program
from repro.vm import Machine

SOURCE = """
class Stats { int samples; }
class App {
  static Stats stats;
  static int crunch(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      acc = acc + i * i % 1000;
      App.stats.samples = App.stats.samples + 1;
    }
    return acc;
  }
  static int main(int n) {
    App.stats = new Stats();
    int r = App.crunch(n);
    Sys.print("samples=" + App.stats.samples);
    return r;
  }
}
"""


def main() -> None:
    # 1. Compile MiniLang to bytecode and run the class preprocessor:
    #    the "faulting" build carries migration-safe points, restoration
    #    handlers and object-fault handlers (paper section III).
    classes = preprocess_program(compile_source(SOURCE), "faulting")

    # 2. Plain local run for reference.
    local = Machine(classes)
    expected = local.call("App", "main", [5000])
    print(f"local result       : {expected}")

    # 3. A two-node GigE cluster; start the program on node0.
    engine = SODEngine(gige_cluster(2), classes)
    home = engine.host("node0")
    thread = engine.spawn(home, "App", "main", [5000])

    # 4. Run until the hot method is entered, then ship its frame to
    #    node1.  The heap stays home; objects fault over on demand.
    engine.run(home, thread,
               stop=on_method_entry("App", "crunch"))
    result, record = engine.run_segment_remote(home, thread, "node1",
                                               nframes=1)
    print(f"migrated result    : {result}")
    assert result == expected

    worker = engine.hosts["node1"]
    print(f"migration latency  : {record.latency * 1e3:.2f} ms "
          f"(capture {record.capture_time * 1e3:.2f} / "
          f"transfer {record.transfer_time * 1e3:.2f} / "
          f"restore {record.restore_time * 1e3:.2f})")
    print(f"captured state     : {record.state_bytes} bytes "
          f"({record.nframes} frame)")
    print(f"object faults      : {worker.objman.stats.faults} "
          f"({worker.objman.stats.fetched_bytes} bytes fetched on demand)")
    print(f"simulated time     : {engine.timeline:.4f} s")
    print(f"guest console      : {home.machine.stdout}")


if __name__ == "__main__":
    main()
