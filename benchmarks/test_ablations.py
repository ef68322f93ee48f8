"""Ablation benches for the design choices DESIGN.md calls out.

* detection scheme: SOD with object-fault handlers vs status checks;
* worker pre-start: pre-started worker JVM vs cold spawn;
* segment size: latency as a function of frames migrated.
"""

import pytest
from conftest import once

from repro.cluster import gige_cluster
from repro.lang import compile_source
from repro.migration import SODEngine
from repro.preprocess import preprocess_program
from repro.vm import Machine

CHAIN_SRC = """
class Link { int v; Link next; }
class T {
  static Link head;
  static int setup(int n) {
    Link cur = null;
    for (int i = 0; i < n; i = i + 1) {
      Link fresh = new Link();
      fresh.v = i;
      fresh.next = cur;
      cur = fresh;
    }
    T.head = cur;
    return T.walk();
  }
  static int walk() {
    int s = 0;
    Link cur = T.head;
    while (cur != null) { s = s + cur.v; cur = cur.next; }
    return s;
  }
}
"""

DEEP_SRC = """
class T {
  static int deep(int n, int acc) {
    if (n == 0) { return T.leaf(acc); }
    return T.deep(n - 1, acc + n);
  }
  static int leaf(int acc) {
    int s = 0;
    for (int i = 0; i < 2000; i = i + 1) { s = s + i % 7; }
    return acc + s;
  }
  static int main(int n) { return T.deep(n, 0); }
}
"""


def _sod_run(build, prestart=True, n=24):
    classes = preprocess_program(compile_source(CHAIN_SRC), build)
    eng = SODEngine(gige_cluster(2), classes, prestart_workers=prestart)
    home = eng.host("node0")
    t = eng.spawn(home, "T", "setup", [n])
    eng.run(home, t, stop=lambda th: th.frames[-1].code.name == "walk")
    worker, wt, rec = eng.migrate(home, t, "node1", 1)
    eng.run(worker, wt)
    eng.complete_segment(worker, wt, home, t, 1)
    eng.run(home, t)
    return t.result, eng.timeline, worker.objman.stats, rec


def test_ablation_detection_scheme(benchmark):
    """Fault handlers vs status checks under SOD migration: identical
    results; the checking build executes strictly more instructions."""

    def run():
        res_f, time_f, _s, _r = _sod_run("faulting")
        res_c, time_c, _s2, _r2 = _sod_run("checking")
        return res_f, res_c, time_f, time_c

    res_f, res_c, time_f, time_c = once(benchmark, run)
    print(f"\nSOD faulting={time_f * 1e3:.2f} ms, "
          f"checking={time_c * 1e3:.2f} ms")
    assert res_f == res_c == sum(range(24))


def test_ablation_worker_prestart(benchmark):
    """Cold worker spawn adds the paper's worker-JVM startup cost."""

    def run():
        _r1, warm, _s1, rec_warm = _sod_run("faulting", prestart=True)
        _r2, cold, _s2, rec_cold = _sod_run("faulting", prestart=False)
        return warm, cold, rec_warm, rec_cold

    warm, cold, rec_warm, rec_cold = once(benchmark, run)
    print(f"\nprestarted={warm * 1e3:.1f} ms  cold={cold * 1e3:.1f} ms")
    assert rec_cold.worker_spawn_time > 0 == rec_warm.worker_spawn_time
    assert cold > warm


def test_ablation_segment_size(benchmark):
    """Capture/transfer grow with segment size; the top-frame-only
    migration is the cheapest (the SOD default)."""
    classes = preprocess_program(compile_source(DEEP_SRC), "faulting")
    ref = Machine(classes).call("T", "main", [12])

    def run():
        latencies = {}
        for nframes in (1, 4, 8, 12):
            eng = SODEngine(gige_cluster(2), classes)
            home = eng.host("node0")
            t = eng.spawn(home, "T", "main", [12])
            eng.run(home, t,
                    stop=lambda th: th.frames[-1].code.name == "leaf")
            result, rec = eng.run_segment_remote(home, t, "node1", nframes)
            assert result == ref
            latencies[nframes] = rec.latency
        return latencies

    latencies = once(benchmark, run)
    print("\nsegment-size sweep (latency ms):",
          {k: round(v * 1e3, 2) for k, v in latencies.items()})
    assert latencies[1] < latencies[12]


def test_interpreter_throughput(benchmark):
    """Raw VM speed (host-side): guards against interpreter regressions."""
    classes = preprocess_program(compile_source(
        "class F { static int fib(int n) { if (n < 2) { return n; } "
        "return F.fib(n-1) + F.fib(n-2); } }"), "original")

    def run():
        m = Machine(classes)
        m.call("F", "fib", [18])
        return m.instr_count

    instrs = benchmark(run)
    assert instrs > 10_000


def test_capture_restore_microbench(benchmark):
    """Capture+restore cycle cost for a 10-frame recursive segment."""
    classes = preprocess_program(compile_source(DEEP_SRC), "faulting")

    def run():
        from repro.migration import RestoreDriver, capture_segment, run_to_msp
        from repro.vm import VMTI
        m = Machine(classes)
        t = m.spawn("T", "main", [10])
        m.run(t, stop=lambda th: th.frames[-1].code.name == "leaf")
        run_to_msp(m, t)
        state = capture_segment(VMTI(m), t, 10, home_node="home")
        dst = Machine(classes)
        restored = RestoreDriver(dst, VMTI(dst), state).restore()
        return restored.depth()

    assert benchmark(run) == 10
