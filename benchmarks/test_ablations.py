"""Ablation: a pre-started worker JVM vs a cold spawn."""

from repro.cluster import gige_cluster
from repro.lang import compile_source
from repro.migration import SODEngine
from repro.preprocess import preprocess_program

SRC = """
class T {
  static int work(int n) { return T.step(n); }
  static int step(int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) { s = s + i; }
    return s;
  }
}
"""


def _offload(prestart: bool):
    classes = preprocess_program(compile_source(SRC), "faulting")
    eng = SODEngine(gige_cluster(2), classes, prestart_workers=prestart)
    home = eng.host("node0")
    t = eng.spawn(home, "T", "work", [24])
    eng.run(home, t, stop=lambda th: th.frames[-1].code.name == "step")
    result, rec = eng.run_segment_remote(home, t, "node1", 1)
    assert result == sum(range(24))
    return eng.timeline, rec


def test_ablation_worker_prestart():
    """Cold worker spawn adds the paper's worker-JVM startup cost."""
    warm, rec_warm = _offload(prestart=True)
    cold, rec_cold = _offload(prestart=False)
    assert rec_cold.worker_spawn_time > 0 == rec_warm.worker_spawn_time
    assert cold > warm
