"""Checkpoint persistence tests: JSON roundtrip and resume-from-disk."""

import pytest

from repro.cluster import gige_cluster
from repro.errors import MigrationError
from repro.lang import compile_source
from repro.migration import (RestoreDriver, SODEngine, capture_segment,
                             run_to_msp)
from repro.migration.persistence import (load_checkpoint, save_checkpoint,
                                         state_from_json, state_to_json)
from repro.preprocess import preprocess_program
from repro.vm import Machine, VMTI

SRC = """
class Cfg { int bonus; }
class Job {
  static Cfg cfg;
  static int main(int n) {
    Job.cfg = new Cfg();
    Job.cfg.bonus = 1000;
    int r = Job.chew(n);
    return r + Job.cfg.bonus;
  }
  static int chew(int n) {
    float scale = 2.5;
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      acc = acc + Sys.intOf(Sys.floatOf(i) * scale);
    }
    acc = acc + Job.cfg.bonus / 100;
    return acc;
  }
}
"""


@pytest.fixture()
def captured():
    classes = preprocess_program(compile_source(SRC), "faulting")
    m = Machine(classes)
    t = m.spawn("Job", "main", [20])
    m.run(t, stop=lambda th: th.frames[-1].code.name == "chew")
    m.run(t, max_instrs=40)  # into the loop, so `scale` is live
    run_to_msp(m, t)
    state = capture_segment(VMTI(m), t, 1, home_node="node0")
    return classes, m, t, state


def test_json_roundtrip_identity(captured):
    _classes, _m, _t, state = captured
    text = state_to_json(state)
    back = state_from_json(text)
    assert back.home_node == state.home_node
    assert back.class_names == state.class_names
    assert len(back.frames) == len(state.frames)
    assert back.frames[0].locals == state.frames[0].locals
    assert back.statics == state.statics
    # Re-serializing is stable (canonical form).
    assert state_to_json(back) == text


def test_roundtrip_preserves_floats_and_descriptors(captured):
    _c, _m, _t, state = captured
    back = state_from_json(state_to_json(state))
    locs = back.frames[0].locals
    assert any(isinstance(v, float) for v in locs)  # scale == 2.5
    assert any(isinstance(v, tuple) and v[0] == "@ref"
               for v in back.statics.values())


def test_nonfinite_floats_roundtrip():
    from repro.migration.state import CapturedFrame, CapturedState
    state = CapturedState(
        frames=[CapturedFrame("C", "m", 0, 0,
                              locals=[float("inf"), float("-inf")])],
        home_node="h", return_to="h")
    back = state_from_json(state_to_json(state))
    assert back.frames[0].locals == [float("inf"), float("-inf")]


def test_delta_capture_markers_roundtrip(captured):
    """A delta capture elides retained frames as ``FrameMarker`` rows
    and unchanged statics as ``@cached`` markers; the checkpoint writes
    both (it used to die on the marker's missing ``class_name``)."""
    from repro.migration.state import CACHED_TAG, FrameMarker
    _eng, _home, _t, state = captured
    state.frames.insert(0, FrameMarker(fp=123456789))
    state.statics[("Job", "cfg")] = (CACHED_TAG, 42)
    back = state_from_json(state_to_json(state))
    assert back.frames == state.frames
    assert back.statics == state.statics


def test_bad_checkpoint_rejected():
    with pytest.raises(MigrationError):
        state_from_json("not json {")
    with pytest.raises(MigrationError):
        state_from_json('{"format": 99}')
    with pytest.raises(MigrationError):
        state_from_json(
            '{"format": 1, "home_node": "h", "return_to": "h", '
            '"class_names": [], "statics": [], "frames": []}')


def test_resume_from_disk_checkpoint(tmp_path, captured):
    """Freeze a task to a file, bring the 'process' down, resume the
    checkpoint on a fresh node, and complete with the home heap."""
    classes, home_machine, home_thread, state = captured
    path = tmp_path / "job.ckpt.json"
    save_checkpoint(state, str(path))

    restored_state = load_checkpoint(str(path))
    eng = SODEngine(gige_cluster(2), classes)
    home = eng.host("node0")
    # Adopt the original home machine's heap/thread as the engine home
    # (the checkpoint references node0 oids).
    home.machine = home_machine
    home.server.machine = home_machine
    home.vmti = VMTI(home_machine)

    worker = eng.host("node1", with_classes=True)
    worker.attach_object_manager()
    driver = RestoreDriver(worker.machine, worker.vmti, restored_state)
    worker_thread = driver.restore(run_after=False)
    eng.run(worker, worker_thread)
    eng.complete_segment(worker, worker_thread, home, home_thread, 1)
    eng.run(home, home_thread)

    expected = Machine(classes).call("Job", "main", [20])
    assert home_thread.result == expected


def test_checkpoint_file_is_human_readable(tmp_path, captured):
    _c, _m, _t, state = captured
    path = tmp_path / "ckpt.json"
    save_checkpoint(state, str(path))
    text = path.read_text()
    assert '"class": "Job"' in text and '"method": "chew"' in text
