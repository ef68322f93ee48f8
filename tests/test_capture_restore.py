"""Capture / restore mechanics (sections III.B.1-2)."""

import pytest

from repro.cluster import gige_cluster
from repro.errors import MigrationError
from repro.lang import compile_source
from repro.migration import (RestoreDriver, SODEngine, capture_segment,
                             java_level_restore, run_to_msp)
from repro.migration.segments import pin_methods
from repro.preprocess import preprocess_program
from repro.vm import Machine, RemoteRef, VMTI
from tests.helpers import loop_meter  # noqa: F401 (a fixture)

SRC = """
class Data { int v; }
class R {
  static Data shared;
  static int outer(int n) {
    R.shared = new Data();
    R.shared.v = 50;
    int x = R.middle(n);
    return x + R.shared.v;
  }
  static int middle(int n) { return R.inner(n) * 2; }
  static int inner(int n) {
    int acc = 3;
    for (int i = 0; i < n; i = i + 1) { acc = acc + i; }
    acc = acc + R.shared.v;
    return acc;
  }
}
"""


@pytest.fixture()
def classes():
    return preprocess_program(compile_source(SRC), "faulting")


@pytest.fixture()
def paused(classes):
    m = Machine(classes)
    t = m.spawn("R", "outer", [4])
    m.run(t, stop=lambda th: th.frames[-1].code.name == "inner")
    run_to_msp(m, t)
    return m, VMTI(m), t


def test_run_to_msp_lands_on_msp(paused):
    m, vmti, t = paused
    top = t.frames[-1]
    assert top.pc in top.code.msps
    assert not top.stack


def test_capture_top_frame(paused):
    m, vmti, t = paused
    state = capture_segment(vmti, t, 1, home_node="home")
    assert len(state.frames) == 1
    rec = state.frames[0]
    assert (rec.class_name, rec.method_name) == ("R", "inner")
    assert rec.pc in t.frames[-1].code.msps
    assert rec.locals[0] == 4  # n by value


def test_capture_segment_order_outermost_first(paused):
    m, vmti, t = paused
    state = capture_segment(vmti, t, 3, home_node="home")
    names = [f.method_name for f in state.frames]
    assert names == ["outer", "middle", "inner"]
    # Suspended callers restore at their call-line start.
    for f in state.frames[:-1]:
        assert f.pc <= f.raw_pc


def test_capture_encodes_statics(paused):
    m, vmti, t = paused
    state = capture_segment(vmti, t, 1, home_node="home")
    enc = state.statics[("R", "shared")]
    assert enc[0] == "@ref"  # object static travels as a descriptor


def test_capture_rejects_bad_sizes(paused):
    m, vmti, t = paused
    with pytest.raises(MigrationError):
        capture_segment(vmti, t, 0, home_node="h")
    with pytest.raises(MigrationError):
        capture_segment(vmti, t, 99, home_node="h")


def test_capture_rejects_pinned_frames(paused):
    m, vmti, t = paused
    pin_methods(t, ["R.middle"])
    capture_segment(vmti, t, 1, home_node="h")  # top only: fine
    with pytest.raises(MigrationError):
        capture_segment(vmti, t, 2, home_node="h")


def test_capture_off_msp_rejected(classes):
    m = Machine(classes)
    t = m.spawn("R", "outer", [4])
    # stop mid-group: right after the first instruction
    m.run(t, max_instrs=1)
    if t.frames[-1].pc in t.frames[-1].code.msps:
        m.run(t, max_instrs=1)
    with pytest.raises(MigrationError):
        capture_segment(VMTI(m), t, 1, home_node="h")


def test_capture_charges_getlocal_costs(paused):
    m, vmti, t = paused
    before = m.clock
    state = capture_segment(vmti, t, 1, home_node="h")
    nlocals = len(state.frames[0].locals)
    assert m.clock - before >= nlocals * m.cost.vmti.get_local


def test_restore_driver_rebuilds_equivalent_state(classes, paused):
    src_m, vmti, t = paused
    state = capture_segment(vmti, t, 3, home_node="home")

    dst = Machine(classes)
    driver = RestoreDriver(dst, VMTI(dst), state)
    restored = driver.restore()
    assert restored.depth() == 3
    names = [f.code.name for f in restored.frames]
    assert names == ["outer", "middle", "inner"]
    # Locals restored: inner's n == 4; object refs are remote sentinels.
    assert restored.frames[-1].locals[0] == 4
    statics = dst.loader.load("R").statics
    assert isinstance(statics["shared"], RemoteRef)
    # Restoration used breakpoints + injected InvalidStateException only.
    assert not dst.breakpoints


def _plain_frames(thread):
    """Method, pc, locals and stack of every frame; a remote sentinel as
    what it names (it is a fresh object on every machine)."""
    def plain(v):
        if isinstance(v, RemoteRef):
            return ("@ref", v.home_oid, v.home_node)
        return v
    return [(f.code.qualname, f.pc, [plain(v) for v in f.locals],
             [plain(v) for v in f.stack]) for f in thread.frames]


def test_restore_runs_off_the_hooked_loop(classes, paused, loop_meter):
    """Restoring ``outer/middle/inner`` traps at each frame's entry
    breakpoint and at the declared stop point: 4 trap hits, and the
    hooked loop runs exactly one instruction per breakpoint hit (the
    first of the injected handler).  Everything it rebuilds — and the
    instructions and clock it took — equals a legacy machine's."""
    src_m, vmti, t = paused
    state = capture_segment(vmti, t, 3, home_node="home")
    twin = Machine(classes, dispatch="legacy")
    want = RestoreDriver(twin, VMTI(twin), state).restore()
    loop_meter.update(hooked_instrs=0, trap_hits=0)

    dst = Machine(classes)
    restored = RestoreDriver(dst, VMTI(dst), state).restore()
    assert loop_meter == {"trap_hits": 4, "hooked_instrs": 3}
    assert _plain_frames(restored) == _plain_frames(want)
    assert [f.code.name for f in restored.frames] == [
        "outer", "middle", "inner"]
    assert dst.instr_count == twin.instr_count
    assert dst.clock == twin.clock
    assert not dst.breakpoints and dst.on_breakpoint is None


def test_a_failing_restore_leaves_no_hook_armed(classes, paused,
                                                monkeypatch):
    """A restoration that raises mid-run (here the second value decode:
    a local read by the injected handler, with frame breakpoints
    armed) disarms anyway: no breakpoint and no callback of the dead
    driver stays on the worker to trap its later runs."""
    import repro.migration.restore as restore_mod
    src_m, vmti, t = paused
    state = capture_segment(vmti, t, 3, home_node="home")
    real, calls = restore_mod.decode_value, []

    def failing(enc, loc):
        calls.append(loc)
        if len(calls) == 2:
            raise RuntimeError("decode failed")
        return real(enc, loc)

    monkeypatch.setattr(restore_mod, "decode_value", failing)
    dst = Machine(classes)
    with pytest.raises(RuntimeError, match="decode failed"):
        RestoreDriver(dst, VMTI(dst), state).restore()
    assert dst.breakpoints == frozenset()
    assert dst.on_breakpoint is None


def test_java_level_restore_equivalent(classes, paused):
    src_m, vmti, t = paused
    state = capture_segment(vmti, t, 3, home_node="home")
    dst = Machine(classes)
    restored = java_level_restore(dst, state)
    assert [f.code.name for f in restored.frames] == ["outer", "middle",
                                                      "inner"]
    assert restored.frames[-1].pc == state.frames[-1].pc
    # Callers resume after their calls (raw pc), not at the call line.
    assert restored.frames[0].pc == state.frames[0].raw_pc


def test_restore_missing_method_rejected(classes, paused):
    src_m, vmti, t = paused
    state = capture_segment(vmti, t, 1, home_node="home")
    state.frames[0].method_name = "ghost"
    dst = Machine(classes)
    with pytest.raises(MigrationError):
        RestoreDriver(dst, VMTI(dst), state).restore()


def test_run_to_msp_errors_when_finished(classes):
    m = Machine(classes)
    t = m.spawn("R", "outer", [1])
    m.run(t)
    with pytest.raises(MigrationError):
        run_to_msp(m, t)
