"""Final odds and ends: reprs, records, report plumbing."""

import pytest

from repro.bytecode import disassemble
from repro.errors import CompileError, ReproError, VMError
from repro.migration import CapturedFrame, MigrationRecord
from repro.migration.workflow import FlowReport


def test_error_hierarchy():
    assert issubclass(VMError, ReproError)
    assert issubclass(CompileError, ReproError)
    e = CompileError("boom", line=3, col=7)
    assert "3:7" in str(e) and e.line == 3


def test_compile_error_without_position():
    assert str(CompileError("plain")) == "plain"


def test_migration_record_latency_sums_components():
    rec = MigrationRecord(src="a", dst="b", nframes=2,
                          capture_time=0.001, transfer_time=0.002,
                          restore_time=0.003, worker_spawn_time=0.004)
    assert rec.latency == pytest.approx(0.010)


def test_captured_frame_state_bytes_scale_with_locals():
    small = CapturedFrame("C", "m", 0, 0, locals=[1])
    big = CapturedFrame("C", "m", 0, 0, locals=[1] * 20 + ["longish-string"])
    assert big.state_bytes() > small.state_bytes()


def test_flow_report_phases_accumulate():
    rep = FlowReport()
    rep.phase("a", 0.1)
    rep.phase("b", 0.2)
    assert rep.phases == [("a", 0.1), ("b", 0.2)]


def test_disassemble_preprocessed_marks_msps(app_classes_faulting):
    text = disassemble(app_classes_faulting["App"].methods["step"])
    assert ";msp" in text
    assert "catch" in text and "InvalidStateException" in text


def test_experiment_paper_constants_cover_all_workloads():
    from repro.experiments import table2, table3, table4
    from repro.workloads import WORKLOADS
    for name in WORKLOADS:
        assert name in table2.PAPER
        assert name in table3.PAPER
        assert name in table4.PAPER


def test_report_registry_names_unique_and_callable():
    from repro.experiments.report import ALL
    assert len(ALL) == 10
    for fn in ALL.values():
        assert callable(fn)


def test_reach_audit_names_two_units_under_one_key(tmp_path, monkeypatch):
    """``tools/reach.py`` keys units by qualified name; a property's
    getter and setter share one, so the audit reports the key with both
    first lines (``--check`` fails on it) instead of letting one hide
    the other."""
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "reach.py"
    spec = importlib.util.spec_from_file_location("reach_under_test", path)
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        "class C:\n"
        "    @property\n"
        "    def x(self):\n"
        "        return 1\n"
        "\n"
        "    @x.setter\n"
        "    def x(self, v):\n"
        "        pass\n"
        "\n"
        "    def y(self):\n"
        "        return 2\n")
    monkeypatch.setattr(reach, "SRC", str(tmp_path / "src"))
    monkeypatch.setattr(reach, "PKG", str(pkg))
    out = reach.audit(reach.Reach())
    assert out["shared"] == {"repro.mod:C.x": [2, 6]}
    assert "repro.mod:C.y" in out["known"]
