"""Tracer and CLI tests."""

import os
import pathlib
import re
from collections import Counter

import pytest

from repro.cluster import gige_cluster
from repro.migration import SODEngine
from repro.migration.tracing import Tracer, format_timeline
from repro.__main__ import main as cli_main


@pytest.fixture()
def traced(app_classes_faulting):
    eng = SODEngine(gige_cluster(2), app_classes_faulting)
    tracer = Tracer().attach(eng)
    home = eng.host("node0")
    t = eng.spawn(home, "App", "work", [8])
    eng.run(home, t, stop=lambda th: th.frames[-1].code.name == "step")
    eng.run_segment_remote(home, t, "node1", 1)
    return eng, tracer


def _of_kind(tracer, kind):
    return [e for e in tracer.events if e["kind"] == kind]


def test_tracer_records_all_phases(traced):
    eng, tracer = traced
    counts = Counter(e["kind"] for e in tracer.events)
    assert counts["migrate"] == 1
    assert counts["fault"] >= 1
    assert counts["writeback"] == 1


def test_tracer_event_details(traced):
    eng, tracer = traced
    mig = _of_kind(tracer, "migrate")[0]
    assert mig["src"] == "node0" and mig["dst"] == "node1"
    assert mig["frames"] == 1
    assert mig["state_bytes"] > 0
    fault = _of_kind(tracer, "fault")[0]
    assert fault["bytes"] > 0


def test_tracer_timestamps_monotone(traced):
    eng, tracer = traced
    times = [e["t"] for e in tracer.events]
    assert times == sorted(times)


def test_format_timeline_readable(traced):
    eng, tracer = traced
    text = format_timeline(tracer)
    assert "migrate" in text and "fault" in text and "writeback" in text
    assert "node0 -> node1" in text


def test_tracer_double_attach_rejected(traced):
    eng, tracer = traced
    with pytest.raises(ValueError):
        tracer.attach(eng)


def test_tracer_sees_every_shipment_of_a_serve_run():
    """The scheduler reaches the engine through ``migrate_many`` and
    ``rehop_segment``, never ``migrate`` — the tracer must see those
    shipments anyway (it used to record 0 of them)."""
    from repro.serve import build_serving
    sched, load = build_serving(mix="offload", n_requests=24,
                                placement="front-door", max_seg_hops=2)
    tracer = Tracer().attach(sched.engine)
    rep = sched.serve(load)
    counts = Counter(e["kind"] for e in tracer.events)
    assert rep.stats["seg_rehops"] > 0
    assert counts["migrate"] == rep.stats["sod_offloads"] \
        == len(sched.engine.migrations)
    assert counts["writeback"] >= rep.stats["completions"] > 0
    assert counts["fault"] > 0


def test_tracer_sees_the_residual_push_of_total_migration(
        app_classes_faulting):
    """Fig. 1b ships twice — the top segment, then the residual stack
    through ``workflow._restore_residual`` — and flushes once."""
    from repro.migration.workflow import total_migration
    eng = SODEngine(gige_cluster(2), app_classes_faulting)
    tracer = Tracer().attach(eng)
    home = eng.host("node0")
    t = eng.spawn(home, "App", "work", [8])
    eng.run(home, t, stop=lambda th: th.frames[-1].code.name == "step")
    rep = total_migration(eng, home, t, "node1", top_frames=1)
    migs = _of_kind(tracer, "migrate")
    assert len(migs) == len(rep.records) == 2
    assert [m["state_bytes"] for m in migs] \
        == [r.state_bytes for r in rep.records]
    assert _of_kind(tracer, "writeback")


# -- CLI --------------------------------------------------------------------

def test_cli_workloads(capsys):
    assert cli_main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "Fib" in out and "TSP" in out


def test_cli_run_workload(capsys):
    assert cli_main(["run", "NQ"]) == 0
    out = capsys.readouterr().out
    assert "NQ(7,) = 40" in out


def test_cli_run_unknown_workload(capsys):
    assert cli_main(["run", "Ghost"]) == 2


def test_cli_migrate(capsys):
    assert cli_main(["migrate", "NQ"]) == 0
    out = capsys.readouterr().out
    assert "correct=True" in out and "migrate" in out


def test_cli_report_subset(capsys):
    assert cli_main(["report", "figure5"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out


def test_cli_report_unknown(capsys):
    assert cli_main(["report", "table99"]) == 2


def test_cli_disasm(tmp_path, capsys):
    src = tmp_path / "prog.mj"
    src.write_text(
        "class D { static int f(int n) { return n * 2; } }")
    assert cli_main(["disasm", str(src), "D.f"]) == 0
    out = capsys.readouterr().out
    assert "method D.f" in out and "MUL" in out


# -- the serving key table: one source for flags, refusals, traces, README ----

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
_BEGIN, _END = "<!-- serve-keys:begin -->\n", "<!-- serve-keys:end -->"

#: keys a trace config / build_serving take that the CLI does not spell
NO_FLAG = {"max_retries", "fault_plan"}


def serve_key_table() -> str:
    from repro.__main__ import _serve_flag
    from repro.serve.scheduler import SERVE_KEYS
    rows = ["| key | `serve` flag | default | virtual-only | meaning |",
            "|---|---|---|---|---|"]
    for key, (default, virtual_only, meaning) in SERVE_KEYS.items():
        flag = "—" if key in NO_FLAG else f"`{_serve_flag(key)}`"
        rows.append(f"| `{key}` | {flag} | `{default!r}` | "
                    f"{'yes' if virtual_only else 'no'} | {meaning} |")
    return "\n".join(rows) + "\n"


def test_readme_flag_table_is_generated_from_the_key_table():
    text = README.read_text()
    head, rest = text.split(_BEGIN)
    _old, tail = rest.split(_END)
    if os.environ.get("REPRO_BLESS_GOLDENS") == "1":
        README.write_text(head + _BEGIN + serve_key_table() + _END + tail)
        return
    assert _old == serve_key_table(), \
        "README serve-key table is stale: REPRO_BLESS_GOLDENS=1 regenerates"


#: a read of a named environment variable, through ``os.environ.get``
#: or ``os.getenv``
ENV_READ = re.compile(r"""os\.(?:environ\.get|getenv)\(\s*["'](\w+)["']""")


def test_readme_environment_table_lists_exactly_the_names_read():
    """The README's "Test layer" table and the source agree: a new
    environment name needs its row, and a retired one loses it."""
    root = README.parent
    read = {name for tree in ("src", "tests", "benchmarks", "tools")
            for path in (root / tree).rglob("*.py")
            for name in ENV_READ.findall(path.read_text())}
    section = README.read_text().split("\n## Test layer\n")[1]
    table = {name for row in section.split("\n## ")[0].splitlines()
             if row.startswith("| `")
             for name in re.findall(r"`(\w+)`", row.split("|")[1])}
    assert read == table


def test_cli_spells_every_key_but_the_two_flagless_ones(capsys):
    from repro.__main__ import _serve_flag
    from repro.serve.scheduler import SERVE_KEYS
    with pytest.raises(SystemExit):
        cli_main(["serve", "--help"])
    out = capsys.readouterr().out
    for key in SERVE_KEYS:
        assert (f"{_serve_flag(key)} " in out) == (key not in NO_FLAG), key


def test_admission_static_without_a_threshold_is_refused(capsys):
    """``--admission static`` alone used to admit everything (only
    ``--shed-at`` was ever read): the one resolver rejects it, in the
    CLI and in ``run_recorded`` alike."""
    from repro.chaos import run_recorded
    assert cli_main(["serve", "--admission", "static"]) == 2
    assert "--shed-at" in capsys.readouterr().err
    with pytest.raises(ValueError, match="shed_at"):
        run_recorded({"admission": "static"})
    with pytest.raises(ValueError, match="unknown admission"):
        run_recorded({"admission": "adaptve"})


def test_old_traces_with_null_admission_and_shed_at_replay_unchanged():
    """Pre-``admission`` traces spelled static shedding as ``admission:
    null`` + ``shed_at``; both spellings resolve to the same run."""
    from repro.chaos import canonical, replay_trace, run_recorded
    cfg = {"n_requests": 24, "shed_at": 2.0, "staleness": 0.0}
    old, rep = run_recorded(cfg)
    assert old["config"]["admission"] is None and rep.stats["shed"] > 0
    again, _rep = replay_trace(old)
    assert canonical(again) == canonical(old)
    new, _rep = run_recorded({**cfg, "admission": "static"})
    assert new["events"] == old["events"]


def test_real_backend_refusals_are_derived_from_the_key_table(capsys):
    """Every virtual-only key moved off its default is refused — not a
    hand-picked six (``--offload none`` used to be silently ignored)."""
    assert cli_main(["serve", "--backend", "real", "--offload", "none"]) == 2
    assert "--offload" in capsys.readouterr().err
    assert cli_main(["serve", "--backend", "real", "--nodes", "8",
                     "--chaos", "3", "--slo", "0.2", "--record", "x"]) == 2
    err = capsys.readouterr().err
    for flag in ("--nodes", "--chaos", "--slo", "--record"):
        assert flag in err
    assert "--requests" not in err and "--offload" not in err
