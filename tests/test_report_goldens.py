"""Golden-file tests for ``python -m repro report <name>``.

Each experiment's formatted report is compared byte-for-byte against a
checked-in golden under ``tests/goldens/``.  Everything the reports
print is virtual-time arithmetic over the discrete-event kernel, so the
output is deterministic across hosts — any diff is a real behavior
change in the experiment pipeline (cost model, migration flow, VM
accounting), caught structurally instead of silently regenerating.

To re-bless after an *intentional* change::

    REPRO_BLESS_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/test_report_goldens.py -q

and commit the updated files with a note on why the numbers moved.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.__main__ import main as repro_main

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

#: every table/figure the CLI can regenerate
NAMES = ["table1", "table2", "table3", "table4", "table5", "table6",
         "table7", "figure1", "figure5", "roaming"]

BLESS = os.environ.get("REPRO_BLESS_GOLDENS") == "1"


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_golden(name, capsys):
    rc = repro_main(["report", name])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip(), f"report {name} printed nothing"
    golden = GOLDEN_DIR / f"{name}.txt"
    if BLESS:
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden.write_text(out)
        pytest.skip(f"re-blessed {golden.name}")
    assert golden.exists(), (
        f"missing golden {golden}; generate with REPRO_BLESS_GOLDENS=1")
    expected = golden.read_text()
    if out != expected:
        import difflib
        diff = "".join(difflib.unified_diff(
            expected.splitlines(keepends=True),
            out.splitlines(keepends=True),
            fromfile=f"goldens/{name}.txt", tofile="regenerated"))
        pytest.fail(f"report {name} diverged from golden:\n{diff}")


def test_report_rejects_unknown_names(capsys):
    assert repro_main(["report", "tableX"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiments" in err


def test_goldens_directory_is_complete():
    """Every golden this suite asserts against exists and is non-empty
    (catches a half-blessed checkout)."""
    if BLESS:
        pytest.skip("blessing run")
    for name in NAMES:
        path = GOLDEN_DIR / f"{name}.txt"
        assert path.exists() and path.stat().st_size > 0, path
