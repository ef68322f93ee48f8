"""Golden pin of recorded serving traces: bit-equality as a check.

``goldens/traces.txt`` holds one row per serving run: its name, the
sha256[:16] of ``canonical(trace)``, the same digest of each section
(``config``, ``events``, ``summary.requests``, ``summary.report``) and
the described run itself, as :data:`~repro.serve.scheduler.SERVE_KEYS`
JSON.  The test re-records every row with ``chaos.run_recorded`` and
compares digests, so a refactor that moves any event time, decision,
result or report number by one bit fails here, and the message names
the sections that moved.

The runs: ``offload`` front-door with two segment hops under chaos 1-6
(horizon 0.05), fault-free ``offload`` x40 front-door with three hops,
``paper`` with one hop under chaos 1-3, ``parallel`` under chaos 1-8,
and three weighted tenants with adaptive admission at 300 rps under
chaos 3.

To re-bless after an *intentional* change (hashes are recomputed for
the runs the file already describes; a new run is added as the row
``<name> - <SERVE_KEYS JSON>``)::

    REPRO_BLESS_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/test_trace_goldens.py -q

and commit the updated file with a note on why the traces moved.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.chaos import run_recorded
from repro.chaos.trace import canonical

GOLDEN = Path(__file__).resolve().parent / "goldens" / "traces.txt"
BLESS = os.environ.get("REPRO_BLESS_GOLDENS") == "1"
SECTIONS = ("config", "events", "summary.requests", "summary.report")
HEADER = """\
# Recorded serving traces: name, sha256[:16] of canonical(trace), the same
# digest per section, then the described run (SERVE_KEYS JSON).
# Checked and re-blessed by tests/test_trace_goldens.py.
"""


def _digest(doc) -> str:
    return hashlib.sha256(canonical(doc).encode()).hexdigest()[:16]


def _digests(trace):
    out = {"full": _digest(trace)}
    for section in SECTIONS:
        doc = trace
        for part in section.split("."):
            doc = doc[part]
        out[section] = _digest(doc)
    return out


def _rows():
    """(name, {digest name: hex}, described run) per golden row."""
    rows = []
    for line in GOLDEN.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        name, full, rest = line.split(" ", 2)
        fields, config = (" " + rest).split(" {", 1)
        digests = dict(f.split("=", 1) for f in fields.split())
        rows.append((name, {"full": full, **digests},
                     json.loads("{" + config)))
    return rows


def _row(name, digests, config) -> str:
    return " ".join([name, digests["full"]]
                    + [f"{s}={digests[s]}" for s in SECTIONS]
                    + [json.dumps(config, sort_keys=True)])


def test_recorded_traces_match_golden():
    rows = _rows()
    assert len(rows) == 19, "goldens/traces.txt lost a run"
    got = {name: _digests(run_recorded(config)[0])
           for name, _want, config in rows}
    if BLESS:
        GOLDEN.write_text(HEADER + "".join(
            _row(name, got[name], config) + "\n"
            for name, _want, config in rows))
        pytest.skip(f"re-blessed {GOLDEN.name}")
    bad = [f"{name}: {want['full']} -> {got[name]['full']}; moved: "
           + ", ".join(s for s in SECTIONS if want.get(s) != got[name][s])
           for name, want, _config in rows if want != got[name]]
    if bad:
        pytest.fail("recorded traces diverged from goldens/traces.txt:\n"
                    + "\n".join(bad))
