"""Benchmark helpers: run heavyweight harnesses once per measurement."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: the one smoke switch: ``BENCH_SMOKE=1`` trims every bench's stream /
#: sweep to CI size (read once, here; the benches import it)
SMOKE = os.environ.get("BENCH_SMOKE") == "1"


def once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once per round (harnesses are seconds-scale;
    statistical repetition happens across rounds, not iterations)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def write_bench_json(tmp_path):
    """``write(name, report)``: dump a bench report as ``BENCH_*.json``.
    The tracked copy at the repo root is rewritten only under
    ``REPRO_BLESS_GOLDENS=1`` (the goldens' re-bless switch; CI sets it
    on the bench steps so the artifact upload finds the files) — a
    plain test run writes to pytest's ``tmp_path`` and leaves the tree
    clean.  Returns the path written."""
    bless = os.environ.get("REPRO_BLESS_GOLDENS") == "1"

    def write(name: str, report: dict) -> Path:
        path = (REPO_ROOT if bless else tmp_path) / name
        path.write_text(json.dumps(report, indent=2) + "\n")
        return path
    return write
