"""Sweep helpers: where a sweep's ``BENCH_*.json`` report goes."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def write_bench_json(tmp_path):
    """``write(name, report)``: dump a sweep report as ``BENCH_*.json``.
    The tracked copy at the repo root is rewritten only under
    ``REPRO_BLESS_GOLDENS=1`` (the goldens' re-bless switch) — a plain
    test run writes to pytest's ``tmp_path`` and leaves the tree clean.
    Returns the path written."""
    bless = os.environ.get("REPRO_BLESS_GOLDENS") == "1"

    def write(name: str, report: dict) -> Path:
        path = (REPO_ROOT if bless else tmp_path) / name
        path.write_text(json.dumps(report, indent=2) + "\n")
        return path
    return write
