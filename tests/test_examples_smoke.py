"""Smoke tests: the example scripts must run cleanly end-to-end.

(``task_roaming.py`` is the roaming study that ``repro report roaming``
prints and ``tests/goldens/roaming.txt`` pins, so it is not re-run here.)
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> None:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")


def test_quickstart_example(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "migrated result" in out and "migration latency" in out


def test_speculative_cloud_example(capsys):
    run_example("speculative_cloud.py")
    out = capsys.readouterr().out
    assert "rocketed to cloud   : True" in out


def test_elastic_workflows_example(capsys):
    run_example("elastic_workflows.py")
    out = capsys.readouterr().out
    assert "all three flows agree" in out


@pytest.mark.slow
def test_photo_share_example(capsys):
    run_example("photo_share.py")
    out = capsys.readouterr().out
    assert out.count("beach photos found") == 4
