"""Test helpers shared across modules (importable, unlike conftest)."""

from __future__ import annotations

import os

from repro.lang import compile_source
from repro.preprocess import preprocess_program
from repro.vm import Machine


def compile_and_run(source: str, cls: str, method: str, args=None,
                    build: str = "original"):
    """Compile, preprocess, run; returns (result, machine)."""
    classes = preprocess_program(compile_source(source), build)
    machine = Machine(classes)
    result = machine.call(cls, method, list(args or []))
    return result, machine


#: The fuzzers' two environment names.  ``REPRO_FUZZ_SEED`` pins every
#: seeded stream; ``REPRO_FUZZ_COUNT`` is the one size knob — the
#: dispatch differential runs that many generated programs and every
#: other campaign keeps its stock size as a share of it.
FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20260726"))
FUZZ_COUNT = int(os.environ.get("REPRO_FUZZ_COUNT", "200"))


def fuzz_budget(stock: int) -> int:
    """Size of a campaign that runs ``stock`` cases at the default
    ``REPRO_FUZZ_COUNT`` of 200, scaled to the current one."""
    return max(1, stock * FUZZ_COUNT // 200)
