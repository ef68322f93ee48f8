"""Test helpers shared across modules (importable, unlike conftest)."""

from __future__ import annotations

import os
from collections import Counter

from repro.lang import compile_source
from repro.preprocess import preprocess_program
from repro.preprocess.fuse import FUSED_NAMES
from repro.vm import Machine


def compile_and_run(source: str, cls: str, method: str, args=None,
                    build: str = "original"):
    """Compile, preprocess, run; returns (result, machine)."""
    classes = preprocess_program(compile_source(source), build)
    machine = Machine(classes)
    result = machine.call(cls, method, list(args or []))
    return result, machine


def tier1_dispatches(classes, main, args) -> Counter:
    """Dispatches per tier-1 arm (superinstruction or opcode name) of
    one run, with no counter in ``src/``: the hooked loop reports every
    ``(code, pc)`` it is about to execute through ``stop``, and the
    trace is replayed against the fused stream — the slot at a group
    start is one dispatch and swallows the next ``count - 1`` entries,
    as ``_run_fast`` (``jit=False``) would.  ``sum(values())`` is the
    dispatch count; the instruction count is ``machine.instr_count``."""
    m = Machine(classes, dispatch="legacy")
    hist: Counter = Counter()
    pending = []  # the (code, pc) the open group still has to see

    def replay(thread):
        frame = thread.frames[-1]
        at = (frame.code, frame.pc)
        if pending:
            assert pending.pop() == at, f"group left at {at}"
            return False
        slot = m.decoded(frame.code)[frame.pc]
        hist[FUSED_NAMES.get(slot[0])
             or frame.code.instrs[frame.pc].op] += 1
        pending.extend((frame.code, frame.pc + k)
                       for k in range(slot[4] - 1, 0, -1))
        return False

    m.run(m.spawn(main[0], main[1], list(args)), stop=replay)
    return hist


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
