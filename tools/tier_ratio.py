"""Tier 1's speed over the hooked loop's, timed back to back in one process.

Runs the four registry programs on the ``faulting`` build (the flattened
code every serving and migration path executes) on the hooked loop
(``Machine(dispatch="legacy")``) and on tier 1 (``Machine(jit=False)``):
three pairs, each program on both loops back to back, alternating
which loop goes first.  Each run compiles its classes afresh, untimed,
as ``vm_solo``'s repetitions do, so tier 1 pays its stream links.  A
pair's ratio is tier 1's Minstr/s over the hooked loop's; both loops
time a program within a second or two of each other, so a host whose
speed drifts moves both alike.

Which code state the gate times: CPython 3.11 quickens (specializes) a
function after 8 entries or 8 unconditional back edges (``JUMP_BACKWARD``);
a conditional backward jump never counts.  Both loops
(``Machine._run_loop`` and ``Machine._run_fast``) close with an
unconditional back edge, so each is specialized during its first run
(on 3.12, which has no conditional backward jumps, any loop is).  The
gated pairs therefore time both loops warm.  The tool prints
``sys.version`` once, and before each pair how many times each loop had
been entered and how many of its instructions are specialized.  After
the gated pairs, a warm pass (printed, never gated) first enters each
loop 8 times on a trivial program, then times the same pairs again.

    PYTHONPATH=src python tools/tier_ratio.py

Prints each pair and the medians; exits 1 when the gated median is
under :data:`FLOOR`.
"""

from __future__ import annotations

import dis
import gc
import statistics
import sys
import time
from typing import Any, Dict, List, Tuple

from repro.lang import compile_source
from repro.preprocess import preprocess_program
from repro.vm.machine import Machine
from repro.workloads import WORKLOADS

#: pairs timed, and the median tier 1 / legacy ratio the check requires
RUNS, FLOOR = 3, 4.5

#: loop -> times entered in this process (counted by :func:`_count`)
ENTRIES: Dict[str, int] = {"_run_loop": 0, "_run_fast": 0}

#: loop -> its own function, unwrapped (for :func:`_specialized`)
LOOPS: Dict[str, Any] = {name: getattr(Machine, name) for name in ENTRIES}

#: the warm pass's warm-up: each loop runs this program WARM times
#: (CPython 3.11 quickens a function after 8 entries or 8 unconditional
#: back edges, so both loops are specialized long before this)
TRIVIAL, WARM = "class W { static int main(int n) { return n + 1; } }", 8


def _count(name: str) -> None:
    """Count entries of ``Machine.<name>`` (one call per entry)."""
    loop = getattr(Machine, name)

    def counted(*args: Any, **kw: Any) -> Any:
        ENTRIES[name] += 1
        return loop(*args, **kw)
    setattr(Machine, name, counted)


def _specialized(name: str) -> int:
    """How many of ``Machine.<name>``'s instructions differ from its
    plain listing (on 3.11, 0 until CPython quickens it)."""
    loop = LOOPS[name]
    return sum(a.opname != b.opname for a, b in zip(
        dis.get_instructions(loop, adaptive=True),
        dis.get_instructions(loop)))


def _machine(classes: Dict[str, Any], legacy: bool) -> Machine:
    return (Machine(classes, dispatch="legacy") if legacy
            else Machine(classes, jit=False))


def pair(legacy_first: bool) -> Tuple[float, float]:
    """Tier 1's and the hooked loop's Minstr/s over every registry
    program, each program run on both loops back to back."""
    done = {True: [0, 0.0], False: [0, 0.0]}  # legacy? -> instrs, secs
    for name in sorted(WORKLOADS):
        w = WORKLOADS[name]
        for legacy in (legacy_first, not legacy_first):
            classes = preprocess_program(compile_source(w.source),
                                         "faulting")
            m = _machine(classes, legacy)
            gc.collect()  # the other loop's garbage is not this one's
            t0 = time.perf_counter()
            m.call(w.main[0], w.main[1], list(w.sim_args))
            done[legacy][1] += time.perf_counter() - t0
            done[legacy][0] += m.instr_count
    return tuple(n / secs / 1e6 for n, secs in (done[False], done[True]))


def pairs(label: str) -> float:
    """:data:`RUNS` pairs, each printed with the loops' entry counts and
    specialized-instruction counts before it; their median ratio."""
    ratios: List[float] = []
    for k in range(RUNS):
        before = (f"entered before: legacy {ENTRIES['_run_loop']}, "
                  f"tier 1 {ENTRIES['_run_fast']}; specialized: legacy "
                  f"{_specialized('_run_loop')}, "
                  f"tier 1 {_specialized('_run_fast')}")
        tier1, legacy = pair(legacy_first=k % 2 == 0)
        ratios.append(tier1 / legacy)
        print(f"{label} pair {k + 1} ({before}): tier 1 {tier1:.2f} "
              f"Minstr/s, legacy {legacy:.2f} Minstr/s, "
              f"ratio {ratios[-1]:.2f}")
    return statistics.median(ratios)


def warm_up() -> None:
    """Enter each loop :data:`WARM` more times on :data:`TRIVIAL`."""
    classes = preprocess_program(compile_source(TRIVIAL), "faulting")
    for legacy in (True, False):
        for _ in range(WARM):
            _machine(classes, legacy).call("W", "main", [1])


def main() -> int:
    print(f"python {sys.version}")
    for name in ENTRIES:
        _count(name)
    ratio = pairs("gated")
    print(f"tier 1 / legacy median {ratio:.2f} over {RUNS} gated pairs "
          f"(floor {FLOOR})")
    warm_up()
    warm = pairs("warm")
    print(f"tier 1 / legacy median {warm:.2f} over {RUNS} warm pairs "
          f"(each loop entered {WARM} times on a trivial program first; "
          f"not gated)")
    return 0 if ratio >= FLOOR else 1


if __name__ == "__main__":
    sys.exit(main())
