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

    PYTHONPATH=src python tools/tier_ratio.py

Prints each pair and the median ratio; exits 1 when the median is under
:data:`FLOOR`.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from typing import Tuple

from repro.lang import compile_source
from repro.preprocess import preprocess_program
from repro.vm.machine import Machine
from repro.workloads import WORKLOADS

#: pairs timed, and the median tier 1 / legacy ratio the check requires
RUNS, FLOOR = 3, 4.5


def pair(legacy_first: bool) -> Tuple[float, float]:
    """Tier 1's and the hooked loop's Minstr/s over every registry
    program, each program run on both loops back to back."""
    done = {True: [0, 0.0], False: [0, 0.0]}  # legacy? -> instrs, secs
    for name in sorted(WORKLOADS):
        w = WORKLOADS[name]
        for legacy in (legacy_first, not legacy_first):
            classes = preprocess_program(compile_source(w.source),
                                         "faulting")
            m = Machine(classes, dispatch="legacy") if legacy \
                else Machine(classes, jit=False)
            gc.collect()  # the other loop's garbage is not this one's
            t0 = time.perf_counter()
            m.call(w.main[0], w.main[1], list(w.sim_args))
            done[legacy][1] += time.perf_counter() - t0
            done[legacy][0] += m.instr_count
    return tuple(n / secs / 1e6 for n, secs in (done[False], done[True]))


def main() -> int:
    ratios = []
    for k in range(RUNS):
        tier1, legacy = pair(legacy_first=k % 2 == 0)
        ratios.append(tier1 / legacy)
        print(f"pair {k + 1}: tier 1 {tier1:.2f} Minstr/s, "
              f"legacy {legacy:.2f} Minstr/s, ratio {ratios[-1]:.2f}")
    ratio = statistics.median(ratios)
    print(f"tier 1 / legacy median {ratio:.2f} over {RUNS} pairs "
          f"(floor {FLOOR})")
    return 0 if ratio >= FLOOR else 1


if __name__ == "__main__":
    sys.exit(main())
