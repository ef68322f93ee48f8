"""Workload registry: compiled builds, paper-vs-simulated parameters,
migration trigger points, and execution-time calibration.

Calibration model: each workload runs at a reduced problem size
(``sim_args``) that is feasible inside a Python-hosted VM; the
per-instruction time is scaled so the plain-JDK execution time lands at
the paper's Table II "JDK" column.  Everything *else* — capture
sizes, stack depths at the migration point, bytes moved, fault counts,
VMTI call counts — is real, measured from the actual run.

Solo runs: each (program, build) runs standalone once, under the
calibration cost model, and is memoised (:func:`solo_run`).  That one
run gives the correctness oracle (:func:`baseline_run`,
:func:`expected_result`: the result and instruction count, which no
cost model moves) and the calibration clock (:func:`clock_units`), so
the oracle and the anchor of a build never cost two machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Tuple

from repro.bytecode.code import ClassFile
from repro.lang import compile_source
from repro.preprocess import preprocess_program
from repro.vm.costmodel import CostModel
from repro.vm.frames import Trigger, on_method_entry
from repro.vm.machine import Machine
from repro.workloads import programs


@dataclass(frozen=True)
class Workload:
    """One benchmark program.

    Attributes:
        name: Table I name.
        source: MiniLang source text.
        main: (class, method) of the entry point.
        paper_n / sim_args: the paper's problem size and our reduced one.
        paper_jdk_seconds: Table II "JDK" column (calibration target).
        paper_h: Table I max stack height (for reporting alongside ours).
        trigger: where the experiments place the migration (SOD
            ships the top frame there, as in the paper).
        reentrant: False when mutable statics carry run state — such a
            workload can only be served concurrently inside per-request
            class-loader namespaces (see ``repro.workloads.mixes``).
    """

    name: str
    source: str
    main: Tuple[str, str]
    paper_n: int
    sim_args: Tuple[Any, ...]
    paper_jdk_seconds: float
    paper_h: int
    trigger_method: Tuple[str, str]
    trigger_depth: int = 0
    reentrant: bool = True

    def trigger(self) -> Trigger:
        """The migration trigger: fires at entry of ``trigger_method``
        (optionally also requiring a minimum stack depth)."""
        return on_method_entry(*self.trigger_method,
                               min_depth=self.trigger_depth)


WORKLOADS: Dict[str, Workload] = {
    "Fib": Workload(
        name="Fib", source=programs.FIB, main=("Fib", "main"),
        paper_n=46, sim_args=(21,), paper_jdk_seconds=12.10, paper_h=46,
        trigger_method=("Fib", "fib"), trigger_depth=18),
    "NQ": Workload(
        name="NQ", source=programs.NQUEENS, main=("NQ", "main"),
        paper_n=14, sim_args=(7,), paper_jdk_seconds=6.26, paper_h=16,
        trigger_method=("NQ", "place"), trigger_depth=6),
    "FFT": Workload(
        name="FFT", source=programs.FFT, main=("FFT", "main"),
        # dim=32 (1024 points), 32768 nominal bytes/elem -> 64 MB total
        paper_n=256, sim_args=(32, 32768), paper_jdk_seconds=12.39,
        paper_h=4, trigger_method=("FFT", "checksum"), reentrant=False),
    "TSP": Workload(
        name="TSP", source=programs.TSP, main=("TSP", "main"),
        paper_n=12, sim_args=(8,), paper_jdk_seconds=2.92, paper_h=4,
        trigger_method=("TSP", "search"), trigger_depth=4,
        reentrant=False),
}


@lru_cache(maxsize=None)
def compiled(name: str, build: str) -> Dict[str, ClassFile]:
    """Compile + preprocess a workload (cached)."""
    w = WORKLOADS[name]
    return preprocess_program(compile_source(w.source), build)


@dataclass(frozen=True)
class SoloRun:
    """What one standalone run of a build leaves behind."""

    result: Any
    instr_count: int
    clock: float


@lru_cache(maxsize=None)
def solo_run(name: str, build: str) -> SoloRun:
    """Run the workload standalone on ``build``, once per (program,
    build), under the calibration cost model: one unit per weighted
    instruction, absolute costs zeroed.  The result and instruction
    count do not depend on the cost model, so the correctness oracle
    and the calibration clock both read this one run."""
    w = WORKLOADS[name]
    cost = CostModel(instr_seconds=1.0, native_base=0.0)
    machine = Machine(compiled(name, build), cost=cost)
    result = machine.call(w.main[0], w.main[1], list(w.sim_args))
    return SoloRun(result, machine.instr_count, machine.clock)


def baseline_run(name: str) -> Tuple[Any, int]:
    """(result, executed instructions) of the original build's solo
    run.  Used for correctness oracles."""
    run = solo_run(name, "original")
    return run.result, run.instr_count


def clock_units(name: str, build: str) -> float:
    """Weighted instruction units of one standalone run of a build
    (clock with instr_seconds=1 and all absolute costs zeroed)."""
    return solo_run(name, build).clock


def instr_seconds_for(name: str, build: str, target_seconds: float) -> float:
    """Per-instruction time that maps a reduced-size run of ``build``
    onto ``target_seconds`` (the calibration anchor: a system's
    *no-migration* execution time from the paper's Table II — the part
    set by JIT quality, which our VM cannot predict; migration deltas
    are then measured, not calibrated)."""
    return target_seconds / clock_units(name, build)


def calibrated_instr_seconds(name: str) -> float:
    """JDK anchor: original build onto the paper's JDK column."""
    w = WORKLOADS[name]
    return instr_seconds_for(name, "original", w.paper_jdk_seconds)


def expected_result(name: str) -> Any:
    """The correctness oracle for a workload at its sim size."""
    return baseline_run(name)[0]
