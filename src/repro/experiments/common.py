"""Shared experiment plumbing: per-system runners and table formatting.

Every experiment module exposes ``run()`` returning a :class:`Table`
whose rows pair the paper's published numbers with ours, so
EXPERIMENTS.md and the benchmark suite print directly comparable output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.baselines import GJavaMPIEngine, Jessica2Engine, XenEngine
from repro.cluster import gige_cluster
from repro.migration import SODEngine
from repro.vm.costmodel import (gjavampi_model, jdk_model, jessica2_model,
                                sodee_model, xen_model)
from repro.vm.machine import Machine
from repro.workloads import (WORKLOADS, Workload, calibrated_instr_seconds,
                             compiled, expected_result, instr_seconds_for)

SYSTEMS = ("SODEE", "G-JavaMPI", "JESSICA2", "Xen")

#: Calibration anchors: each system's *no-migration* execution time from
#: the paper's Table II.  These reflect JIT/VM quality (Kaffe vs Sun JDK
#: vs Xen guest), which a Python-hosted VM cannot predict; what the
#: reproduction *measures* is everything migration adds on top.
PAPER_NOMIG = {
    "SODEE": {"Fib": 12.13, "NQ": 6.38, "FFT": 12.60, "TSP": 3.04},
    "G-JavaMPI": {"Fib": 12.03, "NQ": 6.27, "FFT": 12.48, "TSP": 3.09},
    "JESSICA2": {"Fib": 49.57, "NQ": 38.20, "FFT": 255.3, "TSP": 20.93},
    "Xen": {"Fib": 26.65, "NQ": 13.85, "FFT": 16.52, "TSP": 7.01},
}

#: which build each system executes
SYSTEM_BUILD = {
    "SODEE": "faulting",
    "G-JavaMPI": "original",
    "JESSICA2": "faulting",
    "Xen": "original",
}


def anchor(system: str, workload: str) -> float:
    """Per-instruction time anchoring a system's no-mig run to Table II."""
    return instr_seconds_for(workload, SYSTEM_BUILD[system],
                             PAPER_NOMIG[system][workload])


@dataclass
class Table:
    """A reproduced table: header, rows, and free-form notes."""

    title: str
    header: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, *cells: Any) -> None:
        self.rows.append(cells)

    def format(self) -> str:
        widths = [max(len(str(h)), *(len(_fmt(r[i])) for r in self.rows))
                  if self.rows else len(str(h))
                  for i, h in enumerate(self.header)]
        out = [self.title, ""]
        out.append("  ".join(str(h).ljust(w)
                             for h, w in zip(self.header, widths)))
        out.append("  ".join("-" * w for w in widths))
        for r in self.rows:
            out.append("  ".join(_fmt(c).ljust(w)
                                 for c, w in zip(r, widths)))
        for n in self.notes:
            out.append(f"note: {n}")
        return "\n".join(out)


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        if abs(v) >= 100:
            return f"{v:.1f}"
        if abs(v) >= 1:
            return f"{v:.2f}"
        return f"{v:.3f}"
    return str(v)


@dataclass
class RunOutcome:
    """One system x workload x {mig, no-mig} measurement."""

    system: str
    workload: str
    migrated: bool
    exec_seconds: float
    result: Any
    record: Any = None  # MigrationRecord / BaselineRecord when migrated
    faults: int = 0


# -- per-system runners --------------------------------------------------------


def run_jdk(w: Workload) -> RunOutcome:
    """Plain JDK: original build, no agent, no migration."""
    isec = calibrated_instr_seconds(w.name)
    machine = Machine(compiled(w.name, "original"), cost=jdk_model(isec))
    result = machine.call(w.main[0], w.main[1], list(w.sim_args))
    return RunOutcome("JDK", w.name, False, machine.clock, result)


def run_sodee(w: Workload, migrate: bool,
              n_nodes: int = 2) -> RunOutcome:
    """SODEE on the faulting build; optional top-segment migration at the
    workload's trigger point."""
    isec = anchor("SODEE", w.name)
    eng = SODEngine(gige_cluster(n_nodes), compiled(w.name, "faulting"),
                    cost=sodee_model(isec, agent_factor=1.0))
    home = eng.host("node0")
    thread = eng.spawn(home, w.main[0], w.main[1], list(w.sim_args))
    if not migrate:
        eng.run(home, thread)
        return RunOutcome("SODEE", w.name, False, eng.timeline,
                          thread.result)
    status = eng.run(home, thread, stop=w.trigger())
    if status == "finished":
        raise RuntimeError(f"{w.name}: trigger never fired")
    result, rec = eng.run_segment_remote(home, thread, "node1",
                                         nframes=w.mig_frames)
    worker = eng.hosts["node1"]
    faults = worker.objman.stats.faults if worker.objman else 0
    return RunOutcome("SODEE", w.name, True, eng.timeline, result,
                      record=rec, faults=faults)


#: each baseline system's engine and its cost model at an anchored
#: per-instruction time (its build is :data:`SYSTEM_BUILD`'s)
BASELINES: Dict[str, Tuple[type, Callable[[float], Any]]] = {
    "G-JavaMPI": (GJavaMPIEngine,
                  lambda isec: gjavampi_model(isec, agent_factor=1.0)),
    "JESSICA2": (Jessica2Engine,
                 lambda isec: jessica2_model(isec, exec_factor=1.0)),
    "Xen": (XenEngine, lambda isec: xen_model(isec, exec_factor=1.0)),
}


def run_baseline(system: str, w: Workload, migrate: bool) -> RunOutcome:
    """A baseline system on its build; with ``migrate``, the whole
    thread (G-JavaMPI: process, Xen: VM) moves to node1 at the
    workload's trigger."""
    engine, model = BASELINES[system]
    eng = engine(gige_cluster(2), compiled(w.name, SYSTEM_BUILD[system]),
                 model(anchor(system, w.name)))
    machine, thread = eng.start(w.main[0], w.main[1], list(w.sim_args))
    rec = None
    if migrate:
        if eng.run(machine, thread, stop=w.trigger()) == "finished":
            raise RuntimeError(f"{w.name}: trigger never fired")
        machine, thread, rec = eng.migrate(machine, thread, "node1")
    result = eng.finish(machine, thread)
    return RunOutcome(system, w.name, migrate, eng.timeline, result,
                      record=rec)


_outcome_cache: Dict[Tuple[str, str, bool], RunOutcome] = {}


def outcome(system: str, workload: str, migrate: bool) -> RunOutcome:
    """Cached system x workload x mig measurement (experiments share
    runs: Table III derives from Table II's, Table IV from the mig runs).
    Every outcome is checked against the no-migration oracle."""
    key = (system, workload, migrate)
    hit = _outcome_cache.get(key)
    if hit is not None:
        return hit
    w = WORKLOADS[workload]
    if system == "JDK":
        out = run_jdk(w)
    elif system == "SODEE":
        out = run_sodee(w, migrate)
    else:
        out = run_baseline(system, w, migrate)
    oracle = expected_result(workload)
    if _mismatch(out.result, oracle):
        raise AssertionError(
            f"{system}/{workload} mig={migrate}: wrong result "
            f"{out.result!r} != {oracle!r}")
    _outcome_cache[key] = out
    return out


def _mismatch(a: Any, b: Any) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) > 1e-6 * max(1.0, abs(b))
    return a != b


def clear_cache() -> None:
    """Reset cached outcomes (tests that tweak cost models need this)."""
    _outcome_cache.clear()
