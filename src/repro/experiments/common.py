"""Shared experiment plumbing: the systems, the one runner and table
formatting.

Every experiment module exposes ``run()`` returning a :class:`Table`
whose rows pair the paper's published numbers with ours, so ``repro
report`` and the benchmark suite print directly comparable output.  The
calibration model is written down in :mod:`repro.workloads.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines import (BaselineEngine, GJavaMPIEngine, Jessica2Engine,
                             XenEngine)
from repro.bytecode.code import ClassFile
from repro.cluster import Cluster, gige_cluster
from repro.migration import SODEngine
from repro.vm.costmodel import (CostModel, gjavampi_model, jdk_model,
                                jessica2_model, sodee_model, xen_model)
from repro.vm.frames import Trigger
from repro.workloads import (WORKLOADS, compiled, expected_result,
                             instr_seconds_for)

SYSTEMS = ("SODEE", "G-JavaMPI", "JESSICA2", "Xen")

#: Calibration anchors: each system's *no-migration* execution time from
#: the paper's Table II (the JDK's is its JDK column).  These reflect
#: JIT/VM quality (Kaffe vs Sun JDK vs Xen guest), which a Python-hosted
#: VM cannot predict; what the reproduction *measures* is everything
#: migration adds on top.
PAPER_NOMIG = {
    "JDK": {name: w.paper_jdk_seconds for name, w in WORKLOADS.items()},
    "SODEE": {"Fib": 12.13, "NQ": 6.38, "FFT": 12.60, "TSP": 3.04},
    "G-JavaMPI": {"Fib": 12.03, "NQ": 6.27, "FFT": 12.48, "TSP": 3.09},
    "JESSICA2": {"Fib": 49.57, "NQ": 38.20, "FFT": 255.3, "TSP": 20.93},
    "Xen": {"Fib": 26.65, "NQ": 13.85, "FFT": 16.52, "TSP": 7.01},
}


def _no_faults(engine: Any) -> int:
    return 0


def _worker_faults(engine: SODEngine) -> int:
    worker = engine.hosts.get("node1")
    return worker.objman.stats.faults if worker and worker.objman else 0


@dataclass(frozen=True)
class System:
    """One system of the comparison: its engine (start / run / migrate /
    finish), the build it executes and its cost model at a
    per-instruction time.  ``whole_stack`` migrates every frame instead
    of the top one; ``faults`` reads an engine's object-fault count."""

    engine: Callable[..., Any]
    build: str
    model: Callable[..., CostModel]
    whole_stack: bool = False
    faults: Callable[[Any], int] = _no_faults


#: the reference JDK (a baseline engine that never migrates) and the
#: four compared systems
SYSTEM_ROWS: Dict[str, System] = {
    "JDK": System(BaselineEngine, "original", jdk_model),
    "SODEE": System(SODEngine, "faulting",
                    lambda isec: sodee_model(isec, agent_factor=1.0),
                    faults=_worker_faults),
    "G-JavaMPI": System(GJavaMPIEngine, "original",
                        lambda isec: gjavampi_model(isec, agent_factor=1.0)),
    "JESSICA2": System(Jessica2Engine, "faulting",
                       lambda isec: jessica2_model(isec, exec_factor=1.0)),
    "Xen": System(XenEngine, "original",
                  lambda isec: xen_model(isec, exec_factor=1.0)),
}


def run_system(system: System, cluster: Cluster,
               classes: Dict[str, ClassFile], cost: CostModel,
               main: Tuple[str, str], args: List[Any], at: str = "node0",
               trigger: Optional[Trigger] = None) -> Tuple[Any, Any, Any]:
    """The paper's protocol on any system: start ``main`` at node
    ``at``; with a ``trigger``, run to it and migrate to node1; finish.
    Returns (the engine, whose timeline is the run's seconds, the
    result, the migration record or None)."""
    eng = system.engine(cluster, classes, cost)
    host, thread = eng.start(main[0], main[1], args, at=at)
    rec = None
    if trigger is not None:
        if eng.run(host, thread, stop=trigger) == "finished":
            raise RuntimeError(f"{main[0]}.{main[1]}: trigger never fired")
        extra = {"nframes": thread.depth()} if system.whole_stack else {}
        host, thread, rec = eng.migrate(host, thread, "node1", **extra)
    result = eng.finish(host, thread)
    return eng, result, rec


def anchor(system: str, workload: str) -> float:
    """Per-instruction time anchoring a system's no-mig run to Table II."""
    return instr_seconds_for(workload, SYSTEM_ROWS[system].build,
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


_outcome_cache: Dict[Tuple[str, str, bool], RunOutcome] = {}


def outcome(system: str, workload: str, migrate: bool) -> RunOutcome:
    """Cached system x workload x mig measurement (experiments share
    runs: Table III derives from Table II's, Table IV from the mig runs).
    Every outcome is checked against the no-migration oracle."""
    key = (system, workload, migrate)
    hit = _outcome_cache.get(key)
    if hit is not None:
        return hit
    w, row = WORKLOADS[workload], SYSTEM_ROWS[system]
    eng, result, rec = run_system(
        row, gige_cluster(2), compiled(workload, row.build),
        row.model(anchor(system, workload)), w.main, list(w.sim_args),
        trigger=w.trigger() if migrate else None)
    out = RunOutcome(system, workload, migrate, eng.timeline, result,
                     record=rec, faults=row.faults(eng))
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
