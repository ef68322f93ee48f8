"""Chaos engineering for the serving stack: fault injection, crash
recovery, and deterministic record/replay.

Three pieces, all riding the discrete-event kernel so disasters are as
reproducible as the happy path:

* :mod:`repro.chaos.faults` — :class:`FaultPlan`: seeded, serializable
  schedules of node crashes, link failures/partitions (with heal
  times), and straggler slowdowns;
* :mod:`repro.chaos.injector` — :class:`ChaosInjector`: the kernel
  process that applies a plan to a live scheduler through the network /
  load-index / engine seams;
* :mod:`repro.chaos.trace` — record a serving run's event stream and
  replay it byte-identically from the embedded config.
"""

from repro.chaos.faults import KINDS, FaultEvent, FaultPlan, random_plan
from repro.chaos.injector import ChaosInjector
from repro.chaos.trace import (canonical, read_trace, replay_trace,
                               resolve_config, run_recorded,
                               trace_divergence, traces_equal, write_trace)

__all__ = [
    "KINDS", "FaultEvent", "FaultPlan", "random_plan", "ChaosInjector",
    "canonical", "read_trace", "replay_trace",
    "resolve_config", "run_recorded", "trace_divergence", "traces_equal",
    "write_trace",
]
