"""Shared pieces for the baseline migration systems.

Each baseline engine exposes the same surface the experiments drive:

* ``start(class, method, args, at)`` -> (machine, thread)
* ``run(machine, thread, stop=...)`` with triggers
* ``migrate(machine, thread, dst)`` -> (machine, thread,
  :class:`BaselineRecord`)
* ``finish(machine, thread)`` -> final result

so Tables II-IV and VI can sweep systems uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bytecode.code import ClassFile
from repro.cluster.topology import Cluster
from repro.errors import MigrationError
from repro.vm.costmodel import CostModel, SystemCosts
from repro.vm.frames import ThreadState
from repro.vm.machine import Machine


@dataclass
class BaselineRecord:
    """Migration latency breakdown for a baseline system (Table IV)."""

    system: str
    src: str
    dst: str
    nframes: int = 0
    capture_time: float = 0.0
    transfer_time: float = 0.0
    restore_time: float = 0.0
    moved_bytes: int = 0

    @property
    def latency(self) -> float:
        return self.capture_time + self.transfer_time + self.restore_time


class BaselineEngine:
    """Common host/timeline plumbing for baseline systems."""

    name = "baseline"

    def __init__(self, cluster: Cluster, classes: Dict[str, ClassFile],
                 cost: CostModel, syscosts: Optional[SystemCosts] = None):
        self.cluster = cluster
        self.classes = classes
        self.cost = cost
        self.sys = syscosts or SystemCosts()
        self.timeline = 0.0
        self.machines: Dict[str, Machine] = {}
        self.records: List[BaselineRecord] = []

    def machine_on(self, node_name: str) -> Machine:
        m = self.machines.get(node_name)
        if m is None:
            m = Machine(dict(self.classes), cost=self.cost.copy(),
                        node=self.cluster.node(node_name),
                        fs=self.cluster.fs, name=f"{self.name}@{node_name}")
            self.machines[node_name] = m
        return m

    def start(self, class_name: str, method: str,
              args: Optional[List[Any]] = None,
              at: str = "node0") -> Tuple[Machine, ThreadState]:
        machine = self.machine_on(at)
        return machine, machine.spawn(class_name, method, args)

    def finish(self, machine: Machine, thread: ThreadState) -> Any:
        """Run ``thread`` to completion where it is now; its result."""
        self.run(machine, thread)
        if thread.uncaught is not None:
            raise MigrationError(
                f"{self.name}: thread died: {thread.uncaught.class_name}")
        return thread.result

    def run(self, machine: Machine, thread: ThreadState,
            stop: Optional[Callable[[ThreadState], bool]] = None,
            max_instrs: Optional[int] = None) -> str:
        t0 = machine.clock
        status = machine.run(thread, stop=stop, max_instrs=max_instrs)
        self.timeline += machine.clock - t0
        return status

    def transfer_time(self, src: str, dst: str, nbytes: int) -> float:
        return self.cluster.network.transfer_time(src, dst, nbytes)


def heap_nominal_bytes(machine: Machine) -> int:
    """Total nominal bytes of all live heap objects plus statics (what an
    eager-copy migration must serialize)."""
    total = machine.heap.allocated_bytes
    for cls in machine.loader.loaded_classes().values():
        for fname, v in cls.statics.items():
            if isinstance(v, str):
                total += 4 + len(v)
            else:
                total += 8
    return total
