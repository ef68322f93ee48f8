"""The elastic serving layer (ROADMAP north star: serve heavy traffic).

Builds on everything below it: the discrete-event kernel schedules node
processes, the cluster substrate prices links and capacities, the VM's
safepoint-polled quantum preemption time-slices many guest threads per
node, and the SOD machinery ships the top frames of hot threads to
underloaded nodes mid-run.

* :mod:`repro.serve.loadgen` — requests and the seeded load generator.
* :mod:`repro.serve.loadindex` — the incremental load indexes
  (event-driven counters, rack scans, gossip digest, work profile).
* :mod:`repro.serve.policies` — admission placement and the offload policy.
* :mod:`repro.serve.tenants` — tenants: the unit of multi-tenant QoS.
* :mod:`repro.serve.wfq` — weighted fair run queues (stride scheduling).
* :mod:`repro.serve.scheduler` — the cluster scheduler itself.
"""

from repro.serve.loadgen import LoadGenerator, Request
from repro.serve.loadindex import (DEFAULT_STALENESS, LoadIndex, WorkProfile,
                                   naive_pick, recompute_load)
from repro.serve.policies import (AdaptiveShed, FrontDoorPlacement,
                                  QueueDepthPolicy, ShedWhenSaturated,
                                  WeightedRoundRobinPlacement)
from repro.serve.scheduler import (ClusterScheduler, ServeReport,
                                   build_serving)
from repro.serve.tenants import Tenant, TenantSet, parse_tenants
from repro.serve.wfq import FairStore

__all__ = [
    "LoadGenerator", "Request",
    "LoadIndex", "WorkProfile", "DEFAULT_STALENESS",
    "naive_pick", "recompute_load",
    "FrontDoorPlacement", "WeightedRoundRobinPlacement",
    "QueueDepthPolicy", "ShedWhenSaturated", "AdaptiveShed",
    "Tenant", "TenantSet", "parse_tenants", "FairStore",
    "ClusterScheduler", "ServeReport", "build_serving",
]
