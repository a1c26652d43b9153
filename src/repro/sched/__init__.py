"""Concurrent heterogeneous execution across multiple library instances.

The paper's conclusion plans exactly this layer: "computation can be
dynamically load balanced across multiple devices".  The scheduler
evaluates the components of a multi-instance likelihood
(:class:`repro.partition.MultiDeviceLikelihood` or
:class:`repro.partition.PartitionedLikelihood`) concurrently — one
persistent worker per instance, overlapped across backends — and, for
pattern-split workloads, closes the loop from *measured* per-device
throughput back into the split proportions.
"""

from repro.sched.executor import (
    ComponentTiming,
    ConcurrentExecutor,
    FailoverEvent,
    RebalanceEvent,
    RebalancingExecutor,
)
from repro.sched.workers import LabelledWorkerPool

__all__ = [
    "ComponentTiming",
    "ConcurrentExecutor",
    "FailoverEvent",
    "LabelledWorkerPool",
    "RebalanceEvent",
    "RebalancingExecutor",
]
