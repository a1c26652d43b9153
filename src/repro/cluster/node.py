"""Simulated pod-like worker nodes for the cluster scheduler.

A :class:`WorkerNode` is one machine's worth of simulated devices behind
the same worker discipline the in-process executor uses: one persistent
single-thread worker per device (:class:`~repro.sched.workers.
LabelledWorkerPool`), so a node with ``capacity`` devices evaluates up
to ``capacity`` shards concurrently while each BEAGLE instance still
sees exactly one in-flight call.

The node keeps its machine's calibration: a perf-model **prior**
throughput (:func:`repro.partition.autoselect.predict_throughput`) where
the device spec names a modelled backend, a neutral weight otherwise,
refined by an EWMA (:func:`repro.resil.group.ewma`) of measured shard
rates that the scheduler folds in after every completed shard.

Fault injection plugs in at the node level: the scheduler hands each
node the memoized :class:`~repro.resil.faults.FaultInjector` for its
name, and the node consults it once per shard attempt.  Latency spikes
advance the shard instance's device clock, so a slow node shows up in
its measured rate; device loss surfaces to the scheduler as a node
failure.  Timing and transient retries run through the one failover
core (:func:`repro.resil.group.measure`,
:func:`repro.resil.group.call_with_retries`); the node itself adds only
device round-robin and its injector.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from contextlib import contextmanager
from functools import partial
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple, Union

from repro.analysis import locksan
from repro.config import backend_flags
from repro.core.highlevel import TreeLikelihood
from repro.resil.group import (
    ComponentTiming,
    call_with_retries,
    device_clock,
    ewma,
    measure,
)
from repro.sched.workers import LabelledWorkerPool

__all__ = ["WorkerNode", "prior_rate_for"]

#: Backend name -> perf-model backend key (``kind:device``) used to seed
#: a node's throughput prior.  Unlisted backends (and raw kwarg specs,
#: whose devices the model cannot see) fall back to a neutral weight;
#: the EWMA feedback then owns the estimate after the first round.
_PERF_MODEL_KEYS: Dict[str, str] = {
    "cuda": "cuda:NVIDIA Quadro P5000",
    "opencl-gpu": "opencl-gpu:AMD Radeon R9 Nano",
    "opencl-x86": "opencl-x86:Intel Xeon E5-2680v4 x2",
    "cpu-vector": "opencl-x86:Intel Xeon E5-2680v4 x2",
    "cpp-threads": "cpp-threads:Intel Xeon E5-2680v4 x2",
}

#: Shard workloads used to scale the perf-model prior.  Only *relative*
#: weights matter for placement, so a fixed reference workload is fine.
_PRIOR_TIPS = 16
_PRIOR_PATTERNS = 10_000

DeviceRequest = Union[str, Mapping[str, Any]]


def prior_rate_for(spec: DeviceRequest) -> float:
    """Relative throughput prior for one device spec.

    Backend *names* are scored with the calibrated perf model on a
    reference workload; kwarg specs (custom managers, slowed catalog
    devices) get a neutral ``1.0`` — the measured EWMA takes over after
    the node's first completed shard either way.
    """
    if not isinstance(spec, str):
        return 1.0
    key = _PERF_MODEL_KEYS.get(spec)
    if key is None:
        return 1.0
    from repro.partition.autoselect import predict_throughput

    try:
        gflops = predict_throughput(key, _PRIOR_TIPS, _PRIOR_PATTERNS)
    except Exception:
        return 1.0
    return max(float(gflops), 1e-6)


class WorkerNode:
    """One simulated machine: named devices, workers, and calibration.

    Parameters
    ----------
    name:
        The node's cluster-wide label (also the fault-injection label).
    devices:
        Device label -> backend name (from
        :data:`~repro.config.BACKEND_FLAGS`) or raw instance keyword
        mapping, exactly as ``MultiDeviceSession`` device requests.
    retry_policy:
        Transient shard failures retry in place under this policy; the
        backoff is charged to the shard instance's device clock.
    alpha:
        EWMA weight of the newest measured shard rate.
    """

    def __init__(
        self,
        name: str,
        devices: Mapping[str, DeviceRequest],
        *,
        retry_policy: Any = None,
        tracer: Any = None,
        metrics: Any = None,
        alpha: float = 0.5,
    ) -> None:
        if not devices:
            raise ValueError(f"node {name!r} needs at least one device")
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.name = name
        self.device_specs: Dict[str, DeviceRequest] = {
            label: (spec if isinstance(spec, str) else dict(spec))
            for label, spec in devices.items()
        }
        self.device_kwargs: Dict[str, Dict[str, Any]] = {
            label: (
                backend_flags(spec) if isinstance(spec, str) else dict(spec)
            )
            for label, spec in self.device_specs.items()
        }
        self._retry_policy = retry_policy
        self._tracer = tracer
        self._metrics = metrics
        self.alpha = float(alpha)
        self._pool = LabelledWorkerPool(thread_name_prefix=f"node-{name}")
        #: Calibration/dispatch state below is driven by the scheduler
        #: under its state lock (readers copy under the same lock); the
        #: sanitizer verifies that contract when enabled.
        self._coord_state = locksan.scoped_name(f"cluster.node[{name}].state")
        #: Device workers of one node consult the shared injector
        #: concurrently, so its counter needs a real lock.
        self._injector_lock = locksan.instrument(
            threading.Lock(),
            locksan.scoped_name(f"cluster.node[{name}].injector"),
        )
        self._injector_state = locksan.scoped_name(
            f"cluster.node[{name}].injector-state"
        )
        self._injector: Any = None
        self._dispatched = 0
        self._completed = 0
        self._rate: Optional[float] = None
        self._prior = sum(
            prior_rate_for(spec) for spec in self.device_specs.values()
        ) / len(self.device_specs)

    # -- calibration -------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Concurrent shard slots (one per device)."""
        return len(self.device_specs)

    @property
    def prior_rate(self) -> float:
        """Perf-model throughput prior per device (relative units)."""
        return self._prior

    @property
    def rate(self) -> float:
        """Calibrated per-device rate: EWMA if measured, prior otherwise."""
        locksan.access(self._coord_state, write=False)
        return self._rate if self._rate is not None else self._prior

    @property
    def effective_rate(self) -> float:
        """Node-level rate the bin-packer weighs: per-device rate times
        capacity (``capacity`` shards progress concurrently)."""
        return self.rate * self.capacity

    @property
    def calibrated(self) -> bool:
        """Whether any measured shard has refined the prior."""
        locksan.access(self._coord_state, write=False)
        return self._rate is not None

    @property
    def completed(self) -> int:
        """Shards completed on this node."""
        locksan.access(self._coord_state, write=False)
        return self._completed

    def observe(self, timing: ComponentTiming) -> None:
        """Fold one measured shard time into the EWMA rate.

        Called by the scheduler's dispatch thread after it collects the
        shard result, so rate state stays single-owner.
        """
        locksan.access(self._coord_state)
        self._completed += 1
        self._rate = ewma(self._rate, timing.rate, self.alpha)

    # -- fault injection ---------------------------------------------------

    def set_injector(self, injector: Any) -> None:
        """Attach the node's (memoized) fault injector."""
        self._injector = injector

    def _consult_injector(self, component: Optional[TreeLikelihood]) -> None:
        injector = self._injector
        if injector is None:
            return
        clock = None if component is None else device_clock(component)
        with self._injector_lock:
            locksan.access(self._injector_state)
            injector.on_event(clock)

    def probe(self) -> None:
        """One recovery probe against the fault schedule.

        Consumes one interception event (probes count, exactly as the
        executor's quarantine probes do) and raises the injected fault
        while the node is still down.
        """
        self._consult_injector(None)

    # -- shard evaluation --------------------------------------------------

    def next_device(self) -> str:
        """Round-robin device label for the next dispatched shard."""
        locksan.access(self._coord_state)
        labels = list(self.device_specs)
        label = labels[self._dispatched % len(labels)]
        self._dispatched += 1
        return label

    def submit_shard(
        self, shard: Any, parent_span: Optional[int] = None
    ) -> "Future[Tuple[float, ComponentTiming]]":
        """Queue one shard on the node's next device worker."""
        device = self.next_device()
        return self._pool.submit(
            device, self._evaluate_shard, shard, device, parent_span
        )

    def _evaluate_shard(
        self, shard: Any, device: str, parent_span: Optional[int]
    ) -> Tuple[float, ComponentTiming]:
        """Evaluate one whole shard on one device (worker thread).

        The shard is never split further: its value is a function of
        (shard data, tree, model) alone, so it is bit-identical wherever
        it runs — the invariant the scheduler's re-pack relies on.  The
        ``cluster.shard`` span covers the instance build and the
        evaluation; the timing covers the evaluation.
        """
        tracer = self._tracer
        span = None
        if tracer is not None and tracer.enabled:
            span = tracer.span(
                "cluster.shard",
                kind="cluster",
                parent_id=parent_span,
                node=self.name,
                device=device,
                shard=shard.key,
                patterns=shard.patterns,
            )
        label = f"{self.name}:{device}"
        return measure(
            self._shard_component(shard, device),
            partial(self._run_shard, label),
            label,
            shard.patterns,
            span,
        )

    @contextmanager
    def _shard_component(self, shard: Any,
                         device: str) -> Iterator[TreeLikelihood]:
        """A throw-away instance for one shard on one device."""
        kwargs = dict(self.device_kwargs[device])
        kwargs.update(shard.likelihood_kwargs)
        component = TreeLikelihood(
            shard.tree, shard.data, shard.model, shard.site_model, **kwargs
        )
        try:
            if self._tracer is not None:
                component.instrument(self._tracer, self._metrics)
            yield component
        finally:
            component.finalize()

    def _run_shard(self, label: str, component: TreeLikelihood) -> float:
        return call_with_retries(
            self._attempt_shard, component,
            policy=self._retry_policy, salt=label, device=component,
            tracer=self._tracer, metrics=self._metrics, prefix="cluster",
        )

    def _attempt_shard(self, component: TreeLikelihood) -> float:
        self._consult_injector(component)
        return float(component.log_likelihood())

    # -- lifecycle ---------------------------------------------------------

    def retire(self, wait: bool = True) -> None:
        """Release every device worker (node loss).

        The pool itself stays open, so a later readmission recreates
        workers on demand.
        """
        for label in self.device_specs:
            self._pool.retire(label, wait=wait)

    def shutdown(self, wait: bool = True) -> None:
        """Permanently stop the node's workers (idempotent)."""
        self._pool.shutdown(wait=wait)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WorkerNode({self.name!r}, devices={list(self.device_specs)}, "
            f"rate={self.rate:.1f})"
        )
