"""The one failover core under the executor, the cluster and the server.

Every layer that places work on labelled members — the devices of a
multi-device split (:class:`repro.sched.ConcurrentExecutor`), the nodes
of a cluster (:class:`repro.cluster.ClusterScheduler`), the pooled
instances of :class:`repro.serve.LikelihoodServer` — applies its
:class:`~repro.resil.RetryPolicy` through the mechanisms below, each
written once: timing (:func:`measure`), the bounded retry loop
(:func:`call_with_retries`), the failover decision
(:func:`allowed_failovers`, :func:`can_fail_over`), quarantine, probe
cadence and order-preserving readmission (:class:`MemberGroup`),
calibration (:func:`ewma`) and future collection (:func:`collect`).
The layers keep only their placement policies.

Nothing here holds a lock: callers keep their own contracts (the
cluster's state lock, the executor's single-owner coordinator), so the
lock-sanitizer annotations stay where the state is shared.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from contextlib import AbstractContextManager
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from repro.resil._surface import resil_entrypoint
from repro.util.errors import DeviceError

__all__ = [
    "ComponentTiming",
    "MemberGroup",
    "Quarantine",
    "allowed_failovers",
    "call_with_retries",
    "can_fail_over",
    "collect",
    "device_clock",
    "ewma",
    "measure",
]


@dataclass
class ComponentTiming:
    """One component's cost in the most recent evaluation."""

    label: str
    patterns: int
    wall_s: float
    #: Modelled device seconds, where the backend simulates a device
    #: clock (accelerated implementations); ``None`` on host backends.
    simulated_s: Optional[float]

    @property
    def measured_s(self) -> float:
        """The time calibration should trust for this component.

        Simulated device seconds when available (that *is* the device
        model), wall-clock otherwise.
        """
        if self.simulated_s is not None and self.simulated_s > 0:
            return self.simulated_s
        return self.wall_s

    @property
    def rate(self) -> float:
        """Patterns per measured second."""
        return self.patterns / max(self.measured_s, 1e-12)


@dataclass
class Quarantine:
    """A member removed from placement after persistent failure.

    ``at`` and ``last_probe`` are caller ticks: evaluations for the
    executor, dispatch rounds for the cluster.
    """

    label: str
    error: str
    at: int
    last_probe: int
    probes: int = 0


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


@resil_entrypoint
def device_clock(component: Any) -> Any:
    """The simulated device clock behind *component*, or ``None``."""
    interface = getattr(component.instance.impl, "interface", None)
    return getattr(interface, "clock", None)


@resil_entrypoint
def measure(
    scope: "AbstractContextManager[Any]",
    run: Callable[[Any], float],
    label: str,
    patterns: int,
    span: Any = None,
) -> Tuple[float, ComponentTiming]:
    """Run ``run(component)`` once and time it.

    *scope* is a context manager yielding the component: a builder that
    constructs and finalizes a throw-away instance, or
    ``contextlib.nullcontext(component)`` for one the caller keeps.
    Only ``run`` is timed: on the wall clock, and on the component's
    simulated device clock where it keeps one.  *span* is an
    unopened tracer span (``None`` when tracing is off); it wraps the
    scope, so spans the component emits while building and evaluating
    nest under it.
    """
    if span is None:
        with scope as component:
            return _timed(component, run, label, patterns)
    with span, scope as component:
        value, timing = _timed(component, run, label, patterns)
        span.attrs["value"] = value
        span.attrs["measured_s"] = timing.measured_s
        return value, timing


def _timed(component: Any, run: Callable[[Any], float], label: str,
           patterns: int) -> Tuple[float, ComponentTiming]:
    impl = component.instance.impl
    sim0 = getattr(impl, "simulated_time", None)
    t0 = time.perf_counter()
    value = run(component)
    wall = time.perf_counter() - t0
    sim = None if sim0 is None else impl.simulated_time - sim0
    return value, ComponentTiming(label, patterns, wall, sim)


@resil_entrypoint
def call_with_retries(
    fn: Callable[..., Any],
    *args: Any,
    policy: Any,
    salt: str,
    device: Any = None,
    tracer: Any = None,
    metrics: Any = None,
    prefix: str = "resil",
) -> Any:
    """``fn(*args)``, retrying transient errors under *policy*.

    At most ``policy.max_attempts`` calls (one without a policy).  A
    non-transient error, or the last attempt's error, propagates.  The
    backoff before retry ``n`` is the policy's ``delay_s`` for
    ``(n, salt)``, charged to *device*'s simulated clock when it keeps
    one and slept otherwise.
    """
    attempts = 1 if policy is None else policy.max_attempts
    for attempt in range(1, attempts + 1):
        try:
            return fn(*args)
        except Exception as exc:
            if attempt >= attempts or not policy.is_transient(exc):
                raise
            delay = policy.delay_s(attempt, salt)
            if tracer is not None and tracer.enabled:
                tracer.event(
                    f"{prefix}.retry", kind=prefix, label=salt,
                    attempt=attempt, error=_describe(exc), delay_s=delay,
                )
            if metrics is not None:
                metrics.counter(f"{prefix}.retries").inc()
                metrics.histogram(f"{prefix}.retry.delay_s").observe(delay)
            clock = None if device is None else device_clock(device)
            if clock is not None:
                clock.advance(delay, f"{prefix}.retry-backoff")
            elif delay > 0:
                time.sleep(delay)
    raise AssertionError("unreachable: bounded retry loop fell through")


@resil_entrypoint
def allowed_failovers(policy: Any, n_members: int) -> int:
    """Failover rounds one evaluation over *n_members* may spend."""
    if policy is None or not policy.failover:
        return 0
    return policy.failover_budget(n_members)


@resil_entrypoint
def can_fail_over(exc: BaseException, round_index: int, budget: int,
                  survivors: int) -> bool:
    """Whether a member failing with *exc* is quarantined and its work
    moved, rather than the error propagating."""
    return (
        isinstance(exc, DeviceError)
        and round_index < budget
        and survivors > 0
    )


@resil_entrypoint
def ewma(previous: Optional[float], sample: float, alpha: float) -> float:
    """Fold *sample* into a rate estimate: the first sample is taken
    as is, later ones blend with weight *alpha*."""
    if previous is None:
        return sample
    return alpha * sample + (1 - alpha) * previous


@resil_entrypoint
def collect(
    futures: Iterable["Future[Any]"],
) -> List[Tuple[Any, Optional[BaseException]]]:
    """``(value, exception)`` per future, in order; waits for all."""
    outcomes: List[Tuple[Any, Optional[BaseException]]] = []
    for future in futures:
        try:
            outcomes.append((future.result(), None))
        except Exception as exc:
            outcomes.append((None, exc))
    return outcomes


class MemberGroup:
    """Labelled members in fixed placement order, with quarantine.

    ``active`` lists the members eligible for placement, always in the
    original order.  A persistent failure moves a member to
    ``quarantined``; with a policy whose ``probe_interval`` is positive,
    :meth:`probe` checks the members that fall due at a caller tick and
    readmits the healthy ones at their original position.  Emits
    ``<prefix>.quarantines``/``.quarantined``/``.probes``/
    ``.readmissions`` and a ``<prefix>.probe`` event per probe.
    """

    def __init__(self, labels: Sequence[str], policy: Any = None,
                 tracer: Any = None, metrics: Any = None,
                 prefix: str = "resil") -> None:
        self.order = list(labels)
        self.active = list(self.order)
        self.quarantined: Dict[str, Quarantine] = {}
        self.policy = policy
        self._tracer = tracer
        self._metrics = metrics
        self._prefix = prefix

    def quarantine(self, label: str, exc: BaseException,
                   tick: int) -> Optional[Quarantine]:
        """Remove *label* from placement; ``None`` if it was not active."""
        if label not in self.active:
            return None
        self.active.remove(label)
        record = Quarantine(label, _describe(exc), at=tick, last_probe=tick)
        self.quarantined[label] = record
        if self._metrics is not None:
            self._metrics.counter(f"{self._prefix}.quarantines").inc()
        self._note_quarantined()
        return record

    def probe(self, tick: int, check: Callable[[str], Any]) -> List[str]:
        """Probe the members due at *tick*; readmit the healthy ones.

        ``check(label)`` raises while the member is still unhealthy.
        Returns the readmitted labels.
        """
        policy = self.policy
        if (
            not self.quarantined
            or policy is None
            or policy.probe_interval <= 0
        ):
            return []
        prefix, metrics, tracer = self._prefix, self._metrics, self._tracer
        readmitted: List[str] = []
        for label, record in list(self.quarantined.items()):
            if tick - record.last_probe < policy.probe_interval:
                continue
            record.last_probe = tick
            record.probes += 1
            if metrics is not None:
                metrics.counter(f"{prefix}.probes").inc()
            error = None
            try:
                check(label)
            except Exception as exc:
                error = _describe(exc)
            if tracer is not None and tracer.enabled:
                tracer.event(
                    f"{prefix}.probe", kind=prefix, label=label,
                    healthy=error is None, error=error,
                )
            if error is not None:
                continue
            del self.quarantined[label]
            active = set(self.active)
            active.add(label)
            self.active = [name for name in self.order if name in active]
            readmitted.append(label)
            if metrics is not None:
                metrics.counter(f"{prefix}.readmissions").inc()
            self._note_quarantined()
        return readmitted

    def _note_quarantined(self) -> None:
        if self._metrics is not None:
            self._metrics.gauge(f"{self._prefix}.quarantined").set(
                len(self.quarantined)
            )
