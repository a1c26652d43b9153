"""Deterministic fault injection for multi-device evaluation.

Every failure scenario in the test suite and the chaos CLI is a
:class:`FaultPlan`: a list of :class:`FaultEvent` records describing
*which device* misbehaves, *when* (call/launch index), and *how*
(transient kernel-launch failure, persistent device loss, or a latency
spike).  Plans are plain data — they serialize to JSON and replay
identically, so a failure scenario is a reproducible fixture rather
than a hope.

Installation points
-------------------
A plan is installed on a likelihood at one of two levels:

* **hardware** — the per-device :class:`FaultInjector` is attached to
  the simulated backend's :class:`~repro.accel.framework.HardwareInterface`,
  which consults it on every kernel launch.  Faults then surface from
  the same choke point as real driver errors, and latency spikes
  advance the simulated device clock.
* **wrapper** — the component is wrapped in a :class:`FaultyComponent`
  proxy that consults the injector once per likelihood call.  This
  works for *any* implementation, including host backends with no
  hardware interface.

``install_fault_plan(likelihood, plan)`` picks the hardware level where
available (``level="auto"``) and survives instance rebuilds: the
:class:`~repro.partition.multi.MultiDeviceLikelihood` re-applies the
plan after every resplit/failover rebuild, and injector state (the call
counter) is memoized per label on the plan so a rebuilt instance does
not reset the fault schedule.

Trigger semantics
-----------------
Counting is 0-based over the interception events seen by that device's
injector (launches at hardware level, likelihood calls at wrapper
level):

* ``transient-kernel`` — raises
  :class:`~repro.util.errors.KernelLaunchError` for events
  ``at <= n < at + times`` (``times`` consecutive failures, then clean).
* ``device-loss`` — raises
  :class:`~repro.util.errors.DeviceLostError` for every event from
  ``at`` on; with ``duration = d`` the device heals after ``d`` failed
  events, so quarantine probes can observe the recovery.
* ``latency-spike`` — advances the device clock by ``seconds`` for
  events ``at <= n < at + times`` (a no-op when no clock is available).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.resil._surface import resil_entrypoint
from repro.resil.group import device_clock
from repro.util.errors import DeviceLostError, KernelLaunchError

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultyComponent",
    "install_fault_plan",
]

FAULT_KINDS = ("transient-kernel", "device-loss", "latency-spike")


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault on one device.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    label:
        The device label (as used by ``device_requests``) to inflict
        the fault on.
    at:
        0-based interception index at which the fault starts firing.
    times:
        How many consecutive interceptions fire (transient kinds).
    duration:
        ``device-loss`` only: number of failed interceptions after
        which the device heals; ``None`` means the loss is permanent.
    seconds:
        ``latency-spike`` only: simulated seconds added per spike.
    """

    kind: str
    label: str
    at: int = 0
    times: int = 1
    duration: Optional[int] = None
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.at < 0:
            raise ValueError("at must be >= 0")
        if self.times < 1:
            raise ValueError("times must be >= 1")
        if self.duration is not None and self.duration < 1:
            raise ValueError("duration must be >= 1 (or None for permanent)")
        if self.seconds < 0:
            raise ValueError("seconds must be >= 0")
        if self.kind == "latency-spike" and self.seconds == 0:
            raise ValueError("latency-spike needs seconds > 0")


class FaultInjector:
    """Per-device fault state: an interception counter plus the events
    scripted for that device.

    The injector is memoized on its :class:`FaultPlan` (one per label),
    so the counter — and therefore the fault schedule — survives the
    instance rebuilds that resplit/failover perform.
    """

    def __init__(self, label: str, events: Iterable[FaultEvent]) -> None:
        self.label = label
        self.events = [ev for ev in events if ev.label == label]
        self.count = 0
        #: ``(interception index, event)`` for every fault that fired.
        self.fired: List[Tuple[int, FaultEvent]] = []

    def on_event(self, clock=None) -> None:
        """Consult the schedule for the next interception.

        Raises the scripted error, advances *clock* for latency spikes,
        or returns cleanly.  ``device-loss`` dominates other kinds.
        """
        n = self.count
        self.count += 1
        for ev in self.events:
            if ev.kind == "latency-spike" and ev.at <= n < ev.at + ev.times:
                self.fired.append((n, ev))
                if clock is not None:
                    clock.advance(ev.seconds, "fault.latency-spike")
        for ev in self.events:
            if ev.kind == "device-loss" and n >= ev.at:
                if ev.duration is not None and n >= ev.at + ev.duration:
                    continue  # healed
                self.fired.append((n, ev))
                raise DeviceLostError(
                    f"injected device loss (event {n})", device=self.label
                )
        for ev in self.events:
            if ev.kind == "transient-kernel" and ev.at <= n < ev.at + ev.times:
                self.fired.append((n, ev))
                raise KernelLaunchError(
                    f"injected kernel-launch failure (event {n})",
                    device=self.label,
                )

    # The two interception levels share one counter: a plan is
    # installed at exactly one level per device.
    on_call = on_event
    on_launch = on_event


class FaultPlan:
    """A seeded, serializable script of device faults.

    ``seed`` does not drive any randomness inside the plan itself (the
    schedule is fully explicit); it seeds the deterministic jitter of
    whatever :class:`~repro.resil.retry.RetryPolicy` the scenario pairs
    the plan with, and is carried in the JSON form so a scenario file
    is self-contained.
    """

    def __init__(self, events: Iterable[FaultEvent] = (), seed: int = 0) -> None:
        self.events = list(events)
        self.seed = int(seed)
        self._injectors: Dict[str, FaultInjector] = {}

    def events_for(self, label: str) -> List[FaultEvent]:
        return [ev for ev in self.events if ev.label == label]

    def injector_for(self, label: str) -> FaultInjector:
        """The (memoized) injector for *label* — same object across
        instance rebuilds, so fault state is never reset by failover."""
        if label not in self._injectors:
            self._injectors[label] = FaultInjector(
                label, self.events_for(label)
            )
        return self._injectors[label]

    def fired(self) -> Dict[str, List[Tuple[int, FaultEvent]]]:
        """Faults that actually fired, per device label."""
        return {
            label: list(injector.fired)
            for label, injector in self._injectors.items()
            if injector.fired
        }

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "events": [asdict(ev) for ev in self.events],
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "FaultPlan":
        events = [FaultEvent(**ev) for ev in doc.get("events", [])]
        return cls(events, seed=doc.get("seed", 0))

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


class FaultyComponent:
    """Implementation-agnostic fault wrapper around one component.

    Intercepts the likelihood entry points the executor drives and
    consults the injector once per call; everything else (``instance``,
    ``pattern_count``, ``flush``, ``finalize``, ...) delegates to the
    wrapped component, so the executor and the partition layer cannot
    tell the difference.
    """

    def __init__(self, component, injector: FaultInjector) -> None:
        self._component = component
        self._injector = injector

    @property
    def wrapped(self):
        """The underlying component (for tests and introspection)."""
        return self._component

    def log_likelihood(self) -> float:
        self._injector.on_call(device_clock(self._component))
        return self._component.log_likelihood()

    def update_branch_lengths(self, node_indices) -> float:
        self._injector.on_call(device_clock(self._component))
        return self._component.update_branch_lengths(node_indices)

    def __getattr__(self, name: str):
        return getattr(self._component, name)


def _install_on_component(component, injector: FaultInjector, level: str):
    """Attach *injector* to one component at the requested level.

    Returns the component to use in its slot: the original (hardware
    level — the interface consults the injector) or a
    :class:`FaultyComponent` wrapper.
    """
    if level not in ("auto", "hardware", "wrapper"):
        raise ValueError(f"unknown fault level {level!r}")
    interface = getattr(component.instance.impl, "interface", None)
    if level in ("auto", "hardware") and interface is not None:
        interface.fault_injector = injector
        return component
    if level == "hardware":
        raise ValueError(
            "hardware-level fault injection needs a simulated hardware "
            "interface; use level='wrapper' for host backends"
        )
    return FaultyComponent(component, injector)


@resil_entrypoint
def install_fault_injector(component, injector: FaultInjector,
                           level: str = "auto"):
    """Attach *injector* to a single likelihood component.

    Public single-component counterpart of :func:`install_fault_plan`
    for callers that manage their own component slots — the serving
    layer's instance pool installs injectors on pooled
    :class:`~repro.core.highlevel.TreeLikelihood` instances one at a
    time as they are built.  Returns the component to put in the slot
    (the original at hardware level, or a :class:`FaultyComponent`
    wrapper).
    """
    return _install_on_component(component, injector, level)


@resil_entrypoint
def install_fault_plan(likelihood, plan: FaultPlan, level: str = "auto"):
    """Install *plan* on a likelihood's components.

    For a :class:`~repro.partition.multi.MultiDeviceLikelihood` this
    delegates to its own ``install_fault_plan``, which also re-applies
    the plan to instances rebuilt by resplit/failover.  For any other
    object exposing ``components``/``labels`` the plan is applied once,
    in place.  Returns the likelihood.
    """
    if hasattr(likelihood, "install_fault_plan"):
        likelihood.install_fault_plan(plan, level=level)
        return likelihood
    labels = getattr(likelihood, "labels", None)
    components = getattr(likelihood, "components", None)
    if labels is None or components is None:
        raise TypeError(
            "install_fault_plan needs a likelihood with labels/components; "
            f"got {type(likelihood).__name__}"
        )
    for i, label in enumerate(labels):
        components[i] = _install_on_component(
            components[i], plan.injector_for(label), level
        )
    return likelihood
