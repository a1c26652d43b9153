"""The one failover core (:mod:`repro.resil.group`) and the layers on it.

Unit tests pin each shared mechanism once: the bounded retry loop and
its clock-charged deterministic backoff, the failover decision, probe
cadence and order-preserving readmission, the EWMA blend, and future
collection.  The cross-layer tests then drive the executor, the cluster
and the server through the same transient fault and check that each
charges exactly one backoff to the device clock and recovers bit for
bit; the last two pin defects the shared core fixed (serve honouring
``RetryPolicy.failover``, ``cluster.shard`` spans wrapping their work).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor

import pytest

from repro.accel.perfmodel import SimulatedClock
from repro.cluster import ClusterSession
from repro.config import SessionConfig
from repro.core import TreeLikelihood
from repro.core.api import beagle_get_last_error_message
from repro.model import HKY85, SiteModel
from repro.obs import MetricsRegistry, Tracer
from repro.partition.multi import MultiDeviceLikelihood
from repro.resil import FaultEvent, FaultPlan, RetryPolicy
from repro.resil.group import (
    ComponentTiming,
    MemberGroup,
    allowed_failovers,
    call_with_retries,
    can_fail_over,
    collect,
    ewma,
)
from repro.seq import synthetic_pattern_set
from repro.serve import LikelihoodServer
from repro.session import Session, backend_flags
from repro.tree import yule_tree
from repro.util.errors import DeviceError, DeviceLostError, KernelLaunchError


class _Device:
    """The attribute path the core reads a device clock through."""

    def __init__(self) -> None:
        clock = SimulatedClock()
        interface = type("Interface", (), {"clock": clock})()
        impl = type("Impl", (), {"interface": interface})()
        self.instance = type("Instance", (), {"impl": impl})()
        self.clock = clock


def _flaky(failures, exc_type=KernelLaunchError):
    """A callable failing ``failures`` times, then returning its count."""
    calls = []

    def fn():
        calls.append(None)
        if len(calls) <= failures:
            raise exc_type("injected")
        return len(calls)

    return fn, calls


# -- the bounded retry loop -------------------------------------------------


class TestCallWithRetries:
    def test_exactly_max_attempts_calls(self):
        policy = RetryPolicy(max_attempts=4)
        fn, calls = _flaky(10)
        with pytest.raises(KernelLaunchError):
            call_with_retries(fn, policy=policy, salt="d", device=_Device())
        assert len(calls) == 4

    def test_recovers_within_the_budget(self):
        fn, calls = _flaky(2)
        value = call_with_retries(
            fn, policy=RetryPolicy(max_attempts=3), salt="d",
            device=_Device(),
        )
        assert value == 3 and len(calls) == 3

    def test_without_policy_one_attempt(self):
        fn, calls = _flaky(1)
        with pytest.raises(KernelLaunchError):
            call_with_retries(fn, policy=None, salt="d")
        assert len(calls) == 1

    def test_non_transient_error_propagates_on_first_attempt(self):
        for exc_type in (DeviceLostError, ValueError):
            fn, calls = _flaky(1, exc_type)
            with pytest.raises(exc_type):
                call_with_retries(
                    fn, policy=RetryPolicy(max_attempts=5), salt="d",
                    device=_Device(),
                )
            assert len(calls) == 1

    def test_delays_are_deterministic_and_charged_to_the_clock(self):
        policy = RetryPolicy(max_attempts=4, seed=7, jitter=0.5)
        charged = []
        for _ in range(2):
            device = _Device()
            fn, _ = _flaky(3)
            call_with_retries(fn, policy=policy, salt="gpu0", device=device)
            assert device.clock.calls_by_label == {"resil.retry-backoff": 3}
            charged.append(device.clock.elapsed)
        expected = sum(policy.delay_s(a, "gpu0") for a in (1, 2, 3))
        assert charged == [expected, expected]
        other = sum(policy.delay_s(a, "gpu1") for a in (1, 2, 3))
        assert other != expected  # the salt de-synchronises devices

    def test_prefix_names_the_metrics(self):
        tracer, metrics = Tracer(enabled=True), MetricsRegistry()
        policy = RetryPolicy(max_attempts=2)
        fn, _ = _flaky(1)
        device = _Device()
        call_with_retries(
            fn, policy=policy, salt="n:d", device=device,
            tracer=tracer, metrics=metrics, prefix="cluster",
        )
        assert metrics.counter("cluster.retries").value == 1
        assert metrics.histogram("cluster.retry.delay_s").count == 1
        assert tracer.count(name_prefix="cluster.retry") == 1
        assert device.clock.by_label == {
            "cluster.retry-backoff": policy.delay_s(1, "n:d")
        }


# -- the failover decision --------------------------------------------------


class TestFailoverDecision:
    def test_budget_follows_the_policy(self):
        assert allowed_failovers(None, 4) == 0
        assert allowed_failovers(RetryPolicy(failover=False), 4) == 0
        assert allowed_failovers(RetryPolicy(), 4) == 3
        assert allowed_failovers(RetryPolicy(max_failovers=1), 4) == 1

    def test_only_device_errors_with_survivors_and_budget(self):
        lost = DeviceLostError("gone")
        assert can_fail_over(lost, 0, 1, 1)
        assert not can_fail_over(lost, 1, 1, 1)  # budget spent
        assert not can_fail_over(lost, 0, 1, 0)  # nobody left
        assert not can_fail_over(ValueError("bad"), 0, 1, 1)


# -- quarantine, probing, readmission ---------------------------------------


class TestMemberGroup:
    def test_probe_cadence_counts_caller_ticks(self):
        group = MemberGroup(["a", "b"], RetryPolicy(probe_interval=2))
        group.quarantine("b", DeviceLostError("gone"), tick=3)
        checked = []

        def still_down(label):
            checked.append(label)
            raise DeviceLostError("still gone")

        assert group.probe(4, still_down) == []
        assert checked == []  # not due yet
        assert group.probe(5, still_down) == []
        assert checked == ["b"]
        record = group.quarantined["b"]
        assert (record.at, record.last_probe, record.probes) == (3, 5, 1)
        group.probe(6, still_down)
        assert checked == ["b"]  # next probe is due at tick 7
        assert group.probe(7, lambda label: None) == ["b"]
        assert group.quarantined == {} and group.active == ["a", "b"]

    def test_no_probing_without_an_interval(self):
        group = MemberGroup(["a", "b"], RetryPolicy())
        group.quarantine("a", DeviceLostError("gone"), tick=0)
        assert group.probe(100, lambda label: None) == []
        assert group.active == ["b"]

    def test_readmission_restores_the_original_order(self):
        group = MemberGroup(["a", "b", "c"], RetryPolicy(probe_interval=1))
        group.quarantine("a", DeviceLostError("gone"), tick=0)
        group.quarantine("b", DeviceLostError("gone"), tick=0)
        assert group.active == ["c"]
        group.probe(1, lambda label: None)
        assert group.active == ["a", "b", "c"]

    def test_quarantine_ignores_inactive_members(self):
        group = MemberGroup(["a", "b"])
        record = group.quarantine("a", DeviceLostError("gone"), tick=2)
        assert record.label == "a" and record.error.startswith(
            "DeviceLostError"
        )
        assert group.quarantine("a", DeviceLostError("again"), 3) is None


# -- calibration and collection ---------------------------------------------


def test_ewma_takes_the_first_sample_then_blends():
    rate = ewma(None, 100.0, 0.25)
    assert rate == 100.0
    assert ewma(rate, 200.0, 0.25) == 0.25 * 200.0 + 0.75 * 100.0


def test_component_timing_lives_in_the_core():
    from repro.sched.executor import ComponentTiming as reexported

    assert reexported is ComponentTiming


def test_collect_waits_for_every_future():
    release = threading.Event()

    def late(value):
        release.wait(5)
        return value

    with ThreadPoolExecutor(max_workers=3) as pool:
        early: "Future[int]" = Future()
        early.set_exception(KernelLaunchError("first"))
        futures = [early, pool.submit(late, 1), pool.submit(late, 2)]
        threading.Timer(0.05, release.set).start()
        outcomes = collect(futures)
    assert isinstance(outcomes[0][1], KernelLaunchError)
    assert outcomes[1:] == [(1, None), (2, None)]
    assert all(f.done() for f in futures)


# -- one transient fault through every layer --------------------------------


@pytest.fixture(scope="module")
def workload():
    tree = yule_tree(8, rng=41)
    model = HKY85(kappa=2.0)
    site = SiteModel.gamma(0.5, 4)
    data = synthetic_pattern_set(8, 240, 4, rng=42)
    return tree, data, model, site


@pytest.fixture
def backoffs(monkeypatch):
    """Every backoff charged to any simulated device clock."""
    charged = []
    advance = SimulatedClock.advance

    def spy(self, seconds, label=None):
        if label is not None and label.endswith("retry-backoff"):
            charged.append((label, seconds))
        advance(self, seconds, label)

    monkeypatch.setattr(SimulatedClock, "advance", spy)
    return charged


POLICY = RetryPolicy(max_attempts=3, seed=9)


def _transient(label):
    return FaultPlan([FaultEvent("transient-kernel", label, at=0, times=1)])


def test_executor_transient_fault(workload, backoffs):
    tree, data, model, site = workload
    requests = {"dev0": "cuda", "dev1": "cuda"}
    with MultiDeviceLikelihood(
        tree, data, model, site,
        device_requests={k: backend_flags(v) for k, v in requests.items()},
    ) as serial:
        expected = serial.log_likelihood()
    with Session.multi_device(
        data, tree, model, site, device_requests=requests,
        rebalance=False, retry_policy=POLICY,
        fault_plan=_transient("dev1"), fault_level="wrapper",
    ) as md:
        assert md.log_likelihood() == expected
        assert md.failover_events() == []
    assert backoffs == [("resil.retry-backoff", POLICY.delay_s(1, "dev1"))]


def test_cluster_transient_fault(workload, backoffs):
    tree, data, model, site = workload
    with ClusterSession(
        data, tree, model, site,
        nodes={"a": "opencl-gpu", "b": "opencl-gpu"}, n_shards=4,
        retry_policy=POLICY, fault_plan=_transient("a"),
    ) as cs:
        assert cs.log_likelihood() == cs.serial_baseline()
        assert cs.node_loss_events() == []
        delays = cs.metrics.histogram("cluster.retry.delay_s")
        assert delays.count == 1
    assert backoffs == [
        ("cluster.retry-backoff", POLICY.delay_s(1, "a:a-dev0"))
    ]


def _serve_baseline(config, tree, data, model, site):
    kwargs = config.replace(
        deferred=False, fault_plan=None, retry_policy=None
    ).likelihood_kwargs()
    with TreeLikelihood(tree, data, model, site, **kwargs) as tl:
        return tl.log_likelihood()


def test_serve_transient_fault(workload, backoffs):
    tree, data, model, site = workload
    config = SessionConfig(
        backend="cuda", deferred=True, retry_policy=POLICY,
        fault_plan=_transient("serve-0"), fault_level="wrapper",
    )
    with LikelihoodServer(config, pool_per_key=1) as server:
        value = server.register("t").submit(data, tree, model, site).result(60)
        assert server.metrics.counter("resil.retries").value == 1
        assert server.metrics.counter("serve.failover.events").value == 0
    assert value == _serve_baseline(config, tree, data, model, site)
    assert backoffs == [("resil.retry-backoff", POLICY.delay_s(1, "serve-0"))]


# -- defects the shared core fixed ------------------------------------------


def test_serve_honours_failover_false(workload):
    """A persistent loss under ``RetryPolicy(failover=False)`` fails the
    request instead of rebuilding the instance."""
    tree, data, model, site = workload
    config = SessionConfig(
        backend="cpu-serial", deferred=True,
        retry_policy=RetryPolicy(failover=False),
        fault_plan=FaultPlan([FaultEvent("device-loss", "serve-0", at=2)]),
        fault_level="wrapper",
    )
    server = LikelihoodServer(config, pool_per_key=1, start=False)
    client = server.register("t0")
    tickets = [client.submit(data, tree, model, site) for _ in range(3)]
    messages = {}
    for i, ticket in enumerate(tickets):
        # Runs on the worker thread that completes the ticket, where the
        # failure was recorded (the error surface is per thread).
        ticket._future.add_done_callback(
            lambda _f, i=i: messages.__setitem__(
                i, beagle_get_last_error_message()
            )
        )
    server.start()
    try:
        failed = []
        for i, ticket in enumerate(tickets):
            exc = ticket.exception(timeout=60)
            if exc is not None:
                failed.append(i)
                assert isinstance(exc, DeviceError)
        assert len(failed) == 1
        assert messages[failed[0]].startswith("serve.request[t0]@serve-0:")
        assert server.metrics.counter("serve.failover.events").value == 0
    finally:
        server.shutdown()


def test_cluster_shard_spans_wrap_their_instance_spans(workload):
    tree, data, model, site = workload
    with ClusterSession(
        data, tree, model, site,
        nodes={"a": "cpu-sse", "b": "cpu-sse"}, n_shards=4, trace=True,
    ) as cs:
        cs.log_likelihood()
        records = cs.tracer.records()
    parent = {r.span_id: r.parent_id for r in records}
    names = {r.span_id: r.name for r in records}

    def shard_ancestor(span_id):
        while span_id is not None:
            if names.get(span_id) == "cluster.shard":
                return span_id
            span_id = parent.get(span_id)
        return None

    shards = {sid for sid, name in names.items() if name == "cluster.shard"}
    assert len(shards) == 4
    covered = {}
    for record in records:
        if record.name in ("update_partials", "root_log_likelihood"):
            owner = shard_ancestor(record.parent_id)
            assert owner is not None, f"orphan {record.name} span"
            covered.setdefault(owner, set()).add(record.name)
    assert set(covered) == shards
    assert all(
        found == {"update_partials", "root_log_likelihood"}
        for found in covered.values()
    )
