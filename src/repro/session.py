"""One-object entry point: data + tree + model -> instrumented likelihood.

:class:`Session` is the recommended front door for interactive use and
scripts.  It folds together the pieces a caller otherwise wires by hand —
pattern compression, backend flag selection, :class:`TreeLikelihood`
construction, and the observability plumbing of :mod:`repro.obs` — behind
a context manager::

    with repro.Session(alignment, tree, model, backend="cuda",
                       trace=True) as s:
        logl = s.log_likelihood()
        print(s.tracer.format_tree())
        print(s.metrics.snapshot())

Every session carries a :class:`~repro.obs.trace.Tracer` and a
:class:`~repro.obs.metrics.MetricsRegistry`.  The tracer starts disabled
unless ``trace=True``, which keeps the per-call cost to a single boolean
check (the zero-overhead contract of the obs subsystem); span-derived
metrics stay empty until tracing is enabled, while registry-gated
counters (thread-pool queue depth, executor timings) flow whenever a
registry is attached.

:meth:`Session.multi_device` opens the multi-device variant: a
:class:`MultiDeviceSession` that splits one dataset's patterns across
several backends, evaluates them concurrently, and rebalances the split
from measured throughput (see :mod:`repro.sched`).

Both session kinds are configured by one declarative object,
:class:`~repro.config.SessionConfig` (``Session(data, tree, model,
config=cfg)``); the keyword spellings above remain as a compatibility
shim that builds a config internally.  The backend-name table
(:data:`~repro.config.BACKEND_FLAGS`) lives in :mod:`repro.config` and
is re-exported here.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.config import BACKEND_FLAGS, SessionConfig, backend_flags
from repro.core.highlevel import TreeLikelihood
from repro.model.ratematrix import SubstitutionModel
from repro.model.sitemodel import SiteModel
from repro.obs import MetricsRegistry, Tracer
from repro.seq.alignment import Alignment
from repro.seq.patterns import PatternSet, compress_patterns
from repro.seq.simulate import SyntheticPatterns
from repro.tree.tree import Tree

__all__ = [
    "BACKEND_FLAGS",
    "MultiDeviceSession",
    "Session",
    "SessionConfig",
    "backend_flags",
]


class MultiDeviceSession:
    """A pattern-split likelihood running concurrently across devices.

    Created via :meth:`Session.multi_device`.  Wraps a
    :class:`~repro.partition.MultiDeviceLikelihood` in a
    :class:`~repro.sched.ConcurrentExecutor` (or, by default, a
    :class:`~repro.sched.RebalancingExecutor`, which feeds measured
    per-device throughput back into the pattern split), with one shared
    tracer + metrics registry instrumenting every component and the
    executor itself.

    Parameters
    ----------
    data:
        An :class:`Alignment` (compressed here) or :class:`PatternSet`.
    tree, model, site_model:
        As for :class:`Session`.
    device_requests:
        Label -> instance keyword arguments *or* a backend name from
        :data:`BACKEND_FLAGS` (``{"gpu": "cuda", "host": "cpp-threads"}``).
    proportions:
        Initial pattern shares (default: equal split, or the perf-model
        prior when ``seed_backends`` is given and rebalancing is on).
    rebalance:
        Enable the measured-throughput rebalance loop.
    threshold:
        Predicted-imbalance fraction that triggers a re-split.
    seed_backends:
        Perf-model backend names (one per device request) seeding the
        split before the first evaluation.
    retry_policy:
        A :class:`~repro.resil.RetryPolicy` enabling the resilience
        layer: transient device errors retry in place, persistent
        device loss quarantines the device and fails its patterns over
        to the survivors (``resil.*`` spans and counters record every
        recovery).  Default ``None`` — failures propagate.
    fault_plan:
        A :class:`~repro.resil.FaultPlan` to install on the components
        (deterministic fault injection for tests and chaos drills).
    fault_level:
        Where to install the plan: ``"auto"`` (hardware choke point
        where available), ``"hardware"``, or ``"wrapper"``.
    config:
        A :class:`~repro.config.SessionConfig` with ``devices`` set.
        Mutually exclusive with the per-keyword spellings above, which
        are a compatibility shim that builds a config internally.
    """

    def __init__(
        self,
        data: Union[Alignment, PatternSet],
        tree: Tree,
        model: SubstitutionModel,
        site_model: Optional[SiteModel] = None,
        *,
        config: Optional[SessionConfig] = None,
        **kwargs,
    ) -> None:
        from repro.partition.multi import MultiDeviceLikelihood
        from repro.sched import ConcurrentExecutor, RebalancingExecutor

        if config is None:
            config = SessionConfig.from_multi_device_kwargs(**kwargs)
        elif kwargs:
            raise ValueError(
                "pass either config= or legacy keyword arguments, "
                f"not both (got {sorted(kwargs)})"
            )
        if not config.is_multi_device:
            raise ValueError(
                "MultiDeviceSession needs a config with devices set"
            )
        self.config = config
        md = config.multi_device_kwargs()
        if isinstance(data, Alignment):
            data = compress_patterns(data)
        self.likelihood = MultiDeviceLikelihood(
            tree, data, model, site_model,
            device_requests=md["device_requests"],
            proportions=md["proportions"],
            deferred=config.deferred,
        )
        self._tracer, self._metrics = self.likelihood.instrument(
            Tracer(enabled=config.trace), MetricsRegistry()
        )
        if config.fault_plan is not None:
            from repro.resil import install_fault_plan

            install_fault_plan(
                self.likelihood, config.fault_plan,
                level=config.fault_level,
            )
        if config.rebalance:
            self.executor = RebalancingExecutor(
                self.likelihood, self._tracer, self._metrics,
                threshold=config.rebalance_threshold,
                seed_backends=md["seed_backends"],
                retry_policy=config.retry_policy,
            )
        else:
            self.executor = ConcurrentExecutor(
                self.likelihood, self._tracer, self._metrics,
                retry_policy=config.retry_policy,
            )
        self._closed = False

    # -- core operations ---------------------------------------------------

    def log_likelihood(self) -> float:
        """Concurrent evaluation across every device instance."""
        return self.executor.log_likelihood()

    def update_branch_lengths(self, node_indices) -> float:
        """Concurrent incremental re-evaluation after branch edits."""
        return self.executor.update_branch_lengths(node_indices)

    def flush(self) -> None:
        """Flush deferred work on every device instance, concurrently."""
        self.executor.flush()

    def set_execution_mode(self, deferred: bool) -> None:
        self.likelihood.set_execution_mode(deferred)

    # -- reporting ---------------------------------------------------------

    @property
    def tracer(self) -> Tracer:
        return self._tracer

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    @property
    def proportions(self):
        """The current pattern share per device."""
        return list(self.likelihood.proportions)

    def device_report(self):
        """(label, implementation, pattern count) per component."""
        return self.likelihood.device_report()

    def backends(self):
        """Which implementation each device request landed on."""
        return self.likelihood.backends()

    def simulated_times(self):
        """Per-device simulated seconds (accelerated components only)."""
        return self.likelihood.simulated_times()

    def rebalance_events(self):
        """Executed rebalances (empty without a rebalancing executor)."""
        if hasattr(self.executor, "rebalance_events"):
            return self.executor.rebalance_events()
        return []

    def failover_events(self):
        """Executed failovers (empty without a retry policy)."""
        return self.executor.failover_events()

    def quarantined(self):
        """Currently quarantined devices, by label."""
        return self.executor.quarantined()

    def span_tree(self) -> str:
        """The recorded spans rendered as an indented tree."""
        return self._tracer.format_tree()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if not self._closed:
            self.executor.shutdown()
            self.likelihood.finalize()
            self._closed = True

    def __enter__(self) -> "MultiDeviceSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        shares = ", ".join(
            f"{label}={share:.3f}"
            for label, share in zip(
                self.likelihood.labels, self.likelihood.proportions
            )
        )
        return f"MultiDeviceSession({shares})"


class Session:
    """A configured, observable likelihood evaluation session.

    Parameters
    ----------
    data:
        An :class:`Alignment` (compressed to unique patterns here), a
        :class:`PatternSet`, or :class:`SyntheticPatterns`.
    tree:
        Rooted binary tree; tip names must match the data.
    model:
        Substitution model.
    site_model:
        Rate-heterogeneity categories; default single rate.
    backend:
        One of :data:`BACKEND_FLAGS` (``"cpu-serial"``, ``"cpu-sse"``,
        ``"cpp-threads"``, ``"opencl-x86"``, ``"cpu-vector"``,
        ``"opencl-gpu"``, ``"cuda"``) or ``None``/``"auto"`` for the
        manager's choice.
    deferred:
        Start in deferred (plan-recording) execution mode.
    trace:
        Enable span tracing from the start.  Tracing can also be toggled
        later via ``session.tracer.enabled``.
    config:
        A :class:`~repro.config.SessionConfig` — the declarative
        spelling of everything above.  Mutually exclusive with the
        per-keyword spellings, which are a compatibility shim that
        builds a config internally (``session.config`` exposes it
        either way).
    kwargs:
        Extra :class:`TreeLikelihood` / instance keywords
        (``use_scaling``, ``precision``, ``thread_count``, ...).
    """

    def __init__(
        self,
        data: Union[Alignment, PatternSet, SyntheticPatterns],
        tree: Tree,
        model: SubstitutionModel,
        site_model: Optional[SiteModel] = None,
        *,
        config: Optional[SessionConfig] = None,
        backend: Optional[str] = None,
        deferred: bool = False,
        trace: bool = False,
        **kwargs,
    ) -> None:
        if config is None:
            config = SessionConfig.from_kwargs(
                backend=backend, deferred=deferred, trace=trace, **kwargs
            )
        elif backend is not None or deferred or trace or kwargs:
            raise ValueError(
                "pass either config= or legacy keyword arguments, not both"
            )
        if config.is_multi_device:
            raise ValueError(
                "config has devices set; use Session.multi_device "
                "(or MultiDeviceSession) for multi-device configs"
            )
        self.config = config
        if isinstance(data, Alignment):
            data = compress_patterns(data)
        self.backend = config.backend_name
        self.likelihood = TreeLikelihood(
            tree, data, model, site_model, **config.likelihood_kwargs()
        )
        self._tracer, self._metrics = self.likelihood.instrument(
            Tracer(enabled=config.trace), MetricsRegistry()
        )
        self._closed = False

    # -- core operations ---------------------------------------------------

    def log_likelihood(self) -> float:
        """Full post-order evaluation of the tree."""
        return self.likelihood.log_likelihood()

    def site_log_likelihoods(self):
        """Per-pattern log-likelihoods of the last evaluation."""
        return self.likelihood.site_log_likelihoods()

    def set_execution_mode(self, deferred: bool) -> None:
        """Switch between eager and deferred (plan-batched) execution."""
        self.likelihood.set_execution_mode(deferred)

    def verify(self, strict: bool = False):
        """Statically verify this session without running a likelihood.

        Builds the execution plan a full :meth:`log_likelihood` would
        record, checks it with
        :class:`~repro.analysis.planverify.PlanVerifier` (hazard edges,
        buffer ranges, uninitialized reads, dead nodes), and — when the
        session runs on an accelerated backend — validates the compiled
        kernel configuration against the selected device's limits with
        :class:`~repro.analysis.kernelcheck.KernelConfigValidator` and
        dataflow-verifies the kernel IR bodies with
        :func:`~repro.analysis.irverify.verify_program_ir` (tile races,
        barrier divergence, param roles/extents).

        Diagnostics are emitted through the session tracer/metrics
        (``verify.*`` counters, a ``verify`` span when tracing) and
        returned as a list.  With ``strict=True``, error-severity
        findings raise :class:`~repro.util.errors.PlanVerificationError`.
        """
        from repro.analysis.diagnostics import emit, format_diagnostics
        from repro.analysis.kernelcheck import validate_kernel_config
        from repro.analysis.planverify import verify_plan
        from repro.core.plan import ExecutionPlan
        from repro.util.errors import PlanVerificationError

        tl = self.likelihood
        traversal = tl.traversal_plan()
        plan = ExecutionPlan()
        plan.record_matrix_update(
            0,
            list(traversal.branch_node_indices),
            list(traversal.branch_lengths),
        )
        plan.record_operations(traversal.operations)
        plan.record_root_likelihood(
            traversal.root_index, 0, 0, tl._cumulative_scale
        )
        instance = tl.instance
        diagnostics = list(
            verify_plan(plan, config=instance.config, impl=instance.impl)
        )
        interface = getattr(instance.impl, "interface", None)
        if interface is not None and interface._kernel_config is not None:
            diagnostics.extend(
                validate_kernel_config(
                    interface.kernel_config, interface.device
                )
            )
            from repro.accel.ir import IRError, build_program_ir
            from repro.analysis.irverify import verify_program_ir

            try:
                program = build_program_ir(interface.kernel_config)
            except IRError:
                program = None
            if program is not None:
                diagnostics.extend(verify_program_ir(program))
        emit(diagnostics, self._tracer, self._metrics, analyzer="session")
        if strict:
            errors = [d for d in diagnostics if d.severity.name == "ERROR"]
            if errors:
                raise PlanVerificationError(
                    format_diagnostics(
                        errors, header="session verification failed:"
                    )
                )
        return diagnostics

    # -- multi-device ------------------------------------------------------

    @classmethod
    def multi_device(
        cls,
        data: Union[Alignment, PatternSet],
        tree: Tree,
        model: SubstitutionModel,
        site_model: Optional[SiteModel] = None,
        **kwargs,
    ) -> MultiDeviceSession:
        """Open a :class:`MultiDeviceSession`: one dataset, many devices.

        Splits the patterns across ``device_requests`` and evaluates the
        resulting instances concurrently, rebalancing the split from
        measured throughput unless ``rebalance=False``::

            with repro.Session.multi_device(
                data, tree, model,
                device_requests={"gpu": "cuda", "host": "cpp-threads"},
                trace=True,
            ) as md:
                logl = md.log_likelihood()
                print(md.proportions, md.rebalance_events())
        """
        return MultiDeviceSession(data, tree, model, site_model, **kwargs)

    # -- cluster -----------------------------------------------------------

    @classmethod
    def cluster(
        cls,
        data: Union[Alignment, PatternSet, SyntheticPatterns],
        tree: Tree,
        model: SubstitutionModel,
        site_model: Optional[SiteModel] = None,
        **kwargs,
    ):
        """Open a :class:`~repro.cluster.ClusterSession`: shards across
        a fleet of simulated worker nodes.

        One rung above :meth:`multi_device` — the pattern set is split
        into fixed shards that a :class:`~repro.cluster.ClusterScheduler`
        bin-packs onto pod-like nodes by calibrated throughput, with
        node loss folded into quarantine/failover (bit-identical
        shard-ordered sum)::

            with repro.Session.cluster(
                data, tree, model,
                nodes={"a": "cuda", "b": "opencl-gpu"},
                retry_policy=RetryPolicy(),
            ) as cs:
                logl = cs.log_likelihood()
                print(cs.rates(), cs.utilization())
        """
        from repro.cluster import ClusterSession

        return ClusterSession(data, tree, model, site_model, **kwargs)

    # -- checkpoint / restore ----------------------------------------------

    @staticmethod
    def checkpoint(runner, path: str) -> int:
        """Snapshot an MCMC runner's state to *path* (atomic write).

        Thin facade over
        :meth:`repro.mcmc.runner.MrBayesRunner.checkpoint`; returns the
        number of bytes written.  See :mod:`repro.resil.checkpoint` for
        the file layout and integrity guarantees.
        """
        return runner.checkpoint(path)

    @staticmethod
    def resume(spec, path: str, **kwargs):
        """Rebuild an MCMC runner from a checkpoint written earlier.

        Thin facade over
        :meth:`repro.mcmc.runner.MrBayesRunner.resume`: the returned
        runner's next ``run()`` continues the analysis — bit-for-bit
        with the original backend, or on a different ``backend=`` for a
        cross-engine restore.
        """
        from repro.mcmc.runner import MrBayesRunner

        return MrBayesRunner.resume(spec, path, **kwargs)

    # -- observability -----------------------------------------------------

    @property
    def tracer(self) -> Tracer:
        """The session's span tracer (toggle with ``tracer.enabled``)."""
        return self._tracer

    @property
    def metrics(self) -> MetricsRegistry:
        """The session's metrics registry."""
        return self._metrics

    @property
    def instance(self):
        """The underlying :class:`~repro.core.instance.BeagleInstance`."""
        return self.likelihood.instance

    @property
    def resource(self):
        """Details of the resource the manager selected."""
        return self.likelihood.instance.details

    def span_tree(self) -> str:
        """The recorded spans rendered as an indented tree."""
        return self._tracer.format_tree()

    def hottest(self, k: int = 10):
        """The ``k`` most expensive span names by total wall time."""
        return self._tracer.hottest(k)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if not self._closed:
            self.likelihood.finalize()
            self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Session(backend={self.backend!r}, "
            f"resource={self.resource.resource_name!r}, "
            f"tracing={'on' if self._tracer.enabled else 'off'})"
        )
