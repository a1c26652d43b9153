"""The Session façade, backend selection, and the unified error surface."""

import threading

import numpy as np
import pytest

import repro
from repro.core.api import (
    beagle_create_instance,
    beagle_finalize_instance,
    beagle_get_last_error_message,
    beagle_set_tip_states,
)
from repro.core.flags import Flag, ReturnCode
from repro.model import HKY85, SiteModel
from repro.seq import simulate_patterns, synthetic_pattern_set
from repro.session import BACKEND_FLAGS, Session, backend_flags
from repro.tree import balanced_tree, yule_tree


def _inputs(tips=8, patterns=50, seed=4):
    tree = yule_tree(tips, rng=seed)
    model = HKY85(kappa=2.0)
    data = synthetic_pattern_set(tips, patterns, 4, rng=seed + 1)
    return data, tree, model


class TestSessionFacade:
    def test_context_manager_evaluates_and_closes(self):
        data, tree, model = _inputs()
        with Session(data, tree, model) as s:
            value = s.log_likelihood()
            assert np.isfinite(value)
            assert s.site_log_likelihoods().shape == (data.n_patterns,)
        # close() is idempotent
        s.close()

    def test_accepts_raw_alignment(self):
        tree = yule_tree(6, rng=1)
        model = HKY85(kappa=2.0)
        from repro.seq.simulate import simulate_alignment

        aln = simulate_alignment(tree, model, 80, rng=2)
        with Session(aln, tree, model) as s:
            assert np.isfinite(s.log_likelihood())

    def test_backend_selection_matches_direct_flags(self):
        data, tree, model = _inputs()
        with Session(data, tree, model, backend="cpu-serial") as s:
            assert s.resource.implementation_name == "CPU-serial"
        with Session(data, tree, model, backend="cuda") as s:
            assert s.resource.implementation_name == "CUDA"

    def test_all_named_backends_agree(self):
        data, tree, model = _inputs(patterns=64)
        values = {}
        for name in BACKEND_FLAGS:
            with Session(data, tree, model, backend=name) as s:
                values[name] = s.log_likelihood()
        reference = values["cpu-serial"]
        for name, value in values.items():
            assert value == pytest.approx(reference, rel=1e-9), name

    def test_unknown_backend_raises_with_choices(self):
        data, tree, model = _inputs()
        with pytest.raises(ValueError, match="cpu-serial"):
            Session(data, tree, model, backend="gpu9000")

    def test_backend_flags_helper(self):
        assert backend_flags(None) == {}
        assert backend_flags("auto") == {}
        assert backend_flags("cuda") == {
            "requirement_flags": Flag.FRAMEWORK_CUDA
        }
        # returns a copy: mutating it must not poison the table
        flags = backend_flags("cuda")
        flags["requirement_flags"] = Flag.VECTOR_NONE
        assert BACKEND_FLAGS["cuda"]["requirement_flags"] == (
            Flag.FRAMEWORK_CUDA
        )

    def test_session_always_carries_obs_objects(self):
        data, tree, model = _inputs()
        with Session(data, tree, model) as s:
            assert s.tracer is not None and not s.tracer.enabled
            assert s.metrics is not None
            s.log_likelihood()
            assert len(s.tracer) == 0  # disabled -> nothing recorded
        with Session(data, tree, model, trace=True) as s:
            s.log_likelihood()
            assert len(s.tracer) > 0
            assert s.metrics.counter("likelihood.calls").value == 1

    def test_execution_mode_switch_preserves_value(self):
        data, tree, model = _inputs()
        with Session(data, tree, model, backend="cuda") as s:
            eager = s.log_likelihood()
            s.set_execution_mode(True)
            deferred = s.log_likelihood()
            s.set_execution_mode(False)
            assert deferred == pytest.approx(eager, rel=1e-12)

    def test_exported_from_package_root(self):
        assert repro.Session is Session
        assert repro.backend_flags is backend_flags
        for name in ("ExecutionPlan", "Tracer", "NullTracer",
                     "MetricsRegistry", "Span", "TreeLikelihood"):
            assert hasattr(repro, name), name

    def test_span_tree_and_hottest_helpers(self):
        data, tree, model = _inputs()
        with Session(data, tree, model, trace=True) as s:
            s.log_likelihood()
            assert "root_log_likelihood" in s.span_tree()
            assert any(
                row["name"] == "root_log_likelihood"
                for row in s.hottest(20)
            )


class TestUnifiedErrorSurface:
    def test_error_message_names_the_failed_call(self):
        handle, _ = beagle_create_instance(4, 3, 4, 4, 10, 1, 7)
        try:
            rc = beagle_set_tip_states(
                handle, 99, np.zeros(10, dtype=np.int32)
            )
            assert rc != int(ReturnCode.SUCCESS)
            message = beagle_get_last_error_message()
            assert message.startswith("beagle_set_tip_states:")
            assert "99" in message
        finally:
            beagle_finalize_instance(handle)

    def test_create_failure_recorded_with_call_name(self):
        handle, details = beagle_create_instance(
            4, 3, 4, 4, 10, 1, 7, resource_list=[999]
        )
        assert handle < 0 and details is None
        assert beagle_get_last_error_message().startswith(
            "beagle_create_instance:"
        )

    def test_success_clears_message(self):
        beagle_finalize_instance(123456789)  # guaranteed failure
        assert beagle_get_last_error_message() is not None
        handle, _ = beagle_create_instance(4, 3, 4, 4, 10, 1, 7)
        assert beagle_get_last_error_message() is None
        beagle_finalize_instance(handle)


class TestHandleTableThreadSafety:
    def test_concurrent_create_and_finalize(self):
        """Hammer the process-wide handle table from many threads; every
        handle must be unique and every finalize must succeed exactly
        once."""
        n_threads, per_thread = 8, 5
        handles = []
        errors = []
        lock = threading.Lock()
        barrier = threading.Barrier(n_threads)

        def worker():
            barrier.wait()
            try:
                local = []
                for _ in range(per_thread):
                    handle, details = beagle_create_instance(
                        4, 3, 4, 4, 8, 1, 7
                    )
                    assert handle >= 0, "creation failed"
                    local.append(handle)
                for handle in local:
                    rc = beagle_finalize_instance(handle)
                    assert rc == int(ReturnCode.SUCCESS)
                with lock:
                    handles.extend(local)
            except BaseException as exc:  # noqa: BLE001
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors, errors[0]
        assert len(handles) == n_threads * per_thread
        assert len(set(handles)) == len(handles), "duplicate handles issued"

    def test_double_finalize_fails_cleanly(self):
        handle, _ = beagle_create_instance(4, 3, 4, 4, 8, 1, 7)
        assert beagle_finalize_instance(handle) == int(ReturnCode.SUCCESS)
        rc = beagle_finalize_instance(handle)
        assert rc != int(ReturnCode.SUCCESS)
        assert str(handle) in beagle_get_last_error_message()
