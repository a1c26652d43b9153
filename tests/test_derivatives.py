"""Transition-matrix derivatives and Newton branch optimisation."""

import numpy as np
import pytest

from repro.core.highlevel import TreeLikelihood
from repro.core.types import InstanceConfig
from repro.impl import AcceleratedImplementation, CPUSSEImplementation
from repro.ml import optimize_root_edge_newton
from repro.model import HKY85, SiteModel
from repro.seq import compress_patterns, simulate_alignment
from repro.tree import yule_tree


def _internal_root_tree(seed=0, tips=8):
    """A tree whose root children are both internal (retry seeds)."""
    for offset in range(30):
        tree = yule_tree(tips, rng=seed + offset)
        left, right = tree.root.children
        if not left.is_tip and not right.is_tip:
            return tree
    raise RuntimeError("no suitable tree found")


@pytest.fixture(scope="module")
def deriv_setup():
    tree = _internal_root_tree(100)
    model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
    sm = SiteModel.gamma(0.5, 4)
    aln = simulate_alignment(tree, model, 500, sm, rng=101)
    return tree, compress_patterns(aln), model, sm


class TestDerivativeMatrices:
    def test_derivative_matrices_match_finite_differences(self):
        model = HKY85(2.5, [0.1, 0.2, 0.3, 0.4])
        config = InstanceConfig(
            tip_count=2, partials_buffer_count=3, compact_buffer_count=0,
            state_count=4, pattern_count=4, eigen_buffer_count=1,
            matrix_buffer_count=6, category_count=2,
        )
        impl = CPUSSEImplementation(config)
        impl.set_category_rates([0.5, 1.5])
        e = model.eigen
        impl.set_eigen_decomposition(
            0, e.eigenvectors, e.inverse_eigenvectors, e.eigenvalues
        )
        t, h = 0.37, 1e-6
        impl.update_transition_matrices(
            0, [0], [t],
            first_derivative_indices=[1],
            second_derivative_indices=[2],
        )
        impl.update_transition_matrices(0, [3], [t + h])
        impl.update_transition_matrices(0, [4], [t - h])
        p_plus = impl.get_transition_matrix(3)
        p_minus = impl.get_transition_matrix(4)
        d1 = impl.get_transition_matrix(1)
        d2 = impl.get_transition_matrix(2)
        assert np.allclose(d1, (p_plus - p_minus) / (2 * h), atol=1e-5)
        p0 = impl.get_transition_matrix(0)
        assert np.allclose(
            d2, (p_plus - 2 * p0 + p_minus) / (h * h), atol=1e-2
        )

    def test_derivative_count_mismatch(self):
        config = InstanceConfig(
            tip_count=2, partials_buffer_count=3, compact_buffer_count=0,
            state_count=4, pattern_count=4, eigen_buffer_count=1,
            matrix_buffer_count=6,
        )
        impl = CPUSSEImplementation(config)
        e = HKY85(2.0).eigen
        impl.set_eigen_decomposition(
            0, e.eigenvectors, e.inverse_eigenvectors, e.eigenvalues
        )
        with pytest.raises(ValueError, match="derivative index count"):
            impl.update_transition_matrices(
                0, [0, 1], [0.1, 0.2], first_derivative_indices=[2]
            )


class TestRootEdgeDerivatives:
    def test_matches_finite_differences(self, deriv_setup):
        tree, data, model, sm = deriv_setup
        with TreeLikelihood(tree, data, model, sm) as tl:
            tl.log_likelihood()
            left, right = tree.root.children
            t0 = left.branch_length + right.branch_length
            ll, d1, d2 = tl.root_edge_derivatives(t0)
            h = 1e-6
            lp, d1p, _ = tl.root_edge_derivatives(t0 + h)
            lm, d1m, _ = tl.root_edge_derivatives(t0 - h)
            assert np.isclose(d1, (lp - lm) / (2 * h), rtol=1e-3)
            # Second derivative: difference the analytic first derivative
            # (a plain second difference of logL cancels catastrophically).
            assert np.isclose(d2, (d1p - d1m) / (2 * h), rtol=1e-4)

    def test_loglik_at_current_length_matches_root(self, deriv_setup):
        tree, data, model, sm = deriv_setup
        with TreeLikelihood(tree, data, model, sm) as tl:
            root_ll = tl.log_likelihood()
            ll, _, _ = tl.root_edge_derivatives()
            assert np.isclose(ll, root_ll, rtol=1e-9)

    def test_tip_root_child_rejected(self):
        # Force a tree with a tip at the root.
        from repro.tree import parse_newick

        tree = parse_newick("(A:0.1,(B:0.1,C:0.1):0.1);")
        model = HKY85(2.0)
        aln = simulate_alignment(tree, model, 50, rng=102)
        data = compress_patterns(aln)
        with TreeLikelihood(tree, data, model) as tl:
            tl.log_likelihood()
            with pytest.raises(ValueError, match="internal nodes"):
                tl.root_edge_derivatives()

    def test_works_on_accelerated_backend(self, deriv_setup):
        from repro.core.flags import Flag

        tree, data, model, sm = deriv_setup
        with TreeLikelihood(tree, data, model, sm) as cpu:
            cpu.log_likelihood()
            want = cpu.root_edge_derivatives()
        with TreeLikelihood(
            tree, data, model, sm, requirement_flags=Flag.FRAMEWORK_CUDA
        ) as gpu:
            gpu.log_likelihood()
            got = gpu.root_edge_derivatives()
        assert np.allclose(got, want, rtol=1e-8)

    def test_negative_length_rejected(self, deriv_setup):
        tree, data, model, sm = deriv_setup
        with TreeLikelihood(tree, data, model, sm) as tl:
            tl.log_likelihood()
            with pytest.raises(ValueError, match="non-negative"):
                tl.root_edge_derivatives(-0.5)


class TestNewton:
    def test_converges_to_stationary_point(self, deriv_setup):
        tree, data, model, sm = deriv_setup
        work = tree.copy()
        left, right = work.root.children
        left.branch_length *= 4.0  # perturb
        with TreeLikelihood(work, data, model, sm) as tl:
            before = tl.log_likelihood()
            result = optimize_root_edge_newton(tl)
            assert result.log_likelihood >= before
            _, d1, _ = tl.root_edge_derivatives()
            assert abs(d1) < 1e-3

    def test_newton_cheaper_than_brent(self, deriv_setup):
        """The derivative path converges in far fewer evaluations."""
        from scipy.optimize import minimize_scalar

        tree, data, model, sm = deriv_setup
        work = tree.copy()
        with TreeLikelihood(work, data, model, sm) as tl:
            tl.log_likelihood()
            newton = optimize_root_edge_newton(tl)

            count = 0

            def neg(t):
                nonlocal count
                count += 1
                return -tl.root_edge_derivatives(float(t))[0]

            minimize_scalar(neg, bounds=(1e-8, 20.0), method="bounded",
                            options={"xatol": 1e-8})
            assert newton.n_evaluations < count

    def test_preserves_branch_proportions(self, deriv_setup):
        tree, data, model, sm = deriv_setup
        work = tree.copy()
        left, right = work.root.children
        left.branch_length, right.branch_length = 0.3, 0.1
        with TreeLikelihood(work, data, model, sm) as tl:
            tl.log_likelihood()
            optimize_root_edge_newton(tl)
            total = left.branch_length + right.branch_length
            assert np.isclose(left.branch_length / total, 0.75)


def _backend_kwargs(name):
    """Instance kwargs selecting one accelerated backend for the
    cross-backend gradient parity sweep."""
    from repro.core.flags import Flag

    return {
        "cuda-sim": dict(requirement_flags=Flag.FRAMEWORK_CUDA),
        "opencl-gpu": dict(
            requirement_flags=Flag.FRAMEWORK_OPENCL | Flag.PROCESSOR_GPU
        ),
        "opencl-x86": dict(
            requirement_flags=Flag.FRAMEWORK_OPENCL | Flag.PROCESSOR_CPU
        ),
        "cpu-vector": dict(
            requirement_flags=Flag.FRAMEWORK_OPENCL | Flag.PROCESSOR_CPU,
            kernel_variant="cpu",
        ),
    }[name]


class TestBatchedGradients:
    """The level-batched analytic gradient path (tentpole)."""

    def _branch_indices(self, tree):
        return [n.index for n in tree.root.preorder() if not n.is_root]

    def test_matches_serial_derivatives(self, deriv_setup):
        tree, data, model, sm = deriv_setup
        with TreeLikelihood(
            tree, data, model, sm, enable_upper_partials=True
        ) as tl:
            grads = tl.branch_gradient()
            indices = self._branch_indices(tree)
            assert grads.shape == (len(indices), 3)
            tl.log_likelihood()
            tl.upper.update()
            for row, idx in enumerate(indices):
                serial = tl.upper.branch_derivatives(idx)
                assert np.allclose(grads[row], serial, rtol=0, atol=1e-10)

    def test_matches_central_finite_differences(self, deriv_setup):
        tree, data, model, sm = deriv_setup
        with TreeLikelihood(
            tree, data, model, sm, enable_upper_partials=True
        ) as tl:
            grads = tl.branch_gradient()
            indices = self._branch_indices(tree)
            h = 1e-6
            for row in (0, len(indices) // 2, len(indices) - 1):
                node = tree.node_by_index(indices[row])
                t0 = node.branch_length
                node.branch_length = t0 + h
                up = tl.log_likelihood()
                node.branch_length = t0 - h
                down = tl.log_likelihood()
                node.branch_length = t0
                tl.log_likelihood()
                fd1 = (up - down) / (2 * h)
                assert np.isclose(grads[row, 1], fd1, rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize(
        "backend", ["cuda-sim", "opencl-gpu", "opencl-x86", "cpu-vector"]
    )
    def test_cross_backend_parity(self, deriv_setup, backend):
        """Batched vs per-branch serial vs the CPU reference, per backend."""
        tree, data, model, sm = deriv_setup
        with TreeLikelihood(
            tree, data, model, sm, enable_upper_partials=True
        ) as cpu:
            reference = cpu.branch_gradient()
        with TreeLikelihood(
            tree, data, model, sm, enable_upper_partials=True,
            **_backend_kwargs(backend),
        ) as tl:
            grads = tl.branch_gradient()
            assert np.array_equal(grads, reference)
            tl.log_likelihood()
            tl.upper.update()
            indices = self._branch_indices(tree)
            for row in (0, len(indices) // 2, len(indices) - 1):
                serial = tl.upper.branch_derivatives(indices[row])
                assert np.array_equal(grads[row], serial)

    @pytest.mark.parametrize("backend", ["cuda-sim", "cpu-vector"])
    def test_codon_case_with_gaps(self, backend):
        """61-state sweep whose tips include the state-gather gap column."""
        from repro.model import GY94

        tree = _internal_root_tree(7, tips=6)
        model = GY94(2.0, 0.3)
        aln = simulate_alignment(tree, model, 30, rng=104)
        # Inject gap codons so compact tips exercise the gap column.
        aln.rows[0][0] = "---"
        aln.rows[1][3] = "---"
        data = compress_patterns(aln)
        with TreeLikelihood(
            tree, data, model, enable_upper_partials=True
        ) as cpu:
            reference = cpu.branch_gradient()
        with TreeLikelihood(
            tree, data, model, enable_upper_partials=True,
            **_backend_kwargs(backend),
        ) as tl:
            grads = tl.branch_gradient()
            assert np.allclose(grads, reference, rtol=0, atol=1e-10)
            tl.log_likelihood()
            tl.upper.update()
            serial = tl.upper.branch_derivatives(
                self._branch_indices(tree)[0]
            )
            assert np.allclose(grads[0], serial, rtol=0, atol=1e-10)

    def test_subset_preserves_requested_order(self, deriv_setup):
        tree, data, model, sm = deriv_setup
        with TreeLikelihood(
            tree, data, model, sm, enable_upper_partials=True
        ) as tl:
            full = tl.branch_gradient()
            indices = self._branch_indices(tree)
            subset = [indices[3], indices[0], indices[5]]
            got = tl.branch_gradient(subset)
            want = full[[3, 0, 5]]
            assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_root_has_no_branch(self, deriv_setup):
        tree, data, model, sm = deriv_setup
        with TreeLikelihood(
            tree, data, model, sm, enable_upper_partials=True
        ) as tl:
            with pytest.raises(ValueError, match="root has no branch"):
                tl.branch_gradient([tree.root.index])

    def test_deferred_mode_is_bit_identical(self, deriv_setup):
        tree, data, model, sm = deriv_setup
        with TreeLikelihood(
            tree, data, model, sm, enable_upper_partials=True
        ) as eager:
            want = eager.branch_gradient()
        with TreeLikelihood(
            tree, data, model, sm, enable_upper_partials=True,
            deferred=True,
        ) as deferred:
            deferred.instance.set_plan_verification(True)
            got = deferred.branch_gradient()
        assert np.array_equal(got, want)

    def test_matrix_buffers_untouched(self, deriv_setup):
        """The batched path must not write any transition-matrix slot."""
        tree, data, model, sm = deriv_setup
        with TreeLikelihood(
            tree, data, model, sm, enable_upper_partials=True
        ) as tl:
            tl.log_likelihood()
            tl.upper.update()
            probe = [n.index for n in tree.root.preorder() if not n.is_root]
            before = [tl.instance.get_transition_matrix(i) for i in probe]
            tl.upper.branch_gradients(probe)
            after = [tl.instance.get_transition_matrix(i) for i in probe]
            for b, a in zip(before, after):
                assert np.array_equal(b, a)


class TestDerivativeRestoreOnError:
    """Regression: a fault mid-derivative must not leave a stale matrix."""

    def test_branch_derivatives_restores_on_fault(
        self, deriv_setup, monkeypatch
    ):
        tree, data, model, sm = deriv_setup
        with TreeLikelihood(
            tree, data, model, sm, enable_upper_partials=True
        ) as tl:
            root_ll = tl.log_likelihood()
            tl.upper.update()
            idx = next(
                n.index for n in tree.root.preorder() if not n.is_root
            )

            def boom(*args, **kwargs):
                raise RuntimeError("injected derivative fault")

            monkeypatch.setattr(
                tl.instance, "calculate_edge_derivatives", boom
            )
            with pytest.raises(RuntimeError, match="injected"):
                tl.upper.branch_derivatives(
                    idx, 3.0 * tree.node_by_index(idx).branch_length
                )
            monkeypatch.undo()
            # edge_log_likelihood reads matrix slot `idx` directly with
            # the frozen partials: a stale probe-length matrix would
            # break the pulley identity with the pre-fault root logL.
            assert np.isclose(
                tl.upper.edge_log_likelihood(idx), root_ll, rtol=1e-12
            )

    def test_root_edge_derivatives_restores_on_fault(
        self, deriv_setup, monkeypatch
    ):
        tree, data, model, sm = deriv_setup
        with TreeLikelihood(tree, data, model, sm) as tl:
            before = tl.log_likelihood()
            left, right = tl.tree.root.children
            total = left.branch_length + right.branch_length

            def boom(*args, **kwargs):
                raise RuntimeError("injected derivative fault")

            monkeypatch.setattr(
                tl.instance, "calculate_edge_derivatives", boom
            )
            with pytest.raises(RuntimeError, match="injected"):
                tl.root_edge_derivatives(2.0 * total)
            monkeypatch.undo()
            # An incremental update re-reads left's matrix slot while
            # recomputing the root partials; if P(2*total) were left
            # behind, the post-error likelihood would shift.
            assert np.isclose(
                tl.update_branch_lengths([right.index]), before,
                rtol=1e-12,
            )


class TestNewtonNonFiniteGuard:
    """Newton optimisers must survive non-finite analytic derivatives."""

    def test_branch_newton_falls_back_to_old_lengths(
        self, deriv_setup, monkeypatch
    ):
        from repro.ml import optimize_branch_lengths_newton

        tree, data, model, sm = deriv_setup
        work = tree.copy()
        with TreeLikelihood(
            work, data, model, sm, enable_upper_partials=True
        ) as tl:
            start = tl.log_likelihood()
            old = {
                n.index: n.branch_length
                for n in work.root.postorder() if not n.is_root
            }

            def poisoned(node_indices=None):
                rows = len(list(node_indices))
                out = np.full((rows, 3), np.nan)
                out[:, 0] = start
                return out

            monkeypatch.setattr(tl.upper, "branch_gradients", poisoned)
            result = optimize_branch_lengths_newton(tl, max_sweeps=2)
            assert np.isfinite(result.log_likelihood)
            assert result.log_likelihood >= start - 1e-9
            for idx, length in old.items():
                assert work.node_by_index(idx).branch_length == length

    def test_root_newton_stops_on_non_finite(self, deriv_setup, monkeypatch):
        tree, data, model, sm = deriv_setup
        work = tree.copy()
        with TreeLikelihood(work, data, model, sm) as tl:
            start = tl.log_likelihood()
            monkeypatch.setattr(
                tl, "root_edge_derivatives",
                lambda total: (start, float("nan"), float("nan")),
            )
            result = optimize_root_edge_newton(tl, max_iterations=5)
            assert np.isfinite(result.log_likelihood)
            assert result.n_passes == 1
