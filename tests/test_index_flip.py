"""Index-flip restore: TreeLikelihood's partials slot map, accept/reject.

An incremental update writes every node on the path to the root into a
spare slot; ``reject()`` flips the map back.  Everything that reads lower
partials must go through the map, and a chain that restores by flipping
must follow, sample for sample, a chain that re-evaluates everything.
"""

import numpy as np
import pytest

from repro.config import backend_flags
from repro.core.highlevel import TreeLikelihood
from repro.mcmc import (
    ExponentialPrior,
    GammaPrior,
    MarkovChain,
    NNIMove,
    PhyloState,
    UniformPrior,
    default_mix,
)
from repro.mcmc.chain import BeagleBackend, PartitionedBackend
from repro.mcmc.proposals import ProposalMix, BranchLengthMultiplier, gradient_mix
from repro.model import HKY85, SiteModel
from repro.partition import Partition
from repro.seq import compress_patterns, simulate_alignment
from repro.tree import write_newick, yule_tree
from repro.util.rng import spawn_rng


@pytest.fixture(scope="module")
def hky_g4():
    """12 tips, HKY+G4; both root children are internal nodes."""
    tree = yule_tree(12, rng=0)
    model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
    sm = SiteModel.gamma(0.5, 4)
    aln = simulate_alignment(tree, model, 400, sm, rng=1)
    return tree, compress_patterns(aln), model, sm


def _deepest_branch(tree):
    """A tip whose path to the root is longest (touches most slots)."""
    def depth(node):
        d = 0
        while node.parent is not None:
            node, d = node.parent, d + 1
        return d
    return max(tree.root.tips(), key=depth)


def _gradients(tl):
    """Every lower-partials consumer, read through the slot map."""
    tl.upper.update()
    upper = tl.upper
    nodes = [n.index for n in tl.tree.root.preorder() if not n.is_root]
    return {
        "branch_gradients": upper.branch_gradients(),
        "edge": np.array([upper.edge_log_likelihood(i) for i in nodes]),
        "node": np.array([upper.node_log_likelihood(i) for i in nodes]),
        "derivatives": np.array(
            [upper.branch_derivatives(i) for i in nodes]
        ),
        "root_edge": np.array(tl.root_edge_derivatives()),
    }


def _assert_same_as_fresh(tl, tree, data, model, sm):
    got = _gradients(tl)
    with TreeLikelihood(
        tree.copy(), data, model, sm, enable_upper_partials=True
    ) as fresh:
        fresh.log_likelihood()
        expected = _gradients(fresh)
    for key in expected:
        assert np.array_equal(got[key], expected[key]), key


class TestSlotMapConsumers:
    """Upper partials and root-edge derivatives after a slot flip."""

    def _tl(self, hky_g4):
        tree, data, model, sm = hky_g4
        tl = TreeLikelihood(
            tree.copy(), data, model, sm, enable_upper_partials=True,
            spare_slots=True,
        )
        tl.log_likelihood()
        tl.accept()
        return tl

    def test_branch_update_moves_path_to_spare_slots(self, hky_g4):
        tl = self._tl(hky_g4)
        tip = _deepest_branch(tl.tree)
        tip.branch_length *= 1.7
        tl.update_branch_lengths([tip.index])
        moved = [
            n.index for n in tl.tree.internal_nodes()
            if tl.partials_index(n.index) != n.index
        ]
        path, walk = [], tip.parent
        while walk is not None:
            path.append(walk.index)
            walk = walk.parent
        assert sorted(moved) == sorted(path)
        tl.finalize()

    @pytest.mark.parametrize("then", ["accept", "none"])
    def test_branch_update(self, hky_g4, then):
        tree, data, model, sm = hky_g4
        tl = self._tl(hky_g4)
        tip = _deepest_branch(tl.tree)
        tip.branch_length *= 1.7
        tl.update_branch_lengths([tip.index])
        if then == "accept":
            tl.accept()
        _assert_same_as_fresh(tl, tl.tree, data, model, sm)
        tl.finalize()

    def test_branch_update_then_reject(self, hky_g4):
        tree, data, model, sm = hky_g4
        tl = self._tl(hky_g4)
        tip = _deepest_branch(tl.tree)
        old = tip.branch_length
        tip.branch_length *= 1.7
        tl.update_branch_lengths([tip.index])
        tip.branch_length = old
        tl.reject()
        assert all(
            tl.partials_index(n.index) == n.index
            for n in tl.tree.internal_nodes()
        )
        _assert_same_as_fresh(tl, tl.tree, data, model, sm)
        tl.finalize()

    def test_two_updates_then_accept_then_update(self, hky_g4):
        """Accepted slots are reused; a later update reads them."""
        tree, data, model, sm = hky_g4
        tl = self._tl(hky_g4)
        nodes = [n for n in tl.tree.nodes() if not n.is_root]
        for node in (nodes[0], nodes[5]):
            node.branch_length *= 1.3
            tl.update_branch_lengths([node.index])
        tl.accept()
        nodes[9].branch_length *= 0.6
        tl.update_branch_lengths([nodes[9].index])
        _assert_same_as_fresh(tl, tl.tree, data, model, sm)
        tl.finalize()

    @pytest.mark.parametrize("then", ["keep", "reject"])
    def test_nni_update(self, hky_g4, then):
        tree, data, model, sm = hky_g4
        tl = self._tl(hky_g4)
        state = PhyloState(tree=tl.tree)
        before = write_newick(tl.tree)
        pr = NNIMove().propose(state, spawn_rng(3))
        tl.update_branch_lengths(pr.dirty_nodes)
        if then == "reject":
            pr.undo()
            tl.reject()
            assert write_newick(tl.tree) == before
        _assert_same_as_fresh(tl, tl.tree, data, model, sm)
        tl.finalize()

    def test_root_edge_after_update(self, hky_g4):
        tree, data, model, sm = hky_g4
        tl = self._tl(hky_g4)
        # Editing below both root children moves both to spare slots.
        below = [child.children[0] for child in tl.tree.root.children]
        for node in below:
            node.branch_length *= 1.4
        tl.update_branch_lengths([node.index for node in below])
        got = tl.root_edge_derivatives()
        with TreeLikelihood(tl.tree.copy(), data, model, sm) as fresh:
            fresh.log_likelihood()
            assert got == fresh.root_edge_derivatives()
        tl.finalize()

    def test_root_edge_after_reject_with_scaling(self, hky_g4):
        """reject() re-sums the cumulative scale buffer it reads (on
        cpu-sse, which keeps the factors on the host)."""
        tree, data, model, sm = hky_g4
        cpu = backend_flags("cpu-sse")
        with TreeLikelihood(tree.copy(), data, model, sm, use_scaling=True,
                            spare_slots=True, **cpu) as tl:
            tl.log_likelihood()
            tl.accept()
            below = tl.tree.root.children[0].children[0]
            old = below.branch_length
            below.branch_length *= 3.0
            tl.update_branch_lengths([below.index])
            below.branch_length = old
            tl.reject()
            got = tl.root_edge_derivatives()
        with TreeLikelihood(tree.copy(), data, model, sm,
                            use_scaling=True, **cpu) as fresh:
            fresh.log_likelihood()
            assert got == fresh.root_edge_derivatives()

    def test_full_evaluation_makes_reject_recompute(self, hky_g4):
        """A full evaluation since the last accept overwrote slots in place."""
        tree, data, model, sm = hky_g4
        tl = self._tl(hky_g4)
        reference = tl.log_likelihood()
        tl.accept()
        tip = _deepest_branch(tl.tree)
        old = tip.branch_length
        tip.branch_length *= 2.0
        tl.log_likelihood()
        tl.update_branch_lengths([tip.index])
        tip.branch_length = old
        tl.reject()
        assert tl.update_branch_lengths([tip.index]) == reference
        tl.finalize()

    def test_spare_slots_never_run_out(self, hky_g4):
        """Without accept/reject, a node is moved at most once."""
        tree, data, model, sm = hky_g4
        tl = self._tl(hky_g4)
        nodes = [n for n in tl.tree.nodes() if not n.is_root]
        for _ in range(3):
            for node in nodes:
                node.branch_length *= 1.01
                tl.update_branch_lengths([node.index])
        with TreeLikelihood(tl.tree.copy(), data, model, sm) as fresh:
            assert tl.update_branch_lengths([nodes[0].index]) == \
                fresh.log_likelihood()
        tl.finalize()


class TestWithoutSpares:
    def test_same_buffers_as_without_a_slot_map(self, hky_g4):
        tree, data, model, sm = hky_g4
        with TreeLikelihood(tree.copy(), data, model, sm,
                            use_scaling=True) as plain, \
                TreeLikelihood(tree.copy(), data, model, sm,
                               use_scaling=True, spare_slots=True) as spare:
            extra = tree.n_internal
            assert plain.instance.config.partials_buffer_count == \
                spare.instance.config.partials_buffer_count - extra
            assert plain.instance.config.scale_buffer_count == extra + 1

    def test_updates_in_place_and_reject_reevaluates(self, hky_g4):
        tree, data, model, sm = hky_g4
        with TreeLikelihood(tree.copy(), data, model, sm) as tl:
            reference = tl.log_likelihood()
            tl.accept()
            tip = _deepest_branch(tl.tree)
            old = tip.branch_length
            tip.branch_length *= 2.0
            assert tl.update_branch_lengths([tip.index]) != reference
            assert all(
                tl.partials_index(n.index) == n.index
                for n in tl.tree.internal_nodes()
            )
            tip.branch_length = old
            tl.reject()
            assert tl.update_branch_lengths([]) == reference


class _FullBackend(BeagleBackend):
    """Re-evaluates the whole tree on every propose and every restore."""

    def propose_eval(self, state, pr):
        if pr.parameters_changed:
            self._refresh_model(state)
        return self.tl.log_likelihood()

    def accept(self, state, pr):
        pass

    def restore(self, state, pr):
        if pr.parameters_changed:
            self._refresh_model(state)
        self.tl.log_likelihood()


def _factory(params):
    return HKY85(kappa=params["kappa"]), SiteModel.gamma(params["alpha"], 4)


def _trajectory(backend_cls, hky_g4, backend, mix="default",
                generations=200, strict=False, **tl_kwargs):
    tree, data, _, _ = hky_g4
    state = PhyloState(
        tree=tree.copy(), parameters={"kappa": 2.0, "alpha": 0.5}
    )
    chain_backend = backend_cls(
        state, data, _factory, precision="double",
        **backend_flags(backend), **tl_kwargs,
    )
    if strict:
        chain_backend.tl.instance.set_plan_verification(True)
    names = ["kappa", "alpha"]
    proposals = (
        gradient_mix(names, chain_backend.branch_gradients, step_size=0.02)
        if mix == "gradient" else default_mix(names)
    )
    chain = MarkovChain(
        state=state,
        backend=chain_backend,
        branch_prior=ExponentialPrior(10.0),
        parameter_priors={
            "kappa": GammaPrior(2.0, 0.5),
            "alpha": UniformPrior(0.05, 50.0),
        },
        mix=proposals,
        rng=21,
    )
    samples = []
    try:
        for _ in range(generations):
            accepted = chain.step()
            samples.append((
                accepted, chain.log_likelihood, chain.log_prior,
                write_newick(state.tree), state.tree.branch_lengths(),
                dict(state.parameters),
            ))
    finally:
        chain.finalize()
    return samples


def _kinds(samples):
    return len(set(s[3] for s in samples))


class TestFlipChainMatchesFullChain:
    """Index-flip restore is invisible in the chain's samples."""

    @pytest.mark.parametrize("backend", ["cpu-sse", "cuda"])
    @pytest.mark.parametrize("mix", ["default", "gradient"])
    def test_bitwise_equal_samples(self, hky_g4, backend, mix):
        kwargs = {"enable_upper_partials": True} if mix == "gradient" else {}
        flip = _trajectory(BeagleBackend, hky_g4, backend, mix, **kwargs)
        full = _trajectory(_FullBackend, hky_g4, backend, mix, **kwargs)
        assert flip == full
        accepted = sum(s[0] for s in flip)
        assert 0 < accepted < len(flip)
        assert _kinds(flip) > 1  # some NNI was accepted

    def test_deferred_with_strict_plan_verification(self, hky_g4):
        """Every plan reads only slots some earlier write filled."""
        flip = _trajectory(BeagleBackend, hky_g4, "cpu-sse",
                           deferred=True, strict=True)
        full = _trajectory(_FullBackend, hky_g4, "cpu-sse")
        assert flip == full

    @pytest.mark.parametrize("scaling", [True, "dynamic"])
    def test_scaling(self, hky_g4, scaling):
        flip = _trajectory(BeagleBackend, hky_g4, "cpu-sse",
                           use_scaling=scaling)
        full = _trajectory(_FullBackend, hky_g4, "cpu-sse",
                           use_scaling=scaling)
        assert flip == full


class TestPartitionedFlip:
    def test_partitioned_chain_matches_fresh_evaluation(self, hky_g4):
        tree, _, model, sm = hky_g4
        aln = simulate_alignment(tree, model, 300, sm, rng=5)
        parts = [
            Partition("a", range(0, 150), model, sm),
            Partition("b", range(150, 300), model, sm),
        ]
        state = PhyloState(tree=tree.copy())
        backend = PartitionedBackend(state, aln, parts, precision="double")
        chain = MarkovChain(
            state=state, backend=backend,
            branch_prior=ExponentialPrior(10.0), parameter_priors={},
            mix=ProposalMix([BranchLengthMultiplier(), NNIMove()], [3, 1]),
            rng=8,
        )
        chain.run(60)
        got = chain.log_likelihood
        fresh = type(backend)(PhyloState(tree=state.tree.copy()), aln,
                              parts, precision="double")
        try:
            assert got == fresh.initial(state)
        finally:
            fresh.finalize()
            chain.finalize()
