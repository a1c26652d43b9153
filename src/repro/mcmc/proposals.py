"""MCMC proposal moves on phylogenetic states.

The proposal mix mirrors MrBayes' default cycle for unconstrained
analyses: branch-length multipliers, NNI topology rearrangements, and
multiplier moves on substitution-model parameters.  Every move edits the
state in place and returns a :class:`ProposalResult` carrying the log
Hastings ratio, the dirty node set (for incremental likelihood updates),
and an ``undo`` callback for rejection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.tree.node import Node
from repro.tree.tree import Tree
from repro.util.rng import SeedLike, spawn_rng


@dataclass
class PhyloState:
    """The mutable state of one Markov chain.

    ``parameters`` are the substitution/site-model parameters under
    inference; the chain rebuilds its model via a user factory whenever a
    parameter move is accepted.
    """

    tree: Tree
    parameters: Dict[str, float] = field(default_factory=dict)


@dataclass
class ProposalResult:
    """Outcome of proposing (but not yet accepting) one move."""

    log_hastings: float
    dirty_nodes: List[int]
    topology_changed: bool
    parameters_changed: bool
    undo: Callable[[], None]


class Proposal:
    """Base class; subclasses implement :meth:`propose`."""

    name = "proposal"

    def propose(self, state: PhyloState, rng: np.random.Generator) -> ProposalResult:
        raise NotImplementedError


class BranchLengthMultiplier(Proposal):
    """Scale one random branch by ``exp(lambda (u - 1/2))`` (MrBayes' multiplier).

    Log Hastings ratio is the log of the multiplier.
    """

    name = "branch-multiplier"

    def __init__(self, tuning: float = 2.0 * math.log(1.6)) -> None:
        if tuning <= 0:
            raise ValueError(f"tuning must be positive, got {tuning}")
        self.tuning = tuning

    def propose(self, state: PhyloState, rng) -> ProposalResult:
        nodes = [n for n in state.tree.root.postorder() if not n.is_root]
        node = nodes[int(rng.integers(len(nodes)))]
        old = node.branch_length
        factor = math.exp(self.tuning * (rng.random() - 0.5))
        node.branch_length = old * factor

        def undo() -> None:
            node.branch_length = old

        return ProposalResult(
            log_hastings=math.log(factor),
            dirty_nodes=[node.index],
            topology_changed=False,
            parameters_changed=False,
            undo=undo,
        )


class GradientBranchSweep(Proposal):
    """MALA move over *all* branch lengths, driven by batched gradients.

    A Metropolis-adjusted Langevin proposal in log branch-length space:
    with ``theta = log t`` and step size ``eps``, the drifted mean is
    ``mu(theta) = theta + (eps^2 / 2) * t * dlogL/dt`` (the chain rule
    maps the analytic ``d logL/dt`` into theta-space) and the proposal
    draws ``theta' = mu(theta) + eps * z``.  The log Hastings ratio is
    the usual MALA correction plus the ``sum(theta' - theta)`` Jacobian
    for proposing in log space while the state lives in t-space.

    ``gradient_provider(node_indices)`` must return the batched
    ``(n_edges, 3)`` gradient array for the branches above those nodes,
    evaluated at the tree's *current* lengths — e.g.
    :meth:`repro.mcmc.chain.BeagleBackend.branch_gradients`.  Each
    proposal costs two batched gradient evaluations (current and
    proposed state), i.e. four traversals total, independent of the
    branch count — versus one full evaluation per branch for
    single-branch sweeps.

    Non-finite gradients degrade gracefully: at the current state the
    move becomes a null proposal; at the proposed state the move is
    forced to reject (``log_hastings = -inf``), so the chain never
    accepts a state it cannot evaluate.
    """

    name = "gradient-branch-sweep"

    def __init__(
        self,
        gradient_provider: Callable[[Sequence[int]], np.ndarray],
        step_size: float = 0.05,
    ) -> None:
        if step_size <= 0:
            raise ValueError(f"step_size must be positive, got {step_size}")
        self.gradient_provider = gradient_provider
        self.step_size = step_size

    def propose(self, state: PhyloState, rng) -> ProposalResult:
        nodes = [n for n in state.tree.root.postorder() if not n.is_root]
        indices = [n.index for n in nodes]
        old = np.array([n.branch_length for n in nodes], dtype=float)

        grads = np.asarray(self.gradient_provider(indices))
        d1 = grads[:, 1]
        if not np.all(np.isfinite(d1)):
            return ProposalResult(0.0, [], False, False, lambda: None)

        eps = self.step_size
        # Zero-length branches have no log-coordinate; evaluate the
        # drift from a tiny floor instead (undo still restores exactly).
        theta = np.log(np.maximum(old, 1e-12))
        drift = theta + 0.5 * eps * eps * old * d1
        theta_new = drift + eps * rng.standard_normal(len(nodes))
        new = np.exp(theta_new)

        for node, t in zip(nodes, new):
            node.branch_length = float(t)

        def undo() -> None:
            for node, t in zip(nodes, old):
                node.branch_length = float(t)

        grads_new = np.asarray(self.gradient_provider(indices))
        d1_new = grads_new[:, 1]
        if not np.all(np.isfinite(d1_new)):
            return ProposalResult(
                float("-inf"), indices, False, False, undo
            )
        drift_new = theta_new + 0.5 * eps * eps * new * d1_new
        log_hastings = float(
            (np.sum((theta_new - drift) ** 2)
             - np.sum((theta - drift_new) ** 2)) / (2.0 * eps * eps)
            + np.sum(theta_new - theta)
        )
        return ProposalResult(
            log_hastings=log_hastings,
            dirty_nodes=indices,
            topology_changed=False,
            parameters_changed=False,
            undo=undo,
        )


class NNIMove(Proposal):
    """Nearest-neighbour interchange around a random internal edge.

    Picks an internal non-root node *n* and swaps one of its children
    with its sibling.  Symmetric move: Hastings ratio 1.
    """

    name = "nni"

    def propose(self, state: PhyloState, rng) -> ProposalResult:
        candidates = [
            n
            for n in state.tree.root.postorder()
            if not n.is_tip and not n.is_root
        ]
        if not candidates:
            # A 2-tip tree has no internal edge; a null move keeps the
            # chain valid.
            return ProposalResult(0.0, [], False, False, lambda: None)
        node = candidates[int(rng.integers(len(candidates)))]
        parent = node.parent
        sibling = (
            parent.children[1]
            if parent.children[0] is node
            else parent.children[0]
        )
        child = node.children[int(rng.integers(2))]

        child_pos = node.children.index(child)
        sibling_pos = parent.children.index(sibling)

        def swap(a_parent, a_pos, b_parent, b_pos):
            a = a_parent.children[a_pos]
            b = b_parent.children[b_pos]
            a_parent.children[a_pos] = b
            b_parent.children[b_pos] = a
            a.parent, b.parent = b_parent, a_parent

        swap(node, child_pos, parent, sibling_pos)

        def undo() -> None:
            swap(node, child_pos, parent, sibling_pos)

        # The two swapped subtrees hang from new parents: their branches
        # are the edited ones, so every node above them recomputes.
        return ProposalResult(
            log_hastings=0.0,
            dirty_nodes=[child.index, sibling.index],
            topology_changed=True,
            parameters_changed=False,
            undo=undo,
        )


class ParameterMultiplier(Proposal):
    """Multiplier move on one named positive parameter (kappa, alpha, ...)."""

    def __init__(self, parameter: str, tuning: float = 2.0 * math.log(1.5)) -> None:
        if tuning <= 0:
            raise ValueError(f"tuning must be positive, got {tuning}")
        self.parameter = parameter
        self.tuning = tuning
        self.name = f"multiplier({parameter})"

    def propose(self, state: PhyloState, rng) -> ProposalResult:
        if self.parameter not in state.parameters:
            raise KeyError(f"state has no parameter {self.parameter!r}")
        old = state.parameters[self.parameter]
        factor = math.exp(self.tuning * (rng.random() - 0.5))
        state.parameters[self.parameter] = old * factor

        def undo() -> None:
            state.parameters[self.parameter] = old

        return ProposalResult(
            log_hastings=math.log(factor),
            dirty_nodes=[],
            topology_changed=False,
            parameters_changed=True,
            undo=undo,
        )


@dataclass
class ProposalMix:
    """A weighted cycle of proposals."""

    proposals: Sequence[Proposal]
    weights: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.proposals) != len(self.weights):
            raise ValueError("need one weight per proposal")
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be non-negative and not all zero")
        self._p = w / w.sum()

    def draw(self, rng: np.random.Generator) -> Proposal:
        return self.proposals[int(rng.choice(len(self.proposals), p=self._p))]


def default_mix(parameters: Sequence[str]) -> ProposalMix:
    """MrBayes-like default: mostly branch moves, some NNI, some parameters."""
    proposals: List[Proposal] = [BranchLengthMultiplier(), NNIMove()]
    weights: List[float] = [10.0, 3.0]
    for p in parameters:
        proposals.append(ParameterMultiplier(p))
        weights.append(1.0)
    return ProposalMix(proposals, weights)


def gradient_mix(
    parameters: Sequence[str],
    gradient_provider: Callable[[Sequence[int]], np.ndarray],
    sweep_weight: float = 5.0,
    step_size: float = 0.05,
) -> ProposalMix:
    """:func:`default_mix` plus a batched-gradient MALA branch sweep.

    ``gradient_provider`` is typically
    :meth:`repro.mcmc.chain.BeagleBackend.branch_gradients`, which needs
    the backend built with ``enable_upper_partials=True``.
    """
    base = default_mix(parameters)
    proposals = list(base.proposals)
    weights = list(base.weights)
    proposals.append(GradientBranchSweep(gradient_provider, step_size))
    weights.append(sweep_weight)
    return ProposalMix(proposals, weights)
