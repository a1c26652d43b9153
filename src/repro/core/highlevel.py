"""High-level convenience: tree + data + model -> log-likelihood.

BEAGLE itself has no tree type; this helper is the canonical *client*
gluing the tree substrate to an instance — the pattern every example and
the MCMC application follow.  It owns the buffer-index conventions and
supports incremental re-evaluation after branch edits, which is what
makes MCMC proposals cheap.

Buffer layout (``n`` nodes, ``k`` of them internal):

* matrix *i* is the branch above node *i*; ``n`` and ``n + 1`` hold
  derivative matrices, ``n + 2`` the identity used by upper partials;
* partials buffers ``0 .. n-1`` are where the nodes start (tips are
  compact state buffers and never move), followed by the ``2n + 1``
  upper-partials buffers when enabled, followed by ``k`` *spare* slots
  when ``spare_slots`` is set;
* which slot holds an internal node's lower partials is a client-side
  map (:meth:`TreeLikelihood.partials_index`), not a convention.  An
  incremental update writes every node on the path to the root into a
  fresh slot and remembers the old one, so :meth:`TreeLikelihood.reject`
  undoes a proposal by flipping the map back instead of recomputing
  (BEAGLE 4.1's client-managed buffer indices);
* scale buffer ``k`` is the cumulative one; every other partials slot
  an internal node can occupy owns one scale buffer, which moves with
  it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Union

import numpy as np

from repro.core.flags import OP_NONE, Flag
from repro.core.instance import BeagleInstance
from repro.core.types import InstanceConfig
from repro.model.ratematrix import SubstitutionModel
from repro.model.sitemodel import SiteModel
from repro.seq.patterns import PatternSet
from repro.seq.simulate import SyntheticPatterns
from repro.tree.traversal import (
    TraversalPlan,
    plan_partial_update,
    plan_traversal,
)
from repro.tree.tree import Tree


class TreeLikelihood:
    """Evaluate (and re-evaluate) one alignment's likelihood on one tree.

    Parameters
    ----------
    tree:
        A rooted binary tree whose tip names match the data's names (for
        a :class:`PatternSet`) or whose tip indices match the data's rows
        (for :class:`SyntheticPatterns`).
    data:
        Compressed site patterns.
    model:
        Substitution model (supplies eigensystem and frequencies).
    site_model:
        Rate-heterogeneity categories; default is a single rate.
    use_tip_states:
        Store tips compactly as integer state codes (faster kernels) or
        as indicator partials (preserves partial ambiguity).
    use_scaling:
        Enable per-node rescaling — required for large trees where
        partials underflow.  ``True``/``"always"`` rescales every
        pattern at every node; ``"dynamic"`` rescales only patterns whose
        maximum partial has drifted below a safety threshold
        (``BEAGLE_FLAG_SCALING_DYNAMIC``), trading a per-pattern check
        for far fewer divisions.
    enable_upper_partials:
        Allocate the extra buffers needed by
        :class:`repro.core.upper.UpperPartials` (edge likelihoods and
        Newton derivatives on every branch).  Costs ~3x the partials
        memory.
    deferred:
        Record matrix updates and partials operations into an execution
        plan instead of running them eagerly; the plan executes at each
        likelihood call.  Results are bit-identical to eager mode, but
        backends may batch or reorder independent work within a level
        (see :mod:`repro.core.plan`).
    spare_slots:
        Reserve one spare partials slot per internal node, so that
        :meth:`reject` restores an incremental update by flipping slots
        instead of re-evaluating — what an MCMC client wants.  Costs up
        to ~1.5x the partials memory, of which only the slots in use
        are touched.  Without spares, updates write in place and
        :meth:`reject` re-evaluates the whole tree.
    instance_kwargs:
        Passed through to instance creation (``preference_flags``,
        ``resource_ids``, ``precision``, ...).
    """

    def __init__(
        self,
        tree: Tree,
        data: Union[PatternSet, SyntheticPatterns],
        model: SubstitutionModel,
        site_model: Optional[SiteModel] = None,
        use_tip_states: bool = True,
        use_scaling=False,
        enable_upper_partials: bool = False,
        deferred: bool = False,
        spare_slots: bool = False,
        **instance_kwargs,
    ) -> None:
        site_model = site_model or SiteModel.uniform()
        self.tree = tree
        self.model = model
        self.site_model = site_model
        if use_scaling not in (False, True, "always", "dynamic"):
            raise ValueError(
                f"use_scaling must be False, True, 'always' or 'dynamic'; "
                f"got {use_scaling!r}"
            )
        self.use_scaling = bool(use_scaling)
        if use_scaling == "dynamic":
            instance_kwargs.setdefault("scaling_mode", "dynamic")

        if isinstance(data, PatternSet):
            n_patterns = data.n_patterns
            weights = data.weights
            state_count = data.alignment.n_states
            if state_count != model.n_states:
                raise ValueError(
                    f"data has {state_count} states but model "
                    f"{model.name} has {model.n_states}"
                )
        else:
            n_patterns = data.n_patterns
            weights = data.weights
            state_count = data.state_count
            if state_count != model.n_states:
                raise ValueError(
                    f"data has {state_count} states but model "
                    f"{model.name} has {model.n_states}"
                )

        n_tips = tree.n_tips
        n_nodes = tree.n_nodes
        n_internal = n_nodes - n_tips
        self._cumulative_scale = n_internal if use_scaling else OP_NONE
        # Two spare matrix slots hold first/second derivative matrices
        # for Newton-style branch optimisation (see root_edge_derivatives);
        # upper-partials mode adds 2n+1 partials buffers and an identity
        # matrix slot (see repro.core.upper).  Spare partials slots, one
        # per internal node, come last (see the module docstring).
        extra_partials = (2 * n_nodes + 1) if enable_upper_partials else 0
        extra_matrices = 3 if enable_upper_partials else 2
        spare_base = n_nodes + extra_partials
        n_spares = n_internal if spare_slots else 0
        config = InstanceConfig(
            tip_count=n_tips,
            partials_buffer_count=(
                n_nodes - (n_tips if use_tip_states else 0) + extra_partials
                + n_spares
            ),
            compact_buffer_count=n_tips if use_tip_states else 0,
            state_count=state_count,
            pattern_count=n_patterns,
            eigen_buffer_count=1,
            matrix_buffer_count=n_nodes + extra_matrices,
            category_count=site_model.n_categories,
            scale_buffer_count=(
                (n_internal + 1 + n_spares) if use_scaling else 0
            ),
        )
        self.derivative_matrix_indices = (n_nodes, n_nodes + 1)
        self.enable_upper_partials = enable_upper_partials
        self.use_tip_states = use_tip_states
        self.data = data
        self.instance = BeagleInstance(config, deferred=deferred, **instance_kwargs)
        self._upper = None

        # The slot map: node -> partials slot, and node -> scale buffer
        # of that slot (tips' entries are never used for scaling).
        self._n_tips = n_tips
        self._n_internal = n_internal
        self._spare_base = spare_base
        self._slots: List[int] = list(range(n_nodes))
        self._scales: List[int] = [i - n_tips for i in range(n_nodes)]
        # Free spare slots, used LIFO so the same few stay warm.
        self._free: List[int] = list(
            range(spare_base + n_spares - 1, spare_base - 1, -1)
        )
        # Since the last accept()/reject(): node -> slot it left, the
        # branches whose matrices were rewritten, and whether partials
        # were overwritten in place (a full evaluation, or no spares).
        self._previous: Dict[int, int] = {}
        self._edited: Set[int] = set()
        self._written_in_place = False

        self.load_tip_data(data)
        self.instance.set_category_rates(site_model.rates)
        self.instance.set_category_weights(0, site_model.weights)
        self.instance.set_substitution_model(0, model)
        self._matrices_current = False

    def load_tip_data(
        self, data: Union[PatternSet, SyntheticPatterns]
    ) -> None:
        """Load tip buffers and pattern weights from ``data``.

        Pairs by name for real alignments and by row index for synthetic
        benchmark data.  Called at construction, and again by
        :meth:`rebind` when a warm instance is reused for new data of the
        same shape.
        """
        n_patterns = self.instance.config.pattern_count
        state_count = self.instance.config.state_count
        tips = sorted(self.tree.root.tips(), key=lambda n: n.index)
        if isinstance(data, PatternSet):
            aln = data.alignment
            for tip in tips:
                name = tip.name or f"taxon{tip.index}"
                row = aln.names.index(name)
                if self.use_tip_states:
                    self.instance.set_tip_states(
                        tip.index,
                        aln.state_space.encode_states(aln.rows[row]),
                    )
                else:
                    self.instance.set_tip_partials(
                        tip.index,
                        aln.state_space.encode_partials(aln.rows[row]),
                    )
        else:
            for tip in tips:
                if self.use_tip_states:
                    self.instance.set_tip_states(
                        tip.index, data.tip_states[tip.index]
                    )
                else:
                    dense = np.zeros((n_patterns, state_count))
                    rows = np.arange(n_patterns)
                    codes = data.tip_states[tip.index]
                    known = codes < state_count
                    dense[rows[known], codes[known]] = 1.0
                    dense[~known] = 1.0
                    self.instance.set_tip_partials(tip.index, dense)
        self.instance.set_pattern_weights(data.weights)
        self.data = data

    def rebind(
        self,
        data: Union[PatternSet, SyntheticPatterns],
        tree: Optional[Tree] = None,
    ) -> None:
        """Repoint a warm instance at new data (and optionally a new tree).

        The replacement must match the shape the instance's buffers were
        sized for — same pattern count, state count, and tip count — so
        only tip buffers and pattern weights are rewritten; eigensystem,
        category rates, and model parameters are untouched.  This is what
        lets a serving pool reuse one built instance across tenants
        whose analyses share a configuration signature instead of paying
        a fresh allocation per request.
        """
        if tree is not None:
            if tree.n_tips != self.tree.n_tips:
                raise ValueError(
                    f"rebind tree has {tree.n_tips} tips; instance was "
                    f"built for {self.tree.n_tips}"
                )
            self.tree = tree
        n_patterns = data.n_patterns
        state_count = (
            data.alignment.n_states
            if isinstance(data, PatternSet)
            else data.state_count
        )
        if n_patterns != self.instance.config.pattern_count:
            raise ValueError(
                f"rebind data has {n_patterns} patterns; instance was "
                f"built for {self.instance.config.pattern_count}"
            )
        if state_count != self.instance.config.state_count:
            raise ValueError(
                f"rebind data has {state_count} states; instance was "
                f"built for {self.instance.config.state_count}"
            )
        self.load_tip_data(data)
        self._matrices_current = False
        self._forget()

    # -- observability -------------------------------------------------------

    @property
    def tracer(self):
        """The instance's tracer (the null tracer until instrumented)."""
        return self.instance.tracer

    @property
    def metrics(self):
        """The instance's metrics registry (``None`` until instrumented)."""
        return self.instance.metrics

    def instrument(self, tracer=None, metrics=None):
        """Attach a tracer + metrics registry to the underlying instance."""
        return self.instance.instrument(tracer, metrics)

    def set_execution_mode(self, deferred: bool) -> None:
        """Switch the underlying instance between eager and deferred mode."""
        self.instance.set_execution_mode(deferred)

    def flush(self):
        """Execute any recorded deferred work on the underlying instance."""
        return self.instance.flush()

    def matrix_cache_stats(self):
        """The underlying instance's transition-matrix cache statistics."""
        return self.instance.matrix_cache_stats()

    @property
    def pattern_count(self) -> int:
        """Number of site patterns this likelihood evaluates."""
        return self.instance.config.pattern_count

    # -- evaluation ----------------------------------------------------------

    def partials_index(self, node_index: int) -> int:
        """The partials buffer that currently holds a node's lower partials."""
        return self._slots[node_index]

    def traversal_plan(self) -> TraversalPlan:
        """The full post-order schedule over the current slot map."""
        return plan_traversal(
            self.tree, use_scaling=self.use_scaling,
            buffers=self._slots, scales=self._scales,
        )

    def _accumulate_scales(self) -> None:
        """Sum the scale buffers of the current slots, in node order."""
        self.instance.reset_scale_factors(self._cumulative_scale)
        self.instance.accumulate_scale_factors(
            self._scales[self._n_tips:], self._cumulative_scale
        )

    def _flip(self, node_index: int) -> None:
        """Give a node about to be recomputed a fresh slot, once per
        accept/reject cycle (a node in the map already has one, and a
        node of a tree likelihood without spares is written in place)."""
        if node_index in self._previous:
            return
        if not self._free:
            self._written_in_place = True
            return
        self._previous[node_index] = self._slots[node_index]
        self._move_to(node_index, self._free.pop())

    def _move_to(self, node_index: int, slot: int) -> None:
        self._slots[node_index] = slot
        self._scales[node_index] = (
            slot - self._n_tips if slot < self._spare_base
            else self._n_internal + 1 + slot - self._spare_base
        )

    def log_likelihood(self) -> float:
        """Full post-order re-evaluation of the tree.

        Writes every node's partials in place, into its current slot.
        """
        plan = self.traversal_plan()
        self.instance.update_transition_matrices(
            0, list(plan.branch_node_indices), plan.branch_lengths
        )
        self._matrices_current = True
        self._written_in_place = True
        self.instance.update_partials(plan.operations)
        if self.use_scaling:
            self._accumulate_scales()
        return self.instance.calculate_root_log_likelihoods(
            plan.root_index, 0, 0, self._cumulative_scale
        )

    def update_branch_lengths(self, node_indices: Sequence[int]) -> float:
        """Incremental re-evaluation after editing some branches.

        ``node_indices`` are the nodes whose branch above changed, in
        length or in attachment (for NNI, the two swapped subtrees).
        Only their matrices and the partials of their ancestors are
        recomputed.  With ``spare_slots``, each ancestor is written into
        a fresh spare slot the first time it is touched after the last
        :meth:`accept` or :meth:`reject`, so :meth:`reject` can flip
        back to the old partials.  With scaling enabled the cumulative buffer is
        re-accumulated over every node (factors of untouched nodes are
        unchanged).
        """
        if not self._matrices_current:
            return self.log_likelihood()
        plan = plan_partial_update(
            self.tree, node_indices, use_scaling=self.use_scaling,
            buffers=self._slots, scales=self._scales,
            before_write=self._flip,
        )
        if plan.branch_node_indices.size:
            self._edited.update(plan.branch_node_indices.tolist())
            self.instance.update_transition_matrices(
                0, list(plan.branch_node_indices), plan.branch_lengths
            )
        if plan.operations:
            self.instance.update_partials(plan.operations)
        if self.use_scaling:
            self._accumulate_scales()
        return self.instance.calculate_root_log_likelihoods(
            plan.root_index, 0, 0, self._cumulative_scale
        )

    def _forget(self) -> None:
        self._free.extend(self._previous.values())
        self._previous.clear()
        self._edited.clear()
        self._written_in_place = False

    def accept(self) -> None:
        """Keep the current state: release the slots updates moved away from."""
        self._forget()

    def reject(self) -> None:
        """Return to the state of the last :meth:`accept`/:meth:`reject`.

        Call after restoring the tree itself (branch lengths, topology,
        model).  Every slot that :meth:`update_branch_lengths` moved is
        flipped back and the edited branches' matrices are re-issued
        (cache hits), so nothing is recomputed and the restored partials
        are the very buffers computed before.  If a full
        :meth:`log_likelihood` ran since then, or an update wrote in
        place (no ``spare_slots``), the old values are gone and this
        falls back to a full evaluation.
        """
        if self._written_in_place or not self._matrices_current:
            self._forget()
            self.log_likelihood()
            self._written_in_place = False
            return
        for node, slot in self._previous.items():
            self._previous[node] = self._slots[node]  # freed below
            self._move_to(node, slot)
        if self._edited:
            lengths = self.tree.branch_lengths()
            edited = sorted(self._edited)
            self.instance.update_transition_matrices(
                0, edited, [lengths[i] for i in edited]
            )
        if self.use_scaling and self._previous:
            self._accumulate_scales()
        self._forget()

    def invalidate(self) -> None:
        """Mark cached matrices stale: the next evaluation is a full one."""
        self._matrices_current = False

    def site_log_likelihoods(self) -> np.ndarray:
        return self.instance.get_site_log_likelihoods()

    @property
    def upper(self):
        """The :class:`repro.core.upper.UpperPartials` manager.

        Requires ``enable_upper_partials=True`` at construction; created
        lazily on first access.
        """
        if self._upper is None:
            if not self.enable_upper_partials:
                raise RuntimeError(
                    "create the TreeLikelihood with "
                    "enable_upper_partials=True to use upper partials"
                )
            from repro.core.upper import UpperPartials

            self._upper = UpperPartials(self)
        return self._upper

    def root_edge_derivatives(self, total_length: Optional[float] = None):
        """Likelihood and derivatives along the root edge.

        For a reversible model the two branches below the root act as one
        edge of summed length (the pulley principle); this evaluates
        ``(logL, d logL/dt, d^2 logL/dt^2)`` at ``total_length`` (default:
        the current summed length) using the instance's derivative-matrix
        path.  Both root children must be internal nodes (tips have no
        partials buffer when stored compactly).
        """
        left, right = self.tree.root.children
        if left.is_tip or right.is_tip:
            raise ValueError(
                "root-edge derivatives need internal nodes on both sides "
                "of the root"
            )
        if total_length is None:
            total_length = left.branch_length + right.branch_length
        if total_length < 0:
            raise ValueError("edge length must be non-negative")
        d1_idx, d2_idx = self.derivative_matrix_indices
        scratch = left.index  # reuse left's matrix slot for P(t_total)
        try:
            self.instance.update_transition_matrices(
                0, [scratch], [total_length],
                first_derivative_indices=[d1_idx],
                second_derivative_indices=[d2_idx],
            )
            return self.instance.calculate_edge_derivatives(
                self.partials_index(right.index),
                self.partials_index(left.index),
                scratch, d1_idx, d2_idx,
                cumulative_scale_index=self._cumulative_scale,
            )
        finally:
            # Restore left's true matrix on every exit — an exception
            # mid-derivative must not leave P(t_total) in left's slot,
            # or every subsequent likelihood silently uses it.
            self.instance.update_transition_matrices(
                0, [left.index], [left.branch_length]
            )

    def branch_gradient(
        self,
        node_indices: Optional[Sequence[int]] = None,
        refresh: bool = True,
    ) -> np.ndarray:
        """Analytic ``(logL, d logL/dt, d^2 logL/dt^2)`` for every branch.

        One upward (post-order) sweep refreshes the lower partials, one
        downward (pre-order) sweep refreshes the upper partials, and a
        single batched gradient launch evaluates every requested branch
        — two traversals total, independent of the number of branches,
        versus ``N + 1`` for per-branch serial derivatives.

        Requires ``enable_upper_partials=True`` and the restrictions of
        :class:`~repro.core.upper.UpperPartials` (reversible model, no
        scaling).  Row ``e`` of the ``(n_edges, 3)`` result describes
        the branch above ``node_indices[e]`` (default: every non-root
        node in preorder).  Pass ``refresh=False`` only when both lower
        and upper partials are already current.
        """
        if refresh:
            self.log_likelihood()
            self.upper.update()
        return self.upper.branch_gradients(node_indices)

    def finalize(self) -> None:
        self.instance.finalize()

    def __enter__(self) -> "TreeLikelihood":
        return self

    def __exit__(self, *exc) -> None:
        self.finalize()
