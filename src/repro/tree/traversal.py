"""Convert trees into BEAGLE operation schedules.

Inference programs perform a post-order traversal, evaluating a partial
likelihood array at each node (paper section IV-F).  BEAGLE receives that
traversal flattened into an operation list; this module builds those lists
and additionally groups operations into *dependency levels* — sets of
operations with no ancestor/descendant relation — which is precisely the
concurrency the paper's *futures* threading design exploits (section VI-A
computed "partial-likelihood operations that were independent in the tree
topology").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.flags import OP_NONE
from repro.core.types import Operation
from repro.tree.node import Node
from repro.tree.tree import Tree


@dataclass(frozen=True)
class TraversalPlan:
    """Everything a client needs to drive one likelihood evaluation.

    Attributes
    ----------
    operations:
        Post-order :class:`Operation` list; matrix index *i* corresponds
        to the branch above node *i*.
    branch_node_indices / branch_lengths:
        Parallel arrays for ``updateTransitionMatrices``: one entry per
        non-root node.
    root_index:
        Partials-buffer index of the root node.
    levels:
        Operations grouped into dependency levels (all operations within a
        level are mutually independent; level *k* depends only on levels
        ``< k`` and on tips).
    """

    operations: Tuple[Operation, ...]
    branch_node_indices: np.ndarray
    branch_lengths: np.ndarray
    root_index: int
    levels: Tuple[Tuple[Operation, ...], ...]


def _identity(index: int) -> int:
    return index


def _lookups(
    tree: Tree,
    use_scaling: bool,
    buffers: Optional[Sequence[int]],
    scales: Optional[Sequence[int]],
) -> Tuple[Callable[[int], int], Optional[Callable[[int], int]]]:
    """Node index -> partials buffer, and -> scale buffer (``None``
    without scaling)."""
    slot = _identity if buffers is None else buffers.__getitem__
    if not use_scaling:
        return slot, None
    if scales is not None:
        return slot, scales.__getitem__
    n_tips = tree.n_tips
    return slot, lambda index: index - n_tips


def _operation(
    node: Node,
    slot: Callable[[int], int],
    scale: Optional[Callable[[int], int]],
) -> Operation:
    left, right = node.children
    return Operation(
        destination=slot(node.index),
        child1=slot(left.index),
        child1_matrix=left.index,
        child2=slot(right.index),
        child2_matrix=right.index,
        write_scale=OP_NONE if scale is None else scale(node.index),
    )


def _levels(
    operations: List[Operation], depths: List[int]
) -> Tuple[Tuple[Operation, ...], ...]:
    """Group operations by node depth, shallowest first."""
    if not operations:
        return ()
    base = min(depths)
    levels: List[List[Operation]] = [[] for _ in range(max(depths) - base + 1)]
    for op, d in zip(operations, depths):
        levels[d - base].append(op)
    return tuple(tuple(level) for level in levels if level)


def plan_traversal(
    tree: Tree,
    use_scaling: bool = False,
    cumulative_scale_index: int = OP_NONE,
    buffers: Optional[Sequence[int]] = None,
    scales: Optional[Sequence[int]] = None,
) -> TraversalPlan:
    """Build the operation schedule for a full post-order re-evaluation.

    Buffer convention: partials buffer *i* belongs to node *i* (tips
    ``0..n_tips-1``, internals above), and transition matrix *i* belongs
    to the branch above node *i*.  Scale buffers, when enabled, are
    numbered ``dest - n_tips`` so each internal node owns one.

    Parameters
    ----------
    use_scaling:
        If true, every operation writes per-pattern scale factors to its
        node's scale buffer (manual-scaling workflow); the caller then
        accumulates buffers into ``cumulative_scale_index`` when
        integrating the root.
    buffers, scales:
        Replace the convention for partials and scale buffers:
        ``buffers[i]`` holds node *i*'s partials and ``scales[i]`` its
        scale factors.  A client that moves partials between buffers
        (the index flip of :class:`repro.core.highlevel.TreeLikelihood`)
        passes its map here.  Matrix *i* always belongs to node *i*.
    """
    slot, scale = _lookups(tree, use_scaling, buffers, scales)
    operations: List[Operation] = []
    depths: List[int] = []
    depth: Dict[int, int] = {}
    branch_nodes: List[int] = []
    branch_lens: List[float] = []

    for node in tree.root.postorder():
        if not node.is_root:
            branch_nodes.append(node.index)
            branch_lens.append(node.branch_length)
        if node.is_tip:
            depth[node.index] = 0
            continue
        left, right = node.children
        depth[node.index] = 1 + max(depth[left.index], depth[right.index])
        operations.append(_operation(node, slot, scale))
        depths.append(depth[node.index])

    return TraversalPlan(
        operations=tuple(operations),
        branch_node_indices=np.asarray(branch_nodes, dtype=np.int32),
        branch_lengths=np.asarray(branch_lens, dtype=float),
        root_index=slot(tree.root.index),
        levels=_levels(operations, depths),
    )


def plan_partial_update(
    tree: Tree,
    dirty_nodes: Sequence[int],
    use_scaling: bool = False,
    buffers: Optional[Sequence[int]] = None,
    scales: Optional[Sequence[int]] = None,
    before_write: Optional[Callable[[int], None]] = None,
) -> TraversalPlan:
    """Schedule only the operations needed after editing some branches.

    ``dirty_nodes`` lists node indices whose branch length (or subtree)
    changed; every ancestor of a dirty node must be recomputed, nothing
    else — this is the incremental re-evaluation pattern MCMC samplers
    rely on for cheap proposals.

    ``buffers`` and ``scales`` are as in :func:`plan_traversal`.
    ``before_write(i)`` is called once for each node *i* to recompute,
    in post-order, just before its operation is built; it may repoint
    ``buffers[i]`` and ``scales[i]`` at the buffers the new partials
    should go to (the index flip), and later operations read them there.
    """
    slot, scale = _lookups(tree, use_scaling, buffers, scales)
    order = list(tree.root.postorder())
    nodes_by_index = {n.index: n for n in order}
    needs_update = set()
    for d in dirty_nodes:
        try:
            node = nodes_by_index[int(d)]
        except KeyError:
            raise KeyError(f"no node with index {d}") from None
        # The partials of the node's parent and all further ancestors
        # depend on the branch above `node`.
        walk = node.parent if not node.is_root else node
        while walk is not None and walk.index not in needs_update:
            needs_update.add(walk.index)
            walk = walk.parent

    operations: List[Operation] = []
    depths: List[int] = []
    depth: Dict[int, int] = {}
    for node in order:
        if node.is_tip:
            depth[node.index] = 0
            continue
        left, right = node.children
        depth[node.index] = 1 + max(depth[left.index], depth[right.index])
        if node.index in needs_update:
            if before_write is not None:
                before_write(node.index)
            operations.append(_operation(node, slot, scale))
            depths.append(depth[node.index])
    edited = [
        nodes_by_index[d] for d in sorted(set(int(d) for d in dirty_nodes))
    ]
    edited = [node for node in edited if not node.is_root]

    return TraversalPlan(
        operations=tuple(operations),
        branch_node_indices=np.asarray(
            [node.index for node in edited], dtype=np.int32
        ),
        branch_lengths=np.asarray(
            [node.branch_length for node in edited], dtype=float
        ),
        root_index=slot(tree.root.index),
        levels=_levels(operations, depths),
    )
