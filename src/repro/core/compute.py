"""Canonical array-level likelihood mathematics.

This module is the single source of truth for what every kernel computes:
the partial-likelihoods recursion (paper eq. 1), transition-matrix
construction from an eigendecomposition, rescaling, and the root/edge
likelihood integrations.  Hardware implementations differ in *how* they
schedule this work (scalar loops, vector units, threads, simulated
devices), never in *what* they compute: the CPU backends call these
functions and the generated kernel programs import the three
contractions (:func:`transition`, :func:`lift`, :func:`site_sum`), so
every backend but the scalar ``cpu-serial`` reference is bitwise equal.

Array layout (matching BEAGLE's internal layout):

* partials:  ``(n_categories, n_patterns, n_states)``
* matrices:  ``(n_categories, n_states, n_states)``, row = parent state
* tip states: ``(n_patterns,)`` int32, value ``n_states`` = gap/unknown
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.typing import DTypeLike

#: Effective floating-point operation count per (pattern, category) entry
#: of one partial-likelihoods operation, as a function of the state count.
#: Each of ``s`` destination entries consumes two inner products of length
#: ``s`` (mul+add each) plus one final multiply: ``s * (4s + 1)``.  This is
#: the FLOP accounting behind every GFLOPS number reported by the paper's
#: genomictest methodology (section V-A) and by this reproduction.
def partials_flops(state_count: int) -> int:
    return state_count * (4 * state_count + 1)


# ---------------------------------------------------------------------------
# The three contractions, each with a fixed reduction order.  Each is a
# stack of independent per-slice products, so a slice's value does not
# depend on the batch it is computed in.
# ---------------------------------------------------------------------------

def transition(
    v: np.ndarray, diag: np.ndarray, v_inv: np.ndarray
) -> np.ndarray:
    """``V diag(d) V^-1`` for every leading index of ``diag``.

    ``v``/``v_inv`` are ``(s, s)``; ``diag`` is ``(..., s)``; the result
    is ``(..., s, s)``.
    """
    return (v * diag[..., None, :]) @ v_inv


def lift(partials: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """``out[c, p, i] = sum_j M[c, i, j] L[c, p, j]`` (the inner product).

    ``partials`` is ``(c, p, s)``; ``matrices`` is ``(c, s, s)``.  One
    batched GEMM, which vectorises across the state dimension and
    releases the GIL inside BLAS -- the property the threaded
    implementations rely on.
    """
    return partials @ matrices.swapaxes(-1, -2)


def site_sum(
    weights: np.ndarray, partials: np.ndarray, frequencies: np.ndarray
) -> np.ndarray:
    """``site[p] = sum_c w_c sum_i X[c, p, i] pi_i``: states, then categories.

    ``partials`` is ``(c, p, s)``; the result is ``(p,)``.
    """
    return weights @ (partials @ frequencies)


def matrices_from_eigen(
    eigenvectors: np.ndarray,
    inverse_eigenvectors: np.ndarray,
    eigenvalues: np.ndarray,
    branch_lengths: np.ndarray,
    category_rates: np.ndarray,
    dtype: DTypeLike = np.float64,
) -> np.ndarray:
    """Transition matrices for every (branch, category) pair.

    Computes ``P = V diag(exp(lambda * t * r_c)) V^{-1}`` and clamps tiny
    negative round-off to zero.  Returns shape
    ``(n_branches, n_categories, s, s)``.
    """
    branch_lengths = np.asarray(branch_lengths, dtype=np.float64)
    category_rates = np.asarray(category_rates, dtype=np.float64)
    scaled = np.multiply.outer(branch_lengths, category_rates)  # (b, c)
    expd = np.exp(np.multiply.outer(scaled, eigenvalues))  # (b, c, s)
    p = transition(eigenvectors, expd, inverse_eigenvectors)
    p = np.clip(p.real if np.iscomplexobj(p) else p, 0.0, None)
    return np.ascontiguousarray(p, dtype=dtype)


def derivative_matrices_from_eigen(
    eigenvectors: np.ndarray,
    inverse_eigenvectors: np.ndarray,
    eigenvalues: np.ndarray,
    branch_lengths: np.ndarray,
    category_rates: np.ndarray,
    order: int = 1,
    dtype: DTypeLike = np.float64,
) -> np.ndarray:
    """``d^order P/dt^order`` for every (branch, category) pair.

    Differentiating ``P = V diag(exp(lambda r t)) V^{-1}`` in ``t`` scales
    each spectral component by ``(lambda r)^order``, so the derivative is
    ``(r Q)^order P`` without ever forming ``Q``.  Unlike
    :func:`matrices_from_eigen` the result is *not* clamped: derivative
    entries are legitimately negative.  Returns shape
    ``(n_branches, n_categories, s, s)``.
    """
    if order < 1:
        raise ValueError(f"derivative order must be >= 1, got {order}")
    branch_lengths = np.asarray(branch_lengths, dtype=np.float64)
    category_rates = np.asarray(category_rates, dtype=np.float64)
    scaled = np.multiply.outer(branch_lengths, category_rates)  # (b, c)
    exponent = np.multiply.outer(scaled, eigenvalues)  # (b, c, s)
    rate_eig = np.multiply.outer(category_rates, eigenvalues)  # (c, s)
    diag = (rate_eig**order)[np.newaxis] * np.exp(exponent)
    d = transition(eigenvectors, diag, inverse_eigenvectors)
    d = d.real if np.iscomplexobj(d) else d
    return np.ascontiguousarray(d, dtype=dtype)


def extend_matrices_for_gaps(matrices: np.ndarray) -> np.ndarray:
    """Append a ones column so the gap state code ``s`` selects all-ones.

    Input ``(..., s, s)``; output ``(..., s, s + 1)``.  Column ``j`` of the
    result is the probability of observing child state *j* given parent
    state *i*; a gap observation is compatible with every child state.
    """
    pad = np.ones(matrices.shape[:-1] + (1,), dtype=matrices.dtype)
    return np.concatenate([matrices, pad], axis=-1)


# ---------------------------------------------------------------------------
# Partial-likelihood update kernels (vectorised reference forms)
# ---------------------------------------------------------------------------

def update_partials_pp(
    partials1: np.ndarray,
    matrices1: np.ndarray,
    partials2: np.ndarray,
    matrices2: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """partials x partials operation (both children internal/ambiguous).

    ``out[c, p, i] = (sum_j M1[c,i,j] L1[c,p,j]) * (sum_j M2[c,i,j] L2[c,p,j])``

    Two :func:`lift` products.
    """
    a = lift(partials1, matrices1)
    b = lift(partials2, matrices2)
    if out is None:
        return a * b
    np.multiply(a, b, out=out)
    return out


def update_partials_sp(
    states1: np.ndarray,
    matrices1_ext: np.ndarray,
    partials2: np.ndarray,
    matrices2: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """states x partials operation (child 1 is a compact tip buffer).

    ``matrices1_ext`` must already carry the gap column
    (:func:`extend_matrices_for_gaps`), so a state code of ``s`` selects
    the all-ones column.
    """
    a = matrices1_ext[..., states1].swapaxes(-1, -2)  # (c, p, s)
    b = lift(partials2, matrices2)
    if out is None:
        return a * b
    np.multiply(a, b, out=out)
    return out


def update_partials_ss(
    states1: np.ndarray,
    matrices1_ext: np.ndarray,
    states2: np.ndarray,
    matrices2_ext: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """states x states operation (both children are compact tip buffers)."""
    a = matrices1_ext[..., states1].swapaxes(-1, -2)
    b = matrices2_ext[..., states2].swapaxes(-1, -2)
    if out is None:
        return a * b
    np.multiply(a, b, out=out)
    return out


def rescale_partials(
    partials: np.ndarray,
    epsilon: float = 0.0,
    threshold: float = np.inf,
) -> Tuple[np.ndarray, np.ndarray]:
    """Divide out the per-pattern maximum to prevent underflow.

    Returns ``(rescaled_partials, log_scale_factors)`` where the factors
    have shape ``(n_patterns,)``.  Patterns whose maximum is zero (an
    impossible site) keep factor ``0`` so the zero propagates to the root,
    where the log-likelihood correctly becomes ``-inf``.

    ``threshold`` implements *dynamic* scaling
    (``BEAGLE_FLAG_SCALING_DYNAMIC``): only patterns whose maximum has
    fallen below it are rescaled; comfortable patterns keep factor one
    (log factor zero), saving the division and keeping the accumulation
    semantics unchanged.  The default (infinity) rescales every pattern.
    """
    maxima = partials.max(axis=(0, 2))  # (p,)
    needs = (maxima > epsilon) & (maxima < threshold)
    safe = np.where(needs, maxima, 1.0)
    rescaled = partials / safe[np.newaxis, :, np.newaxis]
    log_factors = np.log(safe)
    return rescaled, log_factors


def root_log_likelihood(
    root_partials: np.ndarray,
    category_weights: np.ndarray,
    state_frequencies: np.ndarray,
    pattern_weights: np.ndarray,
    cumulative_scale_log: Optional[np.ndarray] = None,
) -> Tuple[float, np.ndarray]:
    """Integrate root partials into the total log-likelihood.

    ``site_lik[p] = sum_c w_c sum_i pi_i L_root[c, p, i]``;
    ``logL = sum_p weight_p (log site_lik[p] + scale[p])``.

    Returns ``(log_likelihood, per_pattern_log_likelihoods)``.
    """
    site_lik = site_sum(category_weights, root_partials, state_frequencies)
    with np.errstate(divide="ignore"):
        log_site = np.log(site_lik)
    if cumulative_scale_log is not None:
        log_site = log_site + cumulative_scale_log
    return float(np.dot(pattern_weights, log_site)), log_site


def edge_log_likelihood(
    parent_partials: np.ndarray,
    child_partials: np.ndarray,
    edge_matrices: np.ndarray,
    category_weights: np.ndarray,
    state_frequencies: np.ndarray,
    pattern_weights: np.ndarray,
    cumulative_scale_log: Optional[np.ndarray] = None,
) -> Tuple[float, np.ndarray]:
    """Likelihood integrated over a branch (``calculateEdgeLogLikelihoods``).

    ``site_lik[p] = sum_c w_c sum_i pi_i parent[c,p,i]
    sum_j P[c,i,j] child[c,p,j]``.

    For a reversible model this equals the root likelihood of the tree
    rooted anywhere along that edge (the "pulley principle"), which the
    property-based tests exploit.
    """
    site_lik = site_sum(
        category_weights,
        parent_partials * lift(child_partials, edge_matrices),
        state_frequencies,
    )
    with np.errstate(divide="ignore"):
        log_site = np.log(site_lik)
    if cumulative_scale_log is not None:
        log_site = log_site + cumulative_scale_log
    return float(np.dot(pattern_weights, log_site)), log_site


def edge_derivatives(
    parent_partials: np.ndarray,
    child_partials: np.ndarray,
    edge_matrices: np.ndarray,
    d1_matrices: np.ndarray,
    d2_matrices: np.ndarray,
    category_weights: np.ndarray,
    state_frequencies: np.ndarray,
    pattern_weights: np.ndarray,
) -> Tuple[float, float, float]:
    """Log-likelihood and its first/second branch-length derivatives.

    ``d1_matrices``/``d2_matrices`` are ``Q P(t)`` and ``Q^2 P(t)``
    per category (computed by the eigensystem with scaled eigenvalues);
    derivatives follow from differentiating the per-site likelihood and
    the chain rule for the log.
    """

    def site_values(mats: np.ndarray) -> np.ndarray:
        return site_sum(
            category_weights,
            parent_partials * lift(child_partials, mats),
            state_frequencies,
        )

    f = site_values(edge_matrices)
    f1 = site_values(d1_matrices)
    f2 = site_values(d2_matrices)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_site = np.log(f)
        g1 = f1 / f
        g2 = f2 / f - g1 * g1
    logl = float(np.dot(pattern_weights, log_site))
    d1 = float(np.dot(pattern_weights, g1))
    d2 = float(np.dot(pattern_weights, g2))
    return logl, d1, d2
