"""Base machinery for continuous-time Markov substitution models.

A substitution model is an instantaneous rate matrix *Q* together with a
stationary distribution *pi*.  Likelihood computation needs transition
probability matrices ``P(t) = expm(Q t)``; BEAGLE computes these on-device
from an eigendecomposition of *Q* supplied by the client
(``setEigenDecomposition`` + ``updateTransitionMatrices``), and this module
provides exactly that decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.model.statespace import StateSpace


def normalize_rate_matrix(q: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Rescale *Q* so that the expected substitution rate is one.

    With ``-sum_i pi_i Q_ii = 1``, branch lengths are measured in expected
    substitutions per site — the convention all the paper's benchmark
    datasets use.
    """
    rate = -float(np.dot(pi, np.diag(q)))
    if rate <= 0:
        raise ValueError("rate matrix has non-positive total rate")
    return q / rate


def build_reversible_q(
    exchangeabilities: np.ndarray, pi: np.ndarray, normalize: bool = True
) -> np.ndarray:
    """Assemble a time-reversible *Q* from exchangeabilities and frequencies.

    ``Q_ij = r_ij * pi_j`` for ``i != j``; rows sum to zero.  The
    exchangeability matrix ``r`` must be symmetric with an ignored diagonal.
    """
    r = np.asarray(exchangeabilities, dtype=float)
    pi = np.asarray(pi, dtype=float)
    n = pi.size
    if r.shape != (n, n):
        raise ValueError(f"exchangeability shape {r.shape} != ({n}, {n})")
    if not np.allclose(r, r.T):
        raise ValueError("exchangeability matrix must be symmetric")
    if np.any(pi < 0) or not np.isclose(pi.sum(), 1.0):
        raise ValueError("frequencies must be non-negative and sum to 1")
    q = r * pi[np.newaxis, :]
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    if normalize:
        q = normalize_rate_matrix(q, pi)
    return q


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition ``Q = V diag(lambda) V^{-1}``.

    This is the exact payload of BEAGLE's ``setEigenDecomposition`` call:
    right eigenvectors, inverse eigenvectors, and eigenvalues.  For
    reversible models the decomposition is computed via the symmetrised
    matrix ``diag(sqrt(pi)) Q diag(1/sqrt(pi))`` so the eigenvalues are
    guaranteed real and the decomposition is numerically stable.
    """

    eigenvectors: np.ndarray
    inverse_eigenvectors: np.ndarray
    eigenvalues: np.ndarray

    @property
    def n_states(self) -> int:
        return self.eigenvalues.size

    def transition_matrix(self, t: float) -> np.ndarray:
        """Compute ``P(t) = V expm(diag(lambda) t) V^{-1}``.

        Negative branch lengths are rejected; tiny negative round-off in
        the resulting probabilities is clamped to zero, mirroring the
        clamping the BEAGLE kernels perform.
        """
        if t < 0:
            raise ValueError(f"branch length must be non-negative, got {t}")
        p = (self.eigenvectors * np.exp(self.eigenvalues * t)) @ (
            self.inverse_eigenvectors
        )
        return np.clip(p, 0.0, None)


def eigendecompose_reversible(q: np.ndarray, pi: np.ndarray) -> EigenSystem:
    """Decompose a reversible *Q* through its symmetric similarity transform."""
    pi = np.asarray(pi, dtype=float)
    if np.any(pi <= 0):
        raise ValueError("reversible decomposition requires all pi_i > 0")
    sqrt_pi = np.sqrt(pi)
    s = q * (sqrt_pi[:, None] / sqrt_pi[None, :])
    s = 0.5 * (s + s.T)  # enforce exact symmetry against round-off
    eigenvalues, u = np.linalg.eigh(s)
    v = u / sqrt_pi[:, None]
    v_inv = u.T * sqrt_pi[None, :]
    return EigenSystem(v, v_inv, eigenvalues)


def eigendecompose_general(q: np.ndarray) -> EigenSystem:
    """Decompose a general (possibly non-reversible) *Q*.

    Falls back to the complex eigensolver; BEAGLE supports complex
    eigenvalues with a packed real representation, which we keep simple
    here by carrying complex arrays (transition matrices are still real up
    to round-off, and the imaginary part is dropped).
    """
    eigenvalues, v = np.linalg.eig(q)
    v_inv = np.linalg.inv(v)
    if np.allclose(eigenvalues.imag, 0.0) and np.allclose(v.imag, 0.0):
        return EigenSystem(v.real, v_inv.real, eigenvalues.real)
    return EigenSystem(v, v_inv, eigenvalues)


class SubstitutionModel:
    """Base class for all substitution models.

    Subclasses populate :attr:`q` and :attr:`frequencies`; the base class
    caches the eigendecomposition and exposes transition-matrix helpers.
    """

    def __init__(
        self,
        state_space: StateSpace,
        q: np.ndarray,
        frequencies: np.ndarray,
        name: str,
        reversible: bool = True,
    ) -> None:
        n = state_space.n_states
        q = np.asarray(q, dtype=float)
        frequencies = np.asarray(frequencies, dtype=float)
        if q.shape != (n, n):
            raise ValueError(f"Q shape {q.shape} != ({n}, {n})")
        if frequencies.shape != (n,):
            raise ValueError(f"frequency shape {frequencies.shape} != ({n},)")
        if not np.allclose(q.sum(axis=1), 0.0, atol=1e-10):
            raise ValueError("rate matrix rows must sum to zero")
        self.state_space = state_space
        self.q = q
        self.frequencies = frequencies
        self.name = name
        self.reversible = reversible
        self._eigen: Optional[EigenSystem] = None

    @property
    def n_states(self) -> int:
        return self.state_space.n_states

    @property
    def eigen(self) -> EigenSystem:
        """Lazily computed eigendecomposition of :attr:`q`."""
        if self._eigen is None:
            if self.reversible:
                self._eigen = eigendecompose_reversible(self.q, self.frequencies)
            else:
                self._eigen = eigendecompose_general(self.q)
        return self._eigen

    def transition_matrix(self, t: float) -> np.ndarray:
        return self.eigen.transition_matrix(t)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name} ({self.n_states} states)>"
