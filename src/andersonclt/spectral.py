"""Symmetric eigendecomposition and spectral functional calculus.

Every solve goes through one dispatch: chains use the tridiagonal LAPACK
solvers on their two bands and never build a dense matrix; other
Hamiltonians, raw matrices and stacks of raw matrices use the dense symmetric
solvers.  Diagonal matrix elements <delta_n, f(H) delta_n> come from the
eigenvector overlaps, traces from the eigenvalues alone.

One trace needs no spectrum: ``chain_arctan_traces`` computes Tr arctan(H)
of a batch of chains as Im log det(I + iH), through the O(N) pivot
recurrence of the tridiagonal determinant, vectorised across the chains.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from .lattice import Hamiltonian
from .testfuncs import derivative_of, function_of

__all__ = [
    "EigenDecomposition",
    "EigensolveError",
    "chain_arctan_traces",
    "eig_sym",
    "eigenvalues_sym",
    "spectral_diagonal",
    "trace_function",
    "hellmann_feynman_check",
    "HellmannFeynmanResult",
]

DEGENERACY_GAP = 1e-10
# every pivot of det(I + iH) has real part >= 1 in exact arithmetic
PIVOT_FLOOR = 1.0 - 1e-12


class EigensolveError(RuntimeError):
    """Eigensolver failure, annotated with the matrix provenance.

    ``index`` is the position of the failing matrix in a batch, when known.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues with aligned orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    source_dim: int


def _dense(H) -> np.ndarray:
    return H.matrix if isinstance(H, Hamiltonian) else np.asarray(H, dtype=np.float64)


def _solve(H, vectors: bool):
    """Eigenvalues (and eigenvectors) of a Hamiltonian, raw matrix or stack."""
    chain = isinstance(H, Hamiltonian) and H.is_chain and len(H.cube) > 1
    matrix = None if chain else _dense(H)
    try:
        if chain:
            diag, off = H.tridiagonal()
            if vectors:
                return eigh_tridiagonal(diag, off)
            return eigvalsh_tridiagonal(diag, off, lapack_driver="sterf")
        # numpy's drivers return garbage on NaN/inf input instead of failing
        matrix = np.asarray_chkfinite(matrix)
        return np.linalg.eigh(matrix) if vectors else np.linalg.eigvalsh(matrix)
    except (np.linalg.LinAlgError, ValueError) as exc:
        fingerprint = (
            H.provenance if isinstance(H, Hamiltonian) else f"dim={matrix.shape[-1]}"
        )
        raise EigensolveError(
            f"symmetric eigensolve failed (matrix fingerprint: {fingerprint})"
        ) from exc


def eig_sym(H) -> EigenDecomposition:
    """Full symmetric eigendecomposition of a Hamiltonian or raw matrix."""
    w, v = _solve(H, vectors=True)
    return EigenDecomposition(w, v, len(w))


def eigenvalues_sym(H) -> np.ndarray:
    """Ascending eigenvalues only; ``H`` may also be a stack of raw matrices."""
    return _solve(H, vectors=False)


def chain_arctan_traces(diagonals) -> tuple[np.ndarray, float]:
    """Tr arctan(H_r) of unit-hopping chains, with no eigensolve.

    Row r of ``diagonals`` is the diagonal of chain H_r.  Tr arctan(H) =
    Im log det(I + iH), and det(I + iH) is the product of the pivots

        q_1 = 1 + i v_1,    q_j = (1 + i v_j) + 1 / q_{j-1}.

    Every Re q_j >= 1, so each Arg q_j lies in (-pi/2, pi/2).  The same holds
    along H -> tH for t in [0, 1], where both sum_j Arg q_j and
    sum_k arctan(t E_k) are continuous and vanish at t = 0; so they are equal,
    with no 2 pi ambiguity.  The recurrence is one loop over the sites on
    vectors across the chains; each trace is bit for bit the same whatever
    other chains share its batch.

    Returns the traces and the smallest pivot real part.  Raises
    EigensolveError, with ``index`` set to the chain, on a non-finite
    diagonal entry or a pivot with real part below ``PIVOT_FLOOR``.
    """
    v = np.asarray(diagonals, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] == 0:
        raise ValueError(f"need a (chains, sites) array with sites >= 1, got shape {v.shape}")
    finite = np.isfinite(v).all(axis=1)
    if not finite.all():
        chain = int(np.argmin(finite))
        raise EigensolveError(f"chain {chain} of the batch has a non-finite diagonal", chain)
    q = np.empty(v.T.shape, dtype=np.complex128)  # q[j] holds the pivots of site j
    q.real = 1.0
    q.imag = v.T
    for j in range(1, len(q)):
        q[j] += 1.0 / q[j - 1]
    pivots = q.real.min(axis=0)
    chain = int(np.argmin(pivots))
    if not pivots[chain] >= PIVOT_FLOOR:
        raise EigensolveError(
            f"chain {chain} of the batch has a pivot with real part "
            f"{pivots[chain]!r} < {PIVOT_FLOOR!r}",
            chain,
        )
    # Arg q_j with one chain per contiguous row, so that each trace is the
    # same pairwise sum whatever the batch it came in
    args = np.arctan2(q.imag.T, q.real.T, out=np.empty_like(v))
    return np.sum(args, axis=1), float(pivots[chain])


def spectral_diagonal(dec: EigenDecomposition, f, site_index: int) -> float:
    """<delta_n, f(H) delta_n> = sum_k f(E_k) |psi_k(n)|^2."""
    if not 0 <= site_index < dec.source_dim:
        raise IndexError(f"site index {site_index} out of range {dec.source_dim}")
    weights = np.square(dec.eigenvectors[site_index, :])
    return float(weights @ np.asarray(function_of(f)(dec.eigenvalues), dtype=np.float64))


def trace_function(dec: EigenDecomposition, f) -> float:
    """Tr f(H) = sum_k f(E_k)."""
    return float(np.sum(np.asarray(function_of(f)(dec.eigenvalues), dtype=np.float64)))


@dataclass(frozen=True)
class HellmannFeynmanResult:
    formula: float
    finite_diff: float
    abs_err: float


def hellmann_feynman_check(H, f, site_index: int, h: float) -> HellmannFeynmanResult:
    """Compare the trace-derivative formula with a central difference.

    The derivative of Tr f(H + lambda P_n) at lambda = 0, where P_n projects
    onto the basis vector at ``site_index``, equals <delta_n, f'(H) delta_n>.
    The finite difference [Tr f(H + h P_n) - Tr f(H - h P_n)] / (2h) agrees to
    O(h^2) for three-times differentiable f.
    """
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    dec = eig_sym(H)
    gaps = np.diff(dec.eigenvalues)
    if len(gaps) and float(np.min(gaps)) < DEGENERACY_GAP:
        warnings.warn(
            "near-degenerate spectrum (gap < 1e-10); the trace-derivative "
            "formula sums over the full eigenbasis and remains valid",
            stacklevel=2,
        )
    formula = spectral_diagonal(dec, derivative_of(f), site_index)

    shifted = np.array([_dense(H)] * 2)
    shifted[:, site_index, site_index] += (h, -h)
    plus, minus = np.sum(function_of(f)(eigenvalues_sym(shifted)), axis=1).tolist()
    finite_diff = (plus - minus) / (2.0 * h)
    return HellmannFeynmanResult(formula, finite_diff, abs(formula - finite_diff))
