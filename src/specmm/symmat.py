"""Dense real symmetric matrices: eigendecomposition and PSD tests.

Everything downstream (the strategy domains, the saddle solver, the block
embedding) consumes values produced here. Matrices are stored dense and
symmetrized on construction. Eigendecompositions are one LAPACK call
(``numpy.linalg.eigh``), which returns eigenvectors orthogonal to near
machine precision, as the downstream certificates rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SymMatrix",
    "EigDecomposition",
    "frobenius_inner",
    "eigh",
    "lambda_min",
    "lambda_max",
    "is_psd",
]


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Immutable real symmetric matrix.

    Input is symmetrized as (M + M^T)/2 on construction, so only the
    symmetric part of the argument is retained. The backing array is
    frozen.
    """

    array: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.array, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix order must be at least 1")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        a = (a + a.T) / 2.0
        a.flags.writeable = False
        object.__setattr__(self, "array", a)

    @property
    def n(self) -> int:
        return self.array.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.array))

    def fro_norm(self) -> float:
        return float(np.linalg.norm(self.array))


@dataclass(frozen=True, eq=False)
class EigDecomposition:
    """Eigenvalues in nondecreasing order; column k of ``eigenvectors``
    is a unit eigenvector for ``eigenvalues[k]``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def frobenius_inner(a: SymMatrix, b: SymMatrix) -> float:
    """Frobenius inner product <A, B> = sum_ij A_ij B_ij."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    return float(np.tensordot(a.array, b.array, 2))


def _eigh_raw(a: np.ndarray):
    """(eigenvalues, eigenvectors) as LAPACK returns them: eigenvalues
    nondecreasing, column signs unfixed.

    Callers that only form U f(w) U^T (exponentials, clipped spectra) need
    no sign fix: negating a column negates both factors of each of its
    terms, which is exact in floating point, so the product's floats are
    the same either way. ``eigh`` fixes the signs for callers that read
    the vectors themselves.
    """
    return np.linalg.eigh(a)


def _eigvals_raw(a: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues only. They come from the same LAPACK call as
    ``_eigh_raw``, so both return the same floats for the same input."""
    return np.linalg.eigh(a)[0]


def eigh(a: SymMatrix) -> EigDecomposition:
    """Full eigendecomposition A = U diag(w) U^T.

    Deterministic for a fixed input: eigenvalues nondecreasing and each
    eigenvector's first nonzero component positive. This is the only
    function that fixes signs, since it is the only one that hands
    eigenvectors to callers.
    """
    w, U = _eigh_raw(a.array)
    first = U[np.argmax(U != 0.0, axis=0), np.arange(U.shape[1])]
    U[:, first < 0.0] *= -1.0
    w.flags.writeable = False
    U.flags.writeable = False
    return EigDecomposition(eigenvalues=w, eigenvectors=U)


def lambda_min(a: SymMatrix) -> float:
    """Smallest eigenvalue. Matches eigh(a).eigenvalues[0] exactly."""
    return float(_eigvals_raw(a.array)[0])


def lambda_max(a: SymMatrix) -> float:
    """Largest eigenvalue. Matches eigh(a).eigenvalues[-1] exactly."""
    return float(_eigvals_raw(a.array)[-1])


def is_psd(a: SymMatrix, tol: float) -> bool:
    """Whether lambda_min(A) >= -tol. The slack tol must be nonnegative."""
    if tol < 0.0:
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    return lambda_min(a) >= -tol
