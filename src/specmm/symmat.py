"""Eigenvalues of dense real symmetric matrices.

Everything downstream (the strategy domains, the saddle solver, the block
embedding) consumes values produced here. Matrices are plain float
arrays, symmetric where they are built (``InstanceSet`` and
``SpectraplexPoint`` symmetrise theirs, and a combination of a symmetric
stack is symmetric); LAPACK reads one triangle. Eigendecompositions are
one LAPACK call (``numpy.linalg.eigh``), which returns eigenvectors
orthogonal to near machine precision, as the downstream certificates
rely on.
"""

from __future__ import annotations

import numpy as np

__all__ = ["lambda_min"]


def _eigh_raw(a: np.ndarray):
    """(eigenvalues, eigenvectors) as LAPACK returns them: eigenvalues
    nondecreasing, column signs unfixed.

    Callers form U f(w) U^T (exponentials, clipped spectra) and, in the
    saddle solver's face step, Q^T M Q and Q M' Q^T, M' being computed in
    Q's basis. None needs a sign fix. Negating column j of U negates both
    factors of each of its terms in U f(w) U^T. Negating column j of Q
    negates row and column j of Q^T M Q, term by term, and so of all that
    the face step derives in that basis (its linear system's rows and
    unknowns change sign alike, and partial pivoting reads magnitudes);
    Q M' Q^T negates them back. Each negation is exact in floating point,
    so the floats that leave these products are the same either way.
    """
    return np.linalg.eigh(a)


def _eigvals_raw(a: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues only. They come from the same LAPACK call as
    ``_eigh_raw``, so both return the same floats for the same input."""
    return np.linalg.eigh(a)[0]


def lambda_min(a: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric array ``a``."""
    return float(_eigvals_raw(a)[0])

