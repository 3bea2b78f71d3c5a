"""
Eigenvalue oracles over the spectraplex
=======================================

The spectraplex is the set of symmetric positive semidefinite matrices
with unit trace. Minimizing a linear functional <A, X> over it always
lands on the smallest eigenvalue of A, attained at a rank-one projector
onto a bottom eigenvector. This script walks through the three routes
the library offers to that number and shows that they agree.
"""

import numpy as np

from specmm import (
    SymMatrix,
    eigh,
    frobenius_inner,
    lambda_min,
    lambda_min_by_bisection,
    spectraplex_linear_min,
)

rng = np.random.default_rng(7)

# a random symmetric 5x5 matrix; the constructor symmetrizes its input
g = rng.uniform(-1.0, 1.0, (5, 5))
a = SymMatrix(g)

# route 1: the full spectral decomposition (LAPACK, via numpy.linalg.eigh)
dec = eigh(a)
print("eigenvalues (nondecreasing):")
print(" ", " ".join(f"{v:+.6f}" for v in dec.eigenvalues))
recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
print("reconstruction error:", float(np.abs(recon - a.array).max()))

# route 2: the linear oracle over the spectraplex; the optimizer is a
# rank-one density matrix built from the bottom eigenvector
val, xstar = spectraplex_linear_min(a)
print("\nlinear oracle value:  ", val)
print("lambda_min direct:    ", lambda_min(a))
print("oracle value attained:", frobenius_inner(a, xstar.matrix))
print("optimizer trace:      ", xstar.matrix.trace())
print("optimizer rank-one check (squared equals itself):",
      float(np.abs(xstar.array @ xstar.array - xstar.array).max()))

# route 3: bisection on the shifted positive semidefiniteness predicate,
# touching nothing but is_psd; a deliberately independent cross-check
b = lambda_min_by_bisection(a, 1e-10)
print("\nbisection route:      ", b)
print("disagreement:         ", abs(b - val))

# the minimax engine consumes these oracles millions of entries at a
# time, so the eigensolver also has a values-only fast path; both paths
# return bit-identical eigenvalues
print("\nvalues-only path matches:",
      all(lambda_min(m) == eigh(m).eigenvalues[0]
          for m in (SymMatrix(rng.uniform(-1, 1, (4, 4))) for _ in range(50))))
