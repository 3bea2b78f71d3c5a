"""
Eigenvalue oracles over the spectraplex
=======================================

The spectraplex is the set of symmetric positive semidefinite matrices
with unit trace. Minimizing a linear functional <A, X> over it always
lands on the smallest eigenvalue of A, attained at a rank-one projector
onto a bottom eigenvector. This script walks through three routes to
that number and shows that they agree.
"""

import numpy as np

from specmm import (
    InstanceSet,
    SpectraplexPoint,
    lambda_min,
    lambda_min_by_bisection,
    upper_value,
)

rng = np.random.default_rng(7)

# a random symmetric 5x5 matrix, held as a plain array
g = rng.uniform(-1.0, 1.0, (5, 5))
a = (g + g.T) / 2.0

# route 1: the smallest eigenvalue directly (LAPACK, via numpy.linalg.eigh)
val = lambda_min(a)
w, u = np.linalg.eigh(a)
print("eigenvalues (nondecreasing):")
print(" ", " ".join(f"{v:+.6f}" for v in w))
print("reconstruction error:", float(np.abs((u * w) @ u.T - a).max()))

# route 2: the rank-one density matrix built from the bottom eigenvector
# is a spectraplex point, and the payoff <A, X> it earns is the oracle
# value; a one-matrix family makes upper_value exactly that payoff
xstar = SpectraplexPoint(np.outer(u[:, 0], u[:, 0]))
print("\nlambda_min direct:    ", val)
print("projector attains:    ", upper_value(xstar, InstanceSet([a])))
print("projector trace:      ", float(np.trace(xstar.array)))
print("projector rank-one check (squared equals itself):",
      float(np.abs(xstar.array @ xstar.array - xstar.array).max()))

# route 3: bisection on whether the shifted matrix has a Cholesky factor,
# calling no eigenvalue routine; a deliberately independent cross-check
b = lambda_min_by_bisection(a)
print("\nbisection route:      ", b)
print("disagreement:         ", abs(b - val))
