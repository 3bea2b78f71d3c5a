"""Strategy domains, the instance, and the contractions between them.

The two feasible sets of the matrix game live here: the spectraplex (unit
trace, positive semidefinite) for the matrix player and the probability
simplex for the index player. Both are validated read-only arrays. The
contractions of the stacked family with a strategy (the payoffs
<A_i, X> and the combination sum_i y_i A_i) are the ones the saddle
solver and the embedding are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .symmat import lambda_min, _eigh_raw, _eigvals_raw

__all__ = [
    "SpectraplexPoint",
    "SimplexPoint",
    "InstanceSet",
    "lambda_min_by_bisection",
    "best_response_index",
    "weighted_combination",
    "sample_spectraplex",
    "sample_simplex",
]

_TRACE_TOL = 1e-10
_EIG_TOL = 1e-10
_ENTRY_TOL = 1e-12
_SUM_TOL = 1e-12


def _symmetric(a) -> np.ndarray:
    """(A + A^T)/2 as a new float array; A must be square and nonempty, and (A + A^T)/2
    finite, which is checked once symmetrised, as ``InstanceSet`` checks it, so a finite
    A whose symmetrisation overflows is refused without a ``RuntimeWarning``."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        s = (a + a.T) / 2.0
    if not np.isfinite(s).all():
        raise ValueError("matrix entries must be finite once symmetrised")
    return s


@dataclass(frozen=True, eq=False)
class SpectraplexPoint:
    """Unit-trace positive semidefinite matrix (a density matrix).

    ``array`` is a read-only copy of the input's symmetric part
    (A + A^T)/2. Construction validates trace within 1e-10 of one and
    smallest eigenvalue >= -1e-10; worse violations raise instead of being
    repaired silently.
    """

    array: np.ndarray

    def __post_init__(self):
        a = _symmetric(self.array)
        a.flags.writeable = False
        object.__setattr__(self, "array", a)
        tr = float(np.trace(a))
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValueError(f"trace must be 1, got {tr!r}")
        lo = lambda_min(a)
        if lo < -_EIG_TOL:
            raise ValueError(f"matrix must be positive semidefinite, lambda_min={lo!r}")

    @property
    def n(self) -> int:
        return self.array.shape[0]


@dataclass(frozen=True, eq=False)
class SimplexPoint:
    """Probability vector: entries >= -1e-12, sum within 1e-12 of one."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.shape[0] < 1:
            raise ValueError(f"expected a nonempty vector, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if w.min() < -_ENTRY_TOL:
            raise ValueError(f"weights must be nonnegative, min={float(w.min())!r}")
        s = float(w.sum())
        if abs(s - 1.0) > _SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {s!r}")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def m(self) -> int:
        return self.weights.shape[0]

    @staticmethod
    def uniform(m: int) -> "SimplexPoint":
        return SimplexPoint(np.full(m, 1.0 / m))


@dataclass(frozen=True, eq=False)
class InstanceSet:
    """Finite family of symmetric matrices of a common order, stored once as
    ``stacked``: a read-only float (m, n, n) array built from any (m, n, n)
    array-like, symmetrised as (S + S^T)/2 and required finite after that."""

    stacked: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.stacked, dtype=float)
        if s.size == 0 or s.ndim != 3 or s.shape[1] != s.shape[2]:
            raise ValueError(f"expected at least one matrix of one order, as an (m, n, n) "
                             f"stack, got shape {s.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            s = s + s.transpose(0, 2, 1)
            s /= 2.0  # in place, bit for bit (S + S^T)/2: one (m, n, n) temporary, not two
        finite = np.isfinite(s).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"matrix {int(np.argmin(finite))} is not finite once symmetrised")
        s.flags.writeable = False
        object.__setattr__(self, "stacked", s)

    @property
    def m(self) -> int:
        return self.stacked.shape[0]

    @property
    def n(self) -> int:
        return self.stacked.shape[1]

    @cached_property
    def spectra(self) -> np.ndarray:
        """(m, n) read-only eigenvalues of each matrix, nondecreasing, by one batched call."""
        w = _eigvals_raw(self.stacked)
        w.flags.writeable = False
        return w


def lambda_min_by_bisection(a: np.ndarray) -> float:
    """Smallest eigenvalue via the characterization
    lambda_min(A) = sup { t : A - t*I is positive definite }, located by bisection.

    Each step asks whether A - t*I has a Cholesky factor (LAPACK's potrf), so
    no eigenvalue routine is called. A is scaled exactly, by the power of two
    that brings its largest entry into [1/2, 1), so nothing overflows and the
    result at 2^j * A is 2^j times the one at A. The bracket +-||A||_F shrinks to
    2^-52 of that, Cholesky's own O(n u ||A||) precision, or to two adjacent
    floats. A is symmetrised as (A + A^T)/2 and must be square, nonempty and finite.
    """
    a = _symmetric(a)
    if not a.any():
        return 0.0
    e = int(np.frexp(np.abs(a).max())[1])
    a = np.ldexp(a, -e)
    fro = float(np.linalg.norm(a))
    lo, hi, width = -fro, fro, np.ldexp(fro, -52)
    ident = np.eye(len(a))
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # no float lies strictly inside the bracket
            break
        try:
            np.linalg.cholesky(a - mid * ident)
            lo = mid
        except np.linalg.LinAlgError:
            hi = mid
    return float(np.ldexp(0.5 * (lo + hi), e))


# The two contractions of an (m, n, n) stack, flattened to (m, n*n): the one
# np.dot call of np.tensordot and its floats, without its axis bookkeeping.
def _combination(y: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_i y_i A_i as an (n, n) array: (1, m) @ (m, n*n)."""
    m, n, _ = stack.shape
    return np.dot(y.reshape(1, -1), stack.reshape(m, n * n)).reshape(n, n)


def _payoffs(stack: np.ndarray, x: np.ndarray) -> np.ndarray:
    """<A_i, X> for every i as an (m,) array: (m, n*n) @ (n*n, 1)."""
    return np.dot(stack.reshape(len(stack), -1), x.reshape(-1, 1)).reshape(-1)


def best_response_index(x: SpectraplexPoint, inst: InstanceSet) -> tuple[int, float]:
    """Index attaining max_i <A_i, X> and the attained value.

    Ties break to the lowest index. Indices are zero-based positions into
    ``inst.stacked``.
    """
    if x.n != inst.n:
        raise ValueError(f"dimension mismatch: point has n={x.n}, instance n={inst.n}")
    vals = _payoffs(inst.stacked, x.array)
    k = int(np.argmax(vals))
    return k, float(vals[k])


def weighted_combination(y: SimplexPoint, inst: InstanceSet) -> np.ndarray:
    """sum_i y_i A_i as a read-only (n, n) array, by the solver's own contraction."""
    if y.m != inst.m:
        raise ValueError(f"dimension mismatch: point has m={y.m}, instance m={inst.m}")
    c = _combination(y.weights, inst.stacked)
    c.flags.writeable = False
    return c


def sample_spectraplex(n: int, rng: np.random.Generator) -> SpectraplexPoint:
    """Random interior spectraplex point: normalized matrix exponential of
    a random symmetric matrix (spectrum shifted before exponentiation, so
    the construction never overflows)."""
    g = rng.uniform(-1.0, 1.0, (n, n))
    w, u = _eigh_raw((g + g.T) / 2.0)
    e = np.exp(w - w[-1])
    x = (u * e) @ u.T
    x = (x + x.T) / (2.0 * e.sum())
    return SpectraplexPoint(x)


def sample_simplex(m: int, rng: np.random.Generator) -> SimplexPoint:
    """Random simplex point, uniform (Dirichlet(1, ..., 1))."""
    e = rng.exponential(size=m)
    return SimplexPoint(e / e.sum())
