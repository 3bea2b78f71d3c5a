"""Classic two-player zero-sum matrix games as a diagonal special case.

A matrix game with payoff rows a_1, ..., a_m over n columns embeds into the
spectral problem by placing each row on a diagonal: with A_i = diag(a_i),
mixed column strategies correspond to diagonal spectraplex points and the
game value equals the spectral saddle value. This module computes the game
value exactly (support enumeration over all square supports, solved by
fraction-free integer elimination) so the reduction can be verified
against the iterative solver to stated tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .domains import InstanceSet
from .saddle import SaddleCertificate, SaddleConfig, solve_minimax
from .symmat import SymMatrix

__all__ = [
    "VectorGame",
    "DiagonalReductionReport",
    "embed_diagonal",
    "classic_value_exact",
    "verify_diagonal_reduction",
]

# support enumeration is exponential in min(m, n); this is an exact oracle
# for small games, not a general game solver
MAX_SUPPORT_ORDER = 5


@dataclass(frozen=True)
class VectorGame:
    """Payoff rows of a finite zero-sum game: entry j of row i is the
    payoff when the maximizing player picks row i and the minimizing
    player picks column j."""

    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(float(x) for x in r) for r in self.rows)
        if len(rows) < 1 or len(rows[0]) < 1:
            raise ValueError("a game needs at least one row and one column")
        width = len(rows[0])
        for k, r in enumerate(rows):
            if len(r) != width:
                raise ValueError(f"row {k} has length {len(r)}, expected {width}")
            for x in r:
                if not np.isfinite(x):
                    raise ValueError(f"row {k} contains a non-finite entry")
        object.__setattr__(self, "rows", rows)

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])


@dataclass(frozen=True, eq=False)
class DiagonalReductionReport:
    """Side-by-side exact and spectral values for one game."""

    exact_value: float
    certificate: SaddleCertificate
    difference: float
    within_tolerance: bool
    converged: bool


def embed_diagonal(game: VectorGame) -> InstanceSet:
    """One diagonal matrix per payoff row."""
    return InstanceSet(tuple(SymMatrix(np.diag(r)) for r in game.rows))


def _solve_exact(mat: list[list[int]], rhs: list[int]) -> list[Fraction] | None:
    """Solve an integer system exactly by fraction-free (Bareiss)
    Gauss-Jordan elimination; None if singular.

    Each step replaces every other row r by (p * r - r[col] * pivot row)
    divided by the previous pivot p_prev. By Sylvester's identity the
    entries are then minors of the system, so the division is exact and
    the work stays in Python ints. At the end every diagonal entry is the
    last pivot d (the determinant, up to the sign of the row swaps) and the
    right-hand column holds d times the solution, so Fractions are built
    for the solution entries alone.
    """
    k = len(mat)
    aug = [row + [b] for row, b in zip(mat, rhs)]
    prev = 1
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        top = aug[col]
        p = top[col]
        for r in range(k):
            if r != col:
                f = aug[r][col]
                aug[r] = [(p * a - f * b) // prev for a, b in zip(aug[r], top)]
        prev = p
    return [Fraction(aug[r][k], prev) for r in range(k)]


def _equalizer(payoff, idx, other, transpose):
    """Mixed weights over ``idx`` making every coordinate in ``other``
    indifferent, plus the common value; None if the system is singular.

    With transpose False the weights mix rows against the columns in
    ``other``; with True the roles swap. Unknowns are the weights and the
    value v; equations are indifference on ``other`` and normalization.
    """
    k = len(idx)
    mat = []
    rhs = []
    for j in other:
        row = [payoff[i][j] if not transpose else payoff[j][i] for i in idx]
        mat.append(row + [-1])
        rhs.append(0)
    mat.append([1] * k + [0])
    rhs.append(1)
    sol = _solve_exact(mat, rhs)
    if sol is None:
        return None
    return sol[:k], sol[k]


def classic_value_exact(game: VectorGame) -> float:
    """Exact game value by support enumeration.

    Scans square supports by increasing order and lexicographic position,
    solves the two indifference systems exactly, and accepts the first
    support whose mixed strategies are nonnegative and unimprovable by any
    pure deviation. The payoffs are scaled to integers by the common
    denominator of their exact values, and each system is solved by
    fraction-free elimination over Python ints, so only the solution
    entries are rationals. Exact arithmetic makes the equilibrium checks
    free of rounding judgment calls, and the returned float is the
    rational value correctly rounded; the cost is exponential in
    min(m, n), which is capped at MAX_SUPPORT_ORDER.
    """
    m, n = game.m, game.n
    if min(m, n) > MAX_SUPPORT_ORDER:
        raise ValueError(
            f"support enumeration handles min(m, n) <= {MAX_SUPPORT_ORDER}, got {min(m, n)}"
        )
    # the entries are floats, so dyadic rationals: scaled by their common
    # denominator they become ints with the same ratios, and the value
    # scales with them
    exact = [[Fraction(x) for x in row] for row in game.rows]
    den = math.lcm(*(f.denominator for row in exact for f in row))
    payoff = [[f.numerator * (den // f.denominator) for f in row] for row in exact]
    for k in range(1, min(m, n) + 1):
        for rows_idx in combinations(range(m), k):
            for cols_idx in combinations(range(n), k):
                got = _equalizer(payoff, rows_idx, cols_idx, transpose=False)
                if got is None:
                    continue
                y, v = got
                if any(w < 0 for w in y):
                    continue
                got = _equalizer(payoff, cols_idx, rows_idx, transpose=True)
                if got is None:
                    continue
                x, w = got
                if any(u < 0 for u in x) or w != v:
                    continue
                # maximizer must not gain from any pure row against x
                row_vals = [
                    sum(payoff[i][j] * x[c] for c, j in enumerate(cols_idx)) for i in range(m)
                ]
                if any(rv > v for rv in row_vals):
                    continue
                # minimizer must not gain from any pure column against y
                col_vals = [
                    sum(payoff[i][j] * y[c] for c, i in enumerate(rows_idx)) for j in range(n)
                ]
                if any(cv < v for cv in col_vals):
                    continue
                return float(v / den)
    raise RuntimeError("no equalizing support admitted an equilibrium")


def verify_diagonal_reduction(
    game: VectorGame, cfg: SaddleConfig | None = None
) -> DiagonalReductionReport:
    """Solve the diagonal embedding iteratively and compare with the exact
    value; the comparison passes when the certificate midpoint is within
    gap_tol + 1e-8 of the exact value."""
    cfg = cfg if cfg is not None else SaddleConfig()
    exact = classic_value_exact(game)
    cert = solve_minimax(embed_diagonal(game), cfg)
    difference = abs(cert.midpoint - exact)
    return DiagonalReductionReport(
        exact_value=exact,
        certificate=cert,
        difference=difference,
        within_tolerance=bool(difference <= cfg.gap_tol + 1e-8),
        converged=cert.converged,
    )
