"""Classic two-player zero-sum matrix games as a diagonal special case.

A matrix game with payoff rows a_1, ..., a_m over n columns embeds into the
spectral problem by placing each row on a diagonal: with A_i = diag(a_i),
mixed column strategies correspond to diagonal spectraplex points and the
game value equals the spectral saddle value. This module computes the game
value exactly (one linear program solved by an integer simplex with
fraction-free pivots) so the reduction can be verified against the
interior-point solver to stated tolerances.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .domains import InstanceSet
from .saddle import SaddleCertificate, SaddleConfig, solve_minimax

__all__ = [
    "VectorGame",
    "DiagonalReductionReport",
    "embed_diagonal",
    "classic_value_exact",
    "verify_diagonal_reduction",
]

@dataclass(frozen=True)
class VectorGame:
    """Payoff rows of a finite zero-sum game: entry j of row i is the
    payoff when the maximizing player picks row i and the minimizing
    player picks column j. A row is an iterable of real numbers; as in
    ``parse_instance``, strings and booleans are not numbers."""

    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        rows, big = [], float(np.finfo(float).max)
        for k, r in enumerate(self.rows):
            # float() would read the row "12" as (1.0, 2.0), and True as 1.0
            if isinstance(r, (str, bytes)) or not isinstance(r, Iterable):
                raise ValueError(f"row {k} is not a list of numbers")
            r = tuple(r)
            # abs(x) <= big also refuses NaN, inf and an int beyond the float range
            if not all(isinstance(x, Real) and type(x) is not bool and abs(x) <= big for x in r):
                raise ValueError(f"row {k} has an entry that is not a finite number")
            rows.append(tuple(map(float, r)))
        if not rows or not rows[0]:
            raise ValueError("a game needs at least one row and one column")
        for k, r in enumerate(rows):
            if len(r) != len(rows[0]):
                raise ValueError(f"row {k} has length {len(r)}, expected {len(rows[0])}")
        object.__setattr__(self, "rows", tuple(rows))

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


def embed_diagonal(game: VectorGame) -> InstanceSet:
    """One diagonal matrix per payoff row; every entry off it is +0.0."""
    return InstanceSet([np.diag(r) for r in game.rows])


def _pivot(tab: list[list[int]], r: int, c: int, prev: int) -> int:
    """One fraction-free (Bareiss) pivot on ``tab[r][c]``, in place.

    Every other row becomes (p * row - row[c] * pivot row) // prev, where p
    is the pivot and prev the pivot before it (1 at the start); the pivot
    row is kept. By Sylvester's identity the entries are then minors of the
    starting table, so the division is exact and the work stays in Python
    ints (Edmonds, J. Res. NBS 1967): each entry is the rational table's
    entry times p, the determinant of the pivoted columns up to sign.
    Returns p, the prev of the next pivot.
    """
    top = tab[r]
    p = top[c]
    for i, row in enumerate(tab):
        if i != r:
            f = row[c]
            tab[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
    return p


def classic_value_exact(game: VectorGame) -> float:
    """Exact game value by one simplex solve over Python ints.

    The payoffs are scaled to integers by the common denominator of their
    exact values and shifted so every entry of B = A + shift is at least
    1. Then max sum(u) s.t. B u <= 1, u >= 0 is bounded with optimum
    1 / (value + shift), and at the optimum u and the slack duals rescale
    to the minimizer's column strategy x and the maximizer's row strategy
    y. The tableau starts from the slack basis and every step is one
    fraction-free ``_pivot``, so no entry is ever a fraction. Bland's rule
    (Math. Oper. Res. 1977) picks the lowest-index column with a negative
    reduced cost and, among rows tied in the ratio test, the lowest basic
    index, so degenerate games cannot cycle. The equilibrium is then
    checked exactly: x and y are nonnegative and sum to 1, and
    max_i (A x)_i = value = min_j (y^T A)_j. The returned float is the
    rational value correctly rounded.
    """
    m, n = game.m, game.n
    # the entries are floats, so dyadic rationals p / q in lowest terms:
    # scaled by their common denominator they become ints with the same
    # ratios, and the value scales with them
    exact = [[x.as_integer_ratio() for x in row] for row in game.rows]
    den = math.lcm(*(q for row in exact for _, q in row))
    payoff = [[p * (den // q) for p, q in row] for row in exact]
    shift = 1 - min(min(row) for row in payoff)
    # row i reads (B u)_i + s_i = 1; the last row is the objective, whose
    # reduced costs start at -1 on u and 0 on the slacks s
    tab = [
        [a + shift for a in row] + [int(k == i) for k in range(m)] + [1]
        for i, row in enumerate(payoff)
    ]
    tab.append([-1] * n + [0] * (m + 1))
    basis = list(range(n, n + m))
    d = 1
    while True:
        c = next((j for j, v in enumerate(tab[m][:-1]) if v < 0), None)
        if c is None:
            break
        # ratio test by cross-multiplication, every table row sharing the
        # positive factor d; B u <= 1 is bounded, so some entry is positive
        r = None
        for i in range(m):
            a = tab[i][c]
            if a > 0:
                if r is None:
                    r = i
                    continue
                lhs, rhs = tab[i][-1] * tab[r][c], tab[r][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                    r = i
        d = _pivot(tab, r, c, d)
        basis[r] = c
    # the optimum sum(u) is z / d, so value + shift = d / z; the
    # strategies are read off scaled by z, which keeps the check in ints
    z = tab[m][-1]
    x = [0] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tab[i][-1]
    y = tab[m][n : n + m]
    vz = d - shift * z
    if (
        min(x) < 0
        or min(y) < 0
        or sum(x) != z
        or sum(y) != z
        or max(sum(a * w for a, w in zip(row, x)) for row in payoff) != vz
        or min(sum(w * row[j] for w, row in zip(y, payoff)) for j in range(n)) != vz
    ):
        raise RuntimeError("the simplex optimum is not an equilibrium")
    # int true division rounds correctly
    return vz / (z * den)


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
    )
