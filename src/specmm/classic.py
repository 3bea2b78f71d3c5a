"""Classic two-player zero-sum matrix games as a diagonal special case.

A matrix game with payoff rows a_1, ..., a_m over n columns embeds into the
spectral problem by placing each row on a diagonal: with A_i = diag(a_i),
mixed column strategies correspond to diagonal spectraplex points and the
game value equals the spectral saddle value. This module computes the game
value exactly, by the integer simplex with fraction-free pivots that the
solver in ``saddle`` also runs to finish a diagonal family on its face, so the
reduction can be verified against the solve to stated tolerances. That solve
may finish a game of at most n + 1 rows before any interior-point step, and
the check keeps its meaning: both of its bounds come from the spectral
oracles, a best response to X and a least eigenvalue of sum_i y_i A_i.
The simplex remembers its last solve by the float game and its rows, so a value
asked after a solve that finished the same game on all its rows, or before one
that will, reuses that simplex, bit for bit: the game is converted to ints and
pivoted on once for both.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .domains import InstanceSet
from .saddle import SaddleCertificate, SaddleConfig, _simplex, solve_minimax

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
            # a plain float or int skips the Real check, an ABC's; abs(x) <= big also
            # refuses NaN, inf and an int beyond the float range
            if not all((type(x) in (float, int) or isinstance(x, Real) and type(x) is not bool)
                       and abs(x) <= big for x in r):
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


def classic_value_exact(game: VectorGame) -> float:
    """Exact game value by one simplex solve over Python ints.

    ``saddle._simplex`` scales the payoffs to ints by the common denominator of
    their exact values and solves the game on all its rows: Bland's rule with
    fraction-free pivots, then one exact check that its x and y are an
    equilibrium (RuntimeError if not). The returned float is the rational value
    correctly rounded. The simplex's last solve is remembered by its float game
    and rows, so a value asked right after a solve of the same game that
    finished on all its rows, in their order, neither converts nor pivots and
    is that solve's, bit for bit.
    """
    _, _, z, v, den = _simplex(game.rows, tuple(range(game.m)))
    # int true division rounds correctly
    return v / (z * den)


def verify_diagonal_reduction(
    game: VectorGame, cfg: SaddleConfig | None = None
) -> DiagonalReductionReport:
    """Solve the diagonal embedding with ``solve_minimax`` and compare with
    the exact value; the comparison passes when the certificate midpoint is
    within gap_tol + 1e-8 of the exact value. The solve may close on its
    exact finish with no Newton step, but its bounds are still the spectral
    oracles' values at its strategies, not the simplex's. That finish, on all
    the rows of a game of at most n + 1 of them, is the simplex that the exact
    value has just run, so the two pivot once between them."""
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
