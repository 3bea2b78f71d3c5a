"""Seeded instances for the three benchmark workloads.

Every instance comes from a fixed base draw (``BASE_SEED``), so each
workload always holds the same spectra. The run seed only picks, per
instance, a map that leaves the round count and the work per round
unchanged, so runs made with different seeds measure the same work on
different bits:

- ``dense`` and ``wide``: a Haar-random rotation ``A_i -> Q A_i Q^T`` and a
  permutation of the matrices;
- ``games``: a power-of-two scale of the payoffs, which keeps them
  integers and scales every floating-point step of the solver exactly.
  Row and column permutations would not do: they reorder sums, and on the
  5x8 game that alone moves the round count between 575 and 750 (at a
  relative gap of 1e-3).

The scaled ``dense`` instance is never rotated, so its certify fails the
same way on every seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# arXiv 1905.09762, the source paper
BASE_SEED = 190509762

# (n, m) of the rotated dense families, solved in both directions
DENSE_SHAPES = ((6, 4), (8, 6), (10, 8))
DENSE_GAP = 3e-3
# the dense family that is scaled and kept unrotated
HUGE_SHAPE = (6, 4)
HUGE_SCALE = 1e8

WIDE_SHAPES = ((6, 100), (8, 200))
WIDE_GAP = 1e-2

# (rows m, columns n) of the integer matrix games, entries in [-4, 4]
# times a seeded 2**k, k < GAME_SCALE_BITS
GAME_SHAPES = ((2, 3), (3, 3), (3, 5), (4, 6), (5, 7), (5, 8))
GAME_ENTRY = 4
GAME_SCALE_BITS = 6
GAMES_GAP = 1e-4

WORKLOADS = ("dense", "wide", "games")


@dataclass(frozen=True)
class Case:
    """One instance of a workload, as the benchmark hands it to specmm."""

    name: str
    text: str          # instance JSON, as a user would store it
    matrices: np.ndarray  # (m, n, n) copy kept by the checkers
    scale: float       # max_i ||A_i||_2, computed with numpy
    gap_tol: float     # gap target: relative gap times scale
    maximin: bool      # also solve max_X min_i <A_i, X>
    rows: tuple | None  # payoff rows of a game, for classic_value_exact


def _base(index: int) -> np.random.Generator:
    return np.random.default_rng([BASE_SEED, index])


def _symmetric_family(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    g = rng.standard_normal((m, n, n))
    return (g + g.transpose(0, 2, 1)) / 2.0


def _haar(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _rotate(rng: np.random.Generator, mats: np.ndarray) -> np.ndarray:
    q = _haar(rng, mats.shape[1])
    out = q @ mats @ q.T
    # exact symmetry, so the instance file carries no asymmetry
    out = (out + out.transpose(0, 2, 1)) / 2.0
    return out[rng.permutation(mats.shape[0])]


def _case(name, mats, rel_gap, maximin=False, rows=None) -> Case:
    mats = np.ascontiguousarray(mats, dtype=float)
    m, n, _ = mats.shape
    doc = {"n": n, "m": m, "matrices": mats.tolist()}
    scale = float(np.abs(np.linalg.eigvalsh(mats)).max())
    return Case(
        name=name,
        text=json.dumps(doc),
        matrices=mats,
        scale=scale,
        gap_tol=rel_gap * scale,
        maximin=maximin,
        rows=rows,
    )


def _dense(rng):
    cases = []
    for k, (n, m) in enumerate(DENSE_SHAPES):
        mats = _rotate(rng, _symmetric_family(_base(k), n, m))
        cases.append(_case(f"dense-{n}x{m}", mats, DENSE_GAP, maximin=True))
    n, m = HUGE_SHAPE
    mats = HUGE_SCALE * _symmetric_family(_base(99), n, m)
    cases.append(_case(f"dense-{n}x{m}-1e8", mats, DENSE_GAP, maximin=True))
    return cases


def _wide(rng):
    cases = []
    for k, (n, m) in enumerate(WIDE_SHAPES):
        mats = _rotate(rng, _symmetric_family(_base(100 + k), n, m))
        cases.append(_case(f"wide-{n}x{m}", mats, WIDE_GAP))
    return cases


def _games(rng):
    cases = []
    for k, (m, n) in enumerate(GAME_SHAPES):
        payoff = _base(200 + k).integers(-GAME_ENTRY, GAME_ENTRY + 1, (m, n))
        payoff = payoff.astype(float) * 2.0 ** rng.integers(GAME_SCALE_BITS)
        rows = tuple(tuple(r) for r in payoff.tolist())
        mats = np.stack([np.diag(r) for r in payoff])
        cases.append(_case(f"game-{m}x{n}", mats, GAMES_GAP, rows=rows))
    return cases


def make_cases(workload: str, seed: int) -> list[Case]:
    """The instances of one workload for one run seed, serialised."""
    makers = {"dense": _dense, "wide": _wide, "games": _games}
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return makers[workload](rng)
