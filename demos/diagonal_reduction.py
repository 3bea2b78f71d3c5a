"""
Classic matrix games as diagonal instances
==========================================

A finite zero-sum matrix game is the special case where every payoff
matrix is diagonal: row j of the payoff table becomes the diagonal of
A_j, mixed strategies become diagonal density matrices, and the
spectral minimax value collapses to the classic game value. The library
exploits this as a cross-check: an exact integer simplex solver of the
game's linear program on one side, the spectral engine on the other.
"""

import json
from fractions import Fraction

from specmm import (
    SaddleConfig,
    VectorGame,
    classic_value_exact,
    embed_diagonal,
    solve_minimax,
    verify_diagonal_reduction,
)

with open("demos/data/matching_pennies.json", encoding="utf-8") as fh:
    rows = json.load(fh)["vectors"]
game = VectorGame(tuple(tuple(r) for r in rows))

# the exact route solves the game's linear program by fraction-free simplex
# pivots over integers and checks the equilibrium it reads off exactly
print("matching pennies exact value:", classic_value_exact(game))

# the spectral route embeds the rows as diagonals and runs the solver
inst = embed_diagonal(game)
cert = solve_minimax(inst, SaddleConfig(gap_tol=1e-6))
print(f"spectral bracket: [{cert.lower:.9f}, {cert.upper:.9f}]")

# one call runs both routes and compares them
report = verify_diagonal_reduction(game)
print("difference:", report.difference,
      " within tolerance:", report.within_tolerance)

# a game with no saddle point in pure strategies has a fractional value,
# and the integer arithmetic recovers it exactly
mixed = VectorGame((
    (3.0, 1.0),
    (1.0, 2.0),
))
v = classic_value_exact(mixed)
print("\nmixed 2x2 game value:", v,
      " as a fraction:", Fraction(v).limit_denominator(100))
rep = verify_diagonal_reduction(mixed, SaddleConfig(gap_tol=1e-5))
print("spectral agreement:", rep.difference < 1e-4)
