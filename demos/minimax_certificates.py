"""
Two-sided minimax certificates
==============================

For a finite family of symmetric matrices A_1, ..., A_m the library
brackets

    min over unit-trace PSD X of  max_i <A_i, X>

between an upper bound (any feasible X evaluated on its worst matrix)
and a lower bound (lambda_min of any weighted combination). The two
bounds meet at the optimum, so the returned pair of strategies is a
self-contained proof of the value. This script solves a small instance,
recomputes both bounds from scratch, and shows the maximin variant.
"""

import math

from specmm import (
    SaddleConfig,
    load_instance,
    lower_value,
    solve_maximin,
    solve_minimax,
    upper_value,
)

inst, labels = load_instance("demos/data/pauli_pair.json")
print("instance:", labels, f"(n={inst.n}, m={inst.m})")

cert = solve_minimax(inst, SaddleConfig(gap_tol=1e-6))
print(f"\nminimax value in [{cert.lower:.9f}, {cert.upper:.9f}]")
print(f"gap {cert.gap:.3e} after {cert.iterations} Newton steps")
print("known value -sqrt(2)/2 =", -math.sqrt(2.0) / 2.0)

# the certificate carries the strategies that realize each bound; anyone
# can recompute the bracket without trusting the solver internals
print("\nrecomputed upper:", upper_value(cert.x_bar, inst) == cert.upper)
print("recomputed lower:", lower_value(cert.y_bar, inst) == cert.lower)
print("optimal weights: ", [round(float(w), 6) for w in cert.y_bar.weights])

# the mirrored problem maximizes the worst-case payoff over X; for this
# instance the two values are symmetric around zero
mx = solve_maximin(inst, SaddleConfig(gap_tol=1e-6))
print(f"\nmaximin value in [{mx.lower:.9f}, {mx.upper:.9f}]")

# non-convergence is reported, never raised: ask for one Newton step and
# the certificate still holds valid (if loose) bounds
loose = solve_minimax(inst, SaddleConfig(max_iters=1, gap_tol=1e-6))
print(f"\nafter a single Newton step: gap {loose.gap:.3f},",
      f"converged={loose.converged}")
