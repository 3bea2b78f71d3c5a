"""
A tour of the block SDP embedding
=================================

The minimax problem embeds into one standard-form semidefinite program
over block-diagonal matrices of size n + m + 1: the original n x n
block, one diagonal slack per payoff matrix, and a single slot whose
value delta is minimized. Feasible points of the original problem lift
to feasible points of the SDP and back, and any primal-dual pair brackets
the optimum. This script builds the embedding, inspects both lifts, and
prints the sparse SDPA text an external solver would consume. Each lift
keeps the embedding it was built on, and each fact of a certificate is
checked once, by the type that carries it: X's PSD-ness and unit trace by
the spectraplex point, the slack's blocks by the dual lift.
"""

import numpy as np

from specmm import (
    InstanceSet,
    SimplexPoint,
    build_embedding,
    extract_dual,
    interior_dual_point,
    interior_primal_point,
    lambda_min,
    lift_dual,
    lift_primal,
    load_instance,
    sample_spectraplex,
    sdpa_text,
    weak_duality_check,
    weighted_combination,
)

inst, _ = load_instance("demos/data/pauli_pair.json")

# payoff matrices with negative eigenvalues are shifted up front so that
# the SDP variable can stay PSD; the shift is recorded and subtracted
# from every number reported back
emb = build_embedding(inst)
print(f"blocks: {inst.n} x {inst.n} original, {inst.m} slacks, 1 objective"
      f" (total {inst.n + inst.m + 1}); diagonal shift {emb.shift}")

# lift a random density matrix: the last slot carries the objective, the
# worst payoff, and the lift derives the slacks, which absorb the gap between
# each payoff and it; the lift keeps the point itself, whose own gates made
# X PSD with unit trace
x = sample_spectraplex(inst.n, np.random.default_rng(0))
p = lift_primal(x, inst, emb)
print("\nprimal lift: objective delta =", p.objective)
print("slacks:", p.slacks, " constraint residuals:", p.residuals.max())
print("keeps its point and its embedding:", p.x is x, p.emb is emb)

# the canonical interior point is the normalized identity with headroom
# in every slack; its existence is what makes strong duality automatic
p0 = interior_primal_point(emb)
print("interior primal slacks:", p0.slacks)

# dual side: a weight vector y lifts to multipliers whose slack matrix
# must stay PSD; the certified lower bound rides in the t coordinate
y = SimplexPoint.uniform(inst.m)
t = lambda_min(weighted_combination(y, inst)) + emb.shift
d = lift_dual(y, t, inst, emb)
print("\ndual lift: lambda_min of slack =", d.lambda_min)

d0 = interior_dual_point(emb)
print("interior dual slack: lambda_min =", d0.lambda_min)

# weak duality: every primal objective sits above every dual objective
print("\nweak duality margins (must be >= 0):")
for name, pl in (("random", p), ("interior", p0)):
    for dname, dl in (("uniform", d), ("interior", d0)):
        print(f"  {name:8s} vs {dname:8s} {weak_duality_check(pl, dl, emb):.6f}")

# round-trip: the extracted weights and bound match what went in; the bound
# subtracts any negative eigenvalue of the slack before it rescales
back = extract_dual(d, emb)
print("\nextracted weights:", back.weights, " bound:", back.lower_bound)

# a lift is read with its own embedding only: the embedding of another
# instance (a different shift) would have moved the bound, so it is refused
try:
    extract_dual(d, build_embedding(InstanceSet(np.eye(2)[None])))
except ValueError as err:
    print("another instance's embedding:", err)

# the whole embedding serializes to sparse SDPA text, byte-stable across
# runs, so external SDP solvers can confirm the value independently
print("\nSDPA text:")
print(sdpa_text(emb), end="")
