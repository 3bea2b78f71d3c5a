"""Each numerical gate a module keeps as a private constant, pinned at its value.

Each case builds an object whose one quantity sits just inside a gate and
then just outside it: the first must be accepted and the second rejected.
A logged asymmetry warning counts as that gate's rejection.
"""

import logging
from unittest import mock

import numpy as np
import pytest

from specmm import embed
from specmm import (
    DualLift,
    InstanceSet,
    PrimalLift,
    SaddleCertificate,
    SimplexPoint,
    SpectraplexPoint,
    build_embedding,
    extract_dual,
    parse_instance,
)

# one 1x1 matrix [[1.0]]: the shift is 1, so the one top block is [[2.0]];
# two copies of it have two such tops
EMB = build_embedding(InstanceSet([[[1.0]]]))
EMB2 = build_embedding(InstanceSet([[[1.0]], [[1.0]]]))
# diag(1e10, -1e10): the shift is 1e10 + 1, so the one top is diag(2e10 + 1, 1)
EMB_1E10 = build_embedding(InstanceSet([np.diag([1e10, -1e10])]))


def primal():
    # X = [[1.0]], whose trace and PSD gates are the spectraplex point's, pays 2
    return PrimalLift(EMB, SpectraplexPoint([[1.0]]))


def primal_negative(d):
    # X = diag(-e, 1 + e), e = (1 + d)/2e10, is within the spectraplex's eigenvalue
    # gate, and pays (2e10 + 1)(-e) + 1 + e = -d: delta is -d
    e = (1.0 + d) / 2e10
    return PrimalLift(EMB_1E10, SpectraplexPoint(np.diag([-e, 1.0 + e])))


def primal_residual(r):
    # payoffs from a contraction that reads r low: delta is 2 - r, the slack 0,
    # and the einsum measures the residual |2 + 0 - (2 - r)| = r
    payoffs = embed._payoffs
    with mock.patch.object(embed, "_payoffs", lambda tops, x: payoffs(tops, x) - r):
        return primal()


def dual(multiplier):
    # the slack's top block is -2 * multiplier and its corner 1 + multiplier
    return DualLift(EMB, [multiplier], 0.0)


def dual_slot(e):
    # multipliers [-1, e]: the top block is 2 - 2e, index slot 1 is -e and the
    # corner e
    return DualLift(EMB2, [-1.0, e], 0.0)


def extract(s):
    # a weight sum s with the bound 1e-11: the top block 2s - 1e-11 stays within
    # the lift's PSD gate
    return extract_dual(DualLift(EMB, [-s], 1e-11), EMB)


def certificate(gap):
    return SaddleCertificate(
        upper=0.0, lower=-gap, x_bar=SpectraplexPoint(np.eye(1)),
        y_bar=SimplexPoint([1.0]), iterations=1, converged=True, scale=1.0,
    )


def parse(asym):
    return parse_instance({"n": 2, "m": 1, "matrices": [[[1.0, asym], [0.0, 1.0]]]})


def parse_without_warning(asym):
    logger = logging.getLogger("specmm.files")
    with mock.patch.object(logger, "warning", side_effect=ValueError("warned")):
        parse(asym)


GATES = {
    # gate: (build from the quantity, value just inside, value just outside)
    "spectraplex_trace": (lambda d: SpectraplexPoint(np.diag([1.0 + d, 0.0])),
                          0.9e-10, 1.1e-10),
    "spectraplex_eig": (lambda e: SpectraplexPoint(np.diag([1.0 + e, -e])),
                        0.9e-10, 1.1e-10),
    "simplex_entry": (lambda e: SimplexPoint([1.0 + e, -e]), 0.9e-12, 1.1e-12),
    "simplex_sum": (lambda d: SimplexPoint([0.5 + d, 0.5]), 0.9e-12, 1.1e-12),
    "lift_psd_primal": (primal_negative, 0.9e-10, 1.1e-10),
    # the corner 1 + sum(u), and an index slot -u_i: the sum and the sign of
    # the weights extraction reads
    "lift_psd_dual": (lambda e: dual(-(1.0 + e)), 0.9e-10, 1.1e-10),
    "lift_psd_dual_slot": (dual_slot, 0.9e-10, 1.1e-10),
    "lift_residual_primal": (primal_residual, 0.9e-10, 1.1e-10),
    # at or below the gate the weights cannot be rescaled, and a positive
    # bound is then an error
    "degenerate_sum": (extract, 1.1e-12, 0.9e-12),
    "weak_duality": (lambda c: certificate(-c), 0.9e-9, 1.1e-9),
    "asymmetry_warn": (parse_without_warning, 0.9e-9, 1.1e-9),
    "asymmetry_error": (parse, 0.9e-6, 1.1e-6),
}


@pytest.mark.parametrize("build, inside, outside", GATES.values(), ids=GATES.keys())
def test_gate_accepts_just_inside_and_rejects_just_outside(build, inside, outside):
    build(inside)
    with pytest.raises(ValueError):
        build(outside)
