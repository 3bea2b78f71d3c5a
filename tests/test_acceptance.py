"""End-to-end acceptance battery.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (run with -s to see them as they happen). The whole module must
finish in under 60 seconds; a module-scoped timer enforces that.
"""

import math
import time

import numpy as np
import pytest
from conftest import random_instance, random_orthogonal, random_symmetric

from specmm import (
    InstanceSet,
    SaddleConfig,
    SpectraplexPoint,
    VectorGame,
    build_embedding,
    lambda_min,
    lambda_min_by_bisection,
    lift_dual,
    lift_primal,
    interior_dual_point,
    interior_primal_point,
    parse_instance,
    sample_simplex,
    sample_spectraplex,
    sdpa_text,
    solve_maximin,
    solve_minimax,
    upper_value,
    verify_diagonal_reduction,
    weak_duality_check,
    weighted_combination,
)

SQ2_HALF = math.sqrt(2.0) / 2.0
SEED = 20260816


def _verdict(num: int, name: str, ok: bool, detail: str):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module", autouse=True)
def _runtime_budget():
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"acceptance battery runtime {elapsed:.1f}s (budget 60s)")
    assert elapsed < 60.0, f"acceptance battery took {elapsed:.1f}s, budget is 60s"


@pytest.fixture(scope="module")
def hundred_matrices():
    rng = np.random.default_rng(SEED + 3)
    return [random_symmetric(rng, int(rng.integers(1, 9))) for _ in range(100)]


def test_criterion_1_strong_duality_random_instances():
    rng = np.random.default_rng(SEED)
    cfg = SaddleConfig(max_iters=100, gap_tol=1e-3)
    worst_gap, worst_iters, fails = 0.0, 0, 0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        cert = solve_minimax(random_instance(rng, n, m), cfg)
        worst_gap = max(worst_gap, cert.gap)
        worst_iters = max(worst_iters, cert.iterations)
        fails += not cert.converged
    _verdict(
        1,
        "strong duality on 50 random instances",
        fails == 0 and worst_gap <= 1e-3,
        f"{50 - fails}/50 converged, worst gap {worst_gap:.3e}, "
        f"worst iterations {worst_iters}",
    )


def test_forty_random_instances_reach_relative_gap_1e_6():
    # the reference family for the interior-point solver, n and m in [2, 16)
    rng = np.random.default_rng(2026)
    steps = 0
    for k in range(40):
        n, m = rng.integers(2, 16, 2)
        g = rng.standard_normal((m, n, n))
        inst = InstanceSet((g + g.transpose(0, 2, 1)) / 2.0)
        scale = float(np.abs(np.linalg.eigvalsh(inst.stacked)).max())
        cert = solve_minimax(inst, SaddleConfig(gap_tol=1e-6 * scale))
        assert cert.converged, f"instance {k} ({n}x{m}): relative gap {cert.gap / scale:.3e}"
        steps += cert.iterations
    # a count of Newton steps, not a time
    assert steps <= 340, f"{steps} Newton steps"


def test_criterion_2_pauli_pair_value():
    inst = InstanceSet([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]])
    cert = solve_minimax(inst, SaddleConfig(gap_tol=1e-5))

    # oracle 1: dense grid over the weight simplex with the closed-form
    # 2x2 spectrum, lambda_min(y*A1 + (1-y)*A2) = -hypot(y, 1-y)
    grid = np.linspace(0.0, 1.0, 20001)
    grid_value = max(-math.hypot(y, 1.0 - y) for y in grid)

    # oracle 2: parametrize X = [[p, s], [s, 1-p]]; the payoffs are
    # 2p-1 and 2s, s ranges over [-sqrt(p(1-p)), sqrt(p(1-p))], and the
    # best choice of s is the most negative one
    bloch_value = min(
        max(2.0 * p - 1.0, -2.0 * math.sqrt(p * (1.0 - p)))
        for p in np.linspace(0.0, 1.0, 20001).tolist()
    )

    errs = (
        abs(cert.midpoint - (-SQ2_HALF)),
        abs(grid_value - (-SQ2_HALF)),
        abs(bloch_value - (-SQ2_HALF)),
        abs(cert.midpoint - grid_value),
        abs(cert.midpoint - bloch_value),
    )
    _verdict(
        2,
        "pauli pair value -sqrt(2)/2",
        max(errs) <= 1e-4,
        f"solver {cert.midpoint!r}, grid oracle {grid_value!r}, "
        f"parametric oracle {bloch_value!r}, max deviation {max(errs):.3e}",
    )


def test_criterion_3_linear_oracle_attainment(hundred_matrices):
    worst = 0.0
    for a in hundred_matrices:
        # the projector onto a bottom eigenvector is a spectraplex point, and
        # the payoff <A, X> it earns is lambda_min(A)
        u = np.linalg.eigh(a)[1][:, 0]
        xstar = SpectraplexPoint(np.outer(u, u))
        worst = max(worst, abs(upper_value(xstar, InstanceSet([a])) - lambda_min(a)))
    _verdict(
        3,
        "spectraplex linear oracle equals lambda_min, attained",
        worst <= 1e-9,
        f"100 matrices up to n=8, worst deviation {worst:.3e}",
    )


def test_criterion_4_bisection_agreement(hundred_matrices):
    worst = 0.0
    for a in hundred_matrices:
        worst = max(worst, abs(lambda_min_by_bisection(a) - lambda_min(a)))
    _verdict(
        4,
        "bisection route to lambda_min",
        worst <= 1e-7,
        f"same 100 matrices, worst deviation {worst:.3e}",
    )


def test_criterion_5_diagonal_reduction():
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for _ in range(20):
        game = VectorGame(tuple(tuple(float(v) for v in row)
                                for row in rng.integers(-5, 6, (3, 3))))
        rep = verify_diagonal_reduction(game, SaddleConfig(gap_tol=1e-3))
        worst = max(worst, rep.difference)
    pennies = verify_diagonal_reduction(
        VectorGame(((1.0, -1.0), (-1.0, 1.0))), SaddleConfig(gap_tol=1e-4)
    )
    coord = verify_diagonal_reduction(
        VectorGame(((1.0, 0.0), (0.0, 1.0))), SaddleConfig(gap_tol=1e-4)
    )
    ok = (
        worst <= 1e-3
        and pennies.exact_value == 0.0
        and abs(pennies.certificate.midpoint) <= 1e-4
        and coord.exact_value == 0.5
        and abs(coord.certificate.midpoint - 0.5) <= 1e-4
    )
    _verdict(
        5,
        "exact game value vs diagonal embedding",
        ok,
        f"20 integer 3x3 games worst difference {worst:.3e}, "
        f"pennies {pennies.certificate.midpoint!r}, "
        f"coordination {coord.certificate.midpoint!r}",
    )


def test_criterion_6_embedding_feasibility():
    rng = np.random.default_rng(SEED + 6)
    worst_residual, worst_margin = 0.0, np.inf
    min_slack, min_dual_eig = np.inf, np.inf
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 6))
        inst = random_instance(rng, n, m)
        emb = build_embedding(inst)

        p_int = interior_primal_point(emb)
        min_slack = min(min_slack, float(p_int.slacks.min()))
        p_rand = lift_primal(sample_spectraplex(n, rng), inst, emb)
        worst_residual = max(
            worst_residual, float(p_int.residuals.max()), float(p_rand.residuals.max())
        )

        d_int = interior_dual_point(emb)
        min_dual_eig = min(min_dual_eig, d_int.lambda_min)
        y = sample_simplex(m, rng)
        t = lambda_min(weighted_combination(y, inst)) + emb.shift
        # the dual slack is derived from (u, t), so only the primal side has residuals
        d_rand = lift_dual(y, t, inst, emb)

        for p in (p_int, p_rand):
            for d in (d_int, d_rand):
                worst_margin = min(worst_margin, weak_duality_check(p, d, emb))
    ok = (
        worst_residual <= 1e-12
        and min_slack > 0.0
        and min_dual_eig > 0.0
        and worst_margin >= -1e-9
    )
    _verdict(
        6,
        "embedding lifts, interior points, weak duality",
        ok,
        f"20 instances, worst primal residual {worst_residual:.3e}, min interior "
        f"slack {min_slack:.3e}, min dual eigenvalue {min_dual_eig:.3e}, "
        f"min duality margin {worst_margin:.3e}",
    )


def test_criterion_7_covariance():
    rng = np.random.default_rng(SEED + 7)
    cfg = SaddleConfig(gap_tol=1e-3)
    tol = 2.0 * cfg.gap_tol
    c, s = 0.7, 1.7
    worst = {"shift": 0.0, "scaling": 0.0, "conjugation": 0.0, "negation": 0.0}
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        inst = random_instance(rng, n, m)
        base = solve_minimax(inst, cfg).midpoint

        shifted = InstanceSet(inst.stacked + c * np.eye(n))
        worst["shift"] = max(
            worst["shift"], abs(solve_minimax(shifted, cfg).midpoint - (base + c))
        )

        scaled = InstanceSet(s * inst.stacked)
        worst["scaling"] = max(
            worst["scaling"], abs(solve_minimax(scaled, cfg).midpoint - s * base)
        )

        q = random_orthogonal(rng, n)
        conj = InstanceSet([q.T @ a @ q for a in inst.stacked])
        worst["conjugation"] = max(
            worst["conjugation"], abs(solve_minimax(conj, cfg).midpoint - base)
        )

        negated = InstanceSet(-inst.stacked)
        worst["negation"] = max(
            worst["negation"],
            abs(solve_maximin(inst, cfg).midpoint - (-solve_minimax(negated, cfg).midpoint)),
        )
    _verdict(
        7,
        "shift, scaling, conjugation, negation covariance",
        max(worst.values()) <= tol,
        "20 instances, worst deviations "
        + ", ".join(f"{k} {v:.3e}" for k, v in worst.items()),
    )


def test_criterion_8_sdpa_export():
    doc = {
        "n": 2,
        "m": 2,
        "matrices": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
    }
    expect = (
        "*shift 1.0\n3\n3\n2 -2 -1\n0.0 0.0 1.0\n"
        "0 3 1 1 1.0\n"
        "1 1 1 1 2.0\n1 1 2 2 1.0\n1 2 1 1 1.0\n1 3 1 1 -1.0\n"
        "2 1 1 1 1.0\n2 1 2 2 2.0\n2 2 2 2 1.0\n2 3 1 1 -1.0\n"
        "3 1 1 1 1.0\n3 1 2 2 1.0\n"
    )
    texts = []
    for _ in range(2):
        inst, _ = parse_instance(doc)
        texts.append(sdpa_text(build_embedding(inst)))
    lines = texts[0].splitlines()
    ok = (
        texts[0] == texts[1]
        and texts[0] == expect
        and lines[1:5] == ["3", "3", "2 -2 -1", "0.0 0.0 1.0"]
        and "0 3 1 1 1.0" in lines
    )
    _verdict(
        8,
        "sdpa export determinism and hand-checked file",
        ok,
        f"{len(lines)} lines, repeated runs byte-identical: {texts[0] == texts[1]}",
    )
