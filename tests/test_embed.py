import dataclasses
import inspect
import math
from types import SimpleNamespace

import numpy as np
import pytest

from specmm import embed
from specmm import (
    DegenerateMultiplierError,
    DualInfeasibleError,
    DualLift,
    InstanceSet,
    PrimalLift,
    SaddleConfig,
    SdpEmbedding,
    SimplexPoint,
    SpectraplexPoint,
    build_embedding,
    extract_dual,
    interior_dual_point,
    interior_primal_point,
    lambda_min,
    lift_dual,
    lift_primal,
    lower_value,
    sample_spectraplex,
    sdpa_text,
    solve_minimax,
    upper_value,
    weak_duality_check,
)

from conftest import peak_bytes, random_instance

SQ2_HALF = math.sqrt(2.0) / 2.0


def pauli_pair():
    return InstanceSet([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]])


def diag_pair():
    return InstanceSet([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


# The embedding stores only the instance and the shift. The helpers below
# write its program out densely, as the module docstring defines it, so the
# structural readers can be checked entry by entry against full blocks.


def dense_blocks(inst, shift):
    """(F_1 .. F_m, E, C) as dense (n+m+1)-square arrays."""
    n, m = inst.n, inst.m
    size = n + m + 1
    fs = []
    for i, a in enumerate(inst.stacked):
        b = np.zeros((size, size))
        b[:n, :n] = a + shift * np.eye(n)
        b[n + i, n + i] = 1.0
        b[-1, -1] = -1.0
        fs.append(b)
    e = np.zeros((size, size))
    e[:n, :n] = np.eye(n)
    c = np.zeros((size, size))
    c[-1, -1] = 1.0
    return fs, e, c


def dense_sdpa(inst, shift):
    """SDPA text from a walk over every entry of the dense blocks."""
    n, m = inst.n, inst.m
    fs, e, c = dense_blocks(inst, shift)
    lines = [f"*shift {float(shift)!r}", str(m + 1), "3", f"{n} -{m} -1"]
    lines.append(" ".join(["0.0"] * m) + " 1.0")
    for matno, mat in enumerate([c, *fs, e]):
        for i in range(n):
            for j in range(i, n):
                if mat[i, j] != 0.0:
                    lines.append(f"{matno} 1 {i + 1} {j + 1} {float(mat[i, j])!r}")
        for k in range(m):
            if mat[n + k, n + k] != 0.0:
                lines.append(f"{matno} 2 {k + 1} {k + 1} {float(mat[n + k, n + k])!r}")
        if mat[-1, -1] != 0.0:
            lines.append(f"{matno} 3 1 1 {float(mat[-1, -1])!r}")
    return "\n".join(lines) + "\n"


def dense_slack(multipliers, t, inst, shift):
    """C - sum_i u_i F_i - t E, accumulated one full block at a time."""
    fs, e, c = dense_blocks(inst, shift)
    acc = t * e.copy()
    for ui, b in zip(multipliers, fs):
        acc = acc + ui * b
    return c - acc


def dense_primal(x, inst, shift, margin=0.0):
    """diag(X, s, delta) for the array X, from full blocks, and |<F_i, X'>| by
    full contraction."""
    n, m = inst.n, inst.m
    fs, _, _ = dense_blocks(inst, shift)
    tops = np.stack([f[:n, :n] for f in fs])
    vals = np.tensordot(tops, x, axes=([1, 2], [0, 1]))
    delta = float(vals.max()) + margin
    block = np.zeros((n + m + 1, n + m + 1))
    block[:n, :n] = x
    block[range(n, n + m), range(n, n + m)] = delta - vals
    block[-1, -1] = delta
    return block, np.array([abs(float(np.tensordot(f, block, 2))) for f in fs])


def dense_parts(mat, m):
    """(top block, index slots, corner) of a dense lift matrix, as bytes."""
    n = mat.shape[0] - m - 1
    return (
        mat[:n, :n].tobytes(), np.diag(mat)[n : n + m].tobytes(), np.float64(mat[-1, -1]).tobytes()
    )


def primal_parts(p):
    return p.x.array.tobytes(), p.slacks.tobytes(), np.float64(p.delta).tobytes()


def dual_parts(d):
    return d.top.tobytes(), (0.0 - d.multipliers).tobytes(), np.float64(d.corner).tobytes()


def assert_slack_matches(d, slack, inst, shift):
    """A dual lift's slack against the dense one: index slots and corner bit for
    bit; the top block sums its m + 1 terms in another order than the dense walk,
    so it may differ by their rounding."""
    n, m = inst.n, inst.m
    assert dual_parts(d)[1:] == dense_parts(slack, m)[1:]
    terms = abs(d.bound) + np.abs(d.multipliers) @ np.abs(inst.stacked).max(axis=(1, 2))
    terms += np.abs(d.multipliers).sum() * shift
    assert np.abs(d.top - slack[:n, :n]).max() <= (m + 1) * 2.0**-52 * terms


def signed_zero_instance(seed, n, m, scale):
    """Seeded instance at a given scale with exact zeros and -0.0 entries,
    placed symmetrically so symmetrization keeps their signs."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(m):
        g = rng.standard_normal((n, n)) * scale
        a = (g + g.T) / 2.0
        mask = rng.random((n, n)) < 0.3
        a[mask | mask.T] = 0.0
        neg = np.triu(rng.random((n, n)) < 0.3)
        a[neg | neg.T] = -0.0
        mats.append(a)
    return InstanceSet(mats)


class TestBuildEmbedding:
    def test_stores_only_the_instance_and_the_shift(self):
        inst = diag_pair()
        emb = build_embedding(inst)
        assert [f.name for f in dataclasses.fields(SdpEmbedding)] == ["inst", "shift"]
        assert emb.inst is inst
        assert (emb.n, emb.m) == (2, 2)

    def test_shift_cannot_be_set(self):
        # the shift is derived from the instance; the constructor takes no other
        with pytest.raises(TypeError):
            SdpEmbedding(diag_pair(), 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            build_embedding(diag_pair()).shift = 0.0

    def test_blocks_bit_exact(self):
        inst = diag_pair()
        emb = build_embedding(inst)
        assert emb.shift == 1.0
        fs, e, c = dense_blocks(emb.inst, emb.shift)
        # the tops are diag(1, 0) + I = diag(2, 1) and diag(0, 1) + I = diag(1, 2)
        assert np.array_equal(fs[0], np.diag([2.0, 1.0, 1.0, 0.0, -1.0]))
        assert np.array_equal(fs[1], np.diag([1.0, 2.0, 0.0, 1.0, -1.0]))
        assert np.array_equal(e, np.diag([1.0, 1.0, 0.0, 0.0, 0.0]))
        assert np.array_equal(c, np.diag([0.0, 0.0, 0.0, 0.0, 1.0]))
        # the export, which reads the stored instance, writes those blocks
        assert sdpa_text(emb) == dense_sdpa(inst, 1.0)

    def test_auto_shift_covers_negative_spectra(self):
        emb = build_embedding(pauli_pair())
        # both matrices have bottom eigenvalue -1, so the shift is 2
        assert emb.shift == 2.0
        lines = sdpa_text(emb).splitlines()
        # the top of F_1 is Z + 2I = diag(3, 1)
        assert [ln for ln in lines if ln.startswith("1 1 ")] == ["1 1 1 1 3.0", "1 1 2 2 1.0"]

    def test_auto_shift_is_one_for_psd_instances(self):
        assert build_embedding(diag_pair()).shift == 1.0


class TestLiftPrimal:
    def test_corner_point(self):
        inst = diag_pair()
        emb = build_embedding(inst)
        # payoffs <diag(2, 1), X> = 2 and <diag(1, 2), X> = 1 at the shift 1
        x = SpectraplexPoint(np.diag([1.0, 0.0]))
        lift = lift_primal(x, inst, emb)
        # the lift keeps the point itself, whose gates hold X PSD with unit trace
        assert lift.x is x
        assert np.array_equal(lift.slacks, np.array([0.0, 1.0]))
        assert lift.delta == lift.objective == 2.0
        assert lift.residuals.max() == 0.0

    def test_margin_zero_leaves_best_response_slack_tight(self, rng):
        inst = random_instance(rng, 3, 4)
        emb = build_embedding(inst)
        x = sample_spectraplex(3, rng)
        lift = lift_primal(x, inst, emb)
        assert lift.slacks.min() == 0.0
        assert lift.objective == pytest.approx(upper_value(x, inst) + emb.shift, abs=1e-12)
        with pytest.raises(ValueError, match="margin must be nonnegative"):
            lift_primal(x, inst, emb, margin=-1e-300)

    def test_interior_point_has_strict_slacks(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 5))
            inst = random_instance(rng, n, m)
            emb = build_embedding(inst)
            lift = interior_primal_point(emb)
            assert lift.slacks.min() > 0.0 and lift.delta > 0.0
            assert lambda_min(lift.x.array) > 0.0
            assert lift.residuals.max() <= 1e-12
            assert abs(np.trace(lift.x.array) - 1.0) <= 1e-12

    def test_residuals_small_for_random_points(self, rng):
        inst = random_instance(rng, 4, 3)
        emb = build_embedding(inst)
        for _ in range(10):
            lift = lift_primal(sample_spectraplex(4, rng), inst, emb)
            assert lift.residuals.max() <= 1e-12

    def test_trace_residual_is_measured(self):
        # <E, X'> = tr X is measured once, by the spectraplex point's own gate: a
        # point 5e-11 off unit trace lifts as it is, and one 2e-10 off is no point
        inst = diag_pair()
        x = SpectraplexPoint(np.diag([0.5, 0.5 + 5e-11]))
        lift = lift_primal(x, inst, build_embedding(inst))
        assert lift.x is x
        assert np.trace(lift.x.array) - 1.0 == pytest.approx(5e-11, rel=1e-4)
        with pytest.raises(ValueError, match="trace must be 1"):
            SpectraplexPoint(np.diag([0.5, 0.5 + 2e-10]))

    def test_negative_objective_is_an_error(self):
        inst = InstanceSet([np.diag([1e10, -1e10])])
        emb = build_embedding(inst)
        assert emb.shift == 1e10 + 1.0
        # X's eigenvalue -1e-10 is within the spectraplex's tolerance, but against
        # the top diag(2e10 + 1, 1) it outweighs the shift: delta = -1, which no
        # PSD diagonal can represent, and the error names that cause
        x = SpectraplexPoint(np.diag([-1e-10, 1.0 + 1e-10]))
        with pytest.raises(ValueError, match="negative eigenvalues .* instance's scale"):
            lift_primal(x, inst, emb)


class TestLiftDual:
    def test_pauli_feasible_bound(self):
        inst = pauli_pair()
        emb = build_embedding(inst)
        assert emb.shift == 2.0
        y = SimplexPoint(np.array([0.5, 0.5]))
        lift = lift_dual(y, -0.8 + emb.shift, inst, emb)
        assert np.array_equal(lift.multipliers, np.array([-0.5, -0.5]))
        assert lambda_min(lift.top) == pytest.approx(0.8 - SQ2_HALF, abs=1e-12)
        # index slots carry the weights, the corner carries 1 - sum(y)
        assert np.array_equal(0.0 - lift.multipliers, np.array([0.5, 0.5]))
        assert lift.corner == 0.0
        assert lift.lambda_min == 0.0

    def test_pauli_infeasible_bound_names_top_block(self):
        inst = pauli_pair()
        emb = build_embedding(inst)
        y = SimplexPoint(np.array([0.5, 0.5]))
        with pytest.raises(DualInfeasibleError, match="top-left"):
            lift_dual(y, -0.5 + emb.shift, inst, emb)

    def test_corner_strategy_at_exact_eigenvalue_bound(self):
        inst = diag_pair()
        emb = build_embedding(inst)
        y = SimplexPoint(np.array([1.0, 0.0]))
        t = lambda_min(inst.stacked[0]) + emb.shift
        lift = lift_dual(y, t, inst, emb)
        assert abs(lambda_min(lift.top)) <= 1e-9

    def test_random_feasible_bounds(self, rng):
        inst = random_instance(rng, 3, 3)
        emb = build_embedding(inst)
        for _ in range(5):
            y = SimplexPoint(np.array([0.2, 0.3, 0.5]))
            t = lower_value(y, inst) + emb.shift - float(rng.uniform(0.0, 0.5))
            lift = lift_dual(y, t, inst, emb)
            assert_slack_matches(lift, dense_slack(-y.weights, t, inst, emb.shift), inst, emb.shift)


def test_lifts_reject_an_embedding_of_another_instance(rng):
    a = random_instance(rng, 4, 3).stacked
    emb = build_embedding(InstanceSet(a))
    x = sample_spectraplex(4, rng)
    y = SimplexPoint.uniform(3)
    t = lower_value(y, emb.inst) + emb.shift
    # an equal stack held in another object is the same instance
    same = InstanceSet(a.copy())
    assert primal_parts(lift_primal(x, same, emb)) == primal_parts(lift_primal(x, emb.inst, emb))
    assert dual_parts(lift_dual(y, t, same, emb)) == dual_parts(lift_dual(y, t, emb.inst, emb))
    # a point or a strategy of another dimension than the instance's
    with pytest.raises(ValueError, match="block shapes do not match the embedding"):
        lift_primal(SpectraplexPoint(np.eye(3) / 3.0), emb.inst, emb)
    with pytest.raises(ValueError, match="block shapes do not match the embedding"):
        lift_dual(SimplexPoint.uniform(4), t, emb.inst, emb)
    # same shape, different matrices: the lift would be the one for a
    other = InstanceSet(5.0 * a)
    other_emb = build_embedding(other)
    p, d = lift_primal(x, emb.inst, emb), lift_dual(y, t, emb.inst, emb)
    d_other = lift_dual(y, lower_value(y, other) + other_emb.shift, other, other_emb)
    # unrelated instances: an n=2 primal lift (delta 2) and an n=3 dual lift
    # (t 1) read as the margin 1.0, and the Pauli pair's uniform lift (value
    # -sqrt(2)/2) with the embedding of a PSD instance (shift 1, not 2)
    # extracted the lower bound 0.293
    small, big = InstanceSet([np.eye(2)]), InstanceSet([5.0 * np.eye(3)])
    small_emb, big_emb = build_embedding(small), build_embedding(big)
    p_small = lift_primal(SpectraplexPoint(np.eye(2) / 2.0), small, small_emb)
    d_big = lift_dual(SimplexPoint.uniform(1), 1.0, big, big_emb)
    pauli, uniform = pauli_pair(), SimplexPoint.uniform(2)
    pauli_emb = build_embedding(pauli)
    d_pauli = lift_dual(uniform, lower_value(uniform, pauli) + pauli_emb.shift, pauli, pauli_emb)
    assert extract_dual(d_pauli, pauli_emb).lower_bound <= -SQ2_HALF + 1e-15
    for lift in (
        lambda: lift_primal(x, other, emb),
        lambda: lift_dual(y, t, other, emb),
        # a function handed a lift reads the lift's own embedding
        lambda: extract_dual(d_other, emb),
        lambda: extract_dual(d_pauli, build_embedding(diag_pair())),
        lambda: weak_duality_check(p, d_other, emb),
        lambda: weak_duality_check(p, d, other_emb),
        lambda: weak_duality_check(p_small, d_big, small_emb),
        lambda: weak_duality_check(p_small, d_big, big_emb),
    ):
        with pytest.raises(ValueError, match="built for a different instance"):
            lift()
    # the interior points read their instance off the embedding
    assert interior_primal_point(other_emb).emb is other_emb
    assert interior_dual_point(other_emb).emb is other_emb
    # a lift of the wrong kind, or a stand-in for the embedding, is refused
    with pytest.raises(TypeError, match="expected a PrimalLift"):
        weak_duality_check(d, d, emb)
    with pytest.raises(TypeError, match="expected an SdpEmbedding"):
        weak_duality_check(p, d, None)


class TestLiftsDeriveTheirBlocks:
    def test_constructors_take_the_free_variables_only(self):
        # besides the embedding, which each lift keeps (out of its repr), the
        # constructors take the free variables only, the primal lift X and its
        # least slack; every other field, delta included, is derived on construction
        for cls, free in ((PrimalLift, ["x", "margin"]),
                          (DualLift, ["multipliers", "bound"])):
            assert list(inspect.signature(cls).parameters) == ["emb", *free]
            assert [f.name for f in dataclasses.fields(cls) if f.init] == ["emb", *free]
        emb = build_embedding(pauli_pair())
        # the margin is keyword-only: a delta passed where the lift once took it
        # is refused, not read as a margin
        with pytest.raises(TypeError):
            PrimalLift(emb, SpectraplexPoint(np.eye(2) / 2.0), 2.0)
        for lift in (interior_primal_point(emb), interior_dual_point(emb)):
            assert lift.emb is emb
            assert "emb=" not in repr(lift)

    def test_a_dual_bound_above_the_value_is_refused(self):
        # the Pauli pair's value is -sqrt(2)/2; a lift that took its slack from
        # the caller certified the lower bound 1e6 - 2 here
        emb = build_embedding(pauli_pair())
        y = np.array([0.5, 0.5])
        with pytest.raises(DualInfeasibleError, match="top-left"):
            DualLift(emb, -y, 1e6)

    def test_a_primal_point_off_the_constraints_is_refused(self):
        # X = I/2 pays 2 against both shifted tops, so the constraints fix the
        # slacks at delta - 2 and the least of them is the margin; the margin -1.5,
        # delta 0.5, would certify the upper bound 0.5 - 2 = -1.5 < -sqrt(2)/2
        emb = build_embedding(pauli_pair())
        half = SpectraplexPoint(np.eye(2) / 2.0)
        with pytest.raises(ValueError, match="margin must be nonnegative"):
            PrimalLift(emb, half, margin=-1.5)
        lift = PrimalLift(emb, half, margin=0.0)
        assert lift.delta == 2.0
        assert lift.slacks.tolist() == lift.residuals.tolist() == [0.0, 0.0]
        assert not lift.slacks.flags.writeable

    def test_blocks_of_another_shape_are_refused(self):
        emb = build_embedding(pauli_pair())
        with pytest.raises(ValueError, match="block shapes"):
            PrimalLift(emb, SpectraplexPoint(np.eye(3) / 3.0))
        # X is a spectraplex point, never a bare array
        with pytest.raises(TypeError, match="SpectraplexPoint"):
            PrimalLift(emb, np.eye(2) / 2.0)

    @pytest.mark.parametrize("shape", [(2, 1), (1, 2), (1,), (3,)],
                             ids=["column", "row", "short", "long"])
    def test_multipliers_of_another_shape_are_refused(self, shape):
        # a column or a row of the right length was accepted, and failed only in
        # extract_dual; a wrong length raised numpy's "shapes not aligned"
        emb = build_embedding(pauli_pair())
        with pytest.raises(ValueError, match="block shapes do not match the embedding"):
            DualLift(emb, np.full(shape, -0.5), -2.0)


class TestNonFiniteInputIsRefused:
    """A lift takes finite free variables only, each refused with a plain
    ValueError that says so, before any block is formed."""

    @staticmethod
    def refused(build):
        with pytest.raises(ValueError, match="must be finite") as err:
            build()
        assert type(err.value) is ValueError

    def test_dual_lift(self):
        # on a 1x1 instance the bound -inf once gave the top [[inf]] and an
        # extracted bound of -inf; on the Pauli pair, a NaN top and the message
        # that -inf exceeded the eigenvalue bound
        for emb in (build_embedding(InstanceSet([[[1.0]]])), build_embedding(pauli_pair())):
            w = [-1.0 / emb.m] * emb.m
            for u, t in ((w, -np.inf), (w, np.inf), ([-np.inf] * emb.m, 0.0)):
                self.refused(lambda: DualLift(emb, u, t))
        # a numpy scalar is named as a plain float
        emb = build_embedding(InstanceSet([[[1.0]]]))
        with pytest.raises(ValueError,
                           match=r"^multipliers and bound must be finite, got bound nan$"):
            DualLift(emb, [-1.0], np.float64(np.nan))

    def test_primal_lift(self):
        # an infinite delta once passed the PSD gate and failed only as a NaN
        # residual, inf - inf; an infinite or NaN margin would give that delta
        emb = build_embedding(pauli_pair())
        for margin in (np.inf, -np.inf, np.nan):
            self.refused(lambda: PrimalLift(emb, SpectraplexPoint(np.eye(2) / 2.0), margin=margin))
        # a numpy scalar is named as a plain float
        with pytest.raises(ValueError, match=r"^margin must be finite, got inf$"):
            PrimalLift(emb, SpectraplexPoint(np.eye(2) / 2.0), margin=np.float64(np.inf))


class TestInteriorDual:
    def test_single_zero_matrix(self):
        # with one zero payoff matrix the shift is 1, the multiplier -1/2,
        # and a strictly feasible bound sits below zero
        inst = InstanceSet(np.zeros((1, 2, 2)))
        emb = build_embedding(inst)
        assert emb.shift == 1.0
        lift = interior_dual_point(emb)
        assert np.array_equal(lift.multipliers, np.array([-0.5]))
        assert lift.bound == -0.5
        assert lift.lambda_min > 0.0

    def test_strictly_feasible_on_random_instances(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 5))
            inst = random_instance(rng, n, m)
            emb = build_embedding(inst)
            lift = interior_dual_point(emb)
            assert lift.lambda_min > 0.0
            # t sits one unit below the weighted eigenvalue floor
            assert lambda_min(lift.top) == pytest.approx(1.0, abs=1e-12)


def primal_verdict(emb, x, margin):
    """Whether the blocks pass the PSD gates of X' = diag(X, s, delta), with delta
    and s derived from X and the least slack, the margin: X's, as a spectraplex
    point, then the lift's on the margin and on delta. All run before the residuals
    are measured, so a rejection must come from one of them."""
    try:
        PrimalLift(emb, SpectraplexPoint(x), margin=margin)
    except ValueError as err:
        assert any(why in str(err) for why in (
            "positive semidefinite", "margin must be nonnegative", "objective would be negative"))
        return False
    return True


class TestBlockPsdCheck:
    def test_verdict_matches_dense_eigvalsh(self, rng):
        verdicts = set()
        for _ in range(60):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            inst = random_instance(rng, n, m)
            emb = build_embedding(inst)
            if rng.random() < 0.5:
                x = sample_spectraplex(n, rng).array
            else:
                # symmetric with unit trace, often indefinite
                g = rng.standard_normal((n, n))
                g = (g + g.T) / 2.0
                x = g + (1.0 - np.trace(g)) / n * np.eye(n)
            # a negative margin makes the best-response slot negative, and
            # an indefinite X can make the corner negative too
            margin = float(rng.uniform(-0.3, 0.3))
            mat, _ = dense_primal(x, inst, emb.shift, margin)
            dense_min = np.linalg.eigvalsh(mat)[0]
            dense_ok = bool(dense_min >= -1e-10)
            assert primal_verdict(emb, mat[:n, :n], margin) == dense_ok
            if dense_ok:
                # the derived delta and slacks are the dense block's, bit for bit
                p = PrimalLift(emb, SpectraplexPoint(mat[:n, :n]), margin=margin)
                assert primal_parts(p) == dense_parts(mat, m)
                lo = min(lambda_min(p.x.array), p.slacks.min(), p.delta)
                assert abs(lo - dense_min) <= 1e-12 * max(1.0, abs(mat).max())
            verdicts.add(("primal", dense_ok))

            y = SimplexPoint(rng.dirichlet(np.ones(m)))
            t = lower_value(y, inst) + emb.shift + float(rng.uniform(-0.5, 0.5))
            slack = dense_slack(-y.weights, t, inst, emb.shift)
            dense_min = np.linalg.eigvalsh(slack)[0]
            dense_ok = bool(dense_min >= -1e-10)
            try:
                d = lift_dual(y, t, inst, emb)
            except DualInfeasibleError:
                ok = False
            else:
                ok = True
                assert_slack_matches(d, slack, inst, emb.shift)
                assert abs(d.lambda_min - dense_min) <= 1e-12 * max(1.0, abs(slack).max())
            assert ok == dense_ok
            verdicts.add(("dual", dense_ok))
        # both verdicts occur on both sides
        assert len(verdicts) == 4

    def test_negative_index_slot_rejected(self):
        # tops I, (1 + 2e-9) I and I: X = I/2 pays 1 + 2e-9 against the second,
        # so the margin -2e-9, delta 1, leaves its slack alone negative
        half = np.eye(2) / 2.0
        emb = build_embedding(InstanceSet(np.stack([np.zeros((2, 2)), 2e-9 * np.eye(2),
                                                    np.zeros((2, 2))])))
        assert not primal_verdict(emb, half, -2e-9)
        assert primal_verdict(emb, half, 0.0)
        # three zero matrices: the tops are I, so the dual top is -sum(u) I - t I,
        # and the margin -1 - 1e-9, a negative delta, leaves every slack negative
        emb = build_embedding(InstanceSet(np.zeros((3, 2, 2))))
        with pytest.raises(DualInfeasibleError, match="index 1 is negative"):
            DualLift(emb, [-0.5, 1e-9, -0.25], 0.0)
        assert not primal_verdict(emb, half, -1.0 - 1e-9)
        # the corner is 1 + sum(u)
        with pytest.raises(DualInfeasibleError, match="corner entry is negative"):
            DualLift(emb, [-0.5, 0.0, -0.5 - 1e-9], 0.0)

    def test_indefinite_top_block_rejected(self):
        # trace one, eigenvalues 1.5 and -0.5, so a zero diagonal is not enough
        emb = build_embedding(InstanceSet(np.zeros((2, 2, 2))))
        assert not primal_verdict(emb, np.array([[0.5, 1.0], [1.0, 0.5]]), 1.0)
        # on the Pauli pair, t = 2 exceeds the weighted shifted eigenvalue
        # bound 2 - sqrt(2)/2: the top (Z + X)/2 has eigenvalues +-sqrt(2)/2
        emb = build_embedding(pauli_pair())
        with pytest.raises(DualInfeasibleError, match="top-left 2x2 block is not PSD"):
            DualLift(emb, [-0.5, -0.5], 2.0)
        # a numpy bound is named as a plain float
        with pytest.raises(DualInfeasibleError, match=r"; t=2\.0 exceeds the weighted shifted"):
            DualLift(emb, [-0.5, -0.5], np.float64(2.0))

    def test_nan_block_is_not_psd(self):
        # no NaN reaches a block: a NaN margin, multiplier or bound is refused
        # on construction, before the PSD gates run
        emb = build_embedding(InstanceSet(np.zeros((2, 2, 2))))
        with pytest.raises(ValueError, match="margin must be finite"):
            PrimalLift(emb, SpectraplexPoint(np.eye(2) / 2.0), margin=np.nan)
        for u, t in (([-0.5, np.nan], 0.0), ([-0.5, -0.5], np.nan)):
            with pytest.raises(ValueError, match="multipliers and bound must be finite"):
                DualLift(emb, u, t)

    def test_blocks_are_read_only(self, rng):
        inst = random_instance(rng, 3, 2)
        emb = build_embedding(inst)
        p = interior_primal_point(emb)
        d = interior_dual_point(emb)
        for a in (p.x.array, p.slacks, p.residuals, d.top, d.multipliers):
            assert not a.flags.writeable


class TestExtractDual:
    def test_round_trip_through_lift(self, rng):
        inst = random_instance(rng, 3, 4)
        emb = build_embedding(inst)
        y = SimplexPoint(np.array([0.1, 0.2, 0.3, 0.4]))
        t = lower_value(y, inst) + emb.shift
        got = extract_dual(lift_dual(y, t, inst, emb), emb)
        assert not got.degenerate
        assert np.abs(got.weights - y.weights).max() <= 1e-10
        assert got.lower_bound == pytest.approx(t - emb.shift, abs=1e-10)

    def test_rescales_subnormalized_multipliers(self):
        inst = diag_pair()
        emb = build_embedding(inst)
        # shifted matrices are diag(2, 1) and diag(1, 2); weights 1/4 each
        # give a combination with bottom eigenvalue 3/4, so t = 0.3 is
        # strictly feasible and scales to 0.6
        lift = DualLift(emb, multipliers=np.array([-0.25, -0.25]), bound=0.3)
        assert np.array_equal(lift.top, np.diag([0.45, 0.45]))
        got = extract_dual(lift, emb)
        assert np.array_equal(got.weights, np.array([0.5, 0.5]))
        assert got.lower_bound == pytest.approx(0.6 - emb.shift, abs=1e-15)
        assert not got.degenerate

    def test_interior_point_extraction_stays_feasible(self, rng):
        inst = random_instance(rng, 3, 3)
        emb = build_embedding(inst)
        got = extract_dual(interior_dual_point(emb), emb)
        assert not got.degenerate
        # the extracted pair certifies a true lower bound on the value
        assert lower_value(SimplexPoint(got.weights), inst) >= got.lower_bound - 1e-9

    def test_zero_multipliers_with_nonpositive_bound_degenerate(self):
        inst = diag_pair()
        emb = build_embedding(inst)
        lift = DualLift(emb, multipliers=np.zeros(2), bound=-0.5)
        got = extract_dual(lift, emb)
        assert got.degenerate
        assert got.lower_bound == -0.5 - emb.shift

    def test_zero_multipliers_with_positive_bound_rejected(self):
        inst = diag_pair()
        emb = build_embedding(inst)
        # the top 1e-13 * diag(3, 3) - 1e-13 * I is PSD
        lift = DualLift(emb, multipliers=np.full(2, -1e-13), bound=1e-13)
        with pytest.raises(DegenerateMultiplierError):
            extract_dual(lift, emb)

    def test_wrong_sign_multiplier_rejected(self):
        # a positive multiplier is a negative index slot of the slack, which the
        # lift refuses (t = -2 keeps the top diag(1, 1.5) PSD); extraction takes
        # nothing but a lift, so it needs no sign guard of its own
        emb = build_embedding(diag_pair())
        with pytest.raises(DualInfeasibleError, match="index 0 is negative"):
            DualLift(emb, np.array([0.5, 0.0]), -2.0)
        fake = SimpleNamespace(multipliers=np.array([0.5, 0.0]), bound=0.0, emb=emb)
        with pytest.raises(TypeError, match="expected a DualLift"):
            extract_dual(fake, emb)

    def test_small_weight_sums_do_not_magnify_the_slack_defect(self):
        # each lift is accepted with a top eigenvalue just above -1e-10; dividing t
        # alone by the weight sum extracted 8.09 on [[1.0]] (value 1) and -0.617 on
        # the Pauli pair (value -sqrt(2)/2)
        one = build_embedding(InstanceSet([[[1.0]]]))
        d = DualLift(one, [-1.1e-12], 1e-11)
        assert d.lambda_min < 0.0
        assert extract_dual(d, one).lower_bound <= 1.0 + 1e-15
        inst = pauli_pair()
        emb = build_embedding(inst)
        t = 1e-9 * (lower_value(SimplexPoint.uniform(2), inst) + emb.shift) + 9e-11
        d = DualLift(emb, [-5e-10, -5e-10], t)
        assert d.lambda_min < 0.0
        assert extract_dual(d, emb).lower_bound <= -SQ2_HALF + 1e-15


class TestWeakDuality:
    def test_interior_pair_strictly_positive(self, rng):
        inst = random_instance(rng, 3, 3)
        emb = build_embedding(inst)
        margin = weak_duality_check(interior_primal_point(emb), interior_dual_point(emb), emb)
        assert margin > 0.0

    def test_identity_strategy_against_corner_bounds(self, rng):
        inst = random_instance(rng, 4, 3)
        emb = build_embedding(inst)
        x = SpectraplexPoint(np.eye(4) / 4.0)
        p = lift_primal(x, inst, emb)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            y = SimplexPoint(e)
            t = lambda_min(inst.stacked[i]) + emb.shift
            d = lift_dual(y, t, inst, emb)
            margin = weak_duality_check(p, d, emb)
            assert margin == pytest.approx(
                upper_value(x, inst) - lambda_min(inst.stacked[i]), abs=1e-9
            )
            assert margin >= -1e-9

    def test_random_feasible_pairs(self, rng):
        for _ in range(5):
            inst = random_instance(rng, 3, 4)
            emb = build_embedding(inst)
            x = sample_spectraplex(3, rng)
            y = SimplexPoint(np.full(4, 0.25))
            p = lift_primal(x, inst, emb)
            d = lift_dual(y, lower_value(y, inst) + emb.shift, inst, emb)
            assert weak_duality_check(p, d, emb) >= -1e-9


class TestEndToEndStrongDuality:
    def test_certificate_transports_through_the_embedding(self, rng):
        cfg = SaddleConfig(gap_tol=1e-3)
        for _ in range(3):
            inst = random_instance(rng, 3, 3)
            emb = build_embedding(inst)
            cert = solve_minimax(inst, cfg)
            assert cert.converged
            p = lift_primal(cert.x_bar, inst, emb)
            t = lower_value(cert.y_bar, inst) + emb.shift
            d = lift_dual(cert.y_bar, t, inst, emb)
            got = extract_dual(d, emb)
            delta = p.objective
            assert abs(delta - emb.shift - got.lower_bound) <= cfg.gap_tol + 1e-9


class TestSdpaText:
    def test_hand_checked_tiny_file(self):
        emb = build_embedding(diag_pair())
        expect = "\n".join(
            [
                "*shift 1.0",
                "3",
                "3",
                "2 -2 -1",
                "0.0 0.0 1.0",
                "0 3 1 1 1.0",
                "1 1 1 1 2.0",
                "1 1 2 2 1.0",
                "1 2 1 1 1.0",
                "1 3 1 1 -1.0",
                "2 1 1 1 1.0",
                "2 1 2 2 2.0",
                "2 2 2 2 1.0",
                "2 3 1 1 -1.0",
                "3 1 1 1 1.0",
                "3 1 2 2 1.0",
            ]
        ) + "\n"
        assert sdpa_text(emb) == expect

    def test_header_lines(self, rng):
        inst = random_instance(rng, 3, 4)
        emb = build_embedding(inst)
        lines = sdpa_text(emb).splitlines()
        assert lines[0] == f"*shift {emb.shift!r}"
        assert lines[1] == "5"
        assert lines[2] == "3"
        assert lines[3] == "3 -4 -1"
        assert lines[4] == "0.0 0.0 0.0 0.0 1.0"

    def test_byte_stable_across_runs(self, rng):
        inst = random_instance(rng, 3, 2)
        a = sdpa_text(build_embedding(inst))
        b = sdpa_text(build_embedding(inst))
        assert a == b

    def test_entry_lines_sorted_and_upper_triangular(self, rng):
        inst = random_instance(rng, 3, 2)
        emb = build_embedding(inst)
        entries = [ln.split() for ln in sdpa_text(emb).splitlines()[5:]]
        keys = [(int(e[0]), int(e[1]), int(e[2]), int(e[3])) for e in entries]
        assert keys == sorted(keys)
        assert all(k[2] <= k[3] for k in keys)


# (n, m, scale, seed): the n=1 and m=1 shapes and scales from 1e-8 to 1e8
STRUCTURE_CASES = [
    (1, 1, 1.0, 1),
    (1, 4, 1e-8, 2),
    (4, 1, 1e8, 3),
    (3, 5, 1e-4, 4),
    (5, 3, 1e4, 5),
    (6, 7, 1e8, 6),
    (2, 2, 1e-8, 7),
    (4, 6, 1.0, 8),
]


class TestStructuralReaders:
    @pytest.mark.parametrize("n, m, scale, seed", STRUCTURE_CASES)
    def test_agree_with_the_dense_blocks(self, n, m, scale, seed, monkeypatch):
        inst = signed_zero_instance(seed, n, m, scale)
        emb = build_embedding(inst)
        assert sdpa_text(emb) == dense_sdpa(inst, emb.shift)

        # dual slacks: the interior point, and a strategy with weights -0.0
        # and 0.0 (multipliers 0.0 and -0.0) at a strictly feasible t
        d = interior_dual_point(emb)
        assert_slack_matches(d, dense_slack(d.multipliers, d.bound, inst, emb.shift), inst, emb.shift)
        w = np.ones(m)
        if m > 1:
            w[0] = -0.0
        if m > 2:
            w[1] = 0.0
        y = SimplexPoint(w / w.sum())
        t = lower_value(y, inst) + emb.shift - 0.1 * scale
        d = lift_dual(y, t, inst, emb)
        assert_slack_matches(d, dense_slack(-y.weights, t, inst, emb.shift), inst, emb.shift)

        # primal blocks bit for bit, and residuals against the full-block
        # contraction; the absolute residual gate trips on rounding at large
        # scales, so it is lifted here to compare the residuals at every scale
        monkeypatch.setattr(embed, "_RESIDUAL_TOL", math.inf)
        rng = np.random.default_rng(seed)
        eye = SpectraplexPoint(np.eye(n) / n)
        for x, margin in ((sample_spectraplex(n, rng), 0.0), (eye, 1.0)):
            mat, res = dense_primal(x.array, inst, emb.shift, margin)
            p = lift_primal(x, inst, emb, margin=margin)
            assert primal_parts(p) == dense_parts(mat, m)
            assert np.abs(p.residuals - res).max() <= 1e-12 * p.objective

    def test_residuals_are_measured_not_echoed(self, monkeypatch):
        # residuals contracted anew from the assembled matrix carry the
        # rounding of the construction, which is visible at scale 1e8 on
        # this instance; recomputed from the construction's own values
        # they cancel to zero here
        monkeypatch.setattr(embed, "_RESIDUAL_TOL", math.inf)
        inst = signed_zero_instance(6, 6, 7, 1e8)
        emb = build_embedding(inst)
        p = lift_primal(sample_spectraplex(6, np.random.default_rng(6)), inst, emb)
        assert p.residuals.max() > 0.0


def test_build_embedding_peak_memory_below_one_mib():
    # the blocks are never formed: at n=8, m=200 dense blocks would take
    # 200 * 209^2 doubles, about 67 MiB, and one lift matrix of order
    # n+m+1 = 209 alone 341 KiB; each traced call builds a fresh InstanceSet, so
    # the bound also covers symmetrising the stack and its batched spectra
    inst = random_instance(np.random.default_rng(5), 8, 200)
    assert peak_bytes(lambda: build_embedding(InstanceSet(inst.stacked))) < 2**20
    emb = build_embedding(inst)
    x = sample_spectraplex(8, np.random.default_rng(5))
    y = SimplexPoint.uniform(200)
    t = lower_value(y, inst) + emb.shift
    assert peak_bytes(lambda: lift_primal(x, inst, emb)) < 300 * 2**10
    assert peak_bytes(lambda: lift_dual(y, t, inst, emb)) < 300 * 2**10


def test_sdpa_text_peak_memory_below_0_6_mib():
    # the text is about 212 KiB; with one string per matrix the export holds
    # it about twice at the final join, where one string per entry took 1.04 MiB
    emb = build_embedding(random_instance(np.random.default_rng(5), 8, 200))
    assert peak_bytes(lambda: sdpa_text(emb)) < 0.6 * 2**20


# instances at the edges of the export: exact zeros off the diagonal (a game),
# all-zero matrices (tops of sigma*I alone), -0.0,
# subnormal and +-1e300 entries, n=1 and m=1
SDPA_EDGES = {
    "game": np.stack([np.diag(r) for r in ([3.0, -1.0, 0.0], [0.0, 2.0, -4.0])]),
    "all-zero": np.zeros((2, 3, 3)),
    "specials": np.array([
        [[1e300, -1e300, 0.0], [-1e300, 5e-324, -0.0], [0.0, -0.0, -2.5e-320]],
        [[-0.0, 2.5e-320, 1.0], [2.5e-320, -1e300, -5e-324], [1.0, -5e-324, 0.0]],
    ]),
    "n=1": np.array([[[2.0]], [[-0.0]], [[-3.5]]]),
    "m=1": np.array([[[0.0, -1.5], [-1.5, 0.0]]]),
    "n=1, m=1": np.array([[[-0.0]]]),
}


@pytest.mark.parametrize("name", SDPA_EDGES)
def test_sdpa_text_matches_the_dense_walk_at_the_edges(name):
    emb = build_embedding(InstanceSet(SDPA_EDGES[name]))
    assert sdpa_text(emb) == dense_sdpa(emb.inst, emb.shift)


def per_entry_sdpa(emb):
    """The export with one f-string per nonzero upper-triangle entry, as the reference
    for the cached templates of ``sdpa_text``."""
    n, m = emb.n, emb.m
    parts = [f"*shift {emb.shift!r}", str(m + 1), "3", f"{n} -{m} -1"]
    parts.append(" ".join(["0.0"] * m) + " 1.0")
    parts.append("0 3 1 1 1.0")
    rows, cols = np.triu_indices(n)
    slots = list(zip((rows + 1).tolist(), (cols + 1).tolist()))
    for k, upper in enumerate(embed._tops(emb)[:, rows, cols], start=1):
        lines = [f"{k} 1 {i} {j} {v!r}" for (i, j), v in zip(slots, upper.tolist()) if v != 0.0]
        parts.append("\n".join([*lines, f"{k} 2 {k} {k} 1.0", f"{k} 3 1 1 -1.0"]))
    parts.append("".join(f"{m + 1} 1 {i} {i} 1.0\n" for i in range(1, n + 1)))
    return "\n".join(parts)


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("n, m", [(1, 1), (1, 5), (4, 3), (6, 12)])
def test_sdpa_text_matches_a_per_entry_rendering(n, m, scale):
    # random entries with a third of them zero, so the matrices' nonzero patterns
    # differ; diagonal matrices, which share one pattern; and all-zero matrices
    rng = np.random.default_rng(n * 100 + m)
    g = rng.standard_normal((m, n, n)) * (rng.random((m, n, n)) > 1 / 3)
    families = [g + g.transpose(0, 2, 1), np.stack([np.diag(r) for r in g[:, 0]]),
                np.zeros((m, n, n))]
    for stack in families:
        emb = build_embedding(InstanceSet(scale * stack))
        assert sdpa_text(emb) == per_entry_sdpa(emb)


def test_lift_dual_makes_one_eigenvalue_call(monkeypatch):
    inst = random_instance(np.random.default_rng(7), 4, 5)
    emb = build_embedding(inst)
    y = SimplexPoint.uniform(5)
    t = lower_value(y, inst) + emb.shift
    calls = []
    real = embed._eigvals_raw
    monkeypatch.setattr(embed, "_eigvals_raw", lambda a: calls.append(a.shape) or real(a))
    lift_dual(y, t, inst, emb)
    assert calls == [(4, 4)]


def test_lift_primal_makes_no_eigenvalue_call(monkeypatch):
    # X's PSD-ness is the spectraplex point's gate, checked when the point was made;
    # the lift forms the tops and contracts them with X once, for delta and the slacks
    inst = random_instance(np.random.default_rng(7), 4, 5)
    emb = build_embedding(inst)
    x = sample_spectraplex(4, np.random.default_rng(7))
    calls = []
    for name in ("_eigvals_raw", "_tops", "_payoffs"):
        real = getattr(embed, name)
        monkeypatch.setattr(embed, name, lambda *a, name=name, real=real:
                            calls.append(name) or real(*a))
    lift_primal(x, inst, emb)
    assert calls == ["_tops", "_payoffs"]


def test_the_upper_triangle_is_built_once_per_order_and_read_only():
    for n in range(1, 13):
        rows, cols = embed._triu(n)
        want = np.triu_indices(n)
        for got, ref in zip((rows, cols), want):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
            assert not got.flags.writeable
        assert embed._triu(n) is embed._triu(n)


def test_the_identity_is_built_once_per_order_and_read_only():
    for n in range(1, 13):
        eye = embed._eye(n)
        assert eye.dtype == np.float64 and np.array_equal(eye, np.eye(n))
        assert not eye.flags.writeable
        assert embed._eye(n) is eye
