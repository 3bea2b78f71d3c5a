import sys
import warnings

import numpy as np
import pytest

from specmm import (
    InstanceSet,
    SimplexPoint,
    SpectraplexPoint,
    best_response_index,
    lambda_min,
    lambda_min_by_bisection,
    sample_simplex,
    sample_spectraplex,
    upper_value,
    weighted_combination,
)
from specmm import cli, embed, saddle, symmat
from specmm.domains import _payoffs

from conftest import peak_bytes, random_instance, random_orthogonal, random_symmetric


def pauli_pair():
    return InstanceSet([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]])


def diag_pair():
    return InstanceSet([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def bottom_projector(a):
    """The rank-one density matrix onto a bottom eigenvector of ``a``."""
    u = np.linalg.eigh(a)[1][:, 0]
    return SpectraplexPoint(np.outer(u, u))


class TestDomainTypes:
    def test_spectraplex_accepts_density_matrices(self):
        SpectraplexPoint(np.eye(3) / 3.0)
        SpectraplexPoint(np.diag([1.0, 0.0]))

    def test_spectraplex_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            SpectraplexPoint(np.eye(2))

    def test_spectraplex_rejects_indefinite(self):
        with pytest.raises(ValueError, match="semidefinite"):
            SpectraplexPoint(np.diag([1.5, -0.5]))

    def test_spectraplex_tolerates_rounding_noise(self):
        SpectraplexPoint(np.diag([1.0 + 1e-12, -1e-12]))

    def test_spectraplex_symmetrizes_on_construction(self):
        x = SpectraplexPoint(np.array([[0.5, 0.5], [0.0, 0.5]]))
        assert np.array_equal(x.array, np.array([[0.5, 0.25], [0.25, 0.5]]))

    def test_spectraplex_rejects_nonsquare(self):
        for bad in (np.zeros((2, 3)), np.zeros((0, 0)), np.ones(1)):
            with pytest.raises(ValueError, match="square"):
                SpectraplexPoint(bad)

    def test_spectraplex_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            SpectraplexPoint(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_spectraplex_array_is_frozen(self):
        x = SpectraplexPoint(np.eye(2) / 2.0)
        with pytest.raises(ValueError):
            x.array[0, 0] = 5.0

    def test_spectraplex_keeps_its_own_copy(self):
        a = np.eye(2) / 2.0
        x = SpectraplexPoint(a)
        a[0, 0] = 5.0
        assert np.array_equal(x.array, np.eye(2) / 2.0)

    def test_simplex_accepts_probability_vectors(self):
        SimplexPoint(np.array([0.25, 0.75]))
        SimplexPoint(np.array([1.0]))
        assert SimplexPoint.uniform(4).weights == pytest.approx([0.25] * 4)

    def test_simplex_rejects_negative_mass(self):
        with pytest.raises(ValueError, match=r"^weights must be nonnegative, min=-0\.5$"):
            SimplexPoint(np.array([1.5, -0.5]))

    def test_simplex_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            SimplexPoint(np.array([0.4, 0.4]))

    def test_simplex_rejects_non_vectors_and_nonfinite(self):
        for bad in (np.full((1, 2), 0.5), np.zeros(0)):
            with pytest.raises(ValueError, match="nonempty vector"):
                SimplexPoint(bad)
        with pytest.raises(ValueError, match="finite"):
            SimplexPoint(np.array([np.nan, 1.0]))

    def test_instance_rejects_mixed_orders(self):
        with pytest.raises(ValueError, match="order"):
            InstanceSet(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError):
            InstanceSet([np.eye(2), np.eye(3)])

    def test_instance_rejects_empty(self):
        for empty in ((), np.zeros((0, 2, 2)), np.zeros((2, 0, 0))):
            with pytest.raises(ValueError, match="at least one"):
                InstanceSet(empty)


class TestInstanceSet:
    """One symmetrised (m, n, n) stack and one cached spectrum per instance."""

    def test_stack_is_symmetrised_once_and_read_only(self):
        raw = np.array([[[1.0, 2.0], [0.0, 3.0]], [[0.0, 1.0], [1.0, -0.0]]])
        inst = InstanceSet(raw)
        assert (inst.m, inst.n) == (2, 2)
        assert inst.stacked.tobytes() == ((raw + raw.transpose(0, 2, 1)) / 2.0).tobytes()
        assert not inst.stacked.flags.writeable
        assert InstanceSet(inst.stacked).stacked.tobytes() == inst.stacked.tobytes()

    def test_overflow_when_symmetrising_is_rejected_without_a_warning(self):
        raw = np.zeros((3, 2, 2))
        raw[1] = [[1.7e308, 1.0], [1.0, -1.7e308]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="matrix 1 is not finite"):
                InstanceSet(raw)
            with pytest.raises(ValueError, match="matrix 0 is not finite"):
                InstanceSet([[[np.inf, -np.inf], [np.inf, 0.0]]])

    def test_spectra_is_one_cached_read_only_call(self, rng):
        inst = random_instance(rng, 4, 3)
        w = inst.spectra
        assert w is inst.spectra
        assert not w.flags.writeable
        assert w.tobytes() == np.linalg.eigh(inst.stacked)[0].tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spectra_of_an_8x200_family_peak_below_0_12_mib(self, seed):
        # the eigenvalues (12.8 KB) and the eigenvectors that eigh returns beside them
        # (102.4 KB) are the peak; each call drops the cached spectra, so both of
        # peak_bytes' calls compute them
        inst = random_instance(np.random.default_rng(seed), 8, 200)

        def spectra():
            inst.__dict__.pop("spectra", None)
            return inst.spectra

        assert peak_bytes(spectra) < 0.12 * 2**20

    def test_negated_spectra_are_the_spectra_negated_and_reversed(self):
        # solve_maximin reads the negated family's spectra this way
        rng = np.random.default_rng(11)
        for _ in range(200):
            n, m = rng.integers(1, 12, 2)
            inst = InstanceSet(rng.standard_normal((m, n, n)) * 10.0 ** rng.uniform(-8, 8))
            direct = symmat._eigvals_raw(-inst.stacked)
            assert direct.tobytes() == (-inst.spectra[:, ::-1]).tobytes()

    def test_solvers_embedding_and_check_share_one_spectrum(self, monkeypatch, rng):
        orig, shapes = symmat._eigvals_raw, []

        def counted(a):
            shapes.append(np.shape(a))
            return orig(a)

        for name, mod in list(sys.modules.items()):
            if name == "specmm" or name.startswith("specmm."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        monkeypatch.setattr(mod, attr, counted)
        inst = random_instance(rng, 4, 3)
        monkeypatch.setattr(cli, "load_instance", lambda path: (inst, None))
        saddle.solve_minimax(inst)
        saddle.solve_maximin(inst)
        embed.build_embedding(inst)
        assert cli.main(["check", "instance.json"]) == 0
        # m = 3 differs from the two matrices the solver's step lengths stack
        assert shapes.count((3, 4, 4)) == 1


class TestSpectraplexLinearMin:
    """min <A, X> over the spectraplex is lambda_min(A), attained by the
    bottom projector; upper_value on the one-matrix family reads <A, X>."""

    def test_diagonal(self):
        a = np.diag([3.0, -2.0, 5.0])
        x = bottom_projector(a)
        assert lambda_min(a) == -2.0
        expect = np.zeros((3, 3))
        expect[1, 1] = 1.0
        assert np.array_equal(x.array, expect)
        assert upper_value(x, InstanceSet([a])) == -2.0

    def test_exchange_matrix(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = bottom_projector(a)
        assert lambda_min(a) == pytest.approx(-1.0, abs=1e-12)
        assert np.abs(x.array - np.array([[0.5, -0.5], [-0.5, 0.5]])).max() <= 1e-12
        assert upper_value(x, InstanceSet([a])) == pytest.approx(-1.0, abs=1e-12)

    def test_minimum_is_attained_by_reported_point(self, rng):
        for _ in range(10):
            a = random_symmetric(rng, 6)
            x = bottom_projector(a)
            assert upper_value(x, InstanceSet([a])) == pytest.approx(lambda_min(a), abs=1e-9)

    def test_value_lower_bounds_all_feasible_points(self, rng):
        a = random_symmetric(rng, 5)
        val, inst = lambda_min(a), InstanceSet([a])
        for _ in range(100):
            x = sample_spectraplex(5, rng)
            assert upper_value(x, inst) >= val - 1e-9

    def test_rotation_invariance(self, rng):
        for _ in range(10):
            a = random_symmetric(rng, 5)
            q = random_orthogonal(rng, 5)
            assert lambda_min(q @ a @ q.T) == pytest.approx(lambda_min(a), abs=1e-10)


class TestBisection:
    def test_identity(self):
        assert lambda_min_by_bisection(np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        got = lambda_min_by_bisection(np.diag([3.0, -2.0, 5.0]))
        assert got == pytest.approx(-2.0, abs=5e-12)

    def test_zero_matrix(self):
        assert lambda_min_by_bisection(np.zeros((3, 3))) == 0.0

    def test_agrees_with_direct_route(self, rng):
        for _ in range(15):
            a = random_symmetric(rng, 6)
            want = np.linalg.eigvalsh(a)
            got = lambda_min_by_bisection(a)
            assert abs(got - want[0]) <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("a", [
        np.diag([1e-9, 2e-9]),
        np.diag([1e155, 2e155]),
        np.diag([1e300, -2e300]),
        np.full((2, 2), 3e200),
        1e-300 * np.array([[1.0, 2.0], [2.0, -3.0]]),
    ], ids=["1e-9", "1e155", "1e300", "rank-one-3e200", "1e-300"])
    def test_agrees_at_every_scale(self, a):
        # an absolute width of 1e-8 stopped before the first step at 1e-9, returning 0.0,
        # and the bracket's Frobenius norm overflowed to NaN from about 1e154 up
        want = np.linalg.eigvalsh(a)
        got = lambda_min_by_bisection(a)
        assert np.isfinite(got)
        assert abs(got - want[0]) <= 1e-12 * np.abs(want).max()

    def test_exactly_covariant_under_powers_of_two(self, rng):
        a = random_symmetric(rng, 5)
        got = lambda_min_by_bisection(a)
        for j in (27, -27, 60, -60, 200, -200):
            assert lambda_min_by_bisection(2.0**j * a) == 2.0**j * got, j

    def test_stops_where_tol_is_below_the_float_spacing(self):
        # the first matrix of the fixed 6x4 family scaled by 1e8: lambda_min is about
        # -2.9e8, where adjacent doubles are 6e-8 apart, so the absolute width of 1e-8
        # that the bisection once took was never reached; the width it reads off the
        # matrix, 2^-52 of ||A||_F, is under two of those spacings
        g = np.random.default_rng([190509762, 99]).standard_normal((6, 6))
        a = 1e8 * (g + g.T) / 2.0
        ref = np.linalg.eigvalsh(a)[0]
        got = lambda_min_by_bisection(a)
        assert abs(got - ref) <= np.spacing(abs(ref))

    def test_calls_no_eigenvalue_routine(self, rng, monkeypatch):
        # each step decides by a Cholesky factorisation, so the route stays independent
        # of the eigensolver that the direct route and `specmm check` compare it with
        a = random_symmetric(rng, 5)
        want = np.linalg.eigvalsh(a)

        def refuse(*args, **kwargs):
            raise AssertionError("the bisection called an eigenvalue routine")

        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, refuse)
        assert abs(lambda_min_by_bisection(a) - want[0]) <= 1e-12 * np.abs(want).max()

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError, match="square"):
            lambda_min_by_bisection(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="finite"):
            lambda_min_by_bisection(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_rejects_a_finite_matrix_whose_symmetrisation_overflows(self):
        # 1.7e308 + 1.7e308 overflows before the halving; the bisection once returned
        # NaN with an overflow RuntimeWarning, and refuses it now as InstanceSet does
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite once symmetrised"):
                lambda_min_by_bisection(np.diag([1.7e308, -1.7e308]))


class TestBestResponse:
    def test_tie_breaks_to_lowest_index(self):
        x = SpectraplexPoint(np.eye(2) / 2.0)
        assert best_response_index(x, pauli_pair()) == (0, 0.0)

    def test_diagonal_instances(self):
        inst = diag_pair()
        e1 = SpectraplexPoint(np.diag([1.0, 0.0]))
        e2 = SpectraplexPoint(np.diag([0.0, 1.0]))
        assert best_response_index(e1, inst) == (0, 1.0)
        assert best_response_index(e2, inst) == (1, 1.0)

    def test_envelope_upper_bound(self, rng):
        # the best response dominates the payoff at every simplex corner
        inst = random_instance(rng, 4, 5)
        for _ in range(10):
            x = sample_spectraplex(4, rng)
            _, best = best_response_index(x, inst)
            for i in range(5):
                assert best >= np.vdot(inst.stacked[i], x.array) - 1e-12

    def test_dimension_mismatch(self, rng):
        x = sample_spectraplex(3, rng)
        with pytest.raises(ValueError, match="mismatch"):
            best_response_index(x, diag_pair())


class TestWeightedCombinationAndPayoff:
    def test_weighted_combination_entries(self):
        inst = pauli_pair()
        y = SimplexPoint(np.array([0.25, 0.75]))
        got = weighted_combination(y, inst)
        assert np.array_equal(got, np.array([[0.25, 0.75], [0.75, -0.25]]))
        assert not got.flags.writeable

    def test_payoff_two_routes_agree(self, rng):
        inst = random_instance(rng, 4, 3)
        for _ in range(10):
            y = sample_simplex(3, rng)
            x = sample_spectraplex(4, rng)
            # sum_i y_i <A_i, X> = <sum_i y_i A_i, X>
            direct = np.dot(y.weights, _payoffs(inst.stacked, x.array))
            via_combo = np.vdot(weighted_combination(y, inst), x.array)
            assert direct == pytest.approx(via_combo, abs=1e-12)

    def test_payoff_bilinear_in_y(self, rng):
        inst = random_instance(rng, 3, 4)
        x = sample_spectraplex(3, rng)
        a = sample_simplex(4, rng)
        b = sample_simplex(4, rng)
        mix = SimplexPoint(0.5 * a.weights + 0.5 * b.weights)

        def earned(y):
            return np.vdot(weighted_combination(y, inst), x.array)

        assert earned(mix) == pytest.approx(0.5 * earned(a) + 0.5 * earned(b), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            weighted_combination(SimplexPoint(np.array([1.0])), diag_pair())


class TestSamplers:
    def test_spectraplex_sampler_hits_domain(self, rng):
        for n in (1, 2, 5):
            x = sample_spectraplex(n, rng)
            assert abs(np.trace(x.array) - 1.0) <= 1e-10
            assert lambda_min(x.array) >= -1e-10

    def test_simplex_sampler_hits_domain(self, rng):
        for m in (1, 3, 6):
            y = sample_simplex(m, rng)
            assert y.weights.min() >= 0.0
            assert y.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_under_seed(self):
        a = sample_spectraplex(4, np.random.default_rng(7))
        b = sample_spectraplex(4, np.random.default_rng(7))
        assert np.array_equal(a.array, b.array)
