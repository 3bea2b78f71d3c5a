import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from specmm import (
    SaddleConfig,
    VectorGame,
    classic_value_exact,
    embed_diagonal,
    solve_minimax,
    verify_diagonal_reduction,
)
from specmm import classic, saddle


def value_2x2_closed_form(a, b, c, d):
    """Value of [[a, b], [c, d]] without a saddle point in pure strategies."""
    den = Fraction(a) - Fraction(b) - Fraction(c) + Fraction(d)
    return float((Fraction(a) * Fraction(d) - Fraction(b) * Fraction(c)) / den)


def reference_value(rows):
    """Exact game value by support enumeration with Gauss-Jordan over
    Fractions: an oracle independent of classic_value_exact's integer
    simplex, exponential in min(m, n), so for small games only."""
    p = [[Fraction(x) for x in r] for r in rows]
    m, n = len(p), len(p[0])

    def equalize(idx, against, entry):
        # unknowns: the weights over idx, then the value; augmented rows
        aug = [[Fraction(entry(i, j)) for i in idx] + [Fraction(-1), Fraction(0)]
               for j in against]
        aug.append([Fraction(1)] * len(idx) + [Fraction(0), Fraction(1)])
        k = len(aug)
        for c in range(k):
            piv = next((r for r in range(c, k) if aug[r][c] != 0), None)
            if piv is None:
                return None
            aug[c], aug[piv] = aug[piv], aug[c]
            aug[c] = [v / aug[c][c] for v in aug[c]]
            for r in range(k):
                f = aug[r][c]
                if r != c and f != 0:
                    aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
        return [row[k] for row in aug]

    for k in range(1, min(m, n) + 1):
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                y = equalize(rs, cs, lambda i, j: p[i][j])
                x = equalize(cs, rs, lambda j, i: p[i][j])
                if y is None or x is None or min(y[:k] + x[:k]) < 0 or y[k] != x[k]:
                    continue
                v = y[k]
                if all(sum(p[i][j] * x[c] for c, j in enumerate(cs)) <= v for i in range(m)) and all(
                    sum(p[i][j] * y[c] for c, i in enumerate(rs)) >= v for j in range(n)
                ):
                    return v
    raise AssertionError("no support admitted an equilibrium")


class TestVectorGame:
    def test_validates_rectangular(self):
        with pytest.raises(ValueError, match="length"):
            VectorGame(((1.0, 2.0), (3.0,)))
        with pytest.raises(ValueError, match="row 1 has length 0"):
            VectorGame(((1.0,), ()))

    def test_validates_nonempty(self):
        for rows in ((), ((),)):
            with pytest.raises(ValueError, match="at least one row and one column"):
                VectorGame(rows)

    def test_validates_finite(self):
        with pytest.raises(ValueError, match="finite"):
            VectorGame(((float("inf"), 0.0),))

    def test_dimensions(self):
        g = VectorGame(((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)))
        assert (g.m, g.n) == (2, 3)

    @pytest.mark.parametrize("rows, message", [
        (("12", "34"), "row 0 is not a list of numbers"),
        (((1.0, 2.0), b"34"), "row 1 is not a list of numbers"),
        (((1.0, 2.0), 3.0), "row 1 is not a list of numbers"),
        (((1.0, 2.0), (True, 0.0)), "row 1 has an entry that is not a finite number"),
        (((1.0, np.True_),), "row 0 has an entry that is not a finite number"),
        (((1.0, 2.0), (3.0, "4")), "row 1 has an entry that is not a finite number"),
        (((1.0, 2.0), (3.0, None)), "row 1 has an entry that is not a finite number"),
        (((1.0, 2.0), (3.0, 10**400)), "row 1 has an entry that is not a finite number"),
    ], ids=["strings", "bytes", "scalar", "bool", "numpy-bool", "string-entry", "none",
            "huge-int"])
    def test_rows_must_be_lists_of_numbers(self, rows, message):
        # float() read the string "12" as the row (1.0, 2.0) and True as 1.0
        with pytest.raises(ValueError) as err:
            VectorGame(rows)
        assert str(err.value) == message

    def test_rows_of_any_real_numbers_are_floats(self):
        g = VectorGame([[1, np.int64(2)], np.array([3.0, 4.5])])
        assert g.rows == ((1.0, 2.0), (3.0, 4.5))
        assert all(type(x) is float for row in g.rows for x in row)


class TestEmbedDiagonal:
    def test_rows_become_diagonals(self):
        inst = embed_diagonal(VectorGame(((1.0, -2.0), (0.0, 3.0))))
        assert inst.m == 2 and inst.n == 2
        # bytes, not values: every entry off the diagonals is +0.0, never -0.0
        assert inst.stacked.tobytes() == np.stack([np.diag([1.0, -2.0]), np.diag([0.0, 3.0])]).tobytes()

    def test_single_row(self):
        inst = embed_diagonal(VectorGame(((4.0, -1.0, 2.0),)))
        assert inst.m == 1
        assert np.array_equal(inst.stacked[0], np.diag([4.0, -1.0, 2.0]))


class TestClassicValueExact:
    def test_single_row_takes_min_entry(self):
        assert classic_value_exact(VectorGame(((4.0, -1.0, 2.0),))) == -1.0

    def test_matching_pennies(self):
        assert classic_value_exact(VectorGame(((1.0, -1.0), (-1.0, 1.0)))) == 0.0

    def test_coordination_half(self):
        got = classic_value_exact(VectorGame(((1.0, 0.0), (0.0, 1.0))))
        assert got == 0.5
        assert got == value_2x2_closed_form(1, 0, 0, 1)

    def test_constant_game(self):
        assert classic_value_exact(VectorGame(((3.0, 3.0), (3.0, 3.0)))) == 3.0

    def test_pure_saddle_point(self):
        # row 0 dominates, column 0 is the minimizer's best reply
        assert classic_value_exact(VectorGame(((2.0, 3.0), (0.0, 1.0)))) == 2.0

    def test_mixed_2x2_against_closed_form(self, rng):
        for _ in range(20):
            a, b, c, d = (int(v) for v in rng.integers(-5, 6, 4))
            # force a genuinely mixed game: diagonal dominant both ways
            if not (min(a, d) > max(b, c) or max(a, d) < min(b, c)):
                continue
            got = classic_value_exact(VectorGame(((float(a), float(b)), (float(c), float(d)))))
            assert got == value_2x2_closed_form(a, b, c, d)

    def test_row_permutation_invariance(self, rng):
        for _ in range(10):
            rows = tuple(tuple(float(v) for v in rng.integers(-4, 5, 3)) for _ in range(3))
            perm = tuple(rows[i] for i in rng.permutation(3))
            assert classic_value_exact(VectorGame(rows)) == classic_value_exact(VectorGame(perm))

    def test_transposition_duality(self, rng):
        # swapping the players transposes and negates the payoffs, so the
        # value flips sign: value(A^T) = -value(-A)
        for _ in range(10):
            rows = tuple(tuple(float(v) for v in rng.integers(-4, 5, 2)) for _ in range(3))
            transposed = tuple(tuple(r[j] for r in rows) for j in range(2))
            negated = tuple(tuple(-x for x in r) for r in rows)
            assert classic_value_exact(VectorGame(transposed)) == -classic_value_exact(
                VectorGame(negated)
            )

    def test_constant_shift_covariance(self, rng):
        rows = tuple(tuple(float(v) for v in rng.integers(-3, 4, 3)) for _ in range(3))
        shifted = tuple(tuple(x + 2.0 for x in r) for r in rows)
        assert classic_value_exact(VectorGame(shifted)) == classic_value_exact(VectorGame(rows)) + 2.0

    def test_games_past_the_old_cap(self):
        # min(m, n) > 5, beyond what support enumeration could scan
        # row 5 dominates and column 0 is the best reply to it
        plus = tuple(tuple(float(i + j) for j in range(6)) for i in range(6))
        assert classic_value_exact(VectorGame(plus)) == 5.0
        # each player mixes uniformly over k identity strategies
        for k in (6, 9):
            eye = tuple(tuple(float(i == j) for j in range(k)) for i in range(k))
            assert classic_value_exact(VectorGame(eye)) == 1 / k
        # 7-cycle rock-paper-scissors: i beats the next three strategies
        # and loses to the three before, a skew-symmetric game of value 0
        cycle = tuple(
            tuple(0.0 if i == j else (1.0 if (j - i) % 7 <= 3 else -1.0) for j in range(7))
            for i in range(7)
        )
        assert classic_value_exact(VectorGame(cycle)) == 0.0

    def test_exact_rational_output(self):
        # rock-paper-scissors-like cycle has value 0 exactly
        rows = ((0.0, 1.0, -1.0), (-1.0, 0.0, 1.0), (1.0, -1.0, 0.0))
        assert classic_value_exact(VectorGame(rows)) == 0.0

    def test_matches_fraction_reference(self, rng):
        # entries from ints to non-dyadic decimals and mixed scales
        # 1e-8 .. 1e8, so the common denominator is often huge
        for t in range(50):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            kind = t % 4
            if kind == 0:
                p = rng.integers(-5, 6, (m, n)).astype(float)
            elif kind == 1:
                p = np.round(rng.uniform(-1.0, 1.0, (m, n)), 1)
            elif kind == 2:
                p = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-8, 9, (m, n))
            else:
                p = rng.uniform(-1.0, 1.0, (m, n))
            rows = tuple(map(tuple, p.tolist()))
            assert classic_value_exact(VectorGame(rows)) == float(reference_value(rows)), rows

    def test_tiny_and_huge_entries(self):
        for scale in (1e-8, 1e8):
            a, b, c, d = (3.0 * scale, 0.1 * scale, -0.7 * scale, 2.0 * scale)
            got = classic_value_exact(VectorGame(((a, b), (c, d))))
            assert got == value_2x2_closed_form(a, b, c, d)
            rows = ((1.5 * scale, -scale, 0.25 * scale), (-0.5 * scale, 2.0 * scale, 0.3 * scale))
            assert classic_value_exact(VectorGame(rows)) == float(reference_value(rows))
        # both scales in one game
        a, b, c, d = 1e8, 1e-8, 3e-8, 2e8
        assert classic_value_exact(VectorGame(((a, b), (c, d)))) == value_2x2_closed_form(a, b, c, d)

    def test_non_dyadic_decimals(self):
        assert classic_value_exact(VectorGame(((0.3, 0.1), (0.1, 0.3)))) == value_2x2_closed_form(
            0.3, 0.1, 0.1, 0.3
        )
        rows = ((0.1, 0.7, 0.3), (0.3, 0.1, 0.7), (0.7, 0.3, 0.1))
        assert classic_value_exact(VectorGame(rows)) == float(reference_value(rows))

    def test_singular_first_supports(self):
        # rows {0, 1} against columns {0, 1} give a singular system (the
        # 2x2 minor has a - b - c + d = 0); column 1 is dominated and the
        # value 3/5 comes from columns {0, 2}
        rows = ((0.0, 1.0, 3.0), (1.0, 2.0, -1.0))
        assert classic_value_exact(VectorGame(rows)) == 0.6
        assert classic_value_exact(VectorGame(rows)) == float(reference_value(rows))

    def test_degenerate_games_match_reference(self, rng):
        # ties in the ratio test and zero reduced costs, where Bland's rule
        # is what keeps the simplex from cycling
        for m, n in ((1, 1), (2, 3), (4, 4)):
            zero = tuple((0.0,) * n for _ in range(m))
            assert classic_value_exact(VectorGame(zero)) == 0.0
        for _ in range(40):
            m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            base = rng.integers(-2, 3, (m, n))
            dup_rows = np.vstack([base, base[rng.integers(0, m, 2)]])
            dup_cols = np.hstack([base, base[:, rng.integers(0, n, 2)]])
            # a row strictly below row 0 and a column strictly above column 0
            dominated = np.vstack([base, base[0] - 1])
            dominated = np.hstack([dominated, dominated[:, :1] + 1])
            # entries from {0, 1}: many equal ratios from the first pivot on
            ties = rng.integers(0, 2, (m + 1, n + 1))
            for p in (dup_rows, dup_cols, dominated, ties):
                rows = tuple(map(tuple, p.astype(float).tolist()))
                assert classic_value_exact(VectorGame(rows)) == float(reference_value(rows)), rows

    def test_pivot_count_is_linear(self, rng, monkeypatch):
        # no timing: a simplex takes a few pivots per game, while a scan
        # over supports would grow exponentially in min(m, n)
        calls = []
        pivot = saddle._pivot

        def counted(*args):
            calls.append(args)
            return pivot(*args)

        monkeypatch.setattr(saddle, "_pivot", counted)
        m, n = 5, 8
        for _ in range(200):
            calls.clear()
            rows = tuple(map(tuple, rng.integers(-4, 5, (m, n)).astype(float).tolist()))
            classic_value_exact(VectorGame(rows))
            assert len(calls) <= 2 * (m + n), rows

    def test_pivots_follow_blands_rule(self, rng, monkeypatch):
        # the entering column is the lowest index with a negative reduced
        # cost, and among rows tied in the ratio test the lowest basic
        # index leaves; tables from {0, 1} entries tie often
        pivot = saddle._pivot
        basis = []
        ties = 0

        def checked(tab, r, c, prev):
            nonlocal ties
            obj = tab[-1][:-1]
            assert c == min(j for j, v in enumerate(obj) if v < 0)
            ratios = {i: Fraction(row[-1], row[c]) for i, row in enumerate(tab[:-1]) if row[c] > 0}
            best = [i for i, q in ratios.items() if q == min(ratios.values())]
            ties += len(best) > 1
            assert r == min(best, key=lambda i: basis[i])
            basis[r] = c
            return pivot(tab, r, c, prev)

        monkeypatch.setattr(saddle, "_pivot", checked)
        for _ in range(30):
            p = rng.integers(0, 2, (4, 5))
            basis[:] = range(5, 9)
            classic_value_exact(VectorGame(tuple(map(tuple, p.astype(float).tolist()))))
        assert ties > 0

    def test_equilibrium_check_rejects_an_early_stop(self, monkeypatch):
        # clearing the negative reduced costs after the first pivot stops
        # the simplex short of the optimum; the exact check must catch it,
        # both for the exact value and in the solver, which finishes a
        # diagonal family by the same simplex and the same check
        pivot = saddle._pivot

        def stop_early(tab, r, c, prev):
            d = pivot(tab, r, c, prev)
            tab[-1] = [max(v, 0) for v in tab[-1]]
            return d

        monkeypatch.setattr(saddle, "_pivot", stop_early)
        # rock-paper-scissors with one payoff doubled; the solver finishes a
        # game of at most n + 1 rows, as this is, on all its rows before any
        # Newton step, so it reaches the check whatever its start
        game = VectorGame(((0.0, 2.0, -1.0), (-1.0, 0.0, 1.0), (1.0, -1.0, 0.0)))
        with pytest.raises(RuntimeError, match="not an equilibrium") as exact:
            classic_value_exact(game)
        with pytest.raises(RuntimeError) as solved:
            solve_minimax(embed_diagonal(game))
        assert str(solved.value) == str(exact.value)
        # neither raise is remembered, so each path ran its own simplex to the check
        assert saddle._simplex.cache_info().currsize == 0

    def test_single_row_and_single_column(self, rng):
        for _ in range(10):
            row = tuple(float(v) for v in rng.standard_normal(int(rng.integers(1, 7))))
            # one row: the minimizer takes its smallest entry
            assert classic_value_exact(VectorGame((row,))) == min(row)
            # one column: the maximizer takes its largest entry
            assert classic_value_exact(VectorGame(tuple((v,) for v in row))) == max(row)


# rock-paper-scissors with one payoff doubled: 3 rows, at most n + 1, so the solver
# finishes it on all its rows before any Newton step
RPS2 = VectorGame(((0.0, 2.0, -1.0), (-1.0, 0.0, 1.0), (1.0, -1.0, 0.0)))


@pytest.fixture
def pivots(monkeypatch):
    """The list that every ``_pivot`` call joins, as its (r, c), while the test runs."""
    calls, pivot = [], saddle._pivot

    def counted(tab, r, c, prev):
        calls.append((r, c))
        return pivot(tab, r, c, prev)

    monkeypatch.setattr(saddle, "_pivot", counted)
    return calls


def cert_bits(cert):
    return (cert.upper, cert.lower, cert.iterations, cert.x_bar.array.tobytes(),
            cert.y_bar.weights.tobytes())


class TestRememberedSolve:
    """The exact simplex remembers its last solve, keyed on the float game and the rows."""

    def test_a_solved_game_is_valued_without_pivoting_again(self, pivots):
        cert = solve_minimax(embed_diagonal(RPS2))
        assert cert.iterations == 0 and cert.converged
        solved = len(pivots)
        assert solved > 0
        value = classic_value_exact(RPS2)
        # the value reuses the solver's finish on all 3 rows: no pivot
        assert len(pivots) == solved
        assert cert.lower <= value <= cert.upper
        # the same value and the same certificate, bit for bit, from a fresh simplex each
        saddle._simplex.cache_clear()
        assert classic_value_exact(RPS2) == value
        assert len(pivots) == 2 * solved
        saddle._simplex.cache_clear()
        assert cert_bits(solve_minimax(embed_diagonal(RPS2))) == cert_bits(cert)
        assert len(pivots) == 3 * solved

    def test_the_diagonal_reduction_pivots_once(self, pivots):
        classic_value_exact(RPS2)
        once = len(pivots)
        assert once == 3
        saddle._simplex.cache_clear()
        pivots.clear()
        report = verify_diagonal_reduction(RPS2)
        assert report.within_tolerance and report.certificate.iterations == 0
        # the value's simplex serves the solver's finish, which asks for the same rows
        assert len(pivots) == once
        assert saddle._simplex.cache_info().hits == 1

    def test_another_row_set_or_another_game_pivots_again(self, pivots):
        whole = saddle._simplex(RPS2.rows, (0, 1, 2))
        once = len(pivots)
        assert saddle._simplex(RPS2.rows, (0, 1, 2)) == whole and len(pivots) == once
        # the key holds the rows in their order, and the memo one entry: a solve on
        # other rows, or on the same rows in another order, forgets the whole game's
        for rows in ((2, 1, 0), (0, 1, 2), (0, 1), (0, 1, 2)):
            before = len(pivots)
            saddle._simplex(RPS2.rows, rows)
            assert len(pivots) > before, rows
        # another game on the same rows
        before = len(pivots)
        saddle._simplex(((0.0, 3.0, -1.0), (-1.0, 0.0, 1.0), (1.0, -1.0, 0.0)), (0, 1, 2))
        assert len(pivots) > before
        assert saddle._simplex.cache_info().hits == 1
        assert saddle._simplex(RPS2.rows, (0, 1, 2)) == whole

    def test_the_key_is_the_float_game(self, pivots):
        # -0.0 and 0.0 are equal floats and convert to the same ints: one entry serves both
        negative = tuple(tuple(-0.0 if a == 0.0 else a for a in row) for row in RPS2.rows)
        assert any(math.copysign(1.0, a) < 0.0 for row in negative for a in row)
        whole = saddle._simplex(RPS2.rows, (0, 1, 2))
        once = len(pivots)
        assert saddle._simplex(negative, (0, 1, 2)) == whole and len(pivots) == once
        # one ulp off one payoff is another game, which pivots again
        nudged = ((0.0, math.nextafter(2.0, 3.0), -1.0),) + RPS2.rows[1:]
        assert saddle._simplex(nudged, (0, 1, 2)) != whole and len(pivots) > once
        info = saddle._simplex.cache_info()
        assert (info.hits, info.misses) == (1, 2)

    def test_a_solve_then_its_value_convert_the_game_once(self, monkeypatch):
        calls, integers = [], saddle._integers

        def counted(rows):
            calls.append(rows)
            return integers(rows)

        # the simplex is the one conversion, so counting saddle's counts them all
        assert not hasattr(classic, "_integers")
        monkeypatch.setattr(saddle, "_integers", counted)
        cert = solve_minimax(embed_diagonal(RPS2))
        assert cert.iterations == 0 and len(calls) == 1
        assert cert.lower <= classic_value_exact(RPS2) <= cert.upper
        assert len(calls) == 1

    def test_a_solve_that_raises_is_not_remembered(self, monkeypatch):
        pivot = saddle._pivot
        kept = saddle._simplex(RPS2.rows, (0, 1))

        def stop_early(tab, r, c, prev):
            d = pivot(tab, r, c, prev)
            tab[-1] = [max(v, 0) for v in tab[-1]]
            return d

        monkeypatch.setattr(saddle, "_pivot", stop_early)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="not an equilibrium"):
                saddle._simplex(RPS2.rows, (0, 1, 2))
        # both calls ran the faulty simplex; the entry before them is still the memo's
        info = saddle._simplex.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 3, 1)
        assert saddle._simplex(RPS2.rows, (0, 1)) == kept
        monkeypatch.setattr(saddle, "_pivot", pivot)
        assert classic_value_exact(RPS2) == float(reference_value(RPS2.rows))

    def test_the_remembered_strategies_are_tuples(self):
        x, y, z, v, den = saddle._simplex(RPS2.rows, (0, 1, 2))
        assert type(x) is tuple and type(y) is tuple
        # the caller gets the remembered tuples themselves, which nothing can change
        again = saddle._simplex(RPS2.rows, (0, 1, 2))
        assert again[0] is x and again[1] is y
        assert Fraction(v, z * den) == reference_value(RPS2.rows)


class TestVerifyDiagonalReduction:
    def test_matching_pennies(self):
        report = verify_diagonal_reduction(VectorGame(((1.0, -1.0), (-1.0, 1.0))))
        assert report.exact_value == 0.0
        assert report.within_tolerance
        assert report.certificate.converged

    def test_coordination(self):
        report = verify_diagonal_reduction(VectorGame(((1.0, 0.0), (0.0, 1.0))))
        assert report.exact_value == 0.5
        assert report.within_tolerance

    def test_random_integer_games(self, rng):
        cfg = SaddleConfig(gap_tol=1e-3)
        for _ in range(5):
            rows = tuple(tuple(float(v) for v in rng.integers(-3, 4, 3)) for _ in range(3))
            report = verify_diagonal_reduction(VectorGame(rows), cfg)
            assert report.within_tolerance, (
                f"exact {report.exact_value} vs midpoint "
                f"{report.certificate.midpoint} (diff {report.difference})"
            )

    def test_games_past_the_old_cap(self, rng):
        for m, n in ((6, 7), (8, 8)):
            rows = tuple(map(tuple, rng.integers(-4, 5, (m, n)).astype(float).tolist()))
            report = verify_diagonal_reduction(VectorGame(rows))
            assert report.within_tolerance, (
                f"exact {report.exact_value} vs midpoint "
                f"{report.certificate.midpoint} (diff {report.difference})"
            )
