import importlib.util
import logging
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from specmm import (
    InstanceSet,
    SaddleCertificate,
    SaddleConfig,
    SimplexPoint,
    SpectraplexPoint,
    classic_value_exact,
    embed_diagonal,
    lower_value,
    solve_maximin,
    solve_minimax,
    upper_value,
    VectorGame,
    sample_simplex,
    sample_spectraplex,
    weighted_combination,
)
from specmm import domains, saddle, symmat

from conftest import peak_bytes, random_instance, random_orthogonal

SQ2_HALF = math.sqrt(2.0) / 2.0


def pauli_pair():
    return InstanceSet([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]])


def diag_pair():
    return InstanceSet([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def bloch_point(p, q):
    """2x2 spectraplex point [[p, q], [q, 1-p]]; feasible iff q^2 <= p(1-p)."""
    return SpectraplexPoint(np.array([[p, q], [q, 1.0 - p]]))


class TestConfig:
    def test_defaults(self):
        cfg = SaddleConfig()
        assert cfg.max_iters == 100
        assert cfg.gap_tol == 1e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            SaddleConfig(max_iters=0)
        with pytest.raises(ValueError):
            SaddleConfig(gap_tol=0.0)
        # the step cap is an integer: a float or a bool is refused on
        # construction, not by range() inside the solve
        for bad in (2.5, 3.0, True, "3"):
            with pytest.raises(ValueError, match="max_iters must be an integer"):
                SaddleConfig(max_iters=bad)
        assert SaddleConfig(max_iters=np.int64(3)).max_iters == 3


class TestBoundOracles:
    def test_upper_value_examples(self):
        inst = diag_pair()
        half = SpectraplexPoint(np.eye(2) / 2.0)
        corner = SpectraplexPoint(np.diag([1.0, 0.0]))
        assert upper_value(half, inst) == 0.5
        assert upper_value(corner, inst) == 1.0

    def test_lower_value_examples(self):
        assert lower_value(SimplexPoint(np.array([0.5, 0.5])), diag_pair()) == 0.5
        assert lower_value(SimplexPoint(np.array([1.0, 0.0])), pauli_pair()) == -1.0
        got = lower_value(SimplexPoint(np.array([0.5, 0.5])), pauli_pair())
        assert got == pytest.approx(-SQ2_HALF, abs=1e-12)

    def test_upper_value_at_bloch_optimum(self):
        # analytic optimum of max(2p - 1, 2q) over the feasible disc:
        # equalize 2p - 1 = 2q and push p down to the feasibility boundary
        p = (2.0 - math.sqrt(2.0)) / 4.0
        x = bloch_point(p, p - 0.5)
        assert upper_value(x, pauli_pair()) == pytest.approx(-SQ2_HALF, abs=1e-6)

    def test_bloch_grid_oracle_brackets_the_value(self):
        # independent oracle: dense grid over the feasible (p, q) disc;
        # every feasible point upper-bounds the saddle value, and the grid
        # minimum approaches it from above
        inst = pauli_pair()
        best = np.inf
        for p in np.linspace(0.0, 1.0, 201):
            qmax = math.sqrt(max(p * (1.0 - p), 0.0))
            for q in np.linspace(-qmax, qmax, 81):
                best = min(best, max(2.0 * p - 1.0, 2.0 * q))
        assert best >= -SQ2_HALF - 1e-12
        assert best <= -SQ2_HALF + 2e-2
        cert = solve_minimax(inst)
        assert cert.upper <= best + 1e-12

    def test_simplex_grid_oracle_for_lower_value(self):
        # second oracle route: max over y of lambda_min(y Z + (1 - y) X)
        # computed with the 2x2 closed form on a dense grid
        best = -np.inf
        for y in np.linspace(0.0, 1.0, 20001):
            lo = -math.hypot(y, 1.0 - y)
            best = max(best, lo)
        assert best == pytest.approx(-SQ2_HALF, abs=1e-8)


class TestSolveMinimax:
    def test_pauli_pair(self):
        cert = solve_minimax(pauli_pair())
        assert cert.converged
        assert cert.gap <= 1e-4
        assert cert.midpoint == pytest.approx(-SQ2_HALF, abs=1e-4)
        assert cert.iterations <= 20

    def test_diag_pair_matches_classic_oracle(self):
        exact = classic_value_exact(VectorGame(((1.0, 0.0), (0.0, 1.0))))
        cert = solve_minimax(diag_pair())
        assert cert.converged
        assert cert.midpoint == pytest.approx(exact, abs=1e-4)

    def test_single_matrix_reduces_to_lambda_min(self):
        a = np.diag([3.0, -2.0, 5.0])
        cert = solve_minimax(InstanceSet([a]), SaddleConfig(gap_tol=1e-6))
        assert cert.converged
        assert cert.midpoint == pytest.approx(-2.0, abs=1e-6)
        assert np.array_equal(cert.y_bar.weights, np.array([1.0]))

    def test_zero_instance(self):
        calls = []
        cert = solve_minimax(
            InstanceSet(np.zeros((1, 3, 3))), on_bounds=lambda *a: calls.append(a)
        )
        assert cert.converged
        assert cert.upper == 0.0 and cert.lower == 0.0
        assert cert.iterations == 0
        # no Newton step, so no on_bounds call
        assert calls == []

    def test_certificate_recomputes_from_strategies(self, rng):
        for _ in range(3):
            inst = random_instance(rng, 4, 3)
            cert = solve_minimax(inst, SaddleConfig(gap_tol=1e-3))
            assert upper_value(cert.x_bar, inst) == cert.upper
            assert lower_value(cert.y_bar, inst) == cert.lower
            assert cert.gap == cert.upper - cert.lower

    def test_gap_is_derived_from_the_bounds(self):
        # a certificate cannot carry a gap that contradicts its bounds
        args = dict(upper=0.5, lower=0.25, x_bar=SpectraplexPoint(np.eye(1)),
                    y_bar=SimplexPoint([1.0]), iterations=1, converged=False, scale=1.0)
        assert SaddleCertificate(**args).gap == 0.25
        with pytest.raises(TypeError):
            SaddleCertificate(**args, gap=0.0)

    def test_a_nan_bound_is_refused(self):
        # a NaN gap compares false with the crossing limit either way round
        args = dict(x_bar=SpectraplexPoint(np.eye(1)), y_bar=SimplexPoint([1.0]),
                    iterations=1, converged=False, scale=1.0)
        for upper, lower in ((np.nan, 0.25), (0.5, np.nan)):
            with pytest.raises(ValueError, match="bound crossing"):
                SaddleCertificate(upper=upper, lower=lower, **args)

    def test_weak_duality_of_bounds(self, rng):
        for _ in range(5):
            inst = random_instance(rng, 3, 4)
            cert = solve_minimax(inst, SaddleConfig(max_iters=200, gap_tol=1e-9))
            assert cert.gap >= -1e-9

    def test_running_bounds_are_monotone(self, rng):
        inst = random_instance(rng, 5, 4)
        uppers, lowers = [], []
        solve_minimax(
            inst,
            SaddleConfig(max_iters=600, gap_tol=1e-12),
            on_bounds=lambda k, up, lo: (uppers.append(up), lowers.append(lo)),
        )
        assert all(b <= a + 1e-15 for a, b in zip(uppers, uppers[1:]))
        assert all(b >= a - 1e-15 for a, b in zip(lowers, lowers[1:]))
        assert all(u >= l - 1e-9 for u, l in zip(uppers, lowers))

    def test_on_bounds_fires_once_per_newton_step(self, rng):
        inst = random_instance(rng, 4, 5)
        calls = []
        cert = solve_minimax(
            inst, SaddleConfig(gap_tol=1e-8), on_bounds=lambda *args: calls.append(args)
        )
        assert cert.converged
        assert [c[0] for c in calls] == list(range(1, cert.iterations + 1))
        uppers = [c[1] for c in calls]
        lowers = [c[2] for c in calls]
        assert all(b <= a for a, b in zip(uppers, uppers[1:]))
        assert all(b >= a for a, b in zip(lowers, lowers[1:]))
        assert (uppers[-1], lowers[-1]) == (cert.upper, cert.lower)

    def test_cholesky_breakdown_certifies_the_incumbents(self, monkeypatch):
        # the fuzz's scaled instance 1 (n=8, m=5), driven towards a relative gap of 1e-8:
        # its (X, Z) pair loses definiteness before the cap, short of the target
        rng = np.random.default_rng(dict(FUZZ_SEEDS)["scaled"])
        fuzz_family("scaled", rng)  # instance 0
        inst = InstanceSet(fuzz_family("scaled", rng))
        scale = float(np.abs(inst.spectra).max())
        cfg = SaddleConfig(max_iters=100, gap_tol=1e-8 * scale)
        cholesky, failed, calls = np.linalg.cholesky, [], []

        def logged(a):
            try:
                return cholesky(a)
            except np.linalg.LinAlgError:
                failed.append(np.shape(a))
                raise

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "cholesky", logged)
            without_face_step(patch)  # which would close the gap before the breakdown
            cert = solve_minimax(inst, cfg, on_bounds=lambda k, up, lo: calls.append(k))
        assert inst.stacked.shape == (5, 8, 8)
        assert cert.iterations < 100
        assert failed[-1] == (2, 8, 8)
        assert calls == list(range(1, cert.iterations + 1))
        assert cert.converged == (cert.gap <= cfg.gap_tol)
        assert not cert.converged
        assert upper_value(cert.x_bar, inst) == cert.upper
        assert lower_value(cert.y_bar, inst) == cert.lower
        # a looser solve's bracket meets this one, and the stop is within twice the target
        loose = solve_minimax(inst, SaddleConfig(gap_tol=1e-6 * scale))
        assert max(cert.lower, loose.lower) <= min(cert.upper, loose.upper)
        assert cert.gap <= 2e-8 * scale

    @pytest.mark.parametrize("shape", [(6, 4), (8, 6), (10, 8), "two-block", "game"],
                             ids=["6x4", "8x6", "10x8", "two-block", "game"])
    @pytest.mark.parametrize("solve", [solve_minimax, solve_maximin])
    def test_a_breakdown_at_step_1_yields_the_start(self, rng, monkeypatch, solve, shape):
        # every Cholesky factorisation fails, so the one round yields the cold start: X =
        # I/n, weights (1 - theta)/m summing to 1 - theta, and u_m theta below the least
        # eigenvalue of the combination, theta = 0.1 in units of the scale
        if shape == "two-block":
            inst = two_block_family(rng, 3)
        elif shape == "game":
            # 7 rows over 3 columns: more than n + 1, so the game is not finished before
            # its first Newton step
            inst = InstanceSet([np.diag(r) for r in rng.standard_normal((7, 3))])
        else:
            inst = symmetric_family(rng, *shape)
        m, n, _ = inst.stacked.shape
        steps, seen = saddle._newton_steps, []

        def recorded(*args):
            for out in steps(*args):
                seen.append((args, out))
                yield out

        def failing(a):
            raise np.linalg.LinAlgError("forced breakdown")

        with monkeypatch.context() as patch:
            patch.setattr(saddle, "_newton_steps", recorded)
            patch.setattr(np.linalg, "cholesky", failing)
            assert solve(inst).iterations == 1
        [((stack, work, sigma, scale, warm), (full, us, mu, breakdown))] = seen
        assert breakdown and warm is None and work.all()
        assert full.tobytes() == (np.eye(n) / n)[None].tobytes()
        assert (-us[0, :m] == (1.0 - 0.1) / m).all()
        combination = (1.0 - 0.1) / m * (stack / scale + sigma * np.eye(n)).sum(axis=0)
        # every family is one block, the game and the two-block family's isolated
        # coordinates included, so the least eigenvalue is the block's
        least = np.linalg.eigvalsh(combination)[0]
        assert us[0, m] == pytest.approx(least - 0.1, abs=1e-12)
        # on the dense shapes the start's duality gap is below 1 scale unit (it was about
        # 3.2 when the weights summed to 1/2)
        if shape not in ("two-block", "game"):
            assert mu * (n + m + 1) < 1.0

    def test_a_breakdown_round_logs_the_mu_of_its_iterate(self, rng, monkeypatch, caplog):
        # the block's pair or the Schur matrix fails to factor at step 1: either way the
        # round evaluates the start, and logs the start's mu
        inst, m = two_block_family(rng, 3), 3
        cholesky = np.linalg.cholesky
        caplog.set_level(logging.DEBUG, logger=saddle.logger.name)
        logged = []
        for fails in (lambda a: a.ndim == 3, lambda a: a.shape == (m + 1, m + 1)):
            def failing(a, fails=fails):
                if fails(a):
                    raise np.linalg.LinAlgError("forced breakdown")
                return cholesky(a)

            caplog.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "cholesky", failing)
                cert = solve_minimax(inst)
            assert cert.iterations == 1
            [record] = caplog.records
            logged.append(record.args[-1])
        assert logged[0] == logged[1]

    def test_schur_retries_close_identical_matrices_to_1e_14(self):
        # identical matrices leave the optimal y undetermined, and the Schur
        # matrix loses definiteness on the way to a gap of 1e-14; retried with a
        # small multiple of its largest diagonal entry on its diagonal, it factors
        z = np.diag([1.0, -1.0])
        inst = InstanceSet([z, z])
        cert = solve_minimax(inst, SaddleConfig(max_iters=100, gap_tol=1e-14))
        assert cert.converged
        assert upper_value(cert.x_bar, inst) == cert.upper
        assert lower_value(cert.y_bar, inst) == cert.lower
        assert cert.lower <= -1.0 <= cert.upper

    def test_large_scale_bounds_may_cross_by_rounding(self):
        # a rotated Pauli pair at scale 1e8: the bracket may close past zero
        # by rounding, which the crossing limit allows relative to the scale;
        # every rotation seed below 60 at a tight target, and seed 17 at 1e-6
        crossed = 0
        for seed, rel in [(17, 1e-6)] + [(seed, 1e-16) for seed in range(60)]:
            q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((2, 2)))
            inst = InstanceSet([1e8 * (q @ a @ q.T) for a in pauli_pair().stacked])
            scale = float(np.abs(np.linalg.eigvalsh(inst.stacked)).max())
            cert = solve_minimax(inst, SaddleConfig(gap_tol=rel * scale))
            assert cert.scale == scale
            assert cert.gap >= -1e-9 * scale
            assert cert.midpoint == pytest.approx(-1e8 * SQ2_HALF, rel=1e-6)
            assert upper_value(cert.x_bar, inst) == cert.upper
            assert lower_value(cert.y_bar, inst) == cert.lower
            crossed += cert.gap < -1e-9
        # some tight solve really crosses further than an absolute 1e-9 allows
        assert crossed >= 1

    def test_nonconvergence_is_reported_not_raised(self, rng):
        inst = random_instance(rng, 5, 5)
        cert = solve_minimax(inst, SaddleConfig(max_iters=1, gap_tol=1e-12))
        assert not cert.converged
        assert cert.iterations == 1
        assert cert.gap >= -1e-9

    def test_strong_duality_on_random_instances(self, rng):
        cfg = SaddleConfig(gap_tol=1e-3)
        for _ in range(8):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 5))
            cert = solve_minimax(random_instance(rng, n, m), cfg)
            assert cert.converged, f"gap {cert.gap} after {cert.iterations} iterations"


class TestSolveMaximin:
    def test_pauli_pair_by_symmetry(self):
        cert = solve_maximin(pauli_pair())
        assert cert.converged
        assert cert.midpoint == pytest.approx(SQ2_HALF, abs=1e-4)

    def test_diag_pair(self):
        cert = solve_maximin(diag_pair())
        assert cert.midpoint == pytest.approx(0.5, abs=1e-4)

    def test_single_matrix_reduces_to_lambda_max(self):
        a = np.diag([3.0, -2.0, 5.0])
        cert = solve_maximin(InstanceSet([a]), SaddleConfig(gap_tol=1e-6))
        assert cert.midpoint == pytest.approx(5.0, abs=1e-6)

    def test_certificate_recomputes_from_strategies(self, rng):
        inst = random_instance(rng, 4, 3)
        cert = solve_maximin(inst, SaddleConfig(gap_tol=1e-3))
        vals = np.tensordot(inst.stacked, cert.x_bar.array, axes=([1, 2], [0, 1]))
        assert float(vals.min()) == cert.lower
        assert np.linalg.eigh(weighted_combination(cert.y_bar, inst))[0][-1] == cert.upper
        assert cert.gap >= -1e-9

    def test_trace_ends_at_the_certificate(self):
        # the last on_bounds pair is the certificate, and the negated solve's
        # bounds are the direct recomputes bit for bit
        rng = np.random.default_rng(5)
        for _ in range(20):
            n, m = rng.integers(2, 7, 2)
            inst = random_instance(rng, n, m)
            calls = []
            cert = solve_maximin(
                inst, SaddleConfig(gap_tol=1e-6), on_bounds=lambda *a: calls.append(a)
            )
            assert calls[-1] == (cert.iterations, cert.upper, cert.lower)
            vals = np.tensordot(inst.stacked, cert.x_bar.array, axes=([1, 2], [0, 1]))
            assert cert.lower == vals.min()
            assert cert.upper == np.linalg.eigh(weighted_combination(cert.y_bar, inst))[0][-1]

    def test_minimax_duality_under_negation(self, rng):
        # maximin of negated matrices = -(minimax), certified both ways
        cfg = SaddleConfig(gap_tol=1e-3)
        for _ in range(3):
            inst = random_instance(rng, 3, 3)
            neg = InstanceSet(-inst.stacked)
            lhs = solve_minimax(inst, cfg)
            rhs = solve_maximin(neg, cfg)
            assert lhs.midpoint == pytest.approx(-rhs.midpoint, abs=2e-3)


class TestValueCovariance:
    def test_shift(self, rng):
        cfg = SaddleConfig(gap_tol=1e-3)
        inst = random_instance(rng, 3, 3)
        c = 0.75
        shifted = InstanceSet(inst.stacked + c * np.eye(inst.n))
        v0 = solve_minimax(inst, cfg).midpoint
        v1 = solve_minimax(shifted, cfg).midpoint
        assert v1 == pytest.approx(v0 + c, abs=2e-3)

    def test_scaling(self, rng):
        cfg = SaddleConfig(gap_tol=1e-3)
        inst = random_instance(rng, 3, 3)
        c = 2.5
        scaled = InstanceSet(c * inst.stacked)
        v0 = solve_minimax(inst, cfg).midpoint
        v1 = solve_minimax(scaled, cfg).midpoint
        assert v1 == pytest.approx(c * v0, abs=c * 2e-3)

    def test_orthogonal_conjugation(self, rng):
        cfg = SaddleConfig(gap_tol=1e-3)
        inst = random_instance(rng, 3, 3)
        q = random_orthogonal(rng, 3)
        rotated = InstanceSet([q @ a @ q.T for a in inst.stacked])
        v0 = solve_minimax(inst, cfg).midpoint
        v1 = solve_minimax(rotated, cfg).midpoint
        assert v1 == pytest.approx(v0, abs=2e-3)


class TestRoundInvariants:
    """The contractions of the bracket reproduce the plain formulas bit for bit."""

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 4), (5, 1), (4, 3), (6, 8)])
    def test_flat_products_match_tensordot(self, rng, m, n):
        inst = random_instance(rng, n, m)
        for stack in (inst.stacked, -inst.stacked):
            y = sample_simplex(m, rng).weights
            x = sample_spectraplex(n, rng).array
            got = domains._combination(y, stack)
            assert got.shape == (n, n)
            assert got.tobytes() == np.tensordot(y, stack, axes=(0, 0)).tobytes()
            got = domains._payoffs(stack, x)
            assert got.shape == (m,)
            assert got.tobytes() == np.tensordot(stack, x, axes=([1, 2], [0, 1])).tobytes()


# a face attempt: the block family's Gauss-Newton face step, or the diagonal family's
# exact finish; each returns a point or None
ATTEMPTS = ("_face_step", "_finish")


def without_face_step(patch):
    """Patch the face attempts out: every attempt returns no point."""
    for name in ATTEMPTS:
        patch.setattr(saddle, name, lambda *args: None)


def first_attempt_only(patch, log):
    """Patch out each Newton step's second face attempt, as if at most one were made;
    ``log``, a LapackLog, counts the steps."""
    tried = set()

    def once(attempt):
        def wrapped(*args):
            if (step := log.steps()) in tried:
                return None
            tried.add(step)
            return attempt(*args)
        return wrapped

    for name in ATTEMPTS:
        patch.setattr(saddle, name, once(getattr(saddle, name)))


class LapackLog:
    """Records the shapes the solver hands to each LAPACK entry point.

    "eigvals" are the solver's own calls; "checks" are those made inside
    symmat, by lambda_min (the spectraplex point's PSD gate). ``faces`` holds one
    record per face attempt, a face step or an exact finish: the Newton step it follows
    (counted from 1), the shapes of the calls it made of each kind, and whether it
    returned a point to bracket.
    """

    def __init__(self, monkeypatch):
        self.calls = {"cholesky": [], "inv": [], "eigh": [], "eigvals": [], "checks": []}
        self.faces = []
        for name, owner, attr in (
            ("cholesky", np.linalg, "cholesky"), ("inv", np.linalg, "inv"),
            ("eigh", saddle, "_eigh_raw"), ("eigvals", saddle, "_eigvals_raw"),
            ("checks", symmat, "_eigvals_raw"),
        ):
            monkeypatch.setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
        for name in ATTEMPTS:
            monkeypatch.setattr(saddle, name, self._watch(getattr(saddle, name)))

    def _watch(self, attempt):
        def watched(*args):
            before = {name: len(calls) for name, calls in self.calls.items()}
            point = attempt(*args)
            made = {name: calls[before[name]:] for name, calls in self.calls.items()}
            self.faces.append((self.steps(), made, point is not None))
            return point
        return watched

    def _wrap(self, name, fn):
        def wrapped(a, *args, **kwargs):
            self.calls[name].append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapped

    def steps(self):
        """Newton steps so far, without breakdowns: each brackets its damped iterate and
        Newton point by one eigh call on the pair."""
        return sum(len(shape) == 3 and shape[0] == 2 for shape in self.calls["eigh"])

    def expected(self, name, k, per_step, bracket, start=()):
        """The calls of kind ``name`` that k steps make: ``start``, then each step's
        ``per_step`` calls, followed, where a face attempt came after that step, by the
        attempt's own calls and, if it returned a point, that point's ``bracket``."""
        want = list(start)
        for step in range(1, k + 1):
            want += per_step
            for at, made, point in self.faces:
                if at == step:
                    want += made[name] + [bracket] * point
        return want


def finish_faces(patch):
    """Watch the exact finishes: returns the list that each one's face joins, as a list."""
    faces, finish = [], saddle._finish

    def watched(payoff, face, n):
        faces.append(face.tolist())
        return finish(payoff, face, n)

    patch.setattr(saddle, "_finish", watched)
    return faces


def assert_finished_whole(log, faces, k, m, n, case=None):
    """A game of m <= n + 1 rows, which the face gate admits whole, closes before any
    Newton step: ``k`` is 0, its one exact finish is on all m rows and makes no LAPACK
    call, and the only calls are the bracket of the finish's point and the spectraplex
    check of x_bar; ``log`` is a LapackLog and ``faces`` a ``finish_faces`` list."""
    assert k == 0 and faces == [list(range(m))], case
    assert [(at, any(made.values()), point) for at, made, point in log.faces] == [
        (0, False, True)], case
    assert log.calls == {"cholesky": [], "inv": [], "eigh": [(1, n, n)],
                         "eigvals": [(1, n, n)], "checks": [(n, n)]}, case


def block_diagonal_family(rng, m):
    """diag(B_k, d_k): a coupled 2x2 block B_k and two isolated coordinates."""
    mats = []
    for _ in range(m):
        a = np.zeros((4, 4))
        b = rng.standard_normal((2, 2))
        a[:2, :2] = b + b.T
        a[2, 2], a[3, 3] = rng.standard_normal(2)
        mats.append(a)
    return InstanceSet(mats)


def two_block_family(rng, m):
    """A coupled 2x2 block on coordinates (1, 5), a coupled 3x3 block on (2, 4, 6)
    and isolated coordinates 0 and 3: block-diagonal up to a fixed permutation."""
    mats = []
    for _ in range(m):
        a = np.zeros((7, 7))
        for idx in ([1, 5], [2, 4, 6]):
            b = rng.standard_normal((len(idx), len(idx)))
            a[np.ix_(idx, idx)] = b + b.T
        a[0, 0], a[3, 3] = rng.standard_normal(2)
        mats.append(a)
    return InstanceSet(mats)


def assert_brackets_the_value_of_its_rotation(inst, q):
    """Both solves of ``inst`` and of its rotation Q A_i Q^T converge at relative gap
    1e-8, recompute bit for bit, and bracket one value for each sense."""
    rotated = InstanceSet([q @ a @ q.T for a in inst.stacked])
    for solve in (solve_minimax, solve_maximin):
        certs = []
        for family in (inst, rotated):
            scale = float(np.abs(np.linalg.eigvalsh(family.stacked)).max())
            cert = solve(family, SaddleConfig(gap_tol=1e-8 * scale))
            assert cert.converged, solve.__name__
            assert_bounds_recompute(solve, cert, family, solve.__name__)
            certs.append(cert)
        a, b = certs
        # one value lies in both brackets
        assert max(a.lower, b.lower) <= min(a.upper, b.upper) + 1e-12, solve.__name__


class TestIsolatedCoordinates:
    """Every family steps on one dense block, a diagonal family's and the isolated
    coordinates of a partial family included; a diagonal family's block stays exactly
    zero off its diagonal."""

    def test_block_and_vector_family_brackets_the_value_of_its_rotation(self, rng):
        inst = block_diagonal_family(rng, 3)
        assert_brackets_the_value_of_its_rotation(inst, random_orthogonal(rng, 4))

    GAME = ([3.0, -1.0, 0.0], [-2.0, 2.0, 1.0], [0.0, 1.0, -1.0])
    # the game with four rows more: 7 > n + 1 rows, which the face gate does not admit
    # whole, so the game is not finished before its first Newton step
    LP_GAME = GAME + ([3.0, 1.0, 0.0], [-2.0, -2.0, -4.0], [-4.0, -4.0, -3.0], [3.0, 1.0, 4.0])

    def test_diagonal_family_factors_its_block_and_the_schur_matrix(self, monkeypatch):
        inst = InstanceSet([np.diag(r) for r in self.LP_GAME])
        log = LapackLog(monkeypatch)
        cert = solve_minimax(inst)
        k, m = cert.iterations, 7
        assert cert.converged
        # one Newton step, and the exact finish after it closes the game
        assert k == 1 and [(at, point) for at, _, point in log.faces] == [(1, True)]
        # the Newton step: the block's (X, Z) pair and the Schur matrix, each factored by
        # Cholesky and its factor inverted; the finish is a simplex over ints and makes
        # no LAPACK call
        assert log.calls["cholesky"] == [(2, 3, 3), (m + 1, m + 1)]
        assert log.calls["inv"] == [(2, 3, 3), (m + 1, m + 1)]
        # the bracket's eigh of X and eigenvalues of the combination, on the pair of
        # the damped iterate and the Newton point, then on the finish's point; the
        # scale and shift come from the instance's cached spectra, and the certificate
        # takes the loop's bounds without another call
        assert log.calls["eigh"] == [(2, 3, 3), (1, 3, 3)]
        # the dual start's least eigenvalue on the block; the predictor's and the
        # corrector's step lengths on the block's pair, then the two brackets
        assert log.calls["eigvals"] == [(3, 3), (2, 3, 3), (2, 3, 3), (2, 3, 3), (1, 3, 3)]

    def test_maximin_makes_the_same_lapack_calls(self, monkeypatch):
        inst = InstanceSet([np.diag(r) for r in self.LP_GAME])
        m = 7
        for solve in (solve_minimax, solve_maximin):
            with monkeypatch.context() as patch:
                log = LapackLog(patch)
                k = solve(inst).iterations
            # one Newton step, and the exact finish's point after it closes the game
            assert k == 1, solve.__name__
            assert log.calls == {
                "cholesky": [(2, 3, 3), (m + 1, m + 1)],
                "inv": [(2, 3, 3), (m + 1, m + 1)],
                "eigh": [(2, 3, 3), (1, 3, 3)],
                "eigvals": [(3, 3), (2, 3, 3), (2, 3, 3), (2, 3, 3), (1, 3, 3)],
                # the spectraplex check of x_bar; no bound is recomputed
                "checks": [(3, 3)],
            }, solve.__name__

    def test_a_tiny_off_diagonal_entry_couples_its_coordinates(self, monkeypatch):
        mats = [np.diag(r) for r in self.GAME]
        mats[1][0, 2] = mats[1][2, 0] = 1e-300
        inst = InstanceSet(mats)
        log = LapackLog(monkeypatch)
        cert = solve_minimax(inst)
        assert cert.converged
        # the family is not diagonal, so all three coordinates form one block, isolated
        # coordinate 1 included: X and Z are factored together once per Newton step
        assert log.calls["cholesky"].count((2, 3, 3)) == cert.iterations
        assert upper_value(cert.x_bar, inst) == cert.upper
        assert lower_value(cert.y_bar, inst) == cert.lower

    def test_diagonal_family_holds_no_empty_array(self, rng):
        # one layout for every family, so no array of the solver is 0x0, on the game or
        # on a block family
        empty = []

        def tracer(frame, event, arg):
            if frame.f_code.co_filename == saddle.__file__:
                empty.extend(
                    (frame.f_code.co_name, name) for name, val in frame.f_locals.items()
                    if isinstance(val, np.ndarray) and val.size == 0
                )
                return tracer
            return None

        for inst in (InstanceSet([np.diag(r) for r in self.LP_GAME]), symmetric_family(rng, 4, 3)):
            # put back whatever tracer ran before (a coverage tool's, say), not None
            previous = sys.gettrace()
            sys.settrace(tracer)
            try:
                cert = solve_minimax(inst)
            finally:
                sys.settrace(previous)
            assert cert.converged and cert.iterations >= 1
            assert empty == [], inst.n

    def test_a_diagonal_family_steps_and_certifies_on_a_diagonal_block(self, monkeypatch):
        # the diagonal fuzz both ways at relative gap 1e-8: every X that the Newton steps
        # yield, damped iterate and Newton point, and every x_bar is exactly zero off its
        # diagonal, since every product of a step keeps a diagonal block diagonal
        steps, off = saddle._newton_steps, []

        def recorded(*args):
            for out in steps(*args):
                off.append(int(np.count_nonzero(out[0] * ~np.eye(out[0].shape[1], dtype=bool))))
                yield out

        monkeypatch.setattr(saddle, "_newton_steps", recorded)
        rng = np.random.default_rng(dict(FUZZ_SEEDS)["diagonal"])
        for index in range(100):
            inst = InstanceSet(fuzz_family("diagonal", rng))
            cfg = SaddleConfig(gap_tol=1e-8 * float(np.abs(inst.spectra).max()))
            for solve in (solve_minimax, solve_maximin):
                x = solve(inst, cfg).x_bar.array
                assert np.array_equal(x, np.diag(x.diagonal())), (index, solve.__name__)
        assert off and not any(off), off

    def test_identical_matrix_families_reach_relative_gap_1e_8(self):
        rng = np.random.default_rng(7)
        converged = 0
        for _ in range(30):
            n, m = rng.integers(1, 9, 2)
            g = rng.standard_normal((n, n))
            inst = InstanceSet([(g + g.T) / 2.0] * m)
            scale = float(np.abs(np.linalg.eigvalsh(inst.stacked)).max())
            cert = solve_minimax(inst, SaddleConfig(gap_tol=1e-8 * scale))
            assert upper_value(cert.x_bar, inst) == cert.upper
            assert lower_value(cert.y_bar, inst) == cert.lower
            converged += cert.converged
        assert converged >= 27


class TestComponents:
    """A family is diagonal or not: the exact finish and the size of the working set read
    it, and every family's Newton steps are on one dense block of all its coordinates."""

    def test_an_interleaved_family_is_not_diagonal(self, rng):
        # two blocks and two isolated coordinates: one 7x7 block
        assert not saddle._is_diagonal(two_block_family(rng, 3).stacked)
        assert not saddle._is_diagonal(block_diagonal_family(rng, 3).stacked)

    def test_only_an_exactly_diagonal_family_is_diagonal(self, rng):
        # a path 4 - 0 - 2 couples three coordinates and leaves two isolated
        a = np.zeros((2, 5, 5))
        a[0, 0, 4] = a[0, 4, 0] = a[1, 0, 2] = a[1, 2, 0] = 1.0
        assert not saddle._is_diagonal(a)
        assert not saddle._is_diagonal(random_instance(rng, 4, 2).stacked)
        # one entry of 1e-300 off the diagonal is enough
        a = np.stack([np.eye(3), np.diag([1.0, 2.0, 3.0])])
        assert saddle._is_diagonal(a)
        a[1, 0, 2] = a[1, 2, 0] = 1e-300
        assert not saddle._is_diagonal(a)
        # a family of 1x1 matrices, and an all-zero one, are diagonal
        assert saddle._is_diagonal(np.ones((3, 1, 1)))
        assert saddle._is_diagonal(np.zeros((2, 3, 3)))

    def test_no_fuzz_or_benchmark_family_is_partial(self, monkeypatch):
        # every fuzz family and every benchmark instance is diagonal or has no isolated
        # coordinate, so folding the isolated coordinates of a partial family into its
        # block costs none of them anything
        stacks = []
        for kind, seed in FUZZ_SEEDS:
            family = np.random.default_rng(seed)
            stacks.extend(fuzz_family(kind, family) for _ in range(100))
        spec = importlib.util.spec_from_file_location(
            "workloads", Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks it up
        spec.loader.exec_module(workloads)
        for workload in workloads.WORKLOADS:
            for seed in range(101, 111):
                stacks.extend(c.matrices for c in workloads.make_cases(workload, seed))
        diagonal = 0
        for stack in stacks:
            off = stack.any(axis=0)
            np.fill_diagonal(off, False)
            if saddle._is_diagonal(stack):
                diagonal += 1
            else:
                assert off.any(axis=1).all()
        # 141 of the fuzz's 400 families (its diagonal ones and those with n = 1) and the
        # 60 games of the benchmark's 120 instances
        assert len(stacks) == 400 + 120 and diagonal == 141 + 60

    def test_the_coupled_coordinates_are_factored_as_one_block(self, rng, monkeypatch):
        inst, m = two_block_family(rng, 3), 3
        with monkeypatch.context() as patch:
            log = LapackLog(patch)
            cert = solve_minimax(inst)
        k = cert.iterations
        assert cert.converged
        # per Newton step: the (X, Z) pair of the one block, on all seven coordinates (the
        # isolated 0 and 3 join the five coupled ones), then the Schur matrix; the face
        # steps factor neither
        assert log.calls["cholesky"] == [(2, 7, 7), (m + 1, m + 1)] * k
        assert log.calls["inv"] == [(2, 7, 7), (m + 1, m + 1)] * k
        # five face steps: three after step 2, then one after each of steps 3 and 4. The
        # first after step 2 weighs one of its three matrices below zero, so the second
        # is its correction on the other two; that one's point improves the incumbents,
        # and the third, guessed from them, gives no point. Each eigendecomposes the
        # block's Z once per residual it evaluates, and makes no other call
        assert [(at, point) for at, _, point in log.faces] == [
            (2, True), (2, True), (2, False), (3, True), (4, True)]
        assert [made for _, made, _ in log.faces] == [
            dict(cholesky=[], inv=[], eigh=[(7, 7)] * e, eigvals=[], checks=[])
            for e in (3, 4, 2, 5, 2)]
        # the bracket reads the 7x7 X of the damped iterate and of the Newton point, then
        # of the face step's point
        assert log.calls["eigh"] == log.expected("eigh", k, [(2, 7, 7)], (1, 7, 7))
        # the dual start's least eigenvalue on the block; per step, the predictor's and
        # the corrector's step lengths on the block's pair, and the bracket's two
        # combinations, then the face step's
        assert log.calls["eigvals"] == log.expected(
            "eigvals", k, [(2, 7, 7), (2, 7, 7), (2, 7, 7)], (1, 7, 7), start=[(7, 7)])
        assert upper_value(cert.x_bar, inst) == cert.upper
        assert lower_value(cert.y_bar, inst) == cert.lower

    def test_two_block_family_brackets_the_value_of_its_rotation(self, rng):
        inst = two_block_family(rng, 3)
        assert_brackets_the_value_of_its_rotation(inst, random_orthogonal(rng, 7))


def symmetric_family(rng, n, m):
    g = rng.standard_normal((m, n, n))
    return InstanceSet((g + g.transpose(0, 2, 1)) / 2.0)


def decoy_family(rotation=None):
    """Two matrices that carry the optimum, value 0.8 at X = diag(0.2, 0.8), behind nine
    of larger trace that pay at most 0 there, optionally rotated by an orthogonal Q."""
    mats = [np.diag([4.0, 0.0]), np.diag([0.0, 1.0])]
    mats += [np.diag([20.0 + j, -5.0 - j / 2.0]) for j in range(9)]
    if rotation is not None:
        mats = [rotation @ a @ rotation.T for a in mats]
    return InstanceSet(mats)


class TestWorkingSet:
    """Newton steps on the 3q matrices of largest trace, the bracket on all m."""

    def test_a_family_of_many_matrices_factors_schur_matrices_of_order_3q_plus_1(
            self, monkeypatch):
        # n = 3, so q = 6 free coordinates of X; one round, on the 18 largest traces
        inst = symmetric_family(np.random.default_rng(4), 3, 200)
        log = LapackLog(monkeypatch)
        cert = solve_minimax(inst)
        k = cert.iterations
        assert cert.converged
        assert log.calls["cholesky"] == [(2, 3, 3), (19, 19)] * k
        assert log.calls["inv"] == [(2, 3, 3), (19, 19)] * k
        # y_bar is zero off the working set, and the certificate is the whole family's
        top = np.argsort(-np.trace(inst.stacked, axis1=1, axis2=2), kind="stable")[:18]
        assert set(np.flatnonzero(cert.y_bar.weights)) <= set(top)
        assert cert.scale == float(np.abs(inst.spectra).max())
        assert upper_value(cert.x_bar, inst) == cert.upper
        assert lower_value(cert.y_bar, inst) == cert.lower

    @pytest.mark.parametrize("rotated", [False, True], ids=["diagonal", "rotated"])
    def test_a_support_outside_the_first_working_set_grows_it(self, monkeypatch, rotated):
        # diagonal: q = 2 and W starts as six decoys; rotated: q = 3, W the nine decoys
        inst = decoy_family(random_orthogonal(np.random.default_rng(0), 2) if rotated else None)
        first = 9 if rotated else 6
        calls = []
        log = LapackLog(monkeypatch)
        cert = solve_minimax(inst, SaddleConfig(gap_tol=1e-8),
                             on_bounds=lambda *args: calls.append(args))
        k = cert.iterations
        schur = [shape for shape in log.calls["cholesky"] if len(shape) == 2]
        k1 = schur.count((first + 1, first + 1))
        assert 0 < k1 < k
        assert schur == [(first + 1, first + 1)] * k1 + [(12, 12)] * (k - k1)
        assert cert.converged
        if rotated:
            # the rotated family is 0.8's only up to the rotation's rounding, and the face
            # step brings both bounds to within a few ulps of the scale of its value
            slack = 4.0 * np.finfo(float).eps * cert.scale
            assert cert.lower - slack <= 0.8 <= cert.upper + slack
        else:
            assert cert.lower <= 0.8 <= cert.upper
        assert upper_value(cert.x_bar, inst) == cert.upper
        assert lower_value(cert.y_bar, inst) == cert.lower
        assert cert.y_bar.weights[:2] == pytest.approx([0.2, 0.8], abs=1e-6)
        # one bound pair per Newton step of every round, each bound monotone
        assert [c[0] for c in calls] == list(range(1, k + 1))
        assert all(b[1] <= a[1] and b[2] >= a[2] for a, b in zip(calls, calls[1:]))
        assert calls[-1][1:] == (cert.upper, cert.lower)

    def test_max_iters_caps_the_steps_of_all_rounds(self):
        inst = decoy_family()
        whole = solve_minimax(inst, SaddleConfig(gap_tol=1e-8)).iterations
        for cap in range(1, whole):
            cert = solve_minimax(inst, SaddleConfig(max_iters=cap, gap_tol=1e-8))
            assert cert.iterations == cap
            assert not cert.converged
            assert upper_value(cert.x_bar, inst) == cert.upper
            assert lower_value(cert.y_bar, inst) == cert.lower

    def test_seeded_families_of_many_matrices_grow_it_and_converge(self, caplog):
        # random families with m well above 3q (q = 6, 10 and 36), solved both ways: every
        # solve converges, every certificate recomputes, and W grows in both senses
        caplog.set_level(logging.DEBUG, logger=saddle.logger.name)
        grown = {solve_minimax: 0, solve_maximin: 0}
        for n, m in [(3, 40), (4, 60), (8, 200)]:
            for seed in range(3):
                inst = random_instance(np.random.default_rng(seed), n, m)
                scale = float(np.abs(inst.spectra).max())
                for rel in (1e-4, 1e-7):
                    for solve in grown:
                        caplog.clear()
                        cert = solve(inst, SaddleConfig(gap_tol=rel * scale))
                        case = (n, m, seed, rel, solve.__name__)
                        assert cert.converged, case
                        assert_bounds_recompute(solve, cert, inst, case)
                        grown[solve] += sum(
                            r.getMessage().startswith("working set grows") for r in caplog.records)
        assert all(grown.values()), grown

    # the benchmark's dense (n, m) and games (m rows, n columns) shapes: m <= 3q
    @pytest.mark.parametrize("n, m", [(6, 4), (8, 6), (10, 8)])
    def test_dense_shaped_families_are_solved_whole(self, rng, monkeypatch, n, m):
        inst = symmetric_family(rng, n, m)
        for solve in (solve_minimax, solve_maximin):
            with monkeypatch.context() as patch:
                log = LapackLog(patch)
                k = solve(inst, SaddleConfig(gap_tol=3e-3)).iterations
            # face steps follow some steps; each one eigendecomposes Z once per residual
            # it evaluates, and makes no other call
            assert log.faces, solve.__name__
            for _, made, _ in log.faces:
                assert made["eigh"] and set(made["eigh"]) == {(n, n)}, solve.__name__
                assert not (made["cholesky"] or made["inv"] or made["eigvals"]), solve.__name__
            assert log.calls == {
                "cholesky": [(2, n, n), (m + 1, m + 1)] * k,
                "inv": [(2, n, n), (m + 1, m + 1)] * k,
                "eigh": log.expected("eigh", k, [(2, n, n)], (1, n, n)),
                "eigvals": log.expected("eigvals", k, [(2, n, n)] * 3, (1, n, n), start=[(n, n)]),
                "checks": [(n, n)],
            }, solve.__name__

    @pytest.mark.parametrize("m, n", [(2, 3), (3, 3), (3, 5), (4, 6), (5, 7), (5, 8)])
    def test_games_shaped_families_are_solved_whole(self, rng, monkeypatch, m, n):
        # m <= n + 1 rows, so the face gate admits the whole game: it is finished on all
        # its rows before any Newton step, by a simplex over ints that makes no LAPACK
        # call, and that point's bracket closes it
        inst = InstanceSet([np.diag(r) for r in rng.integers(-4, 5, (m, n)).astype(float)])
        log = LapackLog(monkeypatch)
        faces = finish_faces(monkeypatch)
        k = solve_minimax(inst, SaddleConfig(gap_tol=1e-4)).iterations
        assert_finished_whole(log, faces, k, m, n)


def damped_only_bounds(stack, spectra, cfg):
    """The incumbent (upper, lower) after each step of ``saddle._newton_steps`` when only
    the damped iterate is bracketed, with the working set grown as the solver grows it:
    the bracket on the iterate alone, by single-matrix calls, as the reference."""
    m, n, _ = stack.shape
    scale = float(np.abs(spectra).max())
    sigma = saddle._shift(spectra, scale)
    q = n if saddle._is_diagonal(stack) else n * (n + 1) // 2
    work = np.zeros(m, dtype=bool)
    work[np.argsort(-stack.trace(axis1=1, axis2=2), kind="stable")[: 3 * q]] = True
    upper, lower, bounds, warm = np.inf, -np.inf, [], None
    while True:
        steps = saddle._newton_steps(stack, work, sigma, scale, warm)
        for full, us, _, breakdown in steps:
            lam, vec = np.linalg.eigh(full[0])
            x = (vec * np.maximum(lam, 0.0)) @ vec.T
            x = (x + x.T) / (2.0 * np.trace(x))
            y = np.maximum(-us[0, :-1], 0.0)
            y_bar = np.zeros(m)
            y_bar[work] = y / y.sum()
            pay = domains._payoffs(stack, x)
            upper = min(upper, float(pay.max()))
            lower = max(lower, float(np.linalg.eigh(domains._combination(y_bar, stack))[0][0]))
            bounds.append((upper, lower))
            if breakdown or upper - lower <= cfg.gap_tol or len(bounds) == cfg.max_iters:
                return bounds
            if (top := pay[work].max()) < pay.max():
                break
        grown = work | (pay > top)
        warm, work = (full[0], us[0], work[grown]), grown


def newton_point_families():
    """The benchmark's dense and games shapes, and the decoy families whose working set
    grows, each with a relative gap."""
    rng = np.random.default_rng(28)
    families = [(f"dense-{n}x{m}", symmetric_family(rng, n, m), 1e-6)
                for n, m in [(6, 4), (8, 6), (10, 8)]]
    families += [(f"game-{m}x{n}", InstanceSet(
        [np.diag(r) for r in rng.integers(-4, 5, (m, n)).astype(float)]), 1e-4)
        for m, n in [(2, 3), (3, 3), (3, 5), (4, 6), (5, 7), (5, 8)]]
    families += [("decoy", decoy_family(), 1e-8),
                 ("decoy-rotated", decoy_family(random_orthogonal(np.random.default_rng(0), 2)),
                  1e-8)]
    return families


class TestNewtonPoint:
    """The bracket at the Newton point beside the damped iterate only tightens it."""

    @pytest.mark.parametrize("sense", ["minimax", "maximin"])
    def test_incumbents_are_never_looser_and_steps_never_more(self, sense):
        fewer = 0
        for name, inst, rel in newton_point_families():
            scale = float(np.abs(inst.spectra).max())
            cfg = SaddleConfig(gap_tol=rel * scale)
            calls = []
            if sense == "minimax":
                want = damped_only_bounds(inst.stacked, inst.spectra, cfg)
                cert = solve_minimax(inst, cfg, on_bounds=lambda *a: calls.append(a))
                got = [(up, lo) for _, up, lo in calls]
            else:
                want = damped_only_bounds(-inst.stacked, -inst.spectra, cfg)
                cert = solve_maximin(inst, cfg, on_bounds=lambda *a: calls.append(a))
                got = [(0.0 - lo, 0.0 - up) for _, up, lo in calls]  # as minimax of -A
            assert [k for k, *_ in calls] == list(range(1, cert.iterations + 1)), name
            assert cert.iterations <= len(want), name
            for (up, lo), (want_up, want_lo) in zip(got, want):
                assert up <= want_up and lo >= want_lo, name
            fewer += cert.iterations < len(want)
        # the Newton point ends some solves sooner
        assert fewer > 0

    def test_a_newton_point_clipped_to_zero_trace_is_skipped_without_a_warning(
            self, monkeypatch):
        # the Newton point's X replaced by a negative definite one: nothing positive is
        # left to clip, so its upper bound is skipped, and its y is still bracketed
        inst = symmetric_family(np.random.default_rng(3), 4, 3)
        cfg = SaddleConfig(gap_tol=1e-6)
        steps = saddle._newton_steps

        def negated(*args):
            for full, us, mu, breakdown in steps(*args):
                if len(full) == 2:
                    full[1] = -np.eye(len(full[1]))
                yield full, us, mu, breakdown

        monkeypatch.setattr(saddle, "_newton_steps", negated)
        # the candidates are the damped iterate and the Newton point
        without_face_step(monkeypatch)
        calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = solve_minimax(inst, cfg, on_bounds=lambda *a: calls.append(a))
        monkeypatch.undo()
        want = damped_only_bounds(inst.stacked, inst.spectra, cfg)
        # the upper side is the damped iterate's alone, bit for bit
        assert [up for _, up, _ in calls] == [up for up, _ in want[: len(calls)]]
        assert all(lo >= want_lo for (_, _, lo), (_, want_lo) in zip(calls, want))
        assert upper_value(cert.x_bar, inst) == cert.upper
        assert lower_value(cert.y_bar, inst) == cert.lower

    def test_a_newton_point_y_clipped_to_zero_is_skipped_without_a_warning(
            self, monkeypatch):
        # the Newton point's multipliers made positive: every weight -u clips to zero, so
        # nothing is left to scale to the simplex and its lower bound is skipped, and its
        # X is still bracketed
        inst = symmetric_family(np.random.default_rng(3), 4, 3)
        cfg = SaddleConfig(gap_tol=1e-6)
        steps = saddle._newton_steps
        damped, formed = [], []

        def positive(*args):
            for full, us, mu, breakdown in steps(*args):
                if len(us) == 2:
                    us[1, :-1] = np.abs(us[1, :-1]) + 1.0
                damped.append(-us[0, :-1])  # the working set holds all three matrices
                yield full, us, mu, breakdown

        def combination(y, stack):
            formed.append(y)
            return domains._combination(y, stack)

        monkeypatch.setattr(saddle, "_newton_steps", positive)
        monkeypatch.setattr(saddle, "_combination", combination)
        # the candidates are the damped iterate and the Newton point
        without_face_step(monkeypatch)
        calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = solve_minimax(inst, cfg, on_bounds=lambda *a: calls.append(a))
        monkeypatch.undo()
        want = damped_only_bounds(inst.stacked, inst.spectra, cfg)
        # each step forms one combination, the damped iterate's, never the Newton point's
        assert len(formed) == len(damped) == len(calls)
        assert all(np.array_equal(y, d / d.sum()) for y, d in zip(formed, damped))
        assert all(lo >= want_lo for (_, _, lo), (_, want_lo) in zip(calls, want))
        assert upper_value(cert.x_bar, inst) == cert.upper
        assert lower_value(cert.y_bar, inst) == cert.lower


    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_bracket_skips_a_point_that_is_not_finite(self, value):
        # a Newton point with one entry of X and one weight not finite is dropped before
        # any eigen call reads it; the damped iterate's bracket is the same, bit for bit
        rng = np.random.default_rng(5)
        stack = symmetric_family(rng, 4, 3).stacked
        xs = np.array([sample_spectraplex(4, rng).array] * 2)
        ys = np.array([sample_simplex(3, rng).weights] * 2)
        alone = saddle._bracket(stack, xs[:1], ys[:1])
        xs[1, 0, 1], ys[1, 2] = value, abs(value)
        got = saddle._bracket(stack, xs, ys)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in alone]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("shape", ["dense", "game"])
    def test_a_newton_point_that_is_not_finite_is_skipped(self, monkeypatch, shape, value):
        # every Newton point made NaN or inf, X and multipliers: the solve still certifies,
        # from the damped iterates and the face steps, and its bounds recompute; the game
        # has more than n + 1 rows, so it takes Newton steps
        if shape == "dense":
            inst = symmetric_family(np.random.default_rng(3), 6, 4)
        else:
            inst = tall_game()
        cfg = SaddleConfig(gap_tol=1e-6 * float(np.abs(inst.spectra).max()))
        steps = saddle._newton_steps

        def broken(*args):
            for full, us, mu, breakdown in steps(*args):
                if len(full) == 2:
                    full[1], us[1] = value, value
                yield full, us, mu, breakdown

        for solve in (solve_minimax, solve_maximin):
            with monkeypatch.context() as patch, warnings.catch_warnings():
                warnings.simplefilter("error")
                patch.setattr(saddle, "_newton_steps", broken)
                cert = solve(inst, cfg)
            assert cert.converged, solve.__name__
            assert_bounds_recompute(solve, cert, inst, solve.__name__)


@pytest.fixture(scope="module")
def fuzz_attempts():
    """Every face step of the 400 fuzz families, solved both ways at relative gap 1e-8 (a
    diagonal family's attempts are exact finishes, and are not recorded): for each solve,
    its name and its events in order. An attempt's event is (Newton step, face, (lower,
    upper) it starts from, its point's weights on the face or None, the payoffs at the
    incumbent X it starts from); the solver's debug line for a correction
    adds the event "corrected" between the attempt that it corrects and the correction."""
    face_step, events, rounds, runs = saddle._face_step, [], [], []

    def watched(stack, scale, face, x, y, lower, upper, tol):
        point = face_step(stack, scale, face, x, y, lower, upper, tol)
        events.append((len(rounds) + 1, face.tolist(), (lower, upper),
                       None if point is None else point[1][face].tolist(),
                       domains._payoffs(stack, x).tolist()))
        return point

    class Corrections(logging.Handler):
        def emit(self, record):
            if record.msg.startswith("face corrected"):
                events.append("corrected")

    handler, level = Corrections(logging.DEBUG), saddle.logger.level
    saddle.logger.addHandler(handler)
    saddle.logger.setLevel(logging.DEBUG)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(saddle, "_face_step", watched)
            for kind, seed in FUZZ_SEEDS:
                rng = np.random.default_rng(seed)
                for index in range(100):
                    inst = InstanceSet(fuzz_family(kind, rng))
                    cfg = SaddleConfig(gap_tol=1e-8 * float(np.abs(inst.spectra).max()))
                    for solve in (solve_minimax, solve_maximin):
                        events, rounds = [], []
                        solve(inst, cfg, on_bounds=lambda *a: rounds.append(a))
                        runs.append(((kind, index, solve.__name__), events))
    finally:
        saddle.logger.removeHandler(handler)
        saddle.logger.setLevel(level)
    return runs


def base_game():
    """The benchmark's base 4x6 game, unscaled and embedded diagonally, and the game; its
    scale is 4 and its value -24/55."""
    payoff = np.random.default_rng([190509762, 203]).integers(-4, 5, (4, 6))
    game = VectorGame(tuple(tuple(r) for r in payoff.tolist()))
    return embed_diagonal(game), game


def tall_game():
    """The base game with four seeded rows more, embedded diagonally: 8 rows over 6
    columns, more than n + 1, so the face gate does not admit it whole and it is not
    finished before its first Newton step."""
    extra = np.random.default_rng(0).integers(-4, 5, (4, 6)).astype(float)
    rows = np.vstack([base_game()[0].stacked.diagonal(axis1=1, axis2=2), extra])
    return InstanceSet([np.diag(r) for r in rows])


class TestFaceStep:
    """A face attempt gives a third candidate: Newton on a block family's guessed face,
    the exact simplex on a diagonal family's."""

    @pytest.mark.parametrize("shape", ["dense", "game"])
    def test_it_closes_a_solve_within_two_steps(self, monkeypatch, shape):
        # a 10x8 dense family to 1e-8 of its scale both ways by the face step, one Newton
        # step each, and a 5x8 game to the benchmark's 1e-4 by the exact finish on all its
        # rows before any Newton step; four to nine steps without them
        if shape == "dense":
            inst, rel = symmetric_family(np.random.default_rng(2), 10, 8), 1e-8
            solves, with_face, without = (solve_minimax, solve_maximin), (1, 1), (8, 9)
        else:
            rows = np.random.default_rng(2).integers(-4, 5, (5, 8)).astype(float)
            inst, rel = InstanceSet([np.diag(r) for r in rows]), 1e-4
            solves, with_face, without = (solve_minimax,), (0,), (4,)
        cfg = SaddleConfig(gap_tol=rel * float(np.abs(inst.spectra).max()))
        for solve, k, steps in zip(solves, with_face, without):
            with monkeypatch.context() as patch:
                log = LapackLog(patch)
                faces = finish_faces(patch)
                cert = solve(inst, cfg)
            assert cert.converged and cert.iterations == k, solve.__name__
            assert log.faces[-1][::2] == (k, True), solve.__name__
            if shape == "game":
                assert_finished_whole(log, faces, k, 5, 8)
            assert_bounds_recompute(solve, cert, inst, solve.__name__)
            with monkeypatch.context() as patch:
                without_face_step(patch)
                assert solve(inst, cfg).iterations == steps, solve.__name__

    def test_a_wide_family_makes_no_attempt_and_no_other_lapack_call(self, monkeypatch):
        # n = 6, m = 100: after step 2 the gap is 0.066 of the scale, within the gate,
        # but more matrices than q + 1 = 22 pay within three gaps of the upper bound, so
        # no face step is taken, and the solve is the one made without the face step
        inst = symmetric_family(np.random.default_rng(0), 6, 100)
        scale = float(np.abs(inst.spectra).max())
        cfg, runs = SaddleConfig(gap_tol=1e-2 * scale), []
        for face in (True, False):
            calls = []
            with monkeypatch.context() as patch:
                if not face:
                    without_face_step(patch)
                log = LapackLog(patch)
                cert = solve_minimax(inst, cfg, on_bounds=lambda *a: calls.append(a))
            runs.append((log, cert, calls))
        (log, cert, calls), (bare, bare_cert, bare_calls) = runs
        assert cfg.gap_tol < calls[1][1] - calls[1][2] <= 0.1 * scale < calls[0][1] - calls[0][2]
        assert cert.iterations == 4 and log.faces == []
        assert log.calls == bare.calls and calls == bare_calls
        assert cert.x_bar.array.tobytes() == bare_cert.x_bar.array.tobytes()
        assert cert.y_bar.weights.tobytes() == bare_cert.y_bar.weights.tobytes()

    def test_a_degenerate_face_neither_warns_nor_loosens_an_incumbent(self, monkeypatch):
        # three copies of one matrix on the face leave y's split among them free, so the
        # face system is singular: each of the attempt's three steps is the minimum-norm
        # one, and the one attempt, after step 1, closes the solve that takes seven
        # Newton steps without it
        a = symmetric_family(np.random.default_rng(0), 5, 2).stacked
        inst = InstanceSet([a[0], a[1], a[1], a[1]])
        cfg = SaddleConfig(gap_tol=1e-8 * float(np.abs(inst.spectra).max()))
        runs, singular = [], []
        lstsq = np.linalg.lstsq
        for face in (True, False):
            calls = []
            with monkeypatch.context() as patch, warnings.catch_warnings():
                warnings.simplefilter("error")
                if not face:
                    without_face_step(patch)
                patch.setattr(np.linalg, "lstsq", lambda a, *args, **kw: (
                    singular.append(a.shape) or lstsq(a, *args, **kw)))
                log = LapackLog(patch)
                cert = solve_minimax(inst, cfg, on_bounds=lambda *a: calls.append(a))
            runs.append((log, cert, calls))
        (log, cert, calls), (_, bare_cert, bare_calls) = runs
        assert [(at, point) for at, _, point in log.faces] == [(1, True)]
        assert singular == [(7, 7)] * 3
        assert cert.converged and cert.iterations == 1 and bare_cert.iterations == 7
        # the step's incumbents are no looser than those of the same step without it
        assert calls == [(1, cert.upper, cert.lower)] and len(bare_calls) == 7
        assert cert.upper <= bare_calls[0][1] and cert.lower >= bare_calls[0][2]
        assert_bounds_recompute(solve_minimax, cert, inst, "degenerate")

    def test_a_second_attempt_from_the_improved_incumbents_closes_the_solve(self, monkeypatch):
        # a seeded 6x4 block family to relative gap 1e-6: after Newton step 1 the first
        # attempt improves the incumbents but leaves the gap open, and the second, from
        # them, closes it; with one attempt per step the solve takes a second Newton step
        inst = symmetric_family(np.random.default_rng(20), 6, 4)
        cfg = SaddleConfig(gap_tol=1e-6 * float(np.abs(inst.spectra).max()))
        runs = []
        for second in (True, False):
            calls = []
            with monkeypatch.context() as patch:
                log = LapackLog(patch)
                if not second:
                    first_attempt_only(patch, log)
                cert = solve_minimax(inst, cfg, on_bounds=lambda *a: calls.append(a))
            runs.append((log, cert, calls))
        (log, cert, calls), (one, one_cert, one_calls) = runs
        assert [(at, point) for at, _, point in log.faces] == [(1, True), (1, True)]
        assert cert.converged and cert.iterations == 1
        assert [(at, point) for at, _, point in one.faces] == [(1, True), (2, True)]
        assert one_cert.converged and one_cert.iterations == 2
        # the first attempt alone leaves the gap above the target after step 1
        assert one_calls[0][1] - one_calls[0][2] > cfg.gap_tol
        assert calls == [(1, cert.upper, cert.lower)]
        assert_bounds_recompute(solve_minimax, cert, inst, "second attempt")

    def test_a_failed_attempt_is_retried_on_the_one_gap_face(self, monkeypatch, caplog):
        # a seeded 3x3 block family to relative gap 1e-8: after Newton step 1 the attempt
        # on the three matrices within three gaps of the upper bound stalls at its first
        # Gauss-Newton step, and the retry on the one within one gap converges, so the
        # solve takes one Newton step; with one attempt per step, no retry, it takes two
        inst = symmetric_family(np.random.default_rng(2), 3, 3)
        cfg = SaddleConfig(gap_tol=1e-8 * float(np.abs(inst.spectra).max()))
        caplog.set_level(logging.DEBUG, logger=saddle.logger.name)
        with monkeypatch.context() as patch:
            log = LapackLog(patch)
            cert = solve_minimax(inst, cfg)
        assert cert.converged and cert.iterations == 1
        assert [(at, point) for at, _, point in log.faces] == [(1, False), (1, True)]
        assert [r.getMessage() for r in caplog.records if r.msg.startswith("face step")] == [
            "face step on 3 matrices: 1 Gauss-Newton steps, stalled",
            "face step on 1 matrices: 3 Gauss-Newton steps, converged",
        ]
        assert_bounds_recompute(solve_minimax, cert, inst, "retry")
        with monkeypatch.context() as patch:
            first_attempt_only(patch, LapackLog(patch))
            assert solve_minimax(inst, cfg).iterations == 2

    @pytest.mark.parametrize("index, rel, shape, steps", [
        (47, 1e-8, (1, 3), 1),  # 6 Newton steps without the retry
    ])
    def test_the_retry_closes_scaled_fuzz_instances(self, index, rel, shape, steps):
        inst = scaled_fuzz_instance(index)
        assert (inst.n, inst.m) == shape
        cert = solve_minimax(inst, SaddleConfig(gap_tol=rel * float(np.abs(inst.spectra).max())))
        assert cert.converged and cert.iterations <= steps
        assert_bounds_recompute(solve_minimax, cert, inst, ("scaled", index))

    @pytest.mark.parametrize("solve, index, rows", [(solve_minimax, 50, 1), (solve_maximin, 27, 2)],
                             ids=["solve_minimax-50", "solve_maximin-27"])
    def test_a_step_that_improves_neither_incumbent_guesses_the_face_within_one_gap(
            self, solve, index, rows, caplog):
        # two diagonal 1x7 scaled fuzz families at relative gap 1e-12: the Newton iterates
        # stall at a wrong lower bound, and the face within three gaps holds more than
        # q + 1 = 2 matrices. After step 7, which improves neither incumbent, the face
        # within one gap is finished exactly and closes the solve; without that guess both
        # stop short at the 100-step cap
        inst = scaled_fuzz_instance(index)
        assert (inst.n, inst.m) == (1, 7) and saddle._is_diagonal(inst.stacked)
        caplog.set_level(logging.DEBUG, logger=saddle.logger.name)
        cert = solve(inst, SaddleConfig(gap_tol=1e-12 * float(np.abs(inst.spectra).max())))
        assert cert.converged and cert.iterations == 7, solve.__name__
        assert [r.getMessage() for r in caplog.records if r.msg.startswith("exact")] == [
            f"exact finish on {rows} rows: 0 rows added, 1 simplex rounds"]
        assert_bounds_recompute(solve, cert, inst, ("scaled", index))

    def test_a_point_weighing_a_face_matrix_at_or_below_zero_is_corrected_at_once(
            self, monkeypatch, caplog):
        # a seeded 3x2 block family to relative gap 1e-8: after Newton step 1 the attempt
        # on both matrices converges to a point that weighs one of them at or below zero,
        # and the correction on the other closes the solve, in one Newton step; with one
        # attempt per step, no correction, it takes three
        inst = symmetric_family(np.random.default_rng(3), 3, 2)
        cfg = SaddleConfig(gap_tol=1e-8 * float(np.abs(inst.spectra).max()))
        caplog.set_level(logging.DEBUG, logger=saddle.logger.name)
        with monkeypatch.context() as patch:
            log = LapackLog(patch)
            cert = solve_minimax(inst, cfg)
        assert cert.converged and cert.iterations == 1
        assert [(at, point) for at, _, point in log.faces] == [(1, True), (1, True)]
        assert [r.getMessage() for r in caplog.records if r.msg.startswith("face")] == [
            "face step on 2 matrices: 4 Gauss-Newton steps, converged",
            "face corrected: 1 of 2 matrices weigh above zero",
            "face step on 1 matrices: 1 Gauss-Newton steps, converged",
        ]
        assert_bounds_recompute(solve_minimax, cert, inst, "correction")
        with monkeypatch.context() as patch:
            first_attempt_only(patch, LapackLog(patch))
            assert solve_minimax(inst, cfg).iterations == 3

    def test_a_diagonal_family_attempts_at_step_1_and_a_block_family_waits_for_the_gate(
            self, monkeypatch):
        # the 8x6 tall game, which the face gate does not admit whole, and the base 4x6
        # game rotated into a block family: after Newton step 1 the incumbents' gap is
        # 0.190 and 0.199 of the scale, above the block's gate of 0.1. The diagonal family
        # makes its exact finish there, and none before; the block family first attempts
        # its face step after step 2
        q = random_orthogonal(np.random.default_rng(0), 6)
        block = InstanceSet([q @ a @ q.T for a in base_game()[0].stacked])
        steps = saddle._newton_steps
        for family, diagonal, kind, first in ((tall_game(), True, "_finish", 1),
                                              (block, False, "_face_step", 2)):
            scale = float(np.abs(family.spectra).max())
            cfg = SaddleConfig(gap_tol=1e-4 * scale)
            attempts, taken, bare = [], [], []

            def counted(*args):
                for out in steps(*args):
                    taken.append(out[2])
                    yield out

            def watch(name, attempt):
                def watched(*args):
                    attempts.append((name, len(taken)))  # the attempt and its step
                    return attempt(*args)
                return watched

            with monkeypatch.context() as patch:
                patch.setattr(saddle, "_newton_steps", counted)
                for name in ATTEMPTS:
                    patch.setattr(saddle, name, watch(name, getattr(saddle, name)))
                cert = solve_minimax(family, cfg)
            # the Newton iterates never depend on an attempt, so step 1's bracket without
            # any is the one that the first attempt starts from
            with monkeypatch.context() as patch:
                without_face_step(patch)
                solve_minimax(family, cfg, on_bounds=lambda *a: bare.append(a))
            assert saddle._is_diagonal(family.stacked) == diagonal
            assert attempts[0] == (kind, first) and {a for a, _ in attempts} == {kind}
            assert bare[0][1] - bare[0][2] > 0.1 * scale, diagonal
            assert cert.converged
            assert_bounds_recompute(solve_minimax, cert, family, diagonal)

    def test_a_step_makes_at_most_five_attempts_and_retries_on_fewer(
            self, fuzz_attempts):
        # over the 400 fuzz families both ways at relative gap 1e-8, on the face steps of
        # the 300 that are block families. An attempt that the
        # solver logs as a correction is one; any other from the same incumbents as the
        # attempt before it in its step is a retry, since that one improved neither
        # bound; the rest are face guesses. A step guesses at most two faces, corrects
        # each at most once and retries at most once, so it makes at most five attempts.
        # A retry is on the matrices within one gap of the upper bound (the gap of its
        # step's last guess), fewer than the failed face: a strict subset of it when that
        # was a guess, the matrices within three gaps, but after a correction it may hold
        # a matrix that the correction dropped. 130 corrections, 93 retries, and 3 steps
        # make five attempts
        kinds = {"guess": 0, "correction": 0, "retry": 0}
        most = 0
        for solve, events in fuzz_attempts:
            by_step = {}
            for before, attempt in zip([None, *events], events):
                if attempt != "corrected":
                    by_step.setdefault(attempt[0], []).append((before == "corrected", attempt))
            for step, made in by_step.items():
                guesses, retries, corrected, gap = 0, 0, set(), None
                for (was, last), (correction, (_, face, (lower, upper), _, pays)) in zip(
                        [(None, None), *made], made):
                    if correction:
                        assert guesses not in corrected, (solve, step)
                        corrected.add(guesses)
                        kinds["correction"] += 1
                    elif last is not None and (lower, upper) == last[2]:
                        one = [i for i, pay in enumerate(pays) if pay >= upper - gap]
                        assert face == one and len(face) < len(last[1]), (solve, step)
                        assert was or set(face) < set(last[1]), (solve, step)
                        retries += 1
                        kinds["retry"] += 1
                    else:
                        guesses, gap = guesses + 1, upper - lower
                        kinds["guess"] += 1
                assert guesses <= 2 and retries <= 1 and len(made) <= 5, (solve, step)
                most = max(most, len(made))
        assert kinds["retry"] > 0 and kinds["correction"] > 0 and most == 5, kinds

    def test_each_correction_drops_exactly_the_matrices_weighed_at_or_below_zero(
            self, fuzz_attempts):
        # over the same fuzz: after each logged correction, the next attempt, in the same
        # Newton step, is on the face before it less the matrices whose weight at that
        # face's point was zero or below, a nonempty strict subset of it
        corrections = 0
        for solve, events in fuzz_attempts:
            for before, marker, after in zip(events, events[1:], events[2:]):
                if marker != "corrected":
                    continue
                (step, face, _, weights, _), (at, kept, *_) = before, after
                assert at == step and weights is not None, solve
                assert kept == [i for i, w in zip(face, weights) if w > 0.0], solve
                assert 0 < len(kept) < len(face), solve
                corrections += 1
        assert corrections > 0

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("shape", ["dense"])
    def test_a_face_step_solve_that_is_not_finite_stalls_its_attempt(
            self, monkeypatch, caplog, shape, value):
        # np.linalg.solve, which only the face step calls, made to return NaN or inf:
        # every attempt stalls after its first Gauss-Newton step, before Z's eigh reads
        # that point, and returns no point, so each solve is the one made without the
        # face step, bit for bit
        inst = symmetric_family(np.random.default_rng(2), 10, 8)
        cfg = SaddleConfig(gap_tol=1e-8 * float(np.abs(inst.spectra).max()))
        caplog.set_level(logging.DEBUG, logger=saddle.logger.name)
        for solve in (solve_minimax, solve_maximin):
            caplog.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, value))
                log = LapackLog(patch)
                cert = solve(inst, cfg)
            with monkeypatch.context() as patch:
                without_face_step(patch)
                bare = solve(inst, cfg)
            lines = [r.getMessage() for r in caplog.records if r.msg.startswith("face step")]
            assert lines and all(line.endswith(": 1 Gauss-Newton steps, stalled")
                                 for line in lines), solve.__name__
            # Z is eigendecomposed once per attempt, at its start
            assert [(point, made["eigh"]) for _, made, point in log.faces] == [
                (False, [(inst.n, inst.n)])] * len(lines), solve.__name__
            assert (cert.upper, cert.lower, cert.iterations, cert.converged) == (
                bare.upper, bare.lower, bare.iterations, bare.converged), solve.__name__
            assert cert.x_bar.array.tobytes() == bare.x_bar.array.tobytes()
            assert cert.y_bar.weights.tobytes() == bare.y_bar.weights.tobytes()
            assert_bounds_recompute(solve, cert, inst, solve.__name__)

    def test_eigenvector_signs_move_no_bit(self, monkeypatch):
        # LAPACK fixes no eigenvector's sign. The face step's Q^T M Q and Q M' Q^T, like
        # the bracket's U f(w) U^T, are exact under any choice, so every other column
        # negated gives the same face attempts and certificates, bit for bit; the game's
        # exact finish reads no eigenvector
        rng = np.random.default_rng(4)
        families = []
        for n, m in ((6, 4), (8, 6), (10, 8)):
            q = random_orthogonal(rng, n)
            families.append(InstanceSet([q @ a @ q.T for a in symmetric_family(rng, n, m).stacked]))
        rows = rng.integers(-4, 5, (5, 8)).astype(float)
        families.append(InstanceSet([np.diag(r) for r in rows]))
        eigh = saddle._eigh_raw

        def negated(a):
            lam, vec = eigh(a)
            vec[..., 1::2] *= -1.0
            return lam, vec

        for inst in families:
            cfg = SaddleConfig(gap_tol=1e-8 * float(np.abs(inst.spectra).max()))
            for solve in (solve_minimax, solve_maximin):
                runs = []
                for signs in (eigh, negated):
                    with monkeypatch.context() as patch:
                        patch.setattr(saddle, "_eigh_raw", signs)
                        log = LapackLog(patch)
                        cert = solve(inst, cfg)
                    runs.append(([(at, point) for at, _, point in log.faces], cert.iterations,
                                 cert.upper, cert.lower, cert.x_bar.array.tobytes(),
                                 cert.y_bar.weights.tobytes()))
                assert runs[0] == runs[1], (inst.n, inst.m, solve.__name__)
                assert cert.converged and any(point for _, point in runs[0][0])


def assert_at_the_exact_value(solve, inst, rel, case):
    """``solve`` on the diagonal family ``inst`` at relative gap ``rel`` converges, its
    bounds recompute, and both lie within 4 eps times the scale of the exact value of its
    game by ``classic_value_exact``: for maximin, the negated game's value, negated.
    Returns the certificate."""
    scale = float(np.abs(inst.spectra).max())
    cert = solve(inst, SaddleConfig(gap_tol=rel * scale))
    sign = 1.0 if solve is solve_minimax else -1.0
    rows = (sign * inst.stacked.diagonal(axis1=1, axis2=2)).tolist()
    exact = sign * classic_value_exact(VectorGame(rows))
    assert cert.converged, case
    assert_bounds_recompute(solve, cert, inst, case)
    tol = 4.0 * np.finfo(float).eps * scale
    assert abs(cert.upper - exact) <= tol and abs(cert.lower - exact) <= tol, (case, cert, exact)
    return cert


class TestExactFinish:
    """A diagonal family finishes on its face by the exact simplex, so its certificate is
    the game's exact equilibrium, rounded to floats."""

    # the benchmark's six base games: (rows m, columns n) and the seed of each
    GAMES = [(2, 3, 200), (3, 3, 201), (3, 5, 202), (4, 6, 203), (5, 7, 204), (5, 8, 205)]

    @pytest.mark.parametrize("m, n, seed", GAMES)
    def test_game_shapes_close_at_step_1_on_the_exact_value_at_every_scale(
            self, monkeypatch, m, n, seed):
        # at the benchmark's relative gap 1e-4, both ways and at scales 2^-500 to 2^500,
        # which move no bit of the solve but the exponents: every game has m <= n + 1
        # rows, and the finish on all of them, before any Newton step, closes each solve
        # on the exact value
        shape = (m, n)
        payoff = np.random.default_rng([190509762, seed]).integers(-4, 5, shape)
        for k in (-500, -20, 0, 6, 500):
            inst = InstanceSet([np.diag(r) for r in payoff * 2.0 ** k])
            for solve in (solve_minimax, solve_maximin):
                case = (shape, k, solve.__name__)
                cert = assert_at_the_exact_value(solve, inst, 1e-4, case)
                # the same solve again, its LAPACK calls and finishes watched
                with monkeypatch.context() as patch:
                    log = LapackLog(patch)
                    faces = finish_faces(patch)
                    again = solve(inst, SaddleConfig(gap_tol=1e-4 * cert.scale))
                assert (again.upper, again.lower) == (cert.upper, cert.lower), case
                assert_finished_whole(log, faces, again.iterations, m, n, case)

    @pytest.mark.parametrize("m", [7, 8], ids=["n+1", "n+2"])
    def test_the_face_gate_admits_a_game_of_at_most_n_plus_1_rows_whole(self, monkeypatch, m):
        # the tall game's first m rows over n = 6 columns, both ways: 7 rows are finished
        # whole before any Newton step and close there; 8 take Newton step 1 and make
        # their first finish after it
        inst = InstanceSet(tall_game().stacked[:m])
        cfg = SaddleConfig(gap_tol=1e-4 * float(np.abs(inst.spectra).max()))
        for solve in (solve_minimax, solve_maximin):
            with monkeypatch.context() as patch:
                log = LapackLog(patch)
                faces = finish_faces(patch)
                cert = solve(inst, cfg)
            assert cert.converged, solve.__name__
            assert_bounds_recompute(solve, cert, inst, solve.__name__)
            if m == 7:
                assert_finished_whole(log, faces, cert.iterations, m, 6, solve.__name__)
            else:
                assert cert.iterations >= 1 and log.faces[0][0] == 1, solve.__name__

    def test_a_gap_target_below_the_finish_brackets_rounding_falls_through_to_newton_steps(
            self, monkeypatch):
        # the game [[-3, 1], [2, 0]] has value 1/3, which is not a float: its exact
        # finish's bracket, before any Newton step, is 5.6e-17 wide, above a target of
        # 1e-17, so the solve goes on to Newton steps from those incumbents
        inst = InstanceSet([np.diag([-3.0, 1.0]), np.diag([2.0, 0.0])])
        cfg, bracket, brackets, calls = SaddleConfig(gap_tol=1e-17), saddle._bracket, [], []

        def recorded(*args):
            brackets.append(bracket(*args))
            return brackets[-1]

        with monkeypatch.context() as patch:
            patch.setattr(saddle, "_bracket", recorded)
            cert = solve_minimax(inst, cfg, on_bounds=lambda *a: calls.append(a))
        _, pays, _, los = brackets[0]  # the finish's point, before any Newton step
        up, lo = float(pays.max()), float(los[0])
        assert up - lo > cfg.gap_tol
        assert cert.iterations >= 1 and [c[0] for c in calls] == list(range(1, cert.iterations + 1))
        # no bound is ever looser than that first bracket, and the certificate recomputes
        assert all(u <= up and l >= lo for _, u, l in calls)
        assert cert.upper <= up and cert.lower >= lo
        assert_bounds_recompute(solve_minimax, cert, inst, "1/3")

    def test_on_bounds_is_never_called_on_a_solve_of_no_newton_step(self):
        # on_bounds fires once per Newton step, so a game closed by its finish before any
        # step makes no call
        inst = base_game()[0]
        for solve in (solve_minimax, solve_maximin):
            calls = []
            cert = solve(inst, on_bounds=lambda *a: calls.append(a))
            assert cert.converged and cert.iterations == 0 and calls == [], solve.__name__

    @pytest.mark.parametrize("rel", [1e-6, 1e-8, 1e-12])
    def test_the_diagonal_fuzz_certifies_the_exact_value(self, rel):
        # the 100 diagonal fuzz families, float games of 1-8 rows and columns, both ways
        rng = np.random.default_rng(dict(FUZZ_SEEDS)["diagonal"])
        for index in range(100):
            inst = InstanceSet(fuzz_family("diagonal", rng))
            for solve in (solve_minimax, solve_maximin):
                assert_at_the_exact_value(solve, inst, rel, (index, solve.__name__))


# the fuzz families and the seed of each; ``tools/fingerprints.py`` digests the same
FUZZ_SEEDS = (("symmetric", 1000), ("identical", 1001), ("scaled", 1002), ("diagonal", 1003))


def fuzz_family(kind, rng):
    """One seeded fuzz instance, n and m drawn from [1, 9): random symmetric, m copies
    of one matrix, random symmetric scaled by 10^U(-8, 8) each, or diagonal."""
    n, m = (int(k) for k in rng.integers(1, 9, 2))
    if kind == "identical":
        g = rng.standard_normal((n, n))
        return np.repeat(((g + g.T) / 2.0)[None], m, axis=0)
    if kind == "diagonal":
        return np.stack([np.diag(r) for r in rng.standard_normal((m, n))])
    g = rng.standard_normal((m, n, n))
    g = (g + g.transpose(0, 2, 1)) / 2.0
    return g * 10.0 ** rng.uniform(-8, 8, (m, 1, 1)) if kind == "scaled" else g


def scaled_fuzz_instance(index):
    """The ``scaled`` fuzz family of that index in its seeded sequence."""
    rng = np.random.default_rng(dict(FUZZ_SEEDS)["scaled"])
    for _ in range(index + 1):
        inst = InstanceSet(fuzz_family("scaled", rng))
    return inst


def assert_bounds_recompute(solve, cert, inst, case):
    """The bounds of ``solve``'s certificate recompute bit for bit from its strategies:
    for maximin, lower is min_i <A_i, x_bar> and upper the combination's top eigenvalue."""
    if solve is solve_minimax:
        assert upper_value(cert.x_bar, inst) == cert.upper, case
        assert lower_value(cert.y_bar, inst) == cert.lower, case
    else:
        vals = np.tensordot(inst.stacked, cert.x_bar.array, axes=([1, 2], [0, 1]))
        assert float(vals.min()) == cert.lower, case
        top = np.linalg.eigh(weighted_combination(cert.y_bar, inst))[0][-1]
        assert top == cert.upper, case


def fuzz_short_stops(rel):
    """Solves the 400 seeded fuzz families both ways at relative gap ``rel``, checks that
    every certificate recomputes bit for bit, and returns the (minimax, maximin) counts
    of solves that stop short: on a Cholesky breakdown that no Schur retry mends, or at
    the step cap."""
    short = {solve_minimax: 0, solve_maximin: 0}
    for kind, seed in FUZZ_SEEDS:
        rng = np.random.default_rng(seed)
        for _ in range(100):
            inst = InstanceSet(fuzz_family(kind, rng))
            cfg = SaddleConfig(gap_tol=rel * float(np.abs(inst.spectra).max()))
            for solve in short:
                cert = solve(inst, cfg)
                assert_bounds_recompute(solve, cert, inst, (kind, rel))
                short[solve] += not cert.converged
    return short[solve_minimax], short[solve_maximin]


def test_seeded_fuzz_certificates_recompute_and_few_solves_stop_short():
    # 4 families x 100 instances x 2 relative gaps, solved both ways. The face step
    # and the exact finish close all 1,600, so none may stop short.
    assert fuzz_short_stops(1e-6) == fuzz_short_stops(1e-8) == (0, 0)


def test_seeded_fuzz_at_relative_gap_1e_12_recomputes_and_few_solves_stop_short():
    # the same 400 families both ways at a tight gap, in about 2 s: every bracket stays
    # valid, but 18 minimax and 23 maximin solves stop short, 17 + 22 of them on `scaled`
    # families and 1 + 1 on `symmetric` ones, none diagonal; a change may lower these
    # counts, not raise them
    minimax, maximin = fuzz_short_stops(1e-12)
    assert minimax <= 18 and maximin <= 23


def out_of_place_tril_inv(l):
    """The inverse by halves into a fresh zero matrix, leaving l as it is."""
    k = len(l) // 2
    if k < 16:
        return np.linalg.inv(l)
    out = np.zeros_like(l)
    out[:k, :k], out[k:, k:] = out_of_place_tril_inv(l[:k, :k]), out_of_place_tril_inv(l[k:, k:])
    out[k:, :k] = -out[k:, k:] @ l[k:, :k] @ out[:k, :k]
    return out


class TestNewtonStepPieces:
    def test_tril_inv_writes_the_out_of_place_inverse_over_its_argument(self, rng):
        # orders 1-100 cross the split at 32, where the recursion starts
        for order in range(1, 101):
            g = rng.standard_normal((order, order))
            l = np.linalg.cholesky(g @ g.T + order * np.eye(order))
            want = out_of_place_tril_inv(l)
            assert saddle._tril_inv(l) is l
            assert l.tobytes() == want.tobytes()

    def test_schur_cholesky_factors_a_positive_definite_matrix_as_it_is(self, rng):
        g = rng.standard_normal((6, 6))
        a = g @ g.T + np.eye(6)
        want = np.linalg.cholesky(a)
        assert saddle._schur_cholesky(a.copy()).tobytes() == want.tobytes()

    def test_schur_cholesky_retries_with_a_growing_diagonal(self):
        # rank one: the first retry, 1e-14 times the largest diagonal entry, factors
        a = np.full((3, 3), 2.0)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(a)
        want = np.linalg.cholesky(a + 2e-14 * np.eye(3))
        assert saddle._schur_cholesky(a.copy()).tobytes() == want.tobytes()
        # negative definite: every retry fails, and the breakdown is raised
        with pytest.raises(np.linalg.LinAlgError):
            saddle._schur_cholesky(-np.eye(3))


def test_dense_10x8_solves_peak_memory_below_0_050_mib():
    # the benchmark's largest dense shape, solved both ways at its relative gap 3e-3:
    # the face steps read the rotated face on the columns of Z's null space only, never
    # as a (k, n, n) array, and each Newton step's temporaries die with the step, so
    # after peak_bytes' untraced warm-up call both solves peak at 46.6-48.4 KiB,
    # whether this test runs alone, with the other peak-memory tests or in the suite
    inst = random_instance(np.random.default_rng(0), 10, 8)
    cfg = SaddleConfig(gap_tol=3e-3 * float(np.abs(inst.spectra).max()))
    assert peak_bytes(lambda: (solve_minimax(inst, cfg), solve_maximin(inst, cfg))) < 0.050 * 2**20


def test_solve_minimax_peak_memory_below_0_45_mib():
    # at n=8, m=200 the working set grows once, to 109 of the 200 matrices, so the
    # Schur matrix of order 110 and its factor are about 95 KiB each and the solve
    # peaks near 0.32 MiB; one Schur matrix of order m+1 alone would take 316 KiB
    inst = random_instance(np.random.default_rng(5), 8, 200)
    assert peak_bytes(lambda: solve_minimax(inst)) < 0.45 * 2**20


def test_the_face_steps_kept_pairs_are_built_once_per_pair_of_orders_and_read_only():
    for n in range(1, 13):
        for ns in range(1, n + 1):
            pairs = saddle._kept_pairs(ns, n)
            # the construction that each face-step attempt made before it was cached
            tj, tl = np.nonzero(np.tri(ns, dtype=bool).T)
            want = (tj * ns + tl, tl * ns + tj, tj * n + tl, tl * n + tj,
                    np.where(tj == tl, 1.0, 2.0))
            assert len(pairs) == len(want)
            for got, ref in zip(pairs, want):
                assert got.dtype == ref.dtype and np.array_equal(got, ref)
                assert not got.flags.writeable
            assert saddle._kept_pairs(ns, n) is pairs
