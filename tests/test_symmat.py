import ast
import math
from pathlib import Path

import numpy as np
import pytest

import specmm
from specmm import lambda_min
from specmm.domains import _payoffs
from specmm.symmat import _eigh_raw, _eigvals_raw

from conftest import random_orthogonal, random_symmetric


def eig2x2_closed_form(a, b, c):
    """Eigenvalues of [[a, b], [b, c]] from the characteristic polynomial."""
    mid = 0.5 * (a + c)
    rad = math.hypot(0.5 * (a - c), b)
    return mid - rad, mid + rad


def inner(a, b):
    """<A, B> by the library's one contraction, domains._payoffs."""
    (v,) = _payoffs(np.asarray(a, dtype=float)[None], np.asarray(b, dtype=float))
    return float(v)


class TestFrobeniusInner:
    def test_identity_pair(self):
        assert inner(np.eye(2), np.eye(2)) == 2.0

    def test_orthogonal_pair(self):
        z = np.array([[1.0, 0.0], [0.0, -1.0]])
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert inner(z, x) == 0.0

    def test_entrywise_sum(self):
        a = np.array([[1.0, 2.0], [2.0, 3.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert inner(a, b) == 4.0

    def test_symmetric_bilinear(self, rng):
        for _ in range(20):
            a = random_symmetric(rng, 5)
            b = random_symmetric(rng, 5)
            c = random_symmetric(rng, 5)
            assert inner(a, b) == pytest.approx(inner(b, a), abs=1e-12)
            lhs = inner(a, 2.0 * b + c)
            rhs = 2.0 * inner(a, b) + inner(a, c)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_tensordot_is_used_only_here(self):
        # the stack contractions have one home, domains._payoffs and
        # domains._combination; this keeps a copy from growing back elsewhere
        users = []
        for path in sorted(Path(specmm.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
            for node in ast.walk(tree):
                if any(getattr(node, k, None) == "tensordot" for k in ("attr", "id", "name")):
                    owner = [f.name for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                    users.append(".".join([path.stem] + owner))
        assert users == []


class TestEigh:
    def test_diagonal_input_sorts_with_permutation_vectors(self):
        w, u = _eigh_raw(np.diag([3.0, -2.0, 5.0]))
        assert np.array_equal(w, np.array([-2.0, 3.0, 5.0]))
        # diagonal input is already reduced, so the vectors are exactly
        # columns of the identity, reordered by eigenvalue, up to sign
        expect = np.eye(3)[:, [1, 0, 2]]
        assert np.array_equal(np.abs(u), expect)

    def test_exchange_matrix(self):
        w, u = _eigh_raw(np.array([[0.0, 1.0], [1.0, 0.0]]))
        r = math.sqrt(0.5)
        assert w == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert u[:, 0] * np.sign(u[0, 0]) == pytest.approx([r, -r], abs=1e-12)
        assert u[:, 1] * np.sign(u[0, 1]) == pytest.approx([r, r], abs=1e-12)

    def test_construct_then_recover(self, rng):
        # plant a known spectrum via an orthogonal conjugation built
        # independently of the solver under test
        d = np.array([-3.0, -0.5, 0.0, 1.25, 4.0])
        for _ in range(10):
            q = random_orthogonal(rng, 5)
            assert _eigvals_raw(q @ np.diag(d) @ q.T) == pytest.approx(d, abs=1e-10)

    def test_reconstruction_and_orthogonality(self, rng):
        for n in [*range(1, 9), 16, 32]:
            for _ in range(5):
                a = random_symmetric(rng, n)
                w, u = _eigh_raw(a)
                assert np.abs(u @ u.T - np.eye(n)).max() <= 1e-10
                assert np.abs((u * w) @ u.T - a).max() <= 1e-9

    def test_matches_independent_solver(self, rng):
        for _ in range(20):
            a = random_symmetric(rng, 6)
            assert _eigvals_raw(a) == pytest.approx(np.linalg.eigvalsh(a), abs=1e-10)

    def test_spectral_functions_ignore_eigenvector_signs(self, rng):
        # U f(w) U^T formed from unfixed _eigh_raw columns, as the clipped
        # spectra in saddle and the exponentials in sample_spectraplex are:
        # negating a column is exact and cancels, so the floats match the
        # product formed from columns whose first nonzero entry is made positive
        q = random_orthogonal(rng, 5)
        inputs = [random_symmetric(rng, n) for n in (1, 2, 5, 8)]
        inputs += [
            np.diag([3.0, -2.0, 5.0, 0.5]),
            q @ np.diag([1.0, 1.0, 2.0, 2.0, 2.0]) @ q.T,
            q @ np.diag([-1.5, -1.5, -1.5, 0.0, 4.0]) @ q.T,
            np.eye(4),
            np.zeros((3, 3)),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
        ]
        flipped = 0
        for b in inputs:
            b = (b + b.T) / 2.0
            w, u = _eigh_raw(b)
            first = u[np.argmax(u != 0.0, axis=0), np.arange(u.shape[1])]
            fixed = u * np.where(first < 0.0, -1.0, 1.0)
            flipped += bool((first < 0.0).any())
            for f in (np.exp, lambda v: np.maximum(v, 0.0)):
                raw = (u * f(w)) @ u.T
                signed = (fixed * f(w)) @ fixed.T
                assert raw.tobytes() == signed.tobytes()
        # the comparison only means something where a column was negated
        assert flipped >= 3

    def test_deterministic(self, rng):
        a = random_symmetric(rng, 6)
        (w1, u1), (w2, u2) = _eigh_raw(a), _eigh_raw(a)
        assert np.array_equal(w1, w2)
        assert np.array_equal(u1, u2)


class TestLambdaMin:
    def test_identity(self):
        assert lambda_min(np.eye(3)) == 1.0

    def test_diagonal(self):
        assert lambda_min(np.diag([3.0, -2.0, 5.0])) == -2.0

    def test_half_sum_of_anticommuting_pair(self):
        # closed form for [[.5, .5], [.5, -.5]]: +-sqrt(1/2)
        a = np.array([[0.5, 0.5], [0.5, -0.5]])
        lo, hi = eig2x2_closed_form(0.5, 0.5, -0.5)
        assert lo == -math.sqrt(0.5)
        assert lambda_min(a) == pytest.approx(lo, abs=1e-12)
        assert -lambda_min(-a) == pytest.approx(hi, abs=1e-12)

    def test_agrees_with_eigh(self, rng):
        # the solver's bracket reads the same LAPACK call, so equality is exact
        for _ in range(10):
            a = random_symmetric(rng, 6)
            assert lambda_min(a) == np.linalg.eigh(a)[0][0]

    def test_shift_covariance(self, rng):
        for _ in range(10):
            a = random_symmetric(rng, 5)
            c = float(rng.uniform(-3, 3))
            shifted = a + c * np.eye(len(a))
            assert lambda_min(shifted) == pytest.approx(lambda_min(a) + c, abs=1e-10)

